//! Shared utilities for the BOTS kernels: raw-pointer wrappers for
//! disjoint concurrent writes (the idiom the C originals use implicitly)
//! and a checksum for floating-point results. Inputs are drawn from
//! [`pomp::SplitMix64`].

/// A `Send + Sync` raw pointer to a single value.
///
/// BOTS kernels let child tasks write results into stack slots of the
/// parent task, which is safe because the parent `taskwait`s before
/// reading. `SendPtr` expresses that idiom; every dereference is `unsafe`
/// and the caller must uphold the BOTS discipline: the pointee outlives all
/// tasks that use the pointer, and no two concurrent tasks access the same
/// pointee.
#[derive(Debug)]
pub struct SendPtr<T>(pub *mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: see type docs — all access is unsafe and caller-disciplined.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wrap a mutable reference.
    pub fn new(r: &mut T) -> Self {
        Self(r as *mut T)
    }

    /// Write through the pointer.
    ///
    /// # Safety
    /// Pointee alive; no concurrent access to the same pointee.
    #[inline]
    pub unsafe fn write(self, v: T) {
        *self.0 = v;
    }

    /// Mutable reference to the pointee.
    ///
    /// # Safety
    /// Pointee alive; no concurrent access to the same pointee.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn as_mut<'a>(self) -> &'a mut T {
        &mut *self.0
    }
}

/// A `Send + Sync` raw view of a slice that tasks index disjointly.
///
/// Used by sort/fft/strassen/sparselu where sibling tasks write disjoint
/// ranges of one buffer.
#[derive(Debug)]
pub struct RawSlice<T> {
    ptr: *mut T,
    len: usize,
}

impl<T> Clone for RawSlice<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RawSlice<T> {}

// SAFETY: see type docs.
unsafe impl<T> Send for RawSlice<T> {}
unsafe impl<T> Sync for RawSlice<T> {}

impl<T> RawSlice<T> {
    /// View of a whole slice.
    pub fn new(s: &mut [T]) -> Self {
        Self {
            ptr: s.as_mut_ptr(),
            len: s.len(),
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for an empty view.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable sub-slice `[start, start+len)`.
    ///
    /// # Safety
    /// Underlying buffer alive; no concurrent task touches an overlapping
    /// range; bounds within `self.len()`.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut<'a>(&self, start: usize, len: usize) -> &'a mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Shared sub-slice `[start, start+len)`.
    ///
    /// # Safety
    /// Underlying buffer alive; no concurrent writer overlaps the range.
    #[inline]
    pub unsafe fn range<'a>(&self, start: usize, len: usize) -> &'a [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts(self.ptr.add(start), len)
    }
}

/// Order-independent checksum of f64 data (sum of bit patterns folded),
/// tolerant formatting for EXPERIMENTS.md comparisons is done elsewhere.
pub fn checksum_f64(data: impl IntoIterator<Item = f64>) -> u64 {
    let mut acc = 0u64;
    for v in data {
        // Quantize to escape scheduling-order-dependent rounding noise.
        let q = (v * 1e6).round() as i64;
        acc = acc.wrapping_add(q as u64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sendptr_roundtrip() {
        let mut x = 1u64;
        let p = SendPtr::new(&mut x);
        unsafe { p.write(42) };
        assert_eq!(x, 42);
        unsafe {
            *p.as_mut() += 1;
        }
        assert_eq!(x, 43);
    }

    #[test]
    fn rawslice_disjoint_ranges() {
        let mut v = vec![0u32; 10];
        let rs = RawSlice::new(&mut v);
        assert_eq!(rs.len(), 10);
        let (a, b) = unsafe { (rs.range_mut(0, 5), rs.range_mut(5, 5)) };
        a.fill(1);
        b.fill(2);
        assert_eq!(v[4], 1);
        assert_eq!(v[5], 2);
    }

    #[test]
    fn checksum_is_order_independent() {
        let a = checksum_f64([1.5, 2.25, -3.0]);
        let b = checksum_f64([-3.0, 1.5, 2.25]);
        assert_eq!(a, b);
    }
}
