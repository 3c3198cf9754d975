//! The suite's one counting allocator: allocations and live bytes of the
//! calling thread, so the test harness's other threads cannot disturb a
//! count.
//!
//! A test binary that wants counts installs it itself —
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: test_util::alloc::CountingAlloc = test_util::alloc::CountingAlloc;
//! ```
//!
//! — and wraps the code under test in [`measure`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards every call to the system allocator and counts it on the
/// calling thread.
pub struct CountingAlloc;

/// What [`measure`] saw on the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// High-water mark of bytes allocated and not yet freed, counted from
    /// the start of the measurement.
    pub peak_live_bytes: usize,
}

#[derive(Clone, Copy)]
struct Counters {
    allocs: u64,
    /// Signed: the thread may free what it allocated before measuring.
    live: isize,
    peak: isize,
}

thread_local! {
    static COUNTERS: Cell<Counters> = const { Cell::new(Counters { allocs: 0, live: 0, peak: 0 }) };
}

fn count(allocs: u64, bytes: isize) {
    // `try_with`: an allocation while the thread tears its locals down
    // must not panic inside the allocator.
    let _ = COUNTERS.try_with(|c| {
        let mut n = c.get();
        n.allocs += allocs;
        n.live += bytes;
        n.peak = n.peak.max(n.live);
        c.set(n);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are a
// thread-local cell with a constant initialiser and no destructor, so
// touching them never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as isize));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as isize - layout.size() as isize);
        // SAFETY: `ptr`/`layout` come from `System`; `new_size` is the
        // caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` and report what it allocated on this thread.
///
/// # Panics
///
/// Panics if [`CountingAlloc`] is not the binary's `#[global_allocator]`:
/// every count would read 0 and every upper bound pass vacuously.
pub fn measure(f: impl FnOnce()) -> AllocStats {
    let allocs_before = COUNTERS.with(Cell::get).allocs;
    drop(std::hint::black_box(Box::new(0u8)));
    assert!(
        COUNTERS.with(Cell::get).allocs > allocs_before,
        "test_util::alloc::CountingAlloc is not this binary's #[global_allocator]"
    );
    let start = COUNTERS.with(|c| {
        let mut n = c.get();
        n.live = 0;
        n.peak = 0;
        c.set(n);
        n
    });
    f();
    let end = COUNTERS.with(Cell::get);
    AllocStats {
        allocs: end.allocs - start.allocs,
        peak_live_bytes: end.peak as usize,
    }
}
