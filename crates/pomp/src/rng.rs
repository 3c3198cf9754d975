//! The workspace's one seeded pseudo-random generator.
//!
//! Splitmix64: tiny, fast, and good enough equidistribution for what it
//! is used for — BOTS input generation (including the `health` kernel's
//! draws inside timed code), simsched's scheduling choices and every
//! property test drawn through them, the disk-fault plans of
//! `profstore`, and export retry jitter. What matters is not statistical
//! quality but that every run with the same seed makes the same sequence
//! of draws. It lives here because every crate that draws already depends
//! on `pomp`; the methods are `#[inline]` so kernels in other crates keep
//! inlining them.

/// The splitmix64 state increment, ⌊2^64/φ⌋. Also the multiplier of
/// Fibonacci hashing (`critpath`'s id hasher).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A splitmix64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator seeded with `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Value in `[0, bound)`, as `next_u64() % bound` (`bound` must be
    /// nonzero).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a 64-bit: a seed (or a shard route) from bytes, stable across
/// processes and platforms.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_outputs_are_the_splitmix64_reference() {
        let first = |seed| {
            let mut r = SplitMix64::new(seed);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(
            first(0),
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
        assert_eq!(
            first(7),
            [
                0x63CB_E1E4_5932_0DD7,
                0x044C_3CD7_F43C_661C,
                0xE698_4080_BAB1_2A02
            ]
        );
        assert_eq!(
            first(42),
            [
                0xBDD7_3226_2FEB_6E95,
                0x28EF_E333_B266_F103,
                0x4752_6757_130F_9F52
            ]
        );
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = SplitMix64::new(1);
        for n in 1..20 {
            for _ in 0..50 {
                assert!(r.below(n) < n);
            }
        }
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.unit_f64()));
        }
    }

    #[test]
    fn fnv1a_is_the_reference() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
