//! Time sources for measurement.
//!
//! All profiler timestamps are `u64` nanoseconds from an arbitrary origin.
//! [`MonotonicClock`] wraps `std::time::Instant` for real measurements;
//! [`VirtualClock`] is a manually-advanced counter used by tests and the
//! event-replay examples to reproduce the paper's figures with exact
//! numbers.
//!
//! # Per-thread readers (the sharded fast path)
//!
//! The per-event cost of a monitor is dominated by its clock reads, so the
//! event fast path must not chase shared pointers to obtain a timestamp.
//! [`ClockSource`] lets a clock hand out a cheap per-thread
//! [`ClockReader`] at `thread_begin`: the reader caches whatever
//! calibration state the clock needs so that every subsequent `now()`
//! touches thread-local state only. For [`MonotonicClock`] on x86-64 that
//! state is a TSC anchor — the cycle counter calibrated once per process
//! against the OS monotonic clock — so a read is one `rdtsc` plus an
//! integer multiply-shift instead of a `clock_gettime` call; elsewhere (or if
//! calibration fails) the reader falls back to a copied origin `Instant`.
//! [`VirtualClock`] readers share the underlying atomic counter, so
//! deterministic tests still observe `set`/`advance` calls made from the
//! driver.
//!
//! The portable (non-TSC) fallback can be forced on x86-64 with
//! `--cfg taskprof_portable_clock` (`RUSTFLAGS`), which is how CI
//! compile-checks the path other architectures take without needing a
//! cross toolchain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond time source.
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's origin. Must be monotonic per thread.
    fn now(&self) -> u64;
}

/// A per-thread timestamp reader handed out by a [`ClockSource`].
///
/// Readers are owned by exactly one thread and live on that thread's
/// measurement shard; `now()` must not acquire locks or dereference
/// shared monitor state beyond what the clock semantically requires.
pub trait ClockReader: Send {
    /// Nanoseconds since the source clock's origin, consistent with the
    /// source's own [`Clock::now`].
    fn now(&self) -> u64;
}

/// A clock that can hand out per-thread [`ClockReader`]s with cached
/// calibration state. This is what the profiler's sharded fast path
/// requires; plain [`Clock`] remains object-safe for coarse uses.
pub trait ClockSource: Clock {
    /// The per-thread reader type.
    type Reader: ClockReader + 'static;

    /// Create a reader for the calling thread. Readers are cheap; one is
    /// created per thread per parallel region.
    fn thread_reader(&self) -> Self::Reader;
}

/// Real time via `std::time::Instant`, origin = construction time.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl MonotonicClock {
    /// Clock with origin "now".
    pub fn new() -> Self {
        // Force the process-wide TSC calibration here, at measurement
        // setup, so the one-time spin never lands inside a timed region
        // via the first `thread_reader()` call.
        #[cfg(all(target_arch = "x86_64", not(taskprof_portable_clock)))]
        tsc::ns_per_tick();
        Self {
            origin: Instant::now(),
        }
    }
}

impl Clock for MonotonicClock {
    #[inline]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Calibrated time-stamp-counter access (x86-64 only).
#[cfg(all(target_arch = "x86_64", not(taskprof_portable_clock)))]
mod tsc {
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    #[inline]
    pub(super) fn read() -> u64 {
        // SAFETY: `rdtsc` has no preconditions on x86-64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// Nanoseconds per TSC tick, calibrated once per process against the
    /// OS monotonic clock over a short spin. `None` when the result is
    /// implausible (TSC stopped, virtualized away, or wildly off), in
    /// which case readers fall back to `Instant`.
    pub(super) fn ns_per_tick() -> Option<f64> {
        static CAL: OnceLock<Option<f64>> = OnceLock::new();
        *CAL.get_or_init(|| {
            let i0 = Instant::now();
            let t0 = read();
            while i0.elapsed() < Duration::from_millis(5) {
                std::hint::spin_loop();
            }
            let dns = i0.elapsed().as_nanos() as f64;
            let dticks = read().wrapping_sub(t0);
            if dticks == 0 {
                return None;
            }
            let k = dns / dticks as f64;
            (0.01..=100.0).contains(&k).then_some(k)
        })
    }
}

/// A TSC anchor pinning a reader's cycle counter to the source clock's
/// nanosecond timeline at reader creation.
#[cfg(all(target_arch = "x86_64", not(taskprof_portable_clock)))]
#[derive(Clone, Copy, Debug)]
struct TscAnchor {
    /// Clock time (ns since the source's origin) when the anchor was set.
    origin_ns: u64,
    /// TSC value when the anchor was set.
    origin_tick: u64,
    /// Process-wide calibration factor, as [`TickScale`].
    scale: TickScale,
}

/// Nanoseconds per tick as a fixed-point multiplier: ticks become
/// nanoseconds with one widening multiply and a shift, where the
/// u64 → f64 → u64 round trip cost two conversions and a float multiply
/// on every clock read.
#[cfg(any(test, all(target_arch = "x86_64", not(taskprof_portable_clock))))]
#[derive(Clone, Copy, Debug)]
struct TickScale(u64);

#[cfg(any(test, all(target_arch = "x86_64", not(taskprof_portable_clock))))]
impl TickScale {
    /// Fraction bits. Rounding the factor to `2^-FRAC_BITS` drifts by up
    /// to `ticks * 2^-(FRAC_BITS + 1)` ns: with 32 bits that is 1.3 µs
    /// per hour at 3 GHz, with 40 it is 5 ns — and under 1 µs even at
    /// the fastest rate calibration accepts (0.01 ns/tick). The product
    /// is 128 bits wide whatever the split, so the width costs nothing;
    /// the slowest accepted rate (100 ns/tick) fits in 47 bits.
    const FRAC_BITS: u32 = 40;

    fn new(ns_per_tick: f64) -> Self {
        Self((ns_per_tick * (1u64 << Self::FRAC_BITS) as f64).round() as u64)
    }

    /// `ticks` in nanoseconds, rounded down (so monotonic in `ticks`).
    #[inline]
    fn ns(self, ticks: u64) -> u64 {
        ((u128::from(ticks) * u128::from(self.0)) >> Self::FRAC_BITS) as u64
    }
}

/// Per-thread reader of a [`MonotonicClock`] — the cached calibrated
/// clock read of the sharded fast path. On x86-64 it carries a
/// [`TscAnchor`] so `now()` is one `rdtsc` plus a multiply-shift; otherwise (or
/// when calibration fails) it is a copied origin `Instant`. Either way,
/// zero shared state.
///
/// Readers are anchored to the source clock's timeline when created and
/// live for one parallel region, so cross-thread skew is bounded by the
/// calibration error over a region's duration.
#[derive(Clone, Copy, Debug)]
pub struct MonotonicReader {
    origin: Instant,
    #[cfg(all(target_arch = "x86_64", not(taskprof_portable_clock)))]
    tsc: Option<TscAnchor>,
}

impl ClockReader for MonotonicReader {
    #[inline]
    fn now(&self) -> u64 {
        #[cfg(all(target_arch = "x86_64", not(taskprof_portable_clock)))]
        if let Some(a) = self.tsc {
            let dticks = tsc::read().wrapping_sub(a.origin_tick);
            return a.origin_ns + a.scale.ns(dticks);
        }
        self.origin.elapsed().as_nanos() as u64
    }
}

impl ClockSource for MonotonicClock {
    type Reader = MonotonicReader;

    #[inline]
    fn thread_reader(&self) -> MonotonicReader {
        MonotonicReader {
            origin: self.origin,
            #[cfg(all(target_arch = "x86_64", not(taskprof_portable_clock)))]
            tsc: tsc::ns_per_tick().map(|ns_per_tick| TscAnchor {
                origin_ns: self.origin.elapsed().as_nanos() as u64,
                origin_tick: tsc::read(),
                scale: TickScale::new(ns_per_tick),
            }),
        }
    }
}

/// Deterministic clock: `now()` returns the last value set or advanced to.
///
/// Clones share the underlying counter (so do the per-thread readers it
/// hands out), which lets a test driver keep a handle while the monitor
/// owns another. The caller is responsible for only advancing it from one
/// place at a time in deterministic tests.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    t: Arc<AtomicU64>,
}

impl VirtualClock {
    /// New clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// New clock starting at `t` nanoseconds.
    pub fn starting_at(t: u64) -> Self {
        let c = Self::new();
        c.set(t);
        c
    }

    /// Advance by `dt` nanoseconds, returning the new time.
    pub fn advance(&self, dt: u64) -> u64 {
        self.t.fetch_add(dt, Ordering::Relaxed) + dt
    }

    /// Jump to an absolute time. Must not go backwards (debug-asserted).
    pub fn set(&self, t: u64) {
        debug_assert!(
            t >= self.t.load(Ordering::Relaxed),
            "virtual clock moved backwards"
        );
        self.t.store(t, Ordering::Relaxed);
    }

    /// Current virtual time. Inherent so `c.now()` stays unambiguous even
    /// though `VirtualClock` is both a [`Clock`] and its own
    /// [`ClockReader`].
    #[inline]
    pub fn now(&self) -> u64 {
        self.t.load(Ordering::Relaxed)
    }
}

impl Clock for VirtualClock {
    #[inline]
    fn now(&self) -> u64 {
        self.t.load(Ordering::Relaxed)
    }
}

impl ClockReader for VirtualClock {
    #[inline]
    fn now(&self) -> u64 {
        self.t.load(Ordering::Relaxed)
    }
}

impl ClockSource for VirtualClock {
    type Reader = VirtualClock;

    #[inline]
    fn thread_reader(&self) -> VirtualClock {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotonic() {
        let c = MonotonicClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(5), 5);
        assert_eq!(c.advance(3), 8);
        assert_eq!(c.now(), 8);
        c.set(100);
        assert_eq!(c.now(), 100);
    }

    #[test]
    fn clock_is_object_safe() {
        let c: Box<dyn Clock> = Box::new(VirtualClock::starting_at(7));
        assert_eq!(c.now(), 7);
    }

    #[test]
    fn monotonic_reader_agrees_with_source() {
        let c = MonotonicClock::new();
        let r = c.thread_reader();
        let a = c.now();
        let b = r.now();
        // Same origin: the reader's timeline is the clock's timeline. The
        // TSC calibration may sit a hair behind the raw clock_gettime
        // read, so bound the skew in either direction instead of assuming
        // the reader always lands second.
        let skew = a.abs_diff(b);
        assert!(
            skew < 1_000_000_000,
            "reader diverged from source: {skew}ns"
        );
    }

    #[test]
    fn monotonic_reader_tracks_real_time() {
        let c = MonotonicClock::new();
        let r = c.thread_reader();
        let start = r.now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let elapsed = r.now() - start;
        // The TSC-calibrated path must agree with wall time to well under
        // a percent; allow generous slack for scheduler delay on top of
        // the sleep (only the lower bound is tight).
        assert!(elapsed >= 19_000_000, "reader ran fast: {elapsed} ns");
        assert!(elapsed < 2_000_000_000, "reader ran wild: {elapsed} ns");
    }

    #[test]
    fn monotonic_reader_is_monotonic() {
        let c = MonotonicClock::new();
        let r = c.thread_reader();
        let mut prev = r.now();
        for _ in 0..10_000 {
            let t = r.now();
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn tick_scale_agrees_with_the_float_formula_over_an_hour() {
        // Calibration accepts 0.01..=100 ns/tick; real TSCs sit around
        // 0.25..1. An hour of ticks at each rate, sampled densely enough
        // to catch a drift that grows with the tick count.
        for ns_per_tick in [0.01, 0.2, 0.3, 1.0 / 3.0, 0.37, 0.4, 0.5, 1.0, 41.67, 100.0] {
            let scale = TickScale::new(ns_per_tick);
            let hour_ticks = (3.6e12 / ns_per_tick) as u64;
            let mut prev = 0;
            for k in 0..=10_000u64 {
                let ticks = hour_ticks / 10_000 * k + k % 7;
                let fixed = scale.ns(ticks);
                let float = (ticks as f64 * ns_per_tick) as u64;
                assert!(
                    fixed.abs_diff(float) < 1_000,
                    "{ns_per_tick} ns/tick, {ticks} ticks: {fixed} vs {float}"
                );
                assert!(fixed >= prev, "went backwards at {ticks} ticks");
                prev = fixed;
            }
        }
    }

    #[test]
    fn tick_scale_is_monotonic_tick_by_tick() {
        let scale = TickScale::new(0.3571);
        let mut prev = 0;
        for ticks in (0..50_000u64).chain(u64::MAX - 50_000..=u64::MAX) {
            let ns = scale.ns(ticks);
            assert!(ns >= prev, "went backwards at {ticks} ticks");
            prev = ns;
        }
    }

    #[test]
    fn virtual_readers_share_the_counter() {
        let c = VirtualClock::new();
        let r = c.thread_reader();
        c.set(42);
        assert_eq!(ClockReader::now(&r), 42);
        let c2 = c.clone();
        c2.set(50);
        assert_eq!(Clock::now(&c), 50);
    }
}
