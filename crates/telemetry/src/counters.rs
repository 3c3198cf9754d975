//! The lock-free counter core: per-shard slots written by exactly one
//! measurement thread each, aggregated only on read.
//!
//! # Memory ordering
//!
//! Every counter is an `AtomicU64` accessed with `Ordering::Relaxed`.
//! That is sufficient — and the whole point — because telemetry needs
//! *eventual per-counter accuracy*, not a consistent cut across counters:
//!
//! * each slot has a single writer (the owning measurement thread), so
//!   per-counter updates are never lost and each counter read observes a
//!   monotone prefix of its writer's updates;
//! * readers tolerate skew *between* counters (a snapshot may see a task
//!   counted as created but not yet completed — which is also the truth a
//!   moment earlier);
//! * once the session quiesces (threads ended), the thread-end hand-off
//!   in the profiling monitor provides the release/acquire edge (a
//!   thread's last counter updates come before it releases the monitor's
//!   lock, which the drain then takes), so final counter reads are exact.
//!
//! # Why plain load+store instead of `fetch_add`
//!
//! Because a slot has exactly one writer, every hot-path update is a
//! relaxed *load + store* pair, not an atomic read-modify-write: an
//! uncontended `lock xadd` still costs ~20 cycles on x86, which would eat
//! the <5% telemetry budget several times over at one-RMW-per-event. The
//! single-writer guarantee is enforced, not assumed: a 64-bit claim
//! bitmask hands each [`ThreadTelemetry`] an exclusive slot
//! (acquire/release on the bitmask at thread begin/end provides the
//! hand-over edge between successive owners of a reused slot). When more
//! than [`MAX_TELEMETRY_SHARDS`] threads are live at once, the overflow
//! handles share one extra slot and fall back to real RMWs there —
//! counters stay exact at any team size; only the fast path is reserved
//! for the common one.

use crate::snapshot::TelemetrySnapshot;
use pomp::EventClass;
use std::cell::Cell;
use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;

/// Number of exclusive per-thread counter slots. Threads beyond this many
/// *concurrently live* ones share one overflow slot (updated with atomic
/// RMWs): counters stay exact, only the per-slot live-tree gauge and
/// high-water mark blur together for the overflow threads of a > 64-thread
/// team.
pub const MAX_TELEMETRY_SHARDS: usize = 64;

/// Default perturbation sampling period (1-in-N events also time
/// themselves). 256 keeps the sampled clock reads comfortably inside
/// the documented <5% per-event telemetry budget (at 64 the two extra
/// clock reads on every 64th event crept to ~5.5% on fast hardware);
/// the estimator stays unbiased, it just converges a little slower.
pub const DEFAULT_SAMPLE_EVERY: u32 = 256;

const CLASSES: usize = EventClass::COUNT;

/// One thread's counter slot, padded to avoid false sharing between
/// neighbouring writer threads.
#[repr(align(128))]
#[derive(Default)]
struct ShardSlot {
    /// Hook invocations per event class.
    events: [AtomicU64; CLASSES],
    /// Sampled self-timing: sample count per class.
    perturb_samples: [AtomicU64; CLASSES],
    /// Sampled self-timing: summed sampled cost per class, ns.
    perturb_ns: [AtomicU64; CLASSES],
    tasks_created: AtomicU64,
    tasks_completed: AtomicU64,
    tasks_aborted: AtomicU64,
    tasks_shed: AtomicU64,
    /// Task fragments executed (paper Section IV-B4: each resumption of
    /// an explicit task on a thread is one fragment).
    fragments: AtomicU64,
    /// Total time spent executing explicit task fragments, ns — the live
    /// equivalent of the stub-node time in the implicit task's tree.
    stub_time_ns: AtomicU64,
    /// Instance trees currently live on this shard (gauge).
    live_trees: AtomicU64,
    /// High-water mark of `live_trees` (paper Table II, per thread).
    live_trees_hwm: AtomicU64,
}

/// Telemetry configuration, validated by the profiling monitor's builder.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Perturbation sampling period: every `sample_every`-th event also
    /// times itself. Must be ≥ 1 (1 = time every event).
    pub sample_every: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            sample_every: DEFAULT_SAMPLE_EVERY,
        }
    }
}

/// The shared telemetry state of one measurement session. Writers go
/// through [`ThreadTelemetry`] handles; any thread may call
/// [`TelemetryCore::snapshot`] at any time.
pub struct TelemetryCore {
    /// `MAX_TELEMETRY_SHARDS` exclusive slots plus one shared overflow
    /// slot at index `MAX_TELEMETRY_SHARDS`.
    slots: Box<[ShardSlot]>,
    /// Bit `i` set ⇔ exclusive slot `i` is claimed by a live writer.
    claim_mask: AtomicU64,
    sample_every: u32,
    // Region-boundary counters (shared; touched only at thread begin/end
    // and profile collection, never on the per-event path).
    threads_started: AtomicU64,
    threads_finished: AtomicU64,
    snapshots_published: AtomicU64,
    snapshots_collected: AtomicU64,
    arenas_recycled: AtomicU64,
    arenas_allocated: AtomicU64,
    arenas_returned: AtomicU64,
}

impl std::fmt::Debug for TelemetryCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryCore")
            .field("sample_every", &self.sample_every)
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl TelemetryCore {
    /// Fresh counters, all zero.
    pub fn new(config: TelemetryConfig) -> Self {
        let slots = (0..=MAX_TELEMETRY_SHARDS)
            .map(|_| ShardSlot::default())
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            claim_mask: AtomicU64::new(0),
            sample_every: config.sample_every.max(1),
            threads_started: AtomicU64::new(0),
            threads_finished: AtomicU64::new(0),
            snapshots_published: AtomicU64::new(0),
            snapshots_collected: AtomicU64::new(0),
            arenas_recycled: AtomicU64::new(0),
            arenas_allocated: AtomicU64::new(0),
            arenas_returned: AtomicU64::new(0),
        }
    }

    /// The configured perturbation sampling period.
    pub fn sample_every(&self) -> u32 {
        self.sample_every
    }

    /// Claim an exclusive slot, preferring the team-local `tid`'s bit so
    /// per-slot gauges map stably onto threads. `Acquire` on success pairs
    /// with the `Release` in [`ThreadTelemetry`]'s drop: the new owner
    /// sees every store of the slot's previous owner.
    fn claim_slot(&self, preferred: usize) -> Option<usize> {
        let pref_bit = 1u64 << (preferred % MAX_TELEMETRY_SHARDS);
        let mut mask = self.claim_mask.load(Relaxed);
        loop {
            let free = !mask;
            if free == 0 {
                return None;
            }
            let bit = if free & pref_bit != 0 {
                pref_bit
            } else {
                free & free.wrapping_neg() // lowest free bit
            };
            match self
                .claim_mask
                .compare_exchange_weak(mask, mask | bit, Acquire, Relaxed)
            {
                Ok(_) => return Some(bit.trailing_zeros() as usize),
                Err(seen) => mask = seen,
            }
        }
    }

    /// Writer handle for the measurement thread with team-local id `tid`.
    /// The handle owns an exclusive slot for its lifetime (plain
    /// load+store updates); if all [`MAX_TELEMETRY_SHARDS`] slots are
    /// claimed it shares the overflow slot and updates it with RMWs.
    pub fn thread_handle(self: &Arc<Self>, tid: usize) -> ThreadTelemetry {
        self.threads_started.fetch_add(1, Relaxed);
        let (slot, exclusive) = match self.claim_slot(tid) {
            Some(s) => (s, true),
            None => (MAX_TELEMETRY_SHARDS, false),
        };
        ThreadTelemetry {
            core: Arc::clone(self),
            slot,
            exclusive,
            countdown: Cell::new(self.sample_every),
            in_fragment: Cell::new(false),
            frag_start: Cell::new(0),
        }
    }

    /// A completed per-thread profile snapshot was published onto the
    /// hand-off stack.
    pub fn note_snapshot_published(&self) {
        self.snapshots_published.fetch_add(1, Relaxed);
        self.threads_finished.fetch_add(1, Relaxed);
    }

    /// `n` published snapshots were drained by profile collection.
    pub fn note_snapshots_collected(&self, n: u64) {
        self.snapshots_collected.fetch_add(n, Relaxed);
    }

    /// A thread beginning a region stole a recycled arena from the spare
    /// pool.
    pub fn note_arena_recycled(&self) {
        self.arenas_recycled.fetch_add(1, Relaxed);
    }

    /// The spare pool was empty; a fresh arena was allocated.
    pub fn note_arena_allocated(&self) {
        self.arenas_allocated.fetch_add(1, Relaxed);
    }

    /// A finished thread returned its arena to the spare pool.
    pub fn note_arena_returned(&self) {
        self.arenas_returned.fetch_add(1, Relaxed);
    }

    /// Aggregate every slot into a plain snapshot. Safe from any thread at
    /// any time; during an active region the result is a slightly stale
    /// but per-counter-consistent view (see the module docs).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::default();
        for slot in self.slots.iter() {
            for (i, e) in slot.events.iter().enumerate() {
                s.events[i] += e.load(Relaxed);
                s.perturb_samples[i] += slot.perturb_samples[i].load(Relaxed);
                s.perturb_ns[i] += slot.perturb_ns[i].load(Relaxed);
            }
            s.tasks_created += slot.tasks_created.load(Relaxed);
            s.tasks_completed += slot.tasks_completed.load(Relaxed);
            s.tasks_aborted += slot.tasks_aborted.load(Relaxed);
            s.tasks_shed += slot.tasks_shed.load(Relaxed);
            s.fragments += slot.fragments.load(Relaxed);
            s.stub_time_ns += slot.stub_time_ns.load(Relaxed);
            s.live_trees += slot.live_trees.load(Relaxed);
            s.live_trees_hwm = s.live_trees_hwm.max(slot.live_trees_hwm.load(Relaxed));
        }
        let started = self.threads_started.load(Relaxed);
        let finished = self.threads_finished.load(Relaxed);
        s.threads_active = started.saturating_sub(finished);
        let published = self.snapshots_published.load(Relaxed);
        let collected = self.snapshots_collected.load(Relaxed);
        s.handoff_depth = published.saturating_sub(collected);
        let returned = self.arenas_returned.load(Relaxed);
        let recycled = self.arenas_recycled.load(Relaxed);
        s.spare_arenas = returned.saturating_sub(recycled);
        s.arenas_recycled = recycled;
        s.arenas_allocated = self.arenas_allocated.load(Relaxed);
        s
    }
}

/// Thread-owned telemetry write handle: every method is a handful of
/// relaxed loads and stores on the thread's own cache-line-padded slot,
/// plus plain `Cell` state for the 1-in-N sampling countdown and fragment
/// timing. Not `Sync`; the profiling monitor hands one to each
/// measurement thread. Dropping the handle releases its slot for reuse.
pub struct ThreadTelemetry {
    core: Arc<TelemetryCore>,
    slot: usize,
    /// `true` while this handle is the slot's only writer (the common
    /// case): updates are plain load+store. The overflow slot is shared
    /// and needs real RMWs.
    exclusive: bool,
    /// Sampling countdown; hitting zero elects the event for self-timing
    /// and reloads the period. A plain cell keeps the steady-state branch
    /// to a decrement + compare.
    countdown: Cell<u32>,
    in_fragment: Cell<bool>,
    frag_start: Cell<u64>,
}

impl Drop for ThreadTelemetry {
    fn drop(&mut self) {
        if self.exclusive {
            // Release the slot; pairs with the Acquire in `claim_slot` so
            // the next owner observes all of this thread's plain stores.
            self.core
                .claim_mask
                .fetch_and(!(1u64 << self.slot), Release);
        }
    }
}

impl ThreadTelemetry {
    #[inline]
    fn slot(&self) -> &ShardSlot {
        // `claim_slot` / the overflow fallback keep the index in bounds;
        // indexing here is branch-predicted away.
        &self.core.slots[self.slot]
    }

    /// Add `n` to a counter in this handle's slot. Exclusive slots take
    /// the single-writer fast path (relaxed load + store, no `lock`
    /// prefix); the shared overflow slot needs the RMW.
    #[inline]
    fn bump(&self, counter: &AtomicU64, n: u64) {
        if self.exclusive {
            counter.store(counter.load(Relaxed).wrapping_add(n), Relaxed);
        } else {
            counter.fetch_add(n, Relaxed);
        }
    }

    /// The shared core (for tests and for wiring collection-side hooks).
    pub fn core(&self) -> &Arc<TelemetryCore> {
        &self.core
    }

    /// Count one event of `class`; returns `true` when this event is
    /// elected for perturbation self-timing (1-in-N). The caller then
    /// reads its clock once more and reports the cost via
    /// [`ThreadTelemetry::record_cost`].
    #[inline]
    pub fn tick(&self, class: EventClass) -> bool {
        self.bump(&self.slot().events[class.index()], 1);
        let c = self.countdown.get();
        if c > 1 {
            self.countdown.set(c - 1);
            false
        } else {
            self.countdown.set(self.core.sample_every);
            true
        }
    }

    /// Record a sampled self-timing of one `class` event, ns.
    #[inline]
    pub fn record_cost(&self, class: EventClass, ns: u64) {
        let s = self.slot();
        self.bump(&s.perturb_samples[class.index()], 1);
        self.bump(&s.perturb_ns[class.index()], ns);
    }

    /// One deferred task instance was created.
    #[inline]
    pub fn task_created(&self) {
        self.bump(&self.slot().tasks_created, 1);
    }

    /// One task instance completed normally.
    #[inline]
    pub fn task_completed(&self) {
        self.bump(&self.slot().tasks_completed, 1);
    }

    /// One task instance aborted (panicked or force-closed).
    #[inline]
    pub fn task_aborted(&self) {
        self.bump(&self.slot().tasks_aborted, 1);
    }

    /// One instance degraded to counting-only by the live-tree cap.
    #[inline]
    pub fn task_shed(&self) {
        self.bump(&self.slot().tasks_shed, 1);
    }

    /// Publish the thread's current live-instance-tree count and fold it
    /// into the high-water mark.
    #[inline]
    pub fn update_live(&self, live: u64) {
        let s = self.slot();
        s.live_trees.store(live, Relaxed);
        if self.exclusive {
            // Single writer: the compare is against our own last store, so
            // a plain conditional store is a race-free max.
            if live > s.live_trees_hwm.load(Relaxed) {
                s.live_trees_hwm.store(live, Relaxed);
            }
        } else {
            s.live_trees_hwm.fetch_max(live, Relaxed);
        }
    }

    /// A task fragment starts executing at time `t` (a `task_begin` or a
    /// switch to an explicit task). Closes any fragment still open — a
    /// nested `task_begin` suspends the outer fragment.
    #[inline]
    pub fn fragment_begin(&self, t: u64) {
        self.fragment_end(t);
        self.bump(&self.slot().fragments, 1);
        self.in_fragment.set(true);
        self.frag_start.set(t);
    }

    /// The current fragment (if any) stops at time `t`; its duration is
    /// added to the live stub-time gauge.
    #[inline]
    pub fn fragment_end(&self, t: u64) {
        if self.in_fragment.get() {
            self.in_fragment.set(false);
            let dur = t.saturating_sub(self.frag_start.get());
            self.bump(&self.slot().stub_time_ns, dur);
        }
    }

    /// The owning measurement thread finished its region at time `t`: the
    /// live gauge drops to zero (the profile force-closes leftovers) and
    /// any open fragment is charged.
    pub fn thread_end(&self, t: u64) {
        self.fragment_end(t);
        self.update_live(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Arc<TelemetryCore> {
        Arc::new(TelemetryCore::new(TelemetryConfig { sample_every: 4 }))
    }

    #[test]
    fn tick_counts_events_and_elects_one_in_n() {
        let c = core();
        let t = c.thread_handle(0);
        let elected: Vec<bool> = (0..8).map(|_| t.tick(EventClass::Enter)).collect();
        assert_eq!(elected, vec![false, false, false, true, false, false, false, true]);
        let s = c.snapshot();
        assert_eq!(s.events[EventClass::Enter.index()], 8);
        assert_eq!(s.total_events(), 8);
    }

    #[test]
    fn task_lifecycle_counters_aggregate_across_shards() {
        let c = core();
        let a = c.thread_handle(0);
        let b = c.thread_handle(1);
        a.task_created();
        a.task_created();
        b.task_completed();
        b.task_aborted();
        a.task_shed();
        let s = c.snapshot();
        assert_eq!(s.tasks_created, 2);
        assert_eq!(s.tasks_completed, 1);
        assert_eq!(s.tasks_aborted, 1);
        assert_eq!(s.tasks_shed, 1);
        assert_eq!(s.threads_active, 2);
    }

    #[test]
    fn live_gauge_sums_and_hwm_maxes_across_shards() {
        let c = core();
        let a = c.thread_handle(0);
        let b = c.thread_handle(1);
        a.update_live(3);
        b.update_live(5);
        a.update_live(1); // hwm stays 3 on shard 0
        let s = c.snapshot();
        assert_eq!(s.live_trees, 6);
        assert_eq!(s.live_trees_hwm, 5, "max over shards, not sum");
        a.thread_end(0);
        b.thread_end(0);
        assert_eq!(c.snapshot().live_trees, 0);
    }

    #[test]
    fn fragment_timing_accumulates_stub_time() {
        let c = core();
        let t = c.thread_handle(0);
        t.fragment_begin(10);
        t.fragment_end(25); // 15 ns
        t.fragment_begin(30);
        t.fragment_begin(40); // nested begin closes the outer fragment (10)
        t.fragment_end(45); // 5
        t.fragment_end(50); // no open fragment: no-op
        let s = c.snapshot();
        assert_eq!(s.fragments, 3);
        assert_eq!(s.stub_time_ns, 30);
    }

    #[test]
    fn perturbation_samples_record_cost() {
        let c = core();
        let t = c.thread_handle(0);
        t.record_cost(EventClass::TaskSwitch, 120);
        t.record_cost(EventClass::TaskSwitch, 80);
        let s = c.snapshot();
        assert_eq!(s.perturb_samples[EventClass::TaskSwitch.index()], 2);
        assert_eq!(s.perturb_ns[EventClass::TaskSwitch.index()], 200);
        assert_eq!(s.per_event_cost_ns(EventClass::TaskSwitch), Some(100.0));
        assert_eq!(s.per_event_cost_ns(EventClass::Enter), None);
    }

    #[test]
    fn handoff_and_arena_accounting() {
        let c = core();
        c.note_arena_allocated();
        let h = c.thread_handle(0);
        h.thread_end(0);
        c.note_snapshot_published();
        c.note_arena_returned();
        let s = c.snapshot();
        assert_eq!(s.handoff_depth, 1);
        assert_eq!(s.spare_arenas, 1);
        assert_eq!(s.threads_active, 0);
        c.note_snapshots_collected(1);
        c.note_arena_recycled();
        let s = c.snapshot();
        assert_eq!(s.handoff_depth, 0);
        assert_eq!(s.spare_arenas, 0);
        assert_eq!(s.arenas_recycled, 1);
        assert_eq!(s.arenas_allocated, 1);
    }

    #[test]
    fn overflow_handles_share_a_slot_and_stay_exact() {
        let c = core();
        // Claim every exclusive slot...
        let team: Vec<_> = (0..MAX_TELEMETRY_SHARDS).map(|t| c.thread_handle(t)).collect();
        // ...so the next two handles share the RMW overflow slot.
        let x = c.thread_handle(MAX_TELEMETRY_SHARDS);
        let y = c.thread_handle(MAX_TELEMETRY_SHARDS + 1);
        team[0].task_created();
        x.task_created();
        y.task_created();
        x.tick(EventClass::Enter);
        y.tick(EventClass::Enter);
        let s = c.snapshot();
        assert_eq!(s.tasks_created, 3, "overflow writers lose nothing");
        assert_eq!(s.events[EventClass::Enter.index()], 2);
    }

    #[test]
    fn dropped_handles_release_their_slot_for_reuse() {
        let c = core();
        let team: Vec<_> = (0..MAX_TELEMETRY_SHARDS).map(|t| c.thread_handle(t)).collect();
        drop(team);
        // A fresh team claims exclusive slots again (its counters keep
        // accumulating on top of the previous owners' totals).
        let h = c.thread_handle(0);
        h.task_created();
        h.update_live(9);
        let s = c.snapshot();
        assert_eq!(s.tasks_created, 1);
        assert_eq!(s.live_trees_hwm, 9, "reused slot still tracks its max");
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let c = Arc::new(TelemetryCore::new(TelemetryConfig::default()));
        let per = 10_000u64;
        let threads = 8usize;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    let h = c.thread_handle(tid);
                    for i in 0..per {
                        h.tick(EventClass::Enter);
                        h.task_created();
                        h.update_live(i % 7);
                    }
                    h.thread_end(0);
                });
            }
        });
        let s = c.snapshot();
        assert_eq!(s.events[EventClass::Enter.index()], per * threads as u64);
        assert_eq!(s.tasks_created, per * threads as u64);
        assert_eq!(s.live_trees, 0);
        assert_eq!(s.live_trees_hwm, 6);
    }
}
