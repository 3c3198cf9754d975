//! Adapter implementing the `pomp` hook interface on top of
//! [`ThreadProfile`] with a real (or virtual) clock.
//!
//! `ProfMonitor` is what you hand to the `taskrt` runtime to get an
//! *instrumented* run; [`pomp::NullMonitor`] gives the uninstrumented
//! baseline. Configure one with [`ProfMonitor::builder`]; after the
//! parallel regions complete, [`ProfMonitor::take_profile`] returns the
//! collected per-thread snapshots.
//!
//! # The sharded fast path
//!
//! Every steady-state event (enter/exit/switch/create/param) touches only
//! the thread's own [`ProfThread`] shard: a cached per-thread clock reader
//! ([`pomp::ClockSource::thread_reader`]) and a [`ThreadProfile`] whose
//! arena was preallocated (and is recycled across regions). No lock, no
//! atomic, no shared `Arc` dereference — and no `RefCell` borrow flag —
//! is on that path. Threads share state only at fork, join, thread begin
//! and thread end, a few times per thread per region: each takes the
//! monitor's one lock once, to publish the finished snapshot, return the
//! shard's arena to the spare pool the next region pops from, and count
//! live threads and regions. The drains check that nothing is live and
//! take everything under that same lock, so no region can end halfway
//! through a drain.

use crate::profiler::{AssignPolicy, ThreadProfile};
use crate::replay::Event;
use crate::snapshot::{Profile, ThreadSnapshot};
use crate::tree::Arena;
use pomp::{
    ClockReader, ClockSource, EventClass, Monitor, MonotonicClock, ParamId, RegionId, TaskId,
    TaskRef, ThreadHooks,
};
use std::cell::UnsafeCell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use taskprof_telemetry::{TelemetryConfig, TelemetryCore, ThreadTelemetry};

/// Arena slots preallocated per thread shard. Sized generously for
/// BOTS-style call trees (tens of regions × parameter fan-out); a shard
/// that outgrows it just reallocates once and the larger arena is recycled.
pub const DEFAULT_PREALLOC_NODES: usize = 256;

/// A [`ProfMonitor`] configuration was rejected, naming the setting and
/// the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A setting's value is invalid regardless of timing.
    InvalidValue {
        /// The setting that was rejected.
        setting: &'static str,
        /// The rejected value.
        value: usize,
        /// Why it is invalid.
        reason: &'static str,
    },
}

impl ConfigError {
    /// The name of the rejected setting.
    pub fn setting(&self) -> &'static str {
        match self {
            ConfigError::InvalidValue { setting, .. } => setting,
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidValue {
                setting,
                value,
                reason,
            } => write!(f, "invalid value {value} for `{setting}`: {reason}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// [`ProfMonitor::take_profile`] was called while a measurement was still
/// in progress (threads between `thread_begin` and `thread_end`, or a
/// parallel region between fork and join). Draining at that point would
/// silently return a half-merged profile, so it is a typed error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionActiveError {
    /// Threads currently between `thread_begin` and `thread_end`.
    pub live_threads: usize,
    /// Parallel regions currently between fork and join.
    pub live_regions: usize,
}

impl std::fmt::Display for SessionActiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "profile requested mid-measurement: {} live thread(s), {} open parallel region(s)",
            self.live_threads, self.live_regions
        )
    }
}

impl std::error::Error for SessionActiveError {}

struct Inner<C: ClockSource> {
    clock: C,
    policy: AssignPolicy,
    max_depth: Option<usize>,
    max_live_trees: Option<usize>,
    /// Live telemetry counters, when enabled. `None` keeps the event fast
    /// path to a single never-taken branch per hook.
    telemetry: Option<Arc<TelemetryCore>>,
    /// Record the create/join edge stream for critical-path analysis.
    record_edges: bool,
    /// Everything the threads share; see [`Shared`].
    shared: Mutex<Shared>,
}

/// The monitor's cross-thread state, behind one lock that fork, join,
/// thread begin, thread end and the drains each take once. Nothing that
/// can panic or block runs under it: clock reads, snapshots and telemetry
/// happen outside.
#[derive(Default)]
struct Shared {
    /// Completed per-thread snapshots, in the order their threads ended.
    collected: Vec<ThreadSnapshot>,
    /// Recycled arenas: a thread beginning a region pops the most recently
    /// returned one instead of allocating fresh node storage.
    spare_arenas: Vec<Arena>,
    /// Per-thread edge streams, in the order their threads ended, handed
    /// over as they are by [`ProfMonitor::take_edge_log`].
    edge_streams: Vec<(usize, EdgeStream)>,
    /// Threads between `thread_begin` and `thread_end`.
    live_threads: usize,
    /// Parallel regions between fork and join.
    live_regions: usize,
    /// Parallel regions forked so far: stamped on each edge log at thread
    /// begin, so the drain can tell two regions' streams apart.
    regions_forked: u64,
}

impl Shared {
    /// Every drain refuses mid-measurement: it would hand back a torn run.
    fn ensure_idle(&self) -> Result<(), SessionActiveError> {
        if self.live_threads > 0 || self.live_regions > 0 {
            return Err(SessionActiveError {
                live_threads: self.live_threads,
                live_regions: self.live_regions,
            });
        }
        Ok(())
    }
}

impl<C: ClockSource> Inner<C> {
    /// The shared state. Every critical section is a few pushes, pops and
    /// counter steps that cannot panic, so a poisoned lock still guards
    /// consistent state and is taken as is.
    fn shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

// Edge-record tags (low 4 bits of the first word of every record).
const ET_LONG_ADVANCE: u64 = 0;
const ET_ENTER: u64 = 1;
const ET_EXIT: u64 = 2;
const ET_CREATE_BEGIN: u64 = 3;
const ET_CREATE_END: u64 = 4;
const ET_TASK_BEGIN: u64 = 5;
const ET_TASK_END: u64 = 6;
const ET_TASK_ABORT: u64 = 7;
const ET_SWITCH_IMPLICIT: u64 = 8;
const ET_SWITCH_EXPLICIT: u64 = 9;
const ET_PARAM_BEGIN: u64 = 10;
const ET_PARAM_END: u64 = 11;

/// Per-thread edge transcript: the hook stream recorded as packed
/// `u64` records, sealed at thread end and drained as they are, as an
/// [`EdgeStream`] — the only form the log takes. Readers decode it into
/// the replayable [`Event`] language (differential timestamps, exactly
/// what `critpath::TaskDag` consumes) one event at a time, off the
/// measured path, so the instrumented run pays only the packed writes.
///
/// The hot path is dominated by memory traffic, not compute: retaining
/// one `Event` per hook plus its `Advance` streams ~48 bytes per event
/// through the cache, which costs more than the rest of the hook
/// combined once the log outgrows L2. The packed form is one word for
/// enter/exit-class records (tag in bits 0..4, timestamp delta in bits
/// 4..28, a `u32` region/param payload in bits 28..60) plus full-width
/// extra words only where needed (task ids, param values) — 8 bytes for
/// region events, 16–24 for task-lifecycle events, a 3–6× traffic
/// reduction. Deltas ≥ 2^24 ns (gaps over ~16 ms) take a rare
/// standalone long-advance record. When recording is off the whole
/// shard field is `None` and each hook pays one never-taken branch.
struct EdgeLog {
    last: u64,
    words: Vec<u64>,
}

/// The log opens with three header words — the thread-begin timestamp
/// its deltas count from, the parallel region and the region's occurrence
/// — so the hot struct stays the two fields every hook touches.
const EDGE_HEADER_WORDS: usize = 3;

impl EdgeLog {
    fn new(t: u64, region: RegionId, occurrence: u64) -> Self {
        let mut words = Vec::with_capacity(1 << 12);
        words.extend([t, u64::from(region.0), occurrence]);
        EdgeLog { last: t, words }
    }

    /// Timestamp delta for the next record header, folding oversized
    /// gaps into a standalone long-advance record.
    #[inline(always)]
    fn delta(&mut self, t: u64) -> u64 {
        let d = t.saturating_sub(self.last);
        if d == 0 {
            return 0;
        }
        self.last = t;
        if d < (1 << 24) {
            d
        } else {
            self.long_advance(d)
        }
    }

    #[cold]
    fn long_advance(&mut self, d: u64) -> u64 {
        self.words.push(ET_LONG_ADVANCE | (d << 4));
        0
    }

    /// Append the first `n` of `w` with a single capacity check and
    /// unconditional in-capacity stores — three dependent `Vec::push`
    /// calls would pay three grow checks on the hottest path.
    #[inline(always)]
    fn push_words(&mut self, w: [u64; 3], n: usize) {
        let buf = &mut self.words;
        if buf.capacity() - buf.len() < 3 {
            buf.reserve(1 << 12);
        }
        // SAFETY: capacity for 3 words was just ensured; writes stay in
        // spare capacity and `set_len` only exposes the `n` valid ones.
        unsafe {
            let p = buf.as_mut_ptr().add(buf.len());
            p.write(w[0]);
            p.add(1).write(w[1]);
            p.add(2).write(w[2]);
            buf.set_len(buf.len() + n);
        }
    }

    #[inline(always)]
    fn emit(&mut self, t: u64, ev: Event) {
        // Hooks pass a literal variant, so after inlining the match
        // folds to the single arm and no `Event` ever materializes.
        let d = self.delta(t);
        let hdr = |tag: u64, a: u32| tag | (d << 4) | (u64::from(a) << 28);
        match ev {
            Event::Advance(_) => {}
            Event::Enter(r) => self.push_words([hdr(ET_ENTER, r.0), 0, 0], 1),
            Event::Exit(r) => self.push_words([hdr(ET_EXIT, r.0), 0, 0], 1),
            Event::CreateBegin {
                create,
                task_region,
                id,
            } => self.push_words(
                [
                    hdr(ET_CREATE_BEGIN, create.0),
                    u64::from(task_region.0),
                    id.get(),
                ],
                3,
            ),
            Event::CreateEnd { create, id } => {
                self.push_words([hdr(ET_CREATE_END, create.0), id.get(), 0], 2)
            }
            Event::TaskBegin { region, id } => {
                self.push_words([hdr(ET_TASK_BEGIN, region.0), id.get(), 0], 2)
            }
            Event::TaskEnd { region, id } => {
                self.push_words([hdr(ET_TASK_END, region.0), id.get(), 0], 2)
            }
            Event::TaskAbort { region, id } => {
                self.push_words([hdr(ET_TASK_ABORT, region.0), id.get(), 0], 2)
            }
            Event::Switch(TaskRef::Implicit) => {
                self.push_words([hdr(ET_SWITCH_IMPLICIT, 0), 0, 0], 1)
            }
            Event::Switch(TaskRef::Explicit(id)) => {
                self.push_words([hdr(ET_SWITCH_EXPLICIT, 0), id.get(), 0], 2)
            }
            Event::ParamBegin { param, value } => {
                self.push_words([hdr(ET_PARAM_BEGIN, param.0), value as u64, 0], 2)
            }
            Event::ParamEnd { param } => self.push_words([hdr(ET_PARAM_END, param.0), 0, 0], 1),
        }
    }

    /// Seal the log at thread-end timestamp `t`: the time since the last
    /// record becomes a closing long-advance record.
    fn finish(mut self, t: u64) -> EdgeStream {
        let d = t.saturating_sub(self.last);
        if d > 0 {
            self.words.push(ET_LONG_ADVANCE | (d << 4));
        }
        EdgeStream { words: self.words }
    }
}

/// One thread's sealed edge log: the packed words its hooks wrote, as
/// [`ProfMonitor::take_edge_log`] hands them over. [`EdgeStream::events`]
/// decodes them on each read; nothing holds the decoded events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeStream {
    words: Vec<u64>,
}

/// The drained edge log of one parallel region. Task ids restart in
/// every region, so instances are only unique within one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionEdges {
    /// Which of the monitor's `parallel_fork`s this was, counted from 1
    /// (0: the threads began outside any fork).
    pub occurrence: u64,
    /// The parallel region the team ran.
    pub region: RegionId,
    /// One stream per team thread, sorted by thread id — the input to
    /// `critpath::TaskDag::from_streams`.
    pub streams: Vec<(usize, EdgeStream)>,
}

impl EdgeStream {
    /// Hand-written `events` from clock `origin` on, encoded by the
    /// recorder itself: zero `Advance`s vanish and adjacent ones merge,
    /// as they would on a real clock.
    pub fn from_events(origin: u64, events: impl IntoIterator<Item = Event>) -> EdgeStream {
        let (mut log, mut t) = (EdgeLog::new(origin, RegionId(0), 0), origin);
        for ev in events {
            match ev {
                Event::Advance(dt) => t += dt,
                ev => log.emit(t, ev),
            }
        }
        log.finish(t)
    }

    /// The clock at the thread begin, which the `Advance`s accumulate
    /// from.
    pub fn origin(&self) -> u64 {
        self.words[0]
    }

    /// The replayable event stream, decoded as it is read, with a trailing
    /// `Advance` up to the thread-end timestamp.
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        Events {
            words: self.words[EDGE_HEADER_WORDS..].iter(),
            held: None,
        }
    }
}

/// [`EdgeStream::events`]. A named iterator whose `next` is always
/// inlined, not an `iter::from_fn` closure: the DAG walk over the
/// closure ran 40 % slower.
struct Events<'a> {
    words: std::slice::Iter<'a, u64>,
    /// A record whose delta was just yielded as an `Advance`.
    held: Option<u64>,
}

impl Iterator for Events<'_> {
    type Item = Event;

    #[inline(always)]
    fn next(&mut self) -> Option<Event> {
        let w = match self.held.take() {
            Some(w) => w,
            None => {
                let w = *self.words.next()?;
                if w & 0xF == ET_LONG_ADVANCE {
                    return Some(Event::Advance(w >> 4));
                }
                let d = (w >> 4) & 0xFF_FFFF;
                if d > 0 {
                    self.held = Some(w);
                    return Some(Event::Advance(d));
                }
                w
            }
        };
        let task_id = |w: u64| TaskId::from_raw(w).expect("recorded task ids are nonzero");
        let a = ((w >> 28) & 0xFFFF_FFFF) as u32;
        let mut extra = || *self.words.next().expect("a record's extra words follow it");
        Some(match w & 0xF {
            ET_ENTER => Event::Enter(RegionId(a)),
            ET_EXIT => Event::Exit(RegionId(a)),
            ET_CREATE_BEGIN => Event::CreateBegin {
                create: RegionId(a),
                task_region: RegionId(extra() as u32),
                id: task_id(extra()),
            },
            ET_CREATE_END => Event::CreateEnd {
                create: RegionId(a),
                id: task_id(extra()),
            },
            ET_TASK_BEGIN => Event::TaskBegin {
                region: RegionId(a),
                id: task_id(extra()),
            },
            ET_TASK_END => Event::TaskEnd {
                region: RegionId(a),
                id: task_id(extra()),
            },
            ET_TASK_ABORT => Event::TaskAbort {
                region: RegionId(a),
                id: task_id(extra()),
            },
            ET_SWITCH_IMPLICIT => Event::Switch(TaskRef::Implicit),
            ET_SWITCH_EXPLICIT => Event::Switch(TaskRef::Explicit(task_id(extra()))),
            ET_PARAM_BEGIN => Event::ParamBegin {
                param: ParamId(a),
                value: extra() as i64,
            },
            ET_PARAM_END => Event::ParamEnd { param: ParamId(a) },
            tag => unreachable!("unknown edge-record tag {tag}"),
        })
    }
}

/// Builder for [`ProfMonitor`]: collect every setting, validate once in
/// [`ProfMonitorBuilder::build`].
///
/// ```
/// use taskprof::{AssignPolicy, ProfMonitor};
/// let monitor = ProfMonitor::builder()
///     .policy(AssignPolicy::Executing)
///     .max_depth(32)
///     .build()
///     .unwrap();
/// # let _ = monitor;
/// ```
#[derive(Debug)]
pub struct ProfMonitorBuilder<C: ClockSource = MonotonicClock> {
    clock: C,
    policy: AssignPolicy,
    max_depth: Option<usize>,
    max_live_trees: Option<usize>,
    telemetry: Option<TelemetryConfig>,
    record_edges: bool,
}

impl Default for ProfMonitorBuilder<MonotonicClock> {
    fn default() -> Self {
        Self {
            clock: MonotonicClock::new(),
            policy: AssignPolicy::Executing,
            max_depth: None,
            max_live_trees: None,
            telemetry: None,
            record_edges: false,
        }
    }
}

impl ProfMonitorBuilder<MonotonicClock> {
    /// Builder with the real monotonic clock, executing-node attribution,
    /// and no limits.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<C: ClockSource> ProfMonitorBuilder<C> {
    /// Measure with `clock` instead of the real monotonic clock (virtual
    /// clocks for deterministic tests).
    pub fn clock<C2: ClockSource>(self, clock: C2) -> ProfMonitorBuilder<C2> {
        ProfMonitorBuilder {
            clock,
            policy: self.policy,
            max_depth: self.max_depth,
            max_live_trees: self.max_live_trees,
            telemetry: self.telemetry,
            record_edges: self.record_edges,
        }
    }

    /// Attribution policy (default [`AssignPolicy::Executing`], the
    /// paper's recommendation).
    pub fn policy(mut self, policy: AssignPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Limit call-path depth per task body (Score-P's depth limit —
    /// collapses deeper frames into `<truncated>` nodes). Must be ≥ 1.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Overload shedding: cap the number of concurrently live instance
    /// trees per thread; instances begun beyond the cap degrade to
    /// counting-only, and the shed count appears in the profile. Must be
    /// ≥ 1.
    pub fn max_live_trees(mut self, cap: usize) -> Self {
        self.max_live_trees = Some(cap);
        self
    }

    /// Enable live telemetry with default settings (lock-free shard
    /// gauges, 1-in-256 perturbation sampling). See
    /// [`ProfMonitor::telemetry_core`] for reading it.
    pub fn telemetry(self) -> Self {
        self.telemetry_config(TelemetryConfig::default())
    }

    /// Enable live telemetry with an explicit configuration.
    pub fn telemetry_config(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Record the task create/join edge stream alongside the profile, for
    /// critical-path (work/span) analysis. Each hook appends one packed
    /// record (8–24 bytes) to a thread-private buffer — no extra clock
    /// read, no synchronization until the thread ends. Off by default:
    /// when off, the only cost is one never-taken branch per hook. Drain
    /// with [`ProfMonitor::take_edge_log`], one [`EdgeStream`] per thread.
    pub fn record_task_edges(mut self) -> Self {
        self.record_edges = true;
        self
    }

    /// Validate every setting and construct the monitor.
    pub fn build(self) -> Result<ProfMonitor<C>, ConfigError> {
        if self.max_depth == Some(0) {
            return Err(ConfigError::InvalidValue {
                setting: "max_depth",
                value: 0,
                reason: "a depth limit of 0 would truncate the parallel-region root itself",
            });
        }
        if self.max_live_trees == Some(0) {
            return Err(ConfigError::InvalidValue {
                setting: "max_live_trees",
                value: 0,
                reason: "a live-tree cap of 0 would shed every task instance",
            });
        }
        if let Some(cfg) = &self.telemetry {
            if cfg.sample_every == 0 {
                return Err(ConfigError::InvalidValue {
                    setting: "telemetry.sample_every",
                    value: 0,
                    reason: "the perturbation sampling period must be at least 1",
                });
            }
        }
        Ok(ProfMonitor {
            inner: Arc::new(Inner {
                clock: self.clock,
                policy: self.policy,
                max_depth: self.max_depth,
                max_live_trees: self.max_live_trees,
                telemetry: self.telemetry.map(|cfg| Arc::new(TelemetryCore::new(cfg))),
                record_edges: self.record_edges,
                shared: Mutex::default(),
            }),
        })
    }
}

/// Profiling monitor: one per measurement session.
pub struct ProfMonitor<C: ClockSource = MonotonicClock> {
    inner: Arc<Inner<C>>,
}

impl<C: ClockSource> std::fmt::Debug for ProfMonitor<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (live_threads, live_regions) = {
            let shared = self.inner.shared();
            (shared.live_threads, shared.live_regions)
        };
        f.debug_struct("ProfMonitor")
            .field("policy", &self.inner.policy)
            .field("max_depth", &self.inner.max_depth)
            .field("max_live_trees", &self.inner.max_live_trees)
            .field("live_threads", &live_threads)
            .field("live_regions", &live_regions)
            .finish_non_exhaustive()
    }
}

impl Default for ProfMonitor<MonotonicClock> {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfMonitor<MonotonicClock> {
    /// Monitor with the real monotonic clock and the paper's
    /// executing-node attribution. Use [`ProfMonitor::builder`] for
    /// anything configurable.
    pub fn new() -> Self {
        ProfMonitorBuilder::new()
            .build()
            .expect("default configuration is valid")
    }

    /// Builder with defaults (real clock, executing attribution).
    pub fn builder() -> ProfMonitorBuilder<MonotonicClock> {
        ProfMonitorBuilder::new()
    }
}

impl<C: ClockSource> ProfMonitor<C> {
    /// The monitor's clock (e.g. to advance a shared
    /// [`pomp::VirtualClock`] from a test driver).
    pub fn clock(&self) -> &C {
        &self.inner.clock
    }

    /// The attribution policy in effect.
    pub fn policy(&self) -> AssignPolicy {
        self.inner.policy
    }

    /// The live telemetry counters, when enabled via
    /// [`ProfMonitorBuilder::telemetry`]. Cheap to clone and safe to poll
    /// from any thread at any time, including mid-measurement.
    pub fn telemetry_core(&self) -> Option<Arc<TelemetryCore>> {
        self.inner.telemetry.clone()
    }

    /// Drain the snapshots collected since the last call, as one profile
    /// sorted by thread id. Call after the parallel region(s) complete;
    /// while threads are still measuring, the profile would be half-merged,
    /// so a [`SessionActiveError`] is returned instead.
    pub fn take_profile(&self) -> Result<Profile, SessionActiveError> {
        let mut threads = {
            let mut shared = self.inner.shared();
            shared.ensure_idle()?;
            std::mem::take(&mut shared.collected)
        };
        // Newest first before the stable sort: a tid that ran several
        // regions lists its latest snapshot first.
        threads.reverse();
        threads.sort_by_key(|t| t.tid);
        if let Some(tc) = &self.inner.telemetry {
            tc.note_snapshots_collected(threads.len() as u64);
        }
        Ok(Profile { threads })
    }

    /// Whether the task create/join edge stream is being recorded.
    pub fn records_task_edges(&self) -> bool {
        self.inner.record_edges
    }

    /// Drain the edge log recorded since the last call, undecoded: one
    /// [`RegionEdges`] per parallel region, in fork order. Empty unless
    /// built with [`ProfMonitorBuilder::record_task_edges`]; refused
    /// mid-measurement like [`ProfMonitor::take_profile`].
    pub fn take_edge_log(&self) -> Result<Vec<RegionEdges>, SessionActiveError> {
        let mut sealed = {
            let mut shared = self.inner.shared();
            shared.ensure_idle()?;
            std::mem::take(&mut shared.edge_streams)
        };
        // Newest first before the stable sort, as `take_profile` does.
        sealed.reverse();
        // Below the origin, the header `EdgeLog::new` wrote holds the
        // region and its occurrence.
        sealed.sort_by_key(|(tid, stream)| (stream.words[2], *tid));
        let mut log: Vec<RegionEdges> = Vec::new();
        for (tid, stream) in sealed {
            let (region, occurrence) = (RegionId(stream.words[1] as u32), stream.words[2]);
            if log.last().is_none_or(|r| r.occurrence != occurrence) {
                log.push(RegionEdges {
                    occurrence,
                    region,
                    streams: Vec::new(),
                });
            }
            log.last_mut()
                .expect("pushed above")
                .streams
                .push((tid, stream));
        }
        Ok(log)
    }

    /// [`ProfMonitor::take_edge_log`] as bare `(tid, stream)` pairs,
    /// sorted by thread id within each region.
    pub fn take_edge_streams(&self) -> Result<Vec<(usize, EdgeStream)>, SessionActiveError> {
        Ok(self
            .take_edge_log()?
            .into_iter()
            .flat_map(|r| r.streams)
            .collect())
    }
}

/// Per-thread profiling shard (owned by exactly one runtime thread): the
/// cached clock reader plus the thread's private profile. Every
/// [`ThreadHooks`] event runs entirely on this struct — no locks, no
/// shared-state dereference.
pub struct ProfThread<C: ClockSource> {
    reader: C::Reader,
    /// Team-local thread id this hook set belongs to.
    pub tid: usize,
    // SAFETY invariant: only the owning thread touches `prof`, exactly one
    // hook at a time. `UnsafeCell` keeps the type `!Sync`, the runtime
    // hands each `ProfThread` to a single worker, and no `ThreadProfile`
    // method calls back into the hooks — so the `&mut` in `prof()` is
    // never aliased. This removes the `RefCell` borrow-flag check from
    // the per-event fast path.
    prof: UnsafeCell<ThreadProfile>,
    /// Telemetry write handle when enabled: relaxed stores onto the
    /// thread's own padded slot, so the steady-state path stays lock-free.
    telem: Option<ThreadTelemetry>,
    // SAFETY invariant: identical to `prof` — single-owner, one hook at a
    // time, no reentrancy.
    edges: Option<UnsafeCell<EdgeLog>>,
}

impl<C: ClockSource> ProfThread<C> {
    #[inline]
    fn now(&self) -> u64 {
        self.reader.now()
    }

    /// Exclusive access to the shard's profile (see the field invariant).
    #[expect(clippy::mut_from_ref)]
    #[inline]
    fn prof(&self) -> &mut ThreadProfile {
        // SAFETY: single-owner, non-reentrant access per the field's
        // documented invariant; `UnsafeCell` makes the type `!Sync`.
        unsafe { &mut *self.prof.get() }
    }

    /// Append to the edge transcript when recording is on: one branch,
    /// then a plain `Vec` push reusing the timestamp the hook already
    /// read.
    #[inline]
    fn edge(&self, t: u64, ev: Event) {
        if let Some(cell) = &self.edges {
            // SAFETY: single-owner, non-reentrant access per the field's
            // documented invariant; `UnsafeCell` makes the type `!Sync`.
            unsafe { &mut *cell.get() }.emit(t, ev);
        }
    }

    /// Telemetry tail for hooks without task-lifecycle side effects:
    /// count the event and, for the 1-in-N elected events, read the clock
    /// once more to self-time the profiling work that just ran
    /// (perturbation accounting). One never-taken branch when telemetry
    /// is off.
    #[inline]
    fn telem_tail(&self, class: EventClass, t0: u64) {
        if let Some(tm) = &self.telem {
            if tm.tick(class) {
                tm.record_cost(class, self.now().saturating_sub(t0));
            }
        }
    }

    /// `task_end` at time `t`, all but the telemetry tail.
    #[inline]
    fn end_at(&self, task_region: RegionId, task: TaskId, t: u64) {
        let prof = self.prof();
        prof.task_end(task_region, task, t);
        self.edge(
            t,
            Event::TaskEnd {
                region: task_region,
                id: task,
            },
        );
        if let Some(tm) = &self.telem {
            tm.task_completed();
            Self::telem_task_state(tm, prof, t);
        }
    }

    /// `task_switch` at time `t`, all but the telemetry tail.
    #[inline]
    fn switch_at(&self, resumed: TaskRef, t: u64) {
        let prof = self.prof();
        let prev = prof.current_task();
        prof.task_switch(resumed, t);
        // A redundant switch (already current) is a profiler no-op: no
        // edge, and no fragment resumption for telemetry.
        if prev != resumed {
            self.edge(t, Event::Switch(resumed));
            if let Some(tm) = &self.telem {
                Self::telem_task_state(tm, prof, t);
            }
        }
    }

    /// After a task-lifecycle transition: publish the shard's live-tree
    /// gauge and track whether the thread is inside an explicit-task
    /// fragment at time `t`.
    #[inline]
    fn telem_task_state(tm: &ThreadTelemetry, prof: &ThreadProfile, t: u64) {
        tm.update_live(prof.live_instance_trees() as u64);
        match prof.current_task() {
            TaskRef::Explicit(_) => tm.fragment_begin(t),
            TaskRef::Implicit => tm.fragment_end(t),
        }
    }
}

impl<C: ClockSource + 'static> Monitor for ProfMonitor<C> {
    type Thread = ProfThread<C>;

    fn parallel_fork(&self, _region: RegionId, _nthreads: usize) {
        let mut shared = self.inner.shared();
        shared.live_regions += 1;
        shared.regions_forked += 1;
    }

    fn parallel_join(&self, _region: RegionId) {
        // Saturating, here and in `thread_end`: an unmatched call must not
        // panic under the lock.
        let mut shared = self.inner.shared();
        shared.live_regions = shared.live_regions.saturating_sub(1);
    }

    fn thread_begin(&self, tid: usize, _nthreads: usize, region: RegionId) -> ProfThread<C> {
        let (spare, occurrence) = {
            let mut shared = self.inner.shared();
            shared.live_threads += 1;
            (shared.spare_arenas.pop(), shared.regions_forked)
        };
        // Reuse a recycled arena from an earlier region if one is spare;
        // otherwise preallocate. Either way the event path that follows
        // does not allocate until the preallocation is exhausted.
        let (arena, recycled) = match spare {
            Some(a) => (a, true),
            None => (Arena::with_capacity(DEFAULT_PREALLOC_NODES), false),
        };
        let telem = self.inner.telemetry.as_ref().map(|tc| {
            if recycled {
                tc.note_arena_recycled();
            } else {
                tc.note_arena_allocated();
            }
            tc.thread_handle(tid)
        });
        let reader = self.inner.clock.thread_reader();
        let t = reader.now();
        let mut prof = ThreadProfile::new_in(arena, region, t, self.inner.policy);
        prof.set_max_depth(self.inner.max_depth);
        prof.set_max_live_trees(self.inner.max_live_trees);
        ProfThread {
            reader,
            tid,
            prof: UnsafeCell::new(prof),
            telem,
            edges: self
                .inner
                .record_edges
                .then(|| UnsafeCell::new(EdgeLog::new(t, region, occurrence))),
        }
    }

    fn thread_end(&self, tid: usize, thread: ProfThread<C>) {
        let t = thread.reader.now();
        let mut prof = thread.prof.into_inner();
        prof.finish(t);
        let edges = thread.edges.map(|cell| (tid, cell.into_inner().finish(t)));
        let snapshot = prof.snapshot(tid);
        let arena = prof.into_arena();
        // Telemetry before the hand-off: a drain that takes the lock after
        // it sees this thread's final counts.
        if let Some(tm) = &thread.telem {
            tm.thread_end(t);
            tm.core().note_snapshot_published();
            tm.core().note_arena_returned();
        }
        // One hand-off: the snapshot, the arena, the edge stream and the
        // thread's end are published together.
        let mut shared = self.inner.shared();
        shared.edge_streams.extend(edges);
        shared.collected.push(snapshot);
        shared.spare_arenas.push(arena);
        shared.live_threads = shared.live_threads.saturating_sub(1);
    }
}

impl<C: ClockSource> ThreadHooks for ProfThread<C> {
    #[inline]
    fn enter(&self, region: RegionId) {
        let t = self.now();
        self.prof().enter(region, t);
        self.edge(t, Event::Enter(region));
        self.telem_tail(EventClass::Enter, t);
    }

    #[inline]
    fn exit(&self, region: RegionId) {
        let t = self.now();
        self.prof().exit(region, t);
        self.edge(t, Event::Exit(region));
        self.telem_tail(EventClass::Exit, t);
    }

    #[inline]
    fn task_create_begin(&self, create_region: RegionId, task_region: RegionId, new_task: TaskId) {
        let t = self.now();
        self.prof()
            .task_create_begin(create_region, task_region, new_task, t);
        self.edge(
            t,
            Event::CreateBegin {
                create: create_region,
                task_region,
                id: new_task,
            },
        );
        if let Some(tm) = &self.telem {
            tm.task_created();
        }
        self.telem_tail(EventClass::TaskCreate, t);
    }

    #[inline]
    fn task_create_end(&self, create_region: RegionId, new_task: TaskId) {
        let t = self.now();
        self.prof().task_create_end(create_region, new_task, t);
        self.edge(
            t,
            Event::CreateEnd {
                create: create_region,
                id: new_task,
            },
        );
        self.telem_tail(EventClass::TaskCreate, t);
    }

    #[inline]
    fn task_begin(&self, task_region: RegionId, task: TaskId) {
        let t = self.now();
        let prof = self.prof();
        if let Some(tm) = &self.telem {
            // Shedding is decided inside `task_begin`; observe it as the
            // delta of the profile's shed counter.
            let shed_before = prof.shed_instances();
            prof.task_begin(task_region, task, t);
            if prof.shed_instances() > shed_before {
                tm.task_shed();
            }
            Self::telem_task_state(tm, prof, t);
        } else {
            prof.task_begin(task_region, task, t);
        }
        self.edge(
            t,
            Event::TaskBegin {
                region: task_region,
                id: task,
            },
        );
        self.telem_tail(EventClass::TaskBegin, t);
    }

    #[inline]
    fn task_end(&self, task_region: RegionId, task: TaskId) {
        let t = self.now();
        self.end_at(task_region, task, t);
        self.telem_tail(EventClass::TaskEnd, t);
    }

    #[inline]
    fn task_abort(&self, task_region: RegionId, task: TaskId) {
        let t = self.now();
        let prof = self.prof();
        prof.task_abort(task_region, task, t);
        self.edge(
            t,
            Event::TaskAbort {
                region: task_region,
                id: task,
            },
        );
        if let Some(tm) = &self.telem {
            tm.task_aborted();
            Self::telem_task_state(tm, prof, t);
        }
        self.telem_tail(EventClass::TaskAbort, t);
    }

    #[inline]
    fn task_switch(&self, resumed: TaskRef) {
        let t = self.now();
        self.switch_at(resumed, t);
        self.telem_tail(EventClass::TaskSwitch, t);
    }

    /// One clock read for the pair: nothing happens between the end and
    /// the resume that the profile could attribute, so both are stamped
    /// `t`, and the edge log gets the `TaskEnd` and then the `Switch` with
    /// no time between them.
    #[inline]
    fn task_end_resume(&self, task_region: RegionId, task: TaskId, resumed: TaskId) {
        let t = self.now();
        self.end_at(task_region, task, t);
        let Some(tm) = &self.telem else {
            self.switch_at(TaskRef::Explicit(resumed), t);
            return;
        };
        // Tick both classes in stream order. A sampled half is self-timed
        // from where the other half stopped, so each cost covers only its
        // own work, as it did when the two were separate hooks.
        let end_timed = tm.tick(EventClass::TaskEnd);
        let switch_timed = tm.tick(EventClass::TaskSwitch);
        let t_mid = if end_timed || switch_timed {
            self.now()
        } else {
            t
        };
        if end_timed {
            tm.record_cost(EventClass::TaskEnd, t_mid.saturating_sub(t));
        }
        self.switch_at(TaskRef::Explicit(resumed), t);
        if switch_timed {
            tm.record_cost(EventClass::TaskSwitch, self.now().saturating_sub(t_mid));
        }
    }

    #[inline]
    fn parameter_begin(&self, param: ParamId, value: i64) {
        let t = self.now();
        self.prof().parameter_begin(param, value, t);
        self.edge(t, Event::ParamBegin { param, value });
        self.telem_tail(EventClass::Param, t);
    }

    #[inline]
    fn parameter_end(&self, param: ParamId) {
        let t = self.now();
        self.prof().parameter_end(param, t);
        self.edge(t, Event::ParamEnd { param });
        self.telem_tail(EventClass::Param, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeKind;
    use pomp::{TaskIdAllocator, VirtualClock};

    fn virtual_monitor() -> (VirtualClock, ProfMonitor<VirtualClock>) {
        let clock = VirtualClock::new();
        let m = ProfMonitor::builder().clock(clock.clone()).build().unwrap();
        (clock, m)
    }

    #[test]
    fn monitor_collects_per_thread_snapshots() {
        let (clock, m) = virtual_monitor();
        let par = RegionId(0);
        let work = RegionId(1);
        m.parallel_fork(par, 2);
        let t0 = m.thread_begin(0, 2, par);
        let t1 = m.thread_begin(1, 2, par);
        clock.set(10);
        t0.enter(work);
        clock.set(15);
        t0.exit(work);
        m.thread_end(0, t0);
        clock.set(20);
        m.thread_end(1, t1);
        m.parallel_join(par);

        let p = m.take_profile().unwrap();
        assert_eq!(p.num_threads(), 2);
        assert_eq!(p.threads[0].tid, 0);
        let w = p.threads[0].main.child(NodeKind::Region(work)).unwrap();
        assert_eq!(w.stats.sum_ns, 5);
        assert_eq!(p.threads[1].main.stats.sum_ns, 20);
        // Drained: second take is empty.
        assert_eq!(m.take_profile().unwrap().num_threads(), 0);
    }

    #[test]
    fn monitor_profiles_task_events_with_virtual_time() {
        let (clock, m) = virtual_monitor();
        let ids = TaskIdAllocator::new();
        let (par, task, barrier) = (RegionId(0), RegionId(1), RegionId(2));
        let th = m.thread_begin(0, 1, par);
        let id = ids.alloc();
        clock.set(10);
        th.enter(barrier);
        th.task_begin(task, id);
        clock.set(35);
        th.task_end(task, id);
        clock.set(40);
        th.exit(barrier);
        m.thread_end(0, th);
        let p = m.take_profile().unwrap();
        let snap = &p.threads[0];
        assert_eq!(snap.task_tree(task).unwrap().stats.sum_ns, 25);
        let b = snap.main.child(NodeKind::Region(barrier)).unwrap();
        assert_eq!(b.stats.sum_ns, 30);
        assert_eq!(b.child(NodeKind::Stub(task)).unwrap().stats.sum_ns, 25);
    }

    #[test]
    fn take_profile_sorts_by_tid() {
        let (_clock, m) = virtual_monitor();
        let par = RegionId(0);
        let a = m.thread_begin(3, 4, par);
        let b = m.thread_begin(1, 4, par);
        m.thread_end(3, a);
        m.thread_end(1, b);
        let p = m.take_profile().unwrap();
        assert_eq!(
            p.threads.iter().map(|t| t.tid).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn take_profile_mid_region_is_a_typed_error() {
        let (_clock, m) = virtual_monitor();
        let par = RegionId(0);
        m.parallel_fork(par, 1);
        let th = m.thread_begin(0, 1, par);
        let err = m.take_profile().unwrap_err();
        assert_eq!(err.live_threads, 1);
        assert_eq!(err.live_regions, 1);
        assert!(err.to_string().contains("mid-measurement"), "{err}");
        m.thread_end(0, th);
        let err = m.take_profile().unwrap_err();
        assert_eq!((err.live_threads, err.live_regions), (0, 1));
        m.parallel_join(par);
        assert_eq!(m.take_profile().unwrap().num_threads(), 1);
    }

    #[test]
    fn edge_recording_captures_differential_stream_per_region() {
        let clock = VirtualClock::new();
        let m = ProfMonitor::builder()
            .clock(clock.clone())
            .record_task_edges()
            .build()
            .unwrap();
        assert!(m.records_task_edges());
        let ids = TaskIdAllocator::new();
        let (task, create) = (RegionId(1), RegionId(2));
        let id = ids.alloc();
        // Two regions, the second under another construct and later on
        // the clock; task ids restart, so both call their instance `id`.
        for (par, t0) in [(RegionId(0), 0), (RegionId(7), 100)] {
            m.parallel_fork(par, 1);
            clock.set(t0 + 2);
            let th = m.thread_begin(0, 1, par);
            clock.set(t0 + 10);
            th.task_create_begin(create, task, id);
            clock.set(t0 + 14);
            th.task_create_end(create, id);
            th.task_begin(task, id);
            clock.set(t0 + 20);
            th.task_end(task, id);
            // Mid-measurement drain is refused, like take_profile.
            assert!(m.take_edge_log().is_err());
            clock.set(t0 + 23);
            m.thread_end(0, th);
            m.parallel_join(par);
        }
        let stream = vec![
            Event::Advance(8),
            Event::CreateBegin {
                create,
                task_region: task,
                id,
            },
            Event::Advance(4),
            Event::CreateEnd { create, id },
            Event::TaskBegin { region: task, id },
            Event::Advance(6),
            Event::TaskEnd { region: task, id },
            Event::Advance(3),
        ];
        let log = m.take_edge_log().unwrap();
        let got: Vec<_> = log
            .iter()
            .map(|r| {
                let [(tid, s)] = &r.streams[..] else {
                    panic!("one stream per region")
                };
                (
                    r.occurrence,
                    r.region,
                    *tid,
                    s.origin(),
                    s.events().collect::<Vec<_>>(),
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (1, RegionId(0), 0, 2, stream.clone()),
                (2, RegionId(7), 0, 102, stream)
            ]
        );
        // Drained: second take is empty, and the profile still collected.
        assert!(m.take_edge_streams().unwrap().is_empty());
        assert_eq!(m.take_profile().unwrap().num_threads(), 2);
    }

    #[test]
    fn edge_log_survives_a_clock_stepping_backwards() {
        // `VirtualClock::set` refuses to go backwards, so feed the log its
        // timestamps directly. A reading below the last one is booked as
        // "no time passed"; time resumes from the high-water mark.
        let r = RegionId(1);
        let mut log = EdgeLog::new(100, RegionId(0), 0);
        log.emit(90, Event::Enter(r));
        log.emit(95, Event::Exit(r));
        log.emit(105, Event::Enter(r));
        let sealed = log.finish(103);
        assert_eq!(sealed.origin(), 100, "the origin is the thread-begin time");
        let want = [
            Event::Enter(r),
            Event::Exit(r),
            Event::Advance(5),
            Event::Enter(r),
        ];
        assert!(sealed.events().eq(want));
    }

    /// All ten `ThreadHooks` methods come back as one event per call, in
    /// call order, with full-width payloads and the time between them —
    /// a delta just under, at and over the header's 24 bits included.
    /// Only a switch to the task already current is dropped. A hook the
    /// log forgot to transcribe fails here.
    #[test]
    fn every_hook_is_transcribed_and_only_redundant_switches_dropped() {
        let clock = VirtualClock::new();
        let m = ProfMonitor::builder()
            .clock(clock.clone())
            .record_task_edges()
            .build()
            .unwrap();
        let (task, create, work) = (RegionId(u32::MAX), RegionId(2), RegionId(3));
        let param = ParamId(u32::MAX);
        let a = TaskId::from_raw((1 << 32) + 9).unwrap();
        let b = TaskId::from_raw(2).unwrap();
        let (under, at, over) = ((1u64 << 24) - 1, 1 << 24, (1 << 24) + 1);
        let th = m.thread_begin(0, 1, RegionId(0));
        th.task_switch(TaskRef::Implicit); // already current
        th.task_create_begin(create, task, a);
        clock.advance(under);
        th.task_create_end(create, a);
        th.task_begin(task, a);
        th.task_switch(TaskRef::Explicit(a)); // already current
        clock.advance(at);
        th.enter(work);
        th.parameter_begin(param, i64::MIN);
        th.parameter_end(param);
        clock.advance(over);
        th.exit(work);
        th.task_end(task, a);
        th.task_begin(task, b);
        th.task_switch(TaskRef::Implicit); // suspends `b`
        th.task_switch(TaskRef::Implicit); // already current
        th.task_switch(TaskRef::Explicit(b));
        th.task_abort(task, b);
        m.thread_end(0, th);
        let want = [
            Event::CreateBegin {
                create,
                task_region: task,
                id: a,
            },
            Event::Advance(under),
            Event::CreateEnd { create, id: a },
            Event::TaskBegin {
                region: task,
                id: a,
            },
            Event::Advance(at),
            Event::Enter(work),
            Event::ParamBegin {
                param,
                value: i64::MIN,
            },
            Event::ParamEnd { param },
            Event::Advance(over),
            Event::Exit(work),
            Event::TaskEnd {
                region: task,
                id: a,
            },
            Event::TaskBegin {
                region: task,
                id: b,
            },
            Event::Switch(TaskRef::Implicit),
            Event::Switch(TaskRef::Explicit(b)),
            Event::TaskAbort {
                region: task,
                id: b,
            },
        ];
        let streams = m.take_edge_streams().unwrap();
        assert_eq!(streams[0].1.events().collect::<Vec<_>>(), want);
        // A hand-written stream goes through the same encoder.
        assert!(EdgeStream::from_events(7, want).events().eq(want));
    }

    /// One event per draw: full-width payloads, and `Advance`s of zero
    /// and on both sides of the header's 24-bit delta.
    fn event((kind, a, raw, dt): (u8, u32, u64, u64)) -> Event {
        let (region, param, id) = (RegionId(a), ParamId(a), TaskId::from_raw(raw | 1).unwrap());
        match kind {
            0 => Event::Enter(region),
            1 => Event::Exit(region),
            2 => Event::CreateBegin {
                create: region,
                task_region: RegionId(raw as u32),
                id,
            },
            3 => Event::CreateEnd { create: region, id },
            4 => Event::TaskBegin { region, id },
            5 => Event::TaskEnd { region, id },
            6 => Event::TaskAbort { region, id },
            7 => Event::Switch(TaskRef::Implicit),
            8 => Event::Switch(TaskRef::Explicit(id)),
            9 => Event::ParamBegin {
                param,
                value: raw as i64,
            },
            10 => Event::ParamEnd { param },
            11 => Event::Advance(0),
            _ => Event::Advance(dt),
        }
    }

    #[test]
    fn from_events_then_events_is_the_normalised_stream() {
        let mut rng = pomp::SplitMix64::new(0x0ed9_e5ea);
        for _ in 0..256 {
            let origin = rng.below(1 << 40);
            let events: Vec<Event> = (0..rng.below(64))
                .map(|_| {
                    let kind = rng.below(16) as u8;
                    let (a, raw) = (rng.next_u64() as u32, rng.next_u64());
                    event((kind, a, raw, rng.below(1 << 26)))
                })
                .collect();
            // Zero `Advance`s dropped, adjacent ones merged, trailing time
            // kept.
            let mut want: Vec<Event> = Vec::new();
            for &ev in &events {
                match (want.last_mut(), ev) {
                    (_, Event::Advance(0)) => {}
                    (Some(Event::Advance(t)), Event::Advance(dt)) => *t += dt,
                    _ => want.push(ev),
                }
            }
            let stream = EdgeStream::from_events(origin, events);
            assert_eq!(stream.origin(), origin);
            assert_eq!(stream.events().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn edge_recording_off_publishes_nothing() {
        let (clock, m) = virtual_monitor();
        assert!(!m.records_task_edges());
        let th = m.thread_begin(0, 1, RegionId(0));
        clock.set(5);
        th.enter(RegionId(1));
        th.exit(RegionId(1));
        m.thread_end(0, th);
        assert!(m.take_edge_streams().unwrap().is_empty());
    }

    #[test]
    fn builder_validates_once() {
        let err = ProfMonitor::builder().max_depth(0).build().unwrap_err();
        assert_eq!(err.setting(), "max_depth");
        assert!(matches!(err, ConfigError::InvalidValue { value: 0, .. }));
        let err = ProfMonitor::builder()
            .max_live_trees(0)
            .build()
            .unwrap_err();
        assert_eq!(err.setting(), "max_live_trees");
        assert!(err.to_string().contains("max_live_trees"), "{err}");
        assert!(ProfMonitor::builder()
            .max_depth(1)
            .max_live_trees(1)
            .build()
            .is_ok());
    }

    #[test]
    fn arenas_recycle_across_regions() {
        let (clock, m) = virtual_monitor();
        let par = RegionId(0);
        let work = RegionId(1);
        for round in 0..3u64 {
            m.parallel_fork(par, 1);
            let th = m.thread_begin(0, 1, par);
            clock.set(round * 100 + 10);
            th.enter(work);
            clock.set(round * 100 + 20);
            th.exit(work);
            m.thread_end(0, th);
            m.parallel_join(par);
        }
        // Exactly one thread ran each region, so exactly one arena
        // circulates through the spare pool.
        let spares = m.inner.shared().spare_arenas.len();
        assert_eq!(spares, 1, "one arena recycled, not re-allocated");
        let p = m.take_profile().unwrap();
        assert_eq!(p.num_threads(), 3, "three rounds collected");
    }

    /// Eight threads hand off concurrently through one monitor, each
    /// running many regions of its own: every snapshot and edge stream
    /// arrives exactly once, the arena counts balance, and a monitor
    /// dropped with undrained state releases it.
    #[test]
    fn concurrent_hand_offs_arrive_exactly_once() {
        const THREADS: usize = 8;
        const ROUNDS: u32 = 200;
        let m = ProfMonitor::builder()
            .record_task_edges()
            .telemetry()
            .build()
            .unwrap();
        // Each thread's round `r` runs "region" `r`, which marks its
        // snapshot and its edge stream. The barrier starts all eight
        // together, so their hand-offs overlap.
        let run_all = |m: &ProfMonitor| {
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for tid in 0..THREADS {
                    let start = &start;
                    scope.spawn(move || {
                        let ids = TaskIdAllocator::new();
                        start.wait();
                        for r in 0..ROUNDS {
                            let th = m.thread_begin(tid, THREADS, RegionId(r));
                            let id = ids.alloc();
                            th.task_create_begin(RegionId(1), RegionId(2), id);
                            th.task_create_end(RegionId(1), id);
                            th.task_begin(RegionId(2), id);
                            th.enter(RegionId(3));
                            th.exit(RegionId(3));
                            th.task_end(RegionId(2), id);
                            m.thread_end(tid, th);
                        }
                    });
                }
            })
        };
        run_all(&m);
        let want: Vec<(usize, u32)> = (0..THREADS)
            .flat_map(|tid| (0..ROUNDS).map(move |r| (tid, r)))
            .collect();

        let tc = m.telemetry_core().unwrap();
        let t = tc.snapshot();
        let ends = (THREADS as u64) * u64::from(ROUNDS);
        assert_eq!(
            t.arenas_allocated + t.arenas_recycled,
            ends,
            "one arena per begin"
        );
        // `spare_arenas` is returned minus recycled: every arena allocated
        // came back and waits in the pool.
        assert_eq!(
            t.spare_arenas + t.arenas_recycled,
            ends,
            "one arena back per end"
        );
        assert_eq!(t.spare_arenas, t.arenas_allocated);
        assert_eq!(
            m.inner.shared().spare_arenas.len() as u64,
            t.arenas_allocated
        );
        assert!(t.arenas_allocated <= THREADS as u64, "{t:?}");
        assert_eq!(t.handoff_depth, ends);

        let mut got: Vec<_> = m
            .take_edge_streams()
            .unwrap()
            .iter()
            .map(|(tid, s)| (*tid, s.words[1] as u32))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "every edge stream exactly once");
        let mut got: Vec<_> = m
            .take_profile()
            .unwrap()
            .threads
            .iter()
            .map(|s| (s.tid, s.parallel_region.0))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "every snapshot exactly once");
        assert_eq!(tc.snapshot().handoff_depth, 0);

        // Undrained again, then dropped: nothing else holds the shared
        // state, so the snapshots, streams and arenas go with it.
        run_all(&m);
        assert_eq!(m.inner.shared().collected.len(), want.len());
        let shared = Arc::downgrade(&m.inner);
        drop(m);
        assert!(
            shared.upgrade().is_none(),
            "the monitor's state outlived it"
        );
    }

    #[test]
    fn shard_merge_preserves_thread_order_at_barrier() {
        // Threads finish in arbitrary (here: reverse) order; the merged
        // profile is still ordered by tid with every shard present.
        let (clock, m) = virtual_monitor();
        let par = RegionId(0);
        m.parallel_fork(par, 4);
        let shards: Vec<_> = (0..4).map(|tid| m.thread_begin(tid, 4, par)).collect();
        clock.set(50);
        for (tid, shard) in shards.into_iter().enumerate().rev() {
            m.thread_end(tid, shard);
        }
        m.parallel_join(par);
        let p = m.take_profile().unwrap();
        assert_eq!(
            p.threads.iter().map(|t| t.tid).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }
}
