//! The profiler's task-instance table under load it is not shaped for:
//! thousands of instances suspended and resumed in an arbitrary (not
//! LIFO) order, checked against an independent model and against a
//! replay of the recorded stream (itself checked against the Fig. 12
//! reference); the fused end-and-resume hook against the two hooks it
//! stands for; and the steady-state hot path counted allocation by
//! allocation. The same counter bounds what
//! `cube::read_profile` may allocate per line of profile text.

use pomp::{
    Clock, ClockReader, ClockSource, EventClass, Monitor, RegionId, TaskId, TaskIdAllocator,
    TaskRef, ThreadHooks, VirtualClock,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use taskprof::{NodeKind, ProfMonitor, TelemetryConfig};
use test_util::alloc::{measure, CountingAlloc};
use test_util::fig12::replay_checked;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const PAR: RegionId = RegionId(9700);
const BARRIER: RegionId = RegionId(9701);
const CREATE: RegionId = RegionId(9702);
const TASKWAIT: RegionId = RegionId(9703);
const WORK: RegionId = RegionId(9704);
const TASKS: [RegionId; 3] = [RegionId(9710), RegionId(9711), RegionId(9712)];

#[test]
fn steady_state_task_cycle_with_an_explicit_parent_allocates_nothing() {
    // The plain monitor and the telemetry-on one: "no allocation on the
    // event path" is telemetry's contract too. (Edge recording is left
    // out: its log grows, amortised, by design.) The child's completion
    // goes through the fused hook the runtime emits and through the pair
    // it stands for.
    for fused in [true, false] {
        steady_state_cycles_allocate_nothing("plain", ProfMonitor::new(), fused);
        let with_telemetry = ProfMonitor::builder()
            .telemetry()
            .build()
            .expect("default telemetry configuration is valid");
        steady_state_cycles_allocate_nothing("telemetry", with_telemetry, fused);
    }
}

fn steady_state_cycles_allocate_nothing(name: &str, monitor: ProfMonitor, fused: bool) {
    // A parent suspended in a taskwait creates and runs one child after
    // another, under a grandparent suspended the same way: every cycle
    // is create, suspend, begin, enter/exit, end, resume — nine events,
    // two table entries below the child.
    let ids = TaskIdAllocator::new();
    monitor.parallel_fork(PAR, 1);
    let th = monitor.thread_begin(0, 1, PAR);
    th.enter(BARRIER);
    let (grandparent, parent) = (ids.alloc(), ids.alloc());
    th.task_begin(TASKS[0], grandparent);
    th.enter(TASKWAIT);
    th.task_begin(TASKS[1], parent);
    let cycle = || {
        let child = ids.alloc();
        th.task_create_begin(CREATE, TASKS[2], child);
        th.task_create_end(CREATE, child);
        th.enter(TASKWAIT);
        th.task_begin(TASKS[2], child);
        th.enter(WORK);
        th.exit(WORK);
        end_and_resume(&th, fused, TASKS[2], child, parent);
        th.exit(TASKWAIT);
    };
    // Two cycles build every node and size every buffer; a few more for
    // good measure.
    for _ in 0..8 {
        cycle();
    }
    const CYCLES: u64 = 10_000;
    let allocs = measure(|| {
        for _ in 0..CYCLES {
            cycle();
        }
    })
    .allocs;
    assert_eq!(
        allocs, 0,
        "{name} (fused: {fused}): {allocs} allocations in {CYCLES} task cycles"
    );
    th.task_end(TASKS[1], parent);
    th.task_switch(TaskRef::Explicit(grandparent));
    th.exit(TASKWAIT);
    th.task_end(TASKS[0], grandparent);
    th.exit(BARRIER);
    monitor.thread_end(0, th);
    monitor.parallel_join(PAR);
    let profile = monitor.take_profile().expect("no region in flight");
    let children = profile.threads[0]
        .task_tree(TASKS[2])
        .expect("children ran");
    assert_eq!(children.stats.samples, CYCLES + 8);
    assert_eq!(profile.threads[0].max_live_trees, 3);
}

/// Complete `task` and resume its suspended parent: one fused hook, or
/// the two hooks it stands for.
fn end_and_resume(
    th: &impl ThreadHooks,
    fused: bool,
    region: RegionId,
    task: TaskId,
    parent: TaskId,
) {
    if fused {
        th.task_end_resume(region, task, parent);
    } else {
        th.task_end(region, task);
        th.task_switch(TaskRef::Explicit(parent));
    }
}

// ---------------------------------------------------------------------
// Fused end-and-resume
// ---------------------------------------------------------------------

/// A seeded tree of nested task executions: every instance works in
/// regions, runs children at taskwaits, and completes. A completion under
/// an explicit parent resumes it at once, as the runtime does.
fn nested_tasks(
    th: &impl ThreadHooks,
    clock: &VirtualClock,
    ids: &TaskIdAllocator,
    rng: &mut Rng,
    fused: bool,
    parent: Option<TaskId>,
    depth: usize,
) {
    let id = ids.alloc();
    let region = TASKS[rng.below(TASKS.len())];
    th.task_create_begin(CREATE, region, id);
    clock.advance(1 + rng.next() % 3);
    th.task_create_end(CREATE, id);
    th.task_begin(region, id);
    for _ in 0..rng.below(4) {
        clock.advance(1 + rng.next() % 50);
        if depth < 5 && rng.below(3) != 0 {
            th.enter(TASKWAIT);
            nested_tasks(th, clock, ids, rng, fused, Some(id), depth + 1);
            th.exit(TASKWAIT);
        } else {
            th.enter(WORK);
            clock.advance(1 + rng.next() % 20);
            th.exit(WORK);
        }
    }
    clock.advance(1 + rng.next() % 10);
    match parent {
        Some(parent) => end_and_resume(th, fused, region, id, parent),
        None => th.task_end(region, id),
    }
}

#[test]
fn a_fused_end_and_resume_profiles_records_and_counts_as_the_pair() {
    // One seeded stream, twice: the profile, the edge-log words and every
    // telemetry counter must not tell the two forms apart.
    let run = |fused: bool| {
        let clock = VirtualClock::new();
        let monitor = ProfMonitor::builder()
            .clock(clock.clone())
            .telemetry_config(TelemetryConfig { sample_every: 3 })
            .record_task_edges()
            .build()
            .expect("valid configuration");
        let (ids, mut rng) = (TaskIdAllocator::new(), Rng(0xF05E_D0E5_0000_0030));
        monitor.parallel_fork(PAR, 1);
        let th = monitor.thread_begin(0, 1, PAR);
        th.enter(BARRIER);
        for _ in 0..200 {
            nested_tasks(&th, &clock, &ids, &mut rng, fused, None, 0);
        }
        th.exit(BARRIER);
        monitor.thread_end(0, th);
        monitor.parallel_join(PAR);
        let telemetry = monitor.telemetry_core().expect("telemetry is on").snapshot();
        let profile = monitor.take_profile().expect("no region in flight");
        let edges = monitor.take_edge_log().expect("no region in flight");
        (format!("{profile:?}"), edges, telemetry)
    };
    let (fused, pair) = (run(true), run(false));
    let resumes = fused.2.events[EventClass::TaskSwitch.index()];
    assert!(resumes > 1_000, "the stream was meant to resume parents: {resumes}");
    assert!(fused.2.perturb_samples[EventClass::TaskSwitch.index()] > 0);
    assert_eq!(fused.0, pair.0, "profiles differ");
    assert_eq!(fused.1, pair.1, "edge logs differ");
    assert_eq!(fused.2, pair.2, "telemetry differs");
}

/// A virtual clock that counts its reads.
#[derive(Clone, Default)]
struct ReadCountingClock {
    clock: VirtualClock,
    reads: Arc<AtomicU64>,
}

impl Clock for ReadCountingClock {
    fn now(&self) -> u64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.clock.now()
    }
}

impl ClockReader for ReadCountingClock {
    fn now(&self) -> u64 {
        Clock::now(self)
    }
}

impl ClockSource for ReadCountingClock {
    type Reader = ReadCountingClock;

    fn thread_reader(&self) -> ReadCountingClock {
        self.clone()
    }
}

#[test]
fn a_fused_end_and_resume_reads_the_clock_once() {
    let clock = ReadCountingClock::default();
    let monitor = ProfMonitor::builder()
        .clock(clock.clone())
        .record_task_edges()
        .build()
        .expect("valid configuration");
    let ids = TaskIdAllocator::new();
    let th = monitor.thread_begin(0, 1, PAR);
    let parent = ids.alloc();
    th.task_begin(TASKS[0], parent);
    th.enter(TASKWAIT);
    let reads_for = |fused: bool| {
        let child = ids.alloc();
        th.task_begin(TASKS[1], child);
        let before = clock.reads.load(Ordering::Relaxed);
        end_and_resume(&th, fused, TASKS[1], child, parent);
        clock.reads.load(Ordering::Relaxed) - before
    };
    assert_eq!(reads_for(true), 1, "fused");
    assert_eq!(reads_for(false), 2, "the pair");
    th.exit(TASKWAIT);
    th.task_end(TASKS[0], parent);
    monitor.thread_end(0, th);
}

// ---------------------------------------------------------------------
// Seeded differential
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What the driver knows about one begun, unfinished instance, kept
/// apart from the profiler: its construct, the regions it has open
/// (innermost last), and its running time so far.
struct Live {
    region: RegionId,
    open: Vec<RegionId>,
    ran_ns: u64,
    since: u64,
}

/// Per-construct totals over the completed instances.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Totals {
    instances: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

#[test]
fn ten_thousand_instances_in_arbitrary_resume_order_match_model_and_replay() {
    const INSTANCES: u64 = 10_000;
    const MAX_SUSPENDED: usize = 48;
    let mut rng = Rng(0x5EED_1234_ABCD_0013);
    let clock = VirtualClock::new();
    let monitor = ProfMonitor::builder()
        .clock(clock.clone())
        .record_task_edges()
        .build()
        .expect("default profiler limits are valid");
    let ids = TaskIdAllocator::new();
    monitor.parallel_fork(PAR, 1);
    let th = monitor.thread_begin(0, 1, PAR);
    th.enter(BARRIER);

    let mut live: HashMap<TaskId, Live> = HashMap::new();
    let mut suspended: Vec<TaskId> = Vec::new();
    let mut current: Option<TaskId> = None;
    let mut totals: HashMap<RegionId, Totals> = HashMap::new();
    let mut max_live = 0;
    let mut resumed_out_of_order = 0u64;

    while ids.allocated() < INSTANCES || current.is_some() || !suspended.is_empty() {
        let now = clock.advance(1 + rng.next() % 40);
        let may_begin = ids.allocated() < INSTANCES && suspended.len() < MAX_SUSPENDED;
        // Suspend the current instance, inside a fresh taskwait or where
        // it stands, so that something else can run.
        let suspend = |live: &mut HashMap<TaskId, Live>,
                       suspended: &mut Vec<TaskId>,
                       current: &mut Option<TaskId>,
                       in_taskwait: bool| {
            if let Some(id) = current.take() {
                let inst = live.get_mut(&id).expect("current instance is live");
                if in_taskwait {
                    th.enter(TASKWAIT);
                    inst.open.push(TASKWAIT);
                }
                inst.ran_ns += now - inst.since;
                suspended.push(id);
            }
        };
        match rng.below(8) {
            // Begin a new instance, created by whoever is current.
            0 | 1 if may_begin => {
                let id = ids.alloc();
                let region = TASKS[rng.below(TASKS.len())];
                th.task_create_begin(CREATE, region, id);
                th.task_create_end(CREATE, id);
                suspend(&mut live, &mut suspended, &mut current, rng.below(2) == 0);
                th.task_begin(region, id);
                live.insert(
                    id,
                    Live {
                        region,
                        open: Vec::new(),
                        ran_ns: 0,
                        since: now,
                    },
                );
                current = Some(id);
                max_live = max_live.max(live.len());
            }
            // Resume any suspended instance, wherever it sits.
            2 | 3 if !suspended.is_empty() => {
                let pick = rng.below(suspended.len());
                if pick + 1 != suspended.len() {
                    resumed_out_of_order += 1;
                }
                let id = suspended.swap_remove(pick);
                suspend(&mut live, &mut suspended, &mut current, rng.below(2) == 0);
                th.task_switch(TaskRef::Explicit(id));
                live.get_mut(&id).expect("suspended instance is live").since = now;
                current = Some(id);
            }
            // Back to the implicit task.
            4 if current.is_some() => {
                suspend(&mut live, &mut suspended, &mut current, true);
                th.task_switch(TaskRef::Implicit);
            }
            // Work on the current task: open or close a region.
            _ => match current {
                Some(id) => {
                    let inst = live.get_mut(&id).expect("current instance is live");
                    if let Some(innermost) = inst.open.pop() {
                        th.exit(innermost);
                    } else if rng.below(3) == 0 || ids.allocated() >= INSTANCES {
                        let done = live.remove(&id).expect("current instance is live");
                        let ran = done.ran_ns + (now - done.since);
                        th.task_end(done.region, id);
                        current = None;
                        let t = totals.entry(done.region).or_insert(Totals {
                            instances: 0,
                            sum_ns: 0,
                            min_ns: u64::MAX,
                            max_ns: 0,
                        });
                        t.instances += 1;
                        t.sum_ns += ran;
                        t.min_ns = t.min_ns.min(ran);
                        t.max_ns = t.max_ns.max(ran);
                    } else {
                        th.enter(WORK);
                        inst.open.push(WORK);
                    }
                }
                None => {
                    th.enter(WORK);
                    th.exit(WORK);
                }
            },
        }
    }
    clock.advance(5);
    th.exit(BARRIER);
    monitor.thread_end(0, th);
    monitor.parallel_join(PAR);
    assert!(
        resumed_out_of_order > 1_000,
        "the schedule was meant to be unordered: {resumed_out_of_order}"
    );

    let profile = monitor.take_profile().expect("no region in flight");
    let snap = &profile.threads[0];
    assert!(snap.diagnostics.is_empty(), "{:?}", snap.diagnostics);
    assert_eq!(snap.max_live_trees, max_live);

    // Against the driver's own bookkeeping.
    let mut task_ns = 0;
    for (region, want) in &totals {
        let tree = snap
            .task_tree(*region)
            .expect("construct completed instances");
        let got = Totals {
            instances: tree.stats.samples,
            sum_ns: tree.stats.sum_ns,
            min_ns: tree.stats.min_ns,
            max_ns: tree.stats.max_ns,
        };
        assert_eq!(got, *want, "construct {region:?}");
        assert_eq!(tree.stats.visits, want.instances);
        task_ns += want.sum_ns;
    }
    assert_eq!(totals.values().map(|t| t.instances).sum::<u64>(), INSTANCES);
    let mut stub_ns = 0;
    snap.main.walk(&mut |_, n| {
        assert!(n.exclusive_ns() >= 0, "{:?}", n.kind);
        if matches!(n.kind, NodeKind::Stub(_)) {
            stub_ns += n.stats.sum_ns;
        }
    });
    assert_eq!(
        stub_ns, task_ns,
        "every fragment is mirrored under the barrier"
    );

    // Against a replay of the stream the run recorded.
    let mut streams = monitor.take_edge_streams().expect("no region in flight");
    let (_, stream) = streams.pop().expect("one thread recorded");
    let replayed = replay_checked(PAR, stream.events());
    assert_eq!(replayed.main, snap.main);
    assert_eq!(replayed.task_trees, snap.task_trees);
    assert_eq!(replayed.max_live_trees, snap.max_live_trees);
}

#[test]
fn reading_profile_text_allocates_per_node_and_distinct_name_not_per_line_token() {
    const NODES: usize = 4096;
    const DISTINCT: usize = 32;
    let text = test_util::sized_profile_text(NODES, DISTINCT);
    // The first parse interns the names; the second is the steady state
    // of a repository that sees the same regions run after run.
    let warm = cube::read_profile(&text).expect("parse");
    let mut again = None;
    let allocs = measure(|| again = Some(cube::read_profile(&text))).allocs;
    let again = again.expect("ran").expect("parse");
    assert_eq!(again.threads[0].main, warm.threads[0].main);
    // What may allocate: child lists and the open-node stack (bounded by
    // the node count) and the per-parse name cache (bounded by the
    // distinct names). What may not: token vectors, unescaped copies of
    // clean names, indentation strings, registry keys — each of those
    // was one or more allocations per line.
    let budget = (NODES + 8 * DISTINCT + 64) as u64;
    assert!(
        allocs <= budget,
        "{allocs} allocations for {NODES} node lines over {DISTINCT} names (budget {budget})"
    );
}
