//! The profiler's task-instance table under load it is not shaped for:
//! thousands of instances suspended and resumed in an arbitrary (not
//! LIFO) order, checked against an independent model and against a
//! replay of the recorded stream; and the steady-state hot path counted
//! allocation by allocation. The same counter bounds what
//! `cube::read_profile` may allocate per line of profile text.

use pomp::{Monitor, RegionId, TaskId, TaskIdAllocator, TaskRef, ThreadHooks, VirtualClock};
use std::collections::HashMap;
use taskprof::{replay, AssignPolicy, NodeKind, ProfMonitor};
use test_util::alloc::{measure, CountingAlloc};

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
    // out: its log grows, amortised, by design.)
    steady_state_cycles_allocate_nothing("plain", ProfMonitor::new());
    let with_telemetry = ProfMonitor::builder()
        .telemetry()
        .build()
        .expect("default telemetry configuration is valid");
    steady_state_cycles_allocate_nothing("telemetry", with_telemetry);
}

fn steady_state_cycles_allocate_nothing(name: &str, monitor: ProfMonitor) {
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
        th.task_end(TASKS[2], child);
        th.task_switch(TaskRef::Explicit(parent));
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
        "{name}: {allocs} allocations in {CYCLES} task cycles"
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
    let replayed = replay(PAR, AssignPolicy::Executing, stream.events());
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
