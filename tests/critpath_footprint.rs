//! The critical-path DAG's footprint as counts: allocations and peak
//! live bytes of `TaskDag::from_streams` + `report` on deterministic
//! simulated streams, and of one run from the drain on. Counts, not
//! times, so they are exact for a seed; the figures are in EXPERIMENTS.md
//! ("The causal report", "One form of the edge log", "PR 40").

use critpath::{DagOptions, TaskDag};
use simsched::{workloads, SimScheduler};
use std::sync::Arc;
use taskprof::{EdgeStream, Event, ProfMonitor};
use taskrt::Team;
use test_util::alloc::{measure, AllocStats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

type Streams = Vec<(usize, EdgeStream)>;

/// Recorded events, `Advance`s included.
fn events(streams: &Streams) -> usize {
    streams.iter().map(|(_, stream)| stream.events().count()).sum()
}

/// What the builder with a `Vec` pair per vertex and nine hash maps
/// measured on `stream(10)`: peak live bytes per decoded event.
const PARENT_PEAK_BYTES_PER_EVENT: usize = 186;

/// What the builder that kept a topological order array (from Kahn's
/// sort) and two `Vec`s per task measured on `stream(10)`: 45 live bytes
/// per event, from the build and from the drain on. The run order and
/// the lists threaded through the task table measure 40.
const PEAK_BYTES_PER_EVENT: usize = 40;

/// fib-like tree of `depth` on two simulated threads (2 047 tasks at
/// depth 10), recorded and not yet drained, and its parallel region.
fn recorded(depth: usize) -> (ProfMonitor<simsched::SimClock>, pomp::RegionId) {
    let w = workloads::fib_like(depth);
    let sched = SimScheduler::new(7).with_spawn_cost(simsched::DEFAULT_SPAWN_COST_NS);
    let clock = sched.clock().clone();
    let team = Team::new(2).with_policy(Arc::new(sched));
    let monitor = ProfMonitor::builder()
        .clock(clock.clone())
        .record_task_edges()
        .build()
        .expect("profiler config is valid");
    w.run(&team, &monitor, &clock).unwrap();
    (monitor, w.parallel_region())
}

/// The same run, drained.
fn stream(depth: usize) -> (Streams, pomp::RegionId) {
    let (monitor, par) = recorded(depth);
    (monitor.take_edge_streams().expect("region finished"), par)
}

fn footprint(streams: &Streams, par: pomp::RegionId) -> (AllocStats, u64) {
    let opts = DagOptions {
        undeferred_spawn_cost: Some(simsched::DEFAULT_SPAWN_COST_NS),
    };
    let mut tasks = 0;
    let stats = measure(|| {
        let dag = TaskDag::from_streams(streams, par, &opts).expect("simulated streams form a DAG");
        tasks = dag.report().tasks;
    });
    (stats, tasks)
}

/// The same run with every task body inside eight more region frames:
/// sixteen more vertices per task, and nothing else.
fn wrapped(streams: &Streams) -> Streams {
    let extra: Vec<_> = (0..8)
        .map(|i| {
            pomp::registry().register(
                &format!("footprint-wrap-{i}"),
                pomp::RegionKind::Function,
                file!(),
                line!(),
            )
        })
        .collect();
    let wrap = |stream: &EdgeStream| {
        let mut out = Vec::new();
        for ev in stream.events() {
            match ev {
                Event::TaskBegin { .. } => {
                    out.push(ev);
                    out.extend(extra.iter().map(|&r| Event::Enter(r)));
                }
                Event::TaskEnd { .. } => {
                    out.extend(extra.iter().rev().map(|&r| Event::Exit(r)));
                    out.push(ev);
                }
                _ => out.push(ev),
            }
        }
        EdgeStream::from_events(stream.origin(), out)
    };
    streams.iter().map(|(tid, stream)| (*tid, wrap(stream))).collect()
}

/// What the drain that decoded every stream into an event array measured
/// in `drain_build_and_report_peak_bytes_per_event`: peak live bytes per
/// recorded event from `take_edge_log` through the report.
const PARENT_DRAIN_PEAK_BYTES_PER_EVENT: usize = 59;

/// That array held 24 bytes per slot, one slot per packed word (31 B per
/// event here). The figure above already nets out the packed words the
/// decoding drain freed (18 B per event of capacity), which the walk now
/// reads in place, so the drop is the difference.
const ARRAY_NET_OF_WORDS: usize = 12;

#[test]
fn drain_build_and_report_peak_bytes_per_event() {
    let events = events(&stream(10).0);
    let (monitor, _) = recorded(10);
    let opts = DagOptions {
        undeferred_spawn_cost: Some(simsched::DEFAULT_SPAWN_COST_NS),
    };
    let mut tasks = 0;
    let stats = measure(|| {
        let log = monitor.take_edge_log().expect("region finished");
        for region in &log {
            let dag = TaskDag::from_streams(&region.streams, region.region, &opts)
                .expect("recorded streams form a DAG");
            tasks += dag.report().tasks;
        }
    });
    assert_eq!(tasks, 2047);
    let per_event = stats.peak_live_bytes / events;
    assert!(
        per_event + ARRAY_NET_OF_WORDS <= PARENT_DRAIN_PEAK_BYTES_PER_EVENT,
        "{per_event} B live per event from the drain on: an event array is back"
    );
    assert!(
        per_event <= PEAK_BYTES_PER_EVENT,
        "{per_event} B live per event from the drain on: an order array or per-task lists are back"
    );
}

#[test]
fn dag_allocations_follow_neither_tasks_nor_vertices_and_bytes_stay_flat() {
    let (streams, par) = stream(10);
    let events = events(&streams);
    assert!(events >= 10_000, "{events} events");

    let (plain, tasks) = footprint(&streams, par);
    assert_eq!(tasks, 2047);
    let per_event = plain.peak_live_bytes / events;
    assert!(
        per_event <= PEAK_BYTES_PER_EVENT,
        "{per_event} B live per decoded event: an order array or per-task lists are back"
    );
    assert!(
        2 * per_event <= PARENT_PEAK_BYTES_PER_EVENT,
        "{per_event} B per event is not half of {PARENT_PEAK_BYTES_PER_EVENT}"
    );

    // No allocation per task: twice the tasks may only move the count by
    // a few `Vec` doublings (the builder with a `Vec` pair per task made
    // 1 840 more allocations here).
    let (doubled, doubled_tasks) = {
        let (streams, par) = stream(11);
        footprint(&streams, par)
    };
    assert_eq!(doubled_tasks, 4095);
    assert!(
        doubled.allocs <= plain.allocs + 16,
        "{} allocations for {doubled_tasks} tasks, {} for {tasks}",
        doubled.allocs,
        plain.allocs
    );

    // No allocation per vertex: 16 more vertices per task may only move
    // the count by a few `Vec` doublings.
    let (deep, deep_tasks) = footprint(&wrapped(&streams), par);
    assert_eq!(deep_tasks, tasks);
    assert!(
        deep.allocs <= plain.allocs + 64,
        "{} allocations with 8 extra frames per task, {} without",
        deep.allocs,
        plain.allocs
    );
}
