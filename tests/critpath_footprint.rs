//! The critical-path DAG's footprint as counts: allocations and peak
//! live bytes of `TaskDag::from_streams` + `report` on one deterministic
//! simulated stream. Counts, not times, so they are exact for a seed;
//! both commits' figures are in EXPERIMENTS.md ("PR 23").

use critpath::{DagOptions, TaskDag};
use simsched::{run_workload, workloads, SimConfig};
use taskprof::Event;
use test_util::alloc::{measure, AllocStats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

type Streams = Vec<(usize, Vec<Event>)>;

/// What the builder with a `Vec` pair per vertex and nine hash maps
/// measured on `stream()`: peak live bytes per decoded event.
const PARENT_PEAK_BYTES_PER_EVENT: usize = 186;

/// fib-like tree of depth 10 on two simulated threads: 2 047 tasks.
fn stream() -> (Streams, pomp::RegionId) {
    let w = workloads::fib_like(10);
    let run = run_workload(&w, &SimConfig::seeded(2, 7));
    (run.streams, w.parallel_region())
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
    let wrap = |events: &Vec<Event>| {
        let mut out = Vec::with_capacity(events.len());
        for &ev in events {
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
        out
    };
    streams.iter().map(|(tid, events)| (*tid, wrap(events))).collect()
}

#[test]
fn dag_allocations_follow_tasks_not_vertices_and_bytes_stay_flat() {
    let (streams, par) = stream();
    let events: usize = streams.iter().map(|(_, e)| e.len()).sum();
    assert!(events >= 10_000, "{events} events");

    let (plain, tasks) = footprint(&streams, par);
    assert_eq!(tasks, 2047);
    assert!(
        plain.allocs <= 4 * tasks + 256,
        "{} allocations for {tasks} tasks",
        plain.allocs
    );
    let per_event = plain.peak_live_bytes / events;
    assert!(per_event <= 128, "{per_event} B live per decoded event");
    assert!(
        2 * per_event <= PARENT_PEAK_BYTES_PER_EVENT,
        "{per_event} B per event is not half of {PARENT_PEAK_BYTES_PER_EVENT}"
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
