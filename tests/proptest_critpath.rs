//! Property-based invariants of the critical-path analysis.
//!
//! Random task trees run under random seeded simulated schedules; the
//! assembled DAG must satisfy the work/span ordering laws regardless of
//! shape or schedule: span ≤ makespan ≤ work (so parallelism ≥ 1), the
//! per-region work decomposition sums to the total, and what-if
//! predictions are monotone nonincreasing in the speedup factor while
//! never beating the scaled logical span. And a stream that is *not* a
//! run — one event dropped, doubled, moved or aimed at another task — is
//! answered with a typed error or a DAG that still obeys the summing
//! laws, never a panic — and the trace analysis, a second reader of the
//! same walk, answers it with a typed error or an analysis.

use pomp::{TaskId, TaskRef};
use simsched::{run_workload, whatif, SimConfig, Step, TreeWorkload};
use taskprof::{EdgeStream, Event, RegionEdges};
use test_util::prop::{check, Gen};

/// A uniform tree: every internal node does `inner` work then spawns
/// `fanout` children and taskwaits; leaves do `leaf` work. The name is
/// fixed so repeated cases reuse the same registry entries.
fn tree(depth: usize, fanout: usize, inner: u64, leaf: u64) -> TreeWorkload {
    fn node(depth: usize, fanout: usize, inner: u64, leaf: u64) -> Vec<Step> {
        if depth == 0 {
            return vec![Step::Work(leaf)];
        }
        let mut steps = vec![Step::Work(inner)];
        for _ in 0..fanout {
            steps.push(Step::Task(node(depth - 1, fanout, inner, leaf)));
        }
        steps.push(Step::Taskwait);
        steps
    }
    TreeWorkload::new(
        "prop-critpath",
        vec![],
        vec![Step::Task(node(depth, fanout, inner, leaf)), Step::Taskwait],
    )
}

/// The task id an event names, if it names one.
fn named_task(ev: &mut Event) -> Option<&mut TaskId> {
    match ev {
        Event::CreateBegin { id, .. }
        | Event::CreateEnd { id, .. }
        | Event::TaskBegin { id, .. }
        | Event::TaskEnd { id, .. }
        | Event::TaskAbort { id, .. }
        | Event::Switch(TaskRef::Explicit(id)) => Some(id),
        _ => None,
    }
}

/// Damage one stream in one place: drop, duplicate or swap an event, or
/// retarget the next task-naming event at another task of the run (or
/// at one that never existed). The picks wrap around whatever is there;
/// the damaged events are encoded again from the recorded origin.
fn mutate(
    streams: &mut [(usize, EdgeStream)],
    kind: usize,
    stream: usize,
    at: usize,
    other: usize,
) {
    let mut ids: Vec<TaskId> = streams
        .iter()
        .flat_map(|(_, stream)| stream.events())
        .filter_map(|ev| match ev {
            Event::TaskBegin { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    ids.push(TaskId::from_raw(u64::MAX).expect("nonzero"));
    let target = &mut streams[stream % streams.len()].1;
    let mut events: Vec<Event> = target.events().collect();
    if events.is_empty() {
        return;
    }
    let at = at % events.len();
    match kind {
        0 => {
            events.remove(at);
        }
        1 => events.insert(at, events[at]),
        2 => {
            let with = other % events.len();
            events.swap(at, with);
        }
        _ => {
            let (before, from) = events.split_at_mut(at);
            if let Some(id) = from.iter_mut().chain(before).find_map(named_task) {
                *id = ids[other % ids.len()];
            }
        }
    }
    *target = EdgeStream::from_events(target.origin(), events);
}

#[test]
fn a_damaged_stream_is_an_error_or_a_lawful_dag_never_a_panic() {
    let gen = |g: &mut Gen| {
        let shape = (g.u64(0..3) as usize, g.u64(1..4) as usize);
        let run = (g.u64(0..1000), g.u64(1..4) as usize);
        let damage = [g.below(4), g.below(4), g.below(10_000), g.below(10_000)];
        (shape, run, damage.map(|d| d as usize))
    };
    let name = "a_damaged_stream_is_an_error_or_a_lawful_dag_never_a_panic";
    check(
        name,
        64,
        gen,
        |((depth, fanout), (seed, threads), [kind, stream, at, other])| {
            let w = tree(depth, fanout, 30, 70);
            let mut run = run_workload(&w, &SimConfig::seeded(threads, seed));
            mutate(&mut run.streams, kind, stream, at, other);
            // The trace analysis reads the same walk (without carving): a
            // typed error where the walk stops, and where both walks finish, a
            // switch for every fragment of the DAG.
            let log = [RegionEdges {
                occurrence: 1,
                region: w.parallel_region(),
                streams: run.streams.clone(),
            }];
            let trace = critpath::analyze_trace(&log);
            // A cycle must come back as `DagError::Cycle`, not as a hang: the
            // case simply has to finish.
            if let Ok(dag) = whatif::analyze(&run, &w) {
                if let Ok(trace) = &trace {
                    assert_eq!(trace.switches, dag.fragments());
                }
                let thread_sum: u64 = dag.work_by_thread().iter().sum();
                assert_eq!(thread_sum, dag.work_ns());
                let region_sum: u64 = dag.work_by_region().iter().map(|(_, ns)| ns).sum();
                assert_eq!(region_sum, dag.work_ns());
                assert!(dag.span_ns() <= dag.makespan_ns());
                assert!(dag.makespan_ns() <= dag.work_ns());
                assert_eq!(dag.report().thread_work_ns.len(), threads);
            }
        },
    );
}

/// A random tree — depth, fanout, inner and leaf work — and a schedule
/// seed.
fn random_tree(g: &mut Gen) -> ((usize, usize, u64, u64), u64) {
    let shape = (
        g.u64(0..3) as usize,
        g.u64(1..4) as usize,
        g.u64(1..400),
        g.u64(1..400),
    );
    (shape, g.u64(0..1000))
}

#[test]
fn work_span_ordering_holds_on_random_trees() {
    let gen = |g: &mut Gen| (random_tree(g), g.u64(2..4) as usize);
    let name = "work_span_ordering_holds_on_random_trees";
    check(
        name,
        64,
        gen,
        |(((depth, fanout, inner, leaf), seed), threads)| {
            let w = tree(depth, fanout, inner, leaf);
            let run = run_workload(&w, &SimConfig::seeded(threads, seed));
            let dag = whatif::analyze(&run, &w).expect("simulated streams form a DAG");

            // The ordering laws: no schedule beats the logical span, and no
            // path through the run exceeds the total work.
            assert!(dag.span_ns() <= dag.makespan_ns());
            assert!(dag.makespan_ns() <= dag.work_ns());
            assert!(dag.parallelism() >= 1.0);

            // Region decomposition is exact: per-region work sums to total.
            let region_sum: u64 = dag.work_by_region().iter().map(|(_, ns)| ns).sum();
            assert_eq!(region_sum, dag.work_ns());
            let thread_sum: u64 = dag.work_by_thread().iter().sum();
            assert_eq!(thread_sum, dag.work_ns());
        },
    );
}

#[test]
fn what_if_is_monotone_and_span_bounded() {
    let name = "what_if_is_monotone_and_span_bounded";
    check(
        name,
        64,
        random_tree,
        |((depth, fanout, inner, leaf), seed)| {
            let w = tree(depth, fanout, inner, leaf);
            let run = run_workload(&w, &SimConfig::seeded(2, seed));
            let dag = whatif::analyze(&run, &w).expect("simulated streams form a DAG");

            // K = 1 is the identity hypothesis.
            let unit = dag.what_if(w.task_region(), 1);
            assert_eq!(unit.predicted_makespan_ns, dag.makespan_ns());

            let mut last = u64::MAX;
            for k in [2u64, 3, 4, 8, 16] {
                let p = dag.what_if(w.task_region(), k);
                assert_eq!(p.baseline_makespan_ns, dag.makespan_ns());
                // Faster region, never a slower program...
                assert!(p.predicted_makespan_ns <= dag.makespan_ns());
                // ...monotone in K...
                assert!(p.predicted_makespan_ns <= last);
                // ...and never below the scaled graph's own logical span.
                assert!(p.predicted_makespan_ns >= p.predicted_span_ns);
                last = p.predicted_makespan_ns;
            }

            // Speeding up a region with no recorded work changes nothing.
            let noop = dag.what_if(w.user_region(), 8);
            assert_eq!(noop.predicted_makespan_ns, dag.makespan_ns());
            assert_eq!(noop.predicted_span_ns, dag.span_ns());
        },
    );
}
