//! The edge log read as a trace — consistency between the log, its
//! §VII analysis (`critpath::analyze_trace`), the profile and the
//! workload's ground truth — and the frozen analysis of one seeded run.

use bots::{run_app, AppId, RunOpts, Scale};
use critpath::{analyze_trace, DagError, TraceAnalysis};
use pomp::TaskRef;
use simsched::{workloads, SimScheduler};
use std::sync::Arc;
use taskprof::{EdgeStream, Event, ProfMonitor, RegionEdges};
use taskrt::{taskwait_region, ParallelConstruct, TaskConstruct, Team};

/// Run `app` at test scale; the trace is the profiler's own edge log.
fn traced_run(app: AppId, threads: usize) -> (ProfMonitor, Vec<RegionEdges>) {
    let profiler = ProfMonitor::builder()
        .record_task_edges()
        .build()
        .expect("default profiler limits are valid");
    let out = run_app(app, &profiler, &RunOpts::new(threads).scale(Scale::Test));
    assert!(out.verified);
    let log = profiler.take_edge_log().expect("no region in flight");
    (profiler, log)
}

/// The time a stream covers: the sum of its `Advance`s.
fn elapsed(stream: &EdgeStream) -> u64 {
    let deltas = stream.events().map(|e| match e {
        Event::Advance(dt) => dt,
        _ => 0,
    });
    deltas.sum()
}

/// Every event of the log except the `Advance`s between them.
fn events(log: &[RegionEdges]) -> impl Iterator<Item = Event> + '_ {
    let streams = log.iter().flat_map(|r| &r.streams);
    streams.flat_map(|(_, stream)| stream.events()).filter(|e| !matches!(e, Event::Advance(_)))
}

#[test]
fn trace_is_balanced_and_counts_match_profile() {
    let (profiler, log) = traced_run(AppId::Fib, 2);
    let profile = profiler.take_profile().expect("no region in flight");

    for region in &log {
        let tids: Vec<usize> = region.streams.iter().map(|(tid, _)| *tid).collect();
        assert_eq!(tids, [0, 1]);
        // Per thread: enters and exits balance, begins equal ends.
        for (tid, stream) in &region.streams {
            let mut depth = 0i64;
            let (mut begins, mut ends) = (0u64, 0u64);
            for e in stream.events() {
                match e {
                    Event::Enter(_) => depth += 1,
                    Event::Exit(_) => {
                        depth -= 1;
                        assert!(depth >= 0, "exit without enter on thread {tid}");
                    }
                    Event::TaskBegin { .. } => begins += 1,
                    Event::TaskEnd { .. } => ends += 1,
                    _ => {}
                }
            }
            assert_eq!(depth, 0, "unbalanced regions on thread {tid}");
            assert_eq!(begins, ends, "task begin/end mismatch on thread {tid}");
        }
    }

    // Trace-wide begins == profile-wide completed instances.
    let trace_begins = events(&log)
        .filter(|e| matches!(e, Event::TaskBegin { .. }))
        .count() as u64;
    let profile_instances: u64 = profile
        .threads
        .iter()
        .flat_map(|t| &t.task_trees)
        .map(|t| t.stats.samples)
        .sum();
    assert_eq!(trace_begins, profile_instances);
}

#[test]
fn analysis_of_real_run_is_consistent() {
    // nqueens under a seeded simulated schedule: virtual clocks make every
    // number below exact for the seed, whatever the host.
    let sched = Arc::new(SimScheduler::new(5));
    let clock = sched.clock().clone();
    let profiler = ProfMonitor::builder()
        .clock(clock)
        .record_task_edges()
        .build()
        .expect("profiler config is valid");
    let team = Team::new(2).with_policy(sched);
    let opts = RunOpts::new(2).scale(Scale::Test);
    assert!(bots::nqueens::run_with_team(&profiler, &team, &opts).verified);
    let log = profiler.take_edge_log().expect("region finished");
    let a = analyze_trace(&log).expect("a recorded run reads");

    assert!(!a.instances.is_empty());
    assert!(a.instances.iter().all(|i| i.fragments >= 1));
    // Exactly the deferred instances — those with a creation in the log —
    // have a queue latency.
    let created = events(&log)
        .filter(|e| matches!(e, Event::CreateEnd { .. }))
        .count();
    let queued = a.instances.iter().filter(|i| i.queue_ns.is_some()).count();
    assert!(created > 0);
    assert_eq!(queued, created);
    // Switch count covers at least one per instance.
    assert!(a.switches >= a.instances.len() as u64);
    // Totals are bounded by the threads' summed spans.
    let spans: u64 = log.iter().flat_map(|r| &r.streams).map(|(_, stream)| elapsed(stream)).sum();
    assert!(a.total_task_exec_ns <= spans);
    assert!(a.total_sched_nonexec_ns <= spans);
    // nqueens without cut-off is creation-heavy.
    assert!(a.total_creation_ns > 0);
    assert!(
        a.management_to_work_ratio > 0.0 && a.management_to_work_ratio.is_finite(),
        "ratio {}",
        a.management_to_work_ratio
    );
}

#[test]
fn switch_events_reference_known_tasks() {
    let (_, log) = traced_run(AppId::Fib, 1);
    // Task ids restart in every parallel region.
    for region in &log {
        let mut seen = std::collections::HashSet::new();
        for e in events(std::slice::from_ref(region)) {
            match e {
                Event::TaskBegin { id, .. } => {
                    seen.insert(id);
                }
                Event::Switch(TaskRef::Explicit(id)) => {
                    assert!(seen.contains(&id), "switch to never-begun task");
                }
                _ => {}
            }
        }
    }
}

#[test]
fn aborted_task_is_recorded_ended_and_listed() {
    // One thread, eight flat tasks, the fourth panics mid-body. Flat
    // tasks on one thread never nest or suspend, so the analysis must
    // book exactly the begin-to-end (or begin-to-abort) spans as task
    // execution: nothing between the abort and the next begin, and
    // nothing lost.
    let par = ParallelConstruct::new("ti-abort-par");
    let task = TaskConstruct::new("ti-abort-task");
    let tw = taskwait_region("ti-abort-tw");
    let profiler = ProfMonitor::builder()
        .record_task_edges()
        .build()
        .expect("default profiler limits are valid");
    let outcome = Team::new(1).parallel(&profiler, &par, |ctx| {
        for i in 0..8 {
            ctx.task(&task, move |_| {
                std::hint::black_box((0..2_000u64).sum::<u64>());
                if i == 3 {
                    panic!("task 3 exploded");
                }
            });
        }
        ctx.taskwait(tw);
    });
    assert_eq!(outcome.failed_tasks(), 1);

    let log = profiler.take_edge_log().expect("region finished");
    let aborted: Vec<_> = events(&log)
        .filter_map(|e| match e {
            Event::TaskAbort { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    assert_eq!(aborted.len(), 1, "the panic is in the trace");
    let ends = events(&log)
        .filter(|e| matches!(e, Event::TaskEnd { .. }))
        .count();
    assert_eq!(ends, 7, "the abort is recorded instead of an end");

    let a = analyze_trace(&log).expect("a recorded run reads");
    assert_eq!(a.instances.len(), 8);
    assert!(
        a.instances.iter().any(|i| i.id == aborted[0]),
        "the aborted instance is listed"
    );
    let spans: u64 = a.instances.iter().map(|i| i.span_ns).sum();
    assert_eq!(a.total_task_exec_ns, spans);
    assert!(
        a.total_task_exec_ns <= elapsed(&log[0].streams[0].1),
        "bounded by the thread's span"
    );
}

#[test]
fn analysis_of_malformed_edge_logs_is_a_typed_error() {
    let reg = pomp::registry();
    let par = reg.register("ti-bad-par", pomp::RegionKind::Parallel, file!(), line!());
    let tw = reg.register("ti-bad-tw", pomp::RegionKind::Taskwait, file!(), line!());
    let bar = reg.register("ti-bad-bar", pomp::RegionKind::ImplicitBarrier, file!(), line!());
    let one = |events| {
        [RegionEdges {
            occurrence: 1,
            region: par,
            streams: vec![(0, EdgeStream::from_events(0, events))],
        }]
    };
    // A scheduling-point exit nobody entered, and an exit that names
    // another scheduling point than the one open.
    for events in [vec![Event::Exit(tw)], vec![Event::Enter(tw), Event::Exit(bar)]] {
        let err = analyze_trace(&one(events)).unwrap_err();
        assert!(matches!(err, DagError::UnbalancedFrame { thread: 0, .. }), "{err:?}");
    }
}

#[test]
fn analysis_groups_by_the_thread_ids_it_sees_not_the_header() {
    // Threads 7 and 900000 of some larger team: state goes by stream,
    // nothing is sized by the thread ids.
    let reg = pomp::registry();
    let par = reg.register("ti-huge-par", pomp::RegionKind::Parallel, file!(), line!());
    let tw = reg.register("ti-huge-tw", pomp::RegionKind::Taskwait, file!(), line!());
    let dwell = |ns| vec![Event::Advance(1), Event::Enter(tw), Event::Advance(ns), Event::Exit(tw)];
    let log = [RegionEdges {
        occurrence: 1,
        region: par,
        streams: vec![(7, EdgeStream::from_events(0, dwell(3))), (900_000, EdgeStream::from_events(1, dwell(7)))],
    }];
    let a = analyze_trace(&log).expect("well-formed");
    assert_eq!(a.by_kind.len(), 1);
    assert_eq!((a.by_kind[0].intervals, a.by_kind[0].dwell_ns), (2, 3 + 7));
}

/// Every field of a [`TraceAnalysis`], regions by name.
fn render_analysis(a: &TraceAnalysis) -> String {
    let mut out = format!(
        "task_exec {} creation {} sched_nonexec {} switches {} ratio {}\n",
        a.total_task_exec_ns,
        a.total_creation_ns,
        a.total_sched_nonexec_ns,
        a.switches,
        a.management_to_work_ratio
    );
    for b in &a.by_kind {
        out += &format!("{b:?}\n");
    }
    for i in &a.instances {
        let (id, region) = (i.id.get(), pomp::registry().name(i.region));
        out += &format!("instance {id} of {region}: queue {:?} ", i.queue_ns);
        out += &format!("span {} fragments {}\n", i.span_ns, i.fragments);
    }
    out
}

/// `tests/golden/compat/trace_v1.analysis.txt` was written once, by the
/// mutex-collected trace recorder this repository had beside the edge log
/// and the analysis of its text traces, from
/// `simsched::workloads::mixed()` on two threads under seed 21. Never
/// regenerated: the analysis of that run's edge log must still say the
/// same.
#[test]
fn frozen_trace_v1_analysis_still_holds_for_the_seeded_edge_log() {
    let frozen_analysis = include_str!("golden/compat/trace_v1.analysis.txt");
    let sched = Arc::new(SimScheduler::new(21));
    let clock = sched.clock().clone();
    let profiler = ProfMonitor::builder()
        .clock(clock.clone())
        .record_task_edges()
        .build()
        .unwrap();
    let team = Team::new(2).with_policy(sched);
    workloads::mixed().run(&team, &profiler, &clock).unwrap();
    let log = profiler.take_edge_log().unwrap();
    let a = analyze_trace(&log).expect("a recorded run reads");
    assert_eq!(render_analysis(&a), frozen_analysis);
}
