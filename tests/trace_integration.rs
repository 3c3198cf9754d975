//! The edge-log trace of real runtime workloads — consistency between
//! the trace, the profile, and the workload's ground truth — and the
//! `taskprof-trace v1` text format's frozen compatibility file.

use bots::{run_app, AppId, RunOpts, Scale};
use pomp::TaskRef;
use simsched::{workloads, SimScheduler};
use std::sync::Arc;
use taskprof::{Event, ProfMonitor};
use taskprof_trace::{analyze, read_trace, write_trace, Trace, TraceAnalysis};
use taskrt::{taskwait_region, ParallelConstruct, TaskConstruct, Team};

/// Run `app` at test scale; the trace is the profiler's own edge log.
fn traced_run(app: AppId, threads: usize) -> (bots::Outcome, ProfMonitor, Trace) {
    let profiler = ProfMonitor::builder()
        .record_task_edges()
        .build()
        .expect("default profiler limits are valid");
    let out = run_app(app, &profiler, &RunOpts::new(threads).scale(Scale::Test));
    assert!(out.verified);
    let log = profiler.take_edge_log().expect("no region in flight");
    (out, profiler, Trace::from_edge_log(&log))
}

#[test]
fn trace_is_balanced_and_counts_match_profile() {
    let (_, profiler, trace) = traced_run(AppId::Fib, 2);
    let profile = profiler.take_profile().expect("no region in flight");
    assert_eq!(trace.nthreads(), 2);

    // Per-thread: enters and exits balance, begins equal ends.
    for tid in 0..2 {
        let mut depth = 0i64;
        let (mut begins, mut ends) = (0u64, 0u64);
        for e in trace.thread(tid) {
            match e.event {
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

    // Trace-wide begins == profile-wide completed instances.
    let trace_begins = trace
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::TaskBegin { .. }))
        .count() as u64;
    let profile_instances: u64 = profile
        .threads
        .iter()
        .flat_map(|t| &t.task_trees)
        .map(|t| t.stats.samples)
        .sum();
    assert_eq!(trace_begins, profile_instances);

    // Timestamps are monotone per thread.
    for tid in 0..2 {
        let mut last = 0;
        for e in trace.thread(tid) {
            assert!(e.t >= last);
            last = e.t;
        }
    }
}

#[test]
fn analysis_of_real_run_is_consistent() {
    let (out, _, trace) = traced_run(AppId::Nqueens, 2);
    let a = analyze(&trace);
    // Every instance completed within the kernel.
    assert!(!a.instances.is_empty());
    for i in &a.instances {
        assert!(i.fragments >= 1);
        assert!(i.queue_ns.is_some(), "creation must precede execution");
    }
    // Switch count covers at least one per instance.
    assert!(a.switches >= a.instances.len() as u64);
    // Totals are bounded by wall time × threads.
    let wall = out.kernel.as_nanos() as u64 * 2;
    assert!(a.total_task_exec_ns <= wall);
    assert!(a.total_sched_nonexec_ns <= wall);
    // nqueens without cut-off is creation-heavy: the management/work
    // ratio must be clearly nonzero (the exact value is build- and
    // machine-dependent; paper-scale runs push it past 1).
    assert!(
        a.management_to_work_ratio > 0.02,
        "ratio {}",
        a.management_to_work_ratio
    );
    assert!(a.total_creation_ns > 0);
}

#[test]
fn switch_events_reference_known_tasks() {
    let (_, _, trace) = traced_run(AppId::Fib, 1);
    let mut seen = std::collections::HashSet::new();
    for e in trace.events() {
        match e.event {
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

    let trace = Trace::from_edge_log(&profiler.take_edge_log().expect("region finished"));
    let aborted: Vec<_> = trace
        .events()
        .iter()
        .filter_map(|e| match e.event {
            Event::TaskAbort { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    assert_eq!(aborted.len(), 1, "the panic is in the trace");
    let ends = trace
        .events()
        .iter()
        .filter(|e| matches!(e.event, Event::TaskEnd { .. }))
        .count();
    assert_eq!(ends, 7, "the abort is recorded instead of an end");

    let a = analyze(&trace);
    assert_eq!(a.instances.len(), 8);
    assert!(
        a.instances.iter().any(|i| i.id == aborted[0]),
        "the aborted instance is listed"
    );
    let spans: u64 = a.instances.iter().map(|i| i.span_ns).sum();
    assert_eq!(a.total_task_exec_ns, spans);
    let (first, last) = (trace.events()[0].t, trace.events()[trace.len() - 1].t);
    assert!(
        a.total_task_exec_ns <= last - first,
        "bounded by the thread's span"
    );

    // The abort survives the text store.
    let text = write_trace(&trace);
    assert_eq!(text.matches(" task-abort ").count(), 1, "{text}");
    let back = read_trace(&text).expect("own output must parse");
    assert_eq!(analyze(&back).total_task_exec_ns, a.total_task_exec_ns);
}

#[test]
fn analysis_of_malformed_but_parseable_traces_does_not_panic() {
    // A scheduling-point exit nobody entered.
    let lone_exit = "taskprof-trace v1\nthreads 1\n5 0 exit taskwait:ti-lone\n";
    let a = analyze(&read_trace(lone_exit).expect("parses"));
    assert!(a.by_kind.is_empty(), "the unbalanced exit is skipped");

    // An exit that names another scheduling point than the one open.
    let crossed = "taskprof-trace v1\nthreads 1\n\
        1 0 enter taskwait:ti-x-tw\n\
        4 0 exit ibarrier:ti-x-bar\n";
    let a = analyze(&read_trace(crossed).expect("parses"));
    assert_eq!(a.by_kind.len(), 1);

    // Timestamps running backwards inside an interval, a creation and a
    // task execution.
    let backwards = "taskprof-trace v1\nthreads 1\n\
        90 0 create-begin create:ti-bw-c task:ti-bw-t 1\n\
        80 0 create-end create:ti-bw-c 1\n\
        70 0 enter ibarrier:ti-bw-b\n\
        60 0 task-begin task:ti-bw-t 1\n\
        50 0 task-end task:ti-bw-t 1\n\
        40 0 exit ibarrier:ti-bw-b\n";
    let a = analyze(&read_trace(backwards).expect("parses"));
    assert_eq!(a.instances.len(), 1);
    assert_eq!(
        (
            a.total_task_exec_ns,
            a.total_creation_ns,
            a.instances[0].span_ns
        ),
        (0, 0, 0),
        "negative differences saturate at zero"
    );
}

#[test]
fn analysis_groups_by_the_thread_ids_it_sees_not_the_header() {
    // A sweep over the header's `0..threads` made this file 2^64 passes.
    let huge = format!(
        "taskprof-trace v1\nthreads {}\n\
        1 7 enter taskwait:ti-huge-tw\n\
        4 7 exit taskwait:ti-huge-tw\n\
        2 900000 enter taskwait:ti-huge-tw\n\
        9 900000 exit taskwait:ti-huge-tw\n",
        usize::MAX
    );
    let a = analyze(&read_trace(&huge).expect("parses"));
    assert_eq!(a.by_kind.len(), 1);
    assert_eq!((a.by_kind[0].intervals, a.by_kind[0].dwell_ns), (2, 3 + 7));
}

#[test]
fn event_on_a_thread_outside_the_team_is_a_parse_error() {
    let text = "taskprof-trace v1\nthreads 2\n5 1 enter user:ti-tid\n12 2 exit user:ti-tid\n";
    let e = read_trace(text).unwrap_err();
    assert_eq!((e.line, e.column), (4, 4), "at the tid column: {e}");
}

#[test]
fn sums_a_file_controls_saturate_instead_of_overflowing() {
    // One barrier with two creations and two tasks in it, then two idle
    // ones, every span 2^64-1 ns long: each `+=` sees MAX + MAX.
    let max = u64::MAX;
    let enter = "0 0 enter ibarrier:ti-sat-b\n";
    let exit = format!("{max} 0 exit ibarrier:ti-sat-b\n");
    let task = format!(
        "0 0 create-begin create:ti-sat-c task:ti-sat-t 1\n\
        {max} 0 create-end create:ti-sat-c 1\n\
        0 0 task-begin task:ti-sat-t 1\n\
        {max} 0 task-end task:ti-sat-t 1\n"
    );
    let text = format!(
        "taskprof-trace v1\nthreads 1\n{enter}{task}{task}{exit}{enter}{exit}{enter}{exit}"
    );
    let a = analyze(&read_trace(&text).expect("parses"));
    assert_eq!((a.total_task_exec_ns, a.total_creation_ns), (max, max));
    assert_eq!(a.total_sched_nonexec_ns, max);
    let b = &a.by_kind[0];
    assert_eq!((b.intervals, b.dwell_ns, b.task_exec_ns), (3, max, max));
    assert_eq!(b.pre_switch_ns, max);
}

/// Every field of a [`TraceAnalysis`], regions by name and kinds in
/// label order (their dwell-time order leaves ties to a hash map).
fn render_analysis(a: &TraceAnalysis) -> String {
    let mut out = format!(
        "task_exec {} creation {} sched_nonexec {} switches {} ratio {}\n",
        a.total_task_exec_ns,
        a.total_creation_ns,
        a.total_sched_nonexec_ns,
        a.switches,
        a.management_to_work_ratio
    );
    let mut kinds: Vec<String> = a.by_kind.iter().map(|b| format!("{b:?}\n")).collect();
    kinds.sort();
    out += &kinds.concat();
    for i in &a.instances {
        let (id, region) = (i.id.get(), pomp::registry().name(i.region));
        out += &format!("instance {id} of {region}: queue {:?} ", i.queue_ns);
        out += &format!("span {} fragments {}\n", i.span_ns, i.fragments);
    }
    out
}

/// `tests/golden/compat/trace_v1.txt` and `.analysis.txt` were written
/// once, by the mutex-collected trace recorder this repository had beside
/// the edge log (deleted in the PR that added this test), from
/// `simsched::workloads::mixed()` on two threads under seed 21. Never
/// regenerated: a reader or analysis that disagrees with them has broken
/// files on users' disks.
#[test]
fn frozen_trace_v1_file_still_reads_round_trips_and_analyses_the_same() {
    let frozen = include_str!("golden/compat/trace_v1.txt");
    let frozen_analysis = include_str!("golden/compat/trace_v1.analysis.txt");
    let parsed = read_trace(frozen).expect("the v1 reader opens a v1 file");
    assert_eq!(write_trace(&parsed), frozen, "byte for byte");
    assert_eq!(render_analysis(&analyze(&parsed)), frozen_analysis);

    // The edge log of the same seeded run is the same file: the runtime
    // never emits the one row it drops, a switch to the current task.
    let sched = Arc::new(SimScheduler::new(21));
    let clock = sched.clock().clone();
    let profiler = ProfMonitor::builder()
        .clock(clock.clone())
        .record_task_edges()
        .build()
        .unwrap();
    let team = Team::new(2).with_policy(sched);
    workloads::mixed().run(&team, &profiler, &clock).unwrap();
    let recorded = Trace::from_edge_log(&profiler.take_edge_log().unwrap());
    assert_eq!(write_trace(&recorded), frozen);
}
