//! Tracer attached to real runtime workloads — consistency between the
//! trace, the profile, and the workload's ground truth.

use bots::{run_app, AppId, RunOpts, Scale};
use pomp::TaskRef;
use taskprof::ProfMonitor;
use taskprof_trace::{analyze, read_trace, write_trace, EventKind, TraceMonitor};
use taskrt::{taskwait_region, ParallelConstruct, TaskConstruct, Team};

#[test]
fn trace_is_balanced_and_counts_match_profile() {
    let profiler = ProfMonitor::new();
    let tracer = TraceMonitor::new();
    let opts = RunOpts::new(2).scale(Scale::Test);
    let out = run_app(AppId::Fib, &(&profiler, &tracer), &opts);
    assert!(out.verified);

    let profile = profiler.take_profile().expect("no region in flight");
    let trace = tracer.take_trace();
    assert_eq!(trace.nthreads, 2);

    // Per-thread: enters and exits balance, begins equal ends.
    for tid in 0..2 {
        let mut depth = 0i64;
        let (mut begins, mut ends) = (0u64, 0u64);
        for e in trace.thread(tid) {
            match e.kind {
                EventKind::Enter(_) => depth += 1,
                EventKind::Exit(_) => {
                    depth -= 1;
                    assert!(depth >= 0, "exit without enter on thread {tid}");
                }
                EventKind::TaskBegin(..) => begins += 1,
                EventKind::TaskEnd(..) => ends += 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced regions on thread {tid}");
        assert_eq!(begins, ends, "task begin/end mismatch on thread {tid}");
    }

    // Trace-wide begins == profile-wide completed instances.
    let trace_begins = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskBegin(..)))
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
    let tracer = TraceMonitor::new();
    let opts = RunOpts::new(2).scale(Scale::Test);
    let out = run_app(AppId::Nqueens, &tracer, &opts);
    assert!(out.verified);
    let trace = tracer.take_trace();
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
    let tracer = TraceMonitor::new();
    let opts = RunOpts::new(1).scale(Scale::Test);
    run_app(AppId::Fib, &tracer, &opts);
    let trace = tracer.take_trace();
    let mut seen = std::collections::HashSet::new();
    for e in &trace.events {
        match e.kind {
            EventKind::TaskBegin(_, id) => {
                seen.insert(id);
            }
            EventKind::TaskSwitch(TaskRef::Explicit(id)) => {
                assert!(seen.contains(&id), "switch to never-begun task");
            }
            _ => {}
        }
    }
}

#[test]
fn text_dump_of_real_trace_renders_every_event() {
    let tracer = TraceMonitor::new();
    let opts = RunOpts::new(1).scale(Scale::Test);
    run_app(AppId::Alignment, &tracer, &opts);
    let trace = tracer.take_trace();
    let text = trace.to_text();
    assert_eq!(text.lines().count(), trace.len());
    assert!(text.contains("TASK_BEGIN   alignment_pair"));
    assert!(text.contains("ENTER        alignment!single"));
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
    let tracer = TraceMonitor::new();
    let outcome = Team::new(1).parallel(&tracer, &par, |ctx| {
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

    let trace = tracer.take_trace();
    let aborted: Vec<_> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskAbort(_, id) => Some(id),
            _ => None,
        })
        .collect();
    assert_eq!(aborted.len(), 1, "the panic is in the trace");
    let ends = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskEnd(..)))
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
    let (first, last) = (trace.events[0].t, trace.events[trace.len() - 1].t);
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
