//! Fault tolerance end to end: a panicking task body must neither take
//! down the measurement run nor poison the profile.
//!
//! The original Score-P tooling aborts the whole application when its
//! internal consistency checks fire; here a panic in one task instance is
//! contained at the task boundary (the runtime reports it via
//! [`taskrt::ParallelOutcome`]), the profiler closes the instance's open
//! frames, tags its tree as aborted, and still merges the time observed
//! up to the panic.

use std::sync::atomic::{AtomicUsize, Ordering};
use taskprof::ProfMonitor;
use taskrt::{taskwait_region, ParallelConstruct, TaskConstruct, Team};

#[test]
fn sibling_panic_is_isolated_and_profiled() {
    let par = ParallelConstruct::new("pi-sib-par");
    let task = TaskConstruct::new("pi-sib-task");
    let tw = taskwait_region("pi-sib-tw");
    let m = ProfMonitor::new();
    let ran = AtomicUsize::new(0);
    let ran = &ran;

    let outcome = Team::new(4).parallel(&m, &par, |ctx| {
        if ctx.tid() == 0 {
            for i in 0..16 {
                ctx.task(&task, move |_| {
                    if i == 5 {
                        panic!("task 5 exploded");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Must not deadlock even though one sibling never completes
            // normally.
            ctx.taskwait(tw);
        }
    });

    assert!(!outcome.is_ok());
    assert_eq!(outcome.failed_tasks(), 1, "exactly one instance failed");
    let msg = outcome.panic_message().expect("payload preserved");
    assert!(msg.contains("task 5 exploded"), "{msg}");
    assert_eq!(
        ran.load(Ordering::Relaxed),
        15,
        "the 15 healthy siblings ran"
    );

    // The profile still merged: 16 instances counted, one tagged aborted,
    // and the observed time of the aborted instance was kept.
    let p = m.take_profile().expect("no region in flight");
    let trees: Vec<&taskprof::SnapNode> = p.threads.iter().flat_map(|t| &t.task_trees).collect();
    assert!(!trees.is_empty(), "task trees survived the panic");
    let visits: u64 = trees.iter().map(|t| t.stats.visits).sum();
    let aborted: u64 = trees.iter().map(|t| t.stats.aborted).sum();
    assert_eq!(visits, 16, "every instance (incl. the failed one) counted");
    assert_eq!(aborted, 1, "the failed instance is tagged");
    assert_eq!(p.aborted_instances(), 1);
}

#[test]
fn panic_deep_in_recursive_task_chain_releases_all_ancestors() {
    // BOTS-style recursive decomposition (fib-like): each level spawns a
    // child and taskwaits on it; the leaf panics. Every ancestor taskwait
    // must still release, the outcome must report the single failure, and
    // the profiler must close every suspended ancestor instance.
    let par = ParallelConstruct::new("pi-rec-par");
    let task = TaskConstruct::new("pi-rec-task");
    let tw = taskwait_region("pi-rec-tw");
    let m = ProfMonitor::new();

    fn spawn<'w, 'env, M: pomp::Monitor>(
        ctx: &taskrt::TaskCtx<'w, 'env, M>,
        task: &'env TaskConstruct,
        tw: pomp::RegionId,
        depth: usize,
    ) {
        ctx.task(task, move |ctx| {
            if depth == 0 {
                panic!("leaf panicked at the bottom");
            }
            spawn(ctx, task, tw, depth - 1);
            ctx.taskwait(tw);
        });
    }

    let outcome = Team::new(2).parallel(&m, &par, |ctx| {
        if ctx.tid() == 0 {
            spawn(ctx, &task, tw, 12);
            ctx.taskwait(tw);
        }
    });

    assert_eq!(outcome.failed_tasks(), 1, "only the leaf itself failed");
    assert!(outcome
        .panic_message()
        .is_some_and(|s| s.contains("leaf panicked")));

    let p = m.take_profile().expect("no region in flight");
    assert_eq!(p.aborted_instances(), 1);
    // All 13 instances (12 ancestors + leaf) began and were closed: the
    // ancestors normally after their taskwait released, the leaf aborted.
    let visits: u64 = p
        .threads
        .iter()
        .flat_map(|t| &t.task_trees)
        .map(|t| t.stats.visits)
        .sum();
    assert_eq!(visits, 13);
    // No diagnostics: the runtime emitted a fully balanced stream, so the
    // profiler needed no self-healing at finish.
    assert!(p.diagnostics().is_empty(), "{:?}", p.diagnostics());
}

#[test]
fn panics_on_worker_threads_are_contained_too() {
    // Panicking instances stolen by other threads must not kill those
    // threads' measurement: every thread still produces a snapshot.
    let par = ParallelConstruct::new("pi-steal-par");
    let task = TaskConstruct::new("pi-steal-task");
    let m = ProfMonitor::new();

    let outcome = Team::new(4).parallel(&m, &par, |ctx| {
        if ctx.tid() == 0 {
            for i in 0..64 {
                ctx.task(&task, move |_| {
                    if i % 16 == 3 {
                        panic!("instance {i} failed");
                    }
                });
            }
        }
    });

    assert_eq!(outcome.failed_tasks(), 4);
    let p = m.take_profile().expect("no region in flight");
    assert_eq!(p.num_threads(), 4, "all threads reported a snapshot");
    assert_eq!(p.aborted_instances(), 4);
    let visits: u64 = p
        .threads
        .iter()
        .flat_map(|t| &t.task_trees)
        .map(|t| t.stats.visits)
        .sum();
    assert_eq!(visits, 64);
}

#[test]
fn clean_bots_run_under_validator_stays_clean() {
    // The full runtime drives a real BOTS code through the stream
    // validator wrapped around the profiler: a correct runtime must
    // produce zero diagnostics and an intact profile.
    use bots::{run_app, AppId, RunOpts, Scale};
    use pomp::ValidatingMonitor;

    let v = ValidatingMonitor::new(ProfMonitor::new());
    let out = run_app(AppId::Fib, &v, &RunOpts::new(2).scale(Scale::Test));
    assert!(out.verified);
    assert!(v.is_clean(), "diagnostics: {:?}", v.take_diagnostics());
    let p = v.inner().take_profile().expect("no region in flight");
    assert_eq!(p.num_threads(), 2);
    assert_eq!(p.aborted_instances(), 0);
    assert!(p.threads.iter().any(|t| !t.task_trees.is_empty()));
}
