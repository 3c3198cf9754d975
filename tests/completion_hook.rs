//! taskrt closes every task that hands the thread back to a suspended
//! explicit task with one `task_end_resume` call, never with a `task_end`
//! followed at once by a `task_switch` to an explicit task; and the
//! event counts a `CountingMonitor` sees, which split that call by
//! default, are those the runtime produced before it existed. The
//! benchmark's `event_ns` denominator and its `instances == tasks` gate
//! are made of these counts.

use bots::{run_app, AppId, RunOpts, Scale};
use pomp::{CountingMonitor, Monitor, RegionId, TaskId, TaskRef, ThreadHooks};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use taskrt::{taskwait_region, ParallelConstruct, TaskConstruct, Team};

/// What a [`Watch`] saw over a run.
#[derive(Default)]
struct Seen {
    /// `task_end_resume` calls.
    fused: AtomicU64,
    /// A `task_end` immediately followed by a `task_switch` to an explicit
    /// task: the two-hook form of a fused call.
    split: AtomicU64,
}

/// Overrides every hook, so it sees the stream exactly as the runtime
/// calls it.
#[derive(Clone, Default)]
struct Watch(Arc<Seen>);

struct WatchThread {
    seen: Arc<Seen>,
    after_end: Cell<bool>,
}

impl WatchThread {
    fn other(&self) {
        self.after_end.set(false);
    }
}

impl Monitor for Watch {
    type Thread = WatchThread;

    fn thread_begin(&self, _tid: usize, _n: usize, _region: RegionId) -> WatchThread {
        WatchThread {
            seen: self.0.clone(),
            after_end: Cell::new(false),
        }
    }

    fn thread_end(&self, _tid: usize, _thread: WatchThread) {}
}

impl ThreadHooks for WatchThread {
    fn enter(&self, _region: RegionId) {
        self.other();
    }

    fn exit(&self, _region: RegionId) {
        self.other();
    }

    fn task_create_begin(&self, _create: RegionId, _task: RegionId, _id: TaskId) {
        self.other();
    }

    fn task_create_end(&self, _create: RegionId, _id: TaskId) {
        self.other();
    }

    fn task_begin(&self, _region: RegionId, _task: TaskId) {
        self.other();
    }

    fn task_end(&self, _region: RegionId, _task: TaskId) {
        self.after_end.set(true);
    }

    fn task_abort(&self, _region: RegionId, _task: TaskId) {
        self.other();
    }

    fn task_switch(&self, resumed: TaskRef) {
        if self.after_end.get() && resumed.explicit().is_some() {
            self.seen.split.fetch_add(1, Ordering::Relaxed);
        }
        self.other();
    }

    fn task_end_resume(&self, _region: RegionId, _task: TaskId, _resumed: TaskId) {
        self.seen.fused.fetch_add(1, Ordering::Relaxed);
        self.other();
    }

    fn parameter_begin(&self, _param: pomp::ParamId, _value: i64) {
        self.other();
    }

    fn parameter_end(&self, _param: pomp::ParamId) {
        self.other();
    }
}

/// `(enters, creations, begins, ends, switches, params, threads)`.
type Counts = (u64, u64, u64, u64, u64, u64, u64);

/// The counts and the fused calls of one run.
fn counted(run: impl FnOnce(&(CountingMonitor, Watch))) -> (Counts, u64) {
    let monitor = (CountingMonitor::new(), Watch::default());
    run(&monitor);
    let (counting, watch) = monitor;
    assert_eq!(
        watch.0.split.load(Ordering::Relaxed),
        0,
        "an end and a resume came as two hooks"
    );
    assert_eq!(counting.counts().task_aborts.load(Ordering::Relaxed), 0);
    let counts = counting.counts().snapshot();
    let fused = watch.0.fused.load(Ordering::Relaxed);
    // The runtime switches only to resume an explicit task after a
    // completion, so every switch the counter saw is half a fused call.
    assert_eq!(fused, counts.4, "every resume is a fused call");
    (counts, fused)
}

#[test]
fn bots_kernels_resume_through_one_hook_with_unchanged_counts() {
    // One thread: the schedule, and so every count, is deterministic.
    // The totals are the ones the two-hook runtime produced.
    for (app, want) in [
        (AppId::Fib, (989, 1972, 1972, 1972, 1970, 0, 1)),
        (AppId::Nqueens, (1968, 2056, 2056, 2056, 2048, 0, 1)),
        (AppId::Health, (283, 240, 240, 240, 180, 0, 1)),
    ] {
        let (counts, _) = counted(|m| {
            let out = run_app(app, m, &RunOpts::new(1).scale(Scale::Test));
            assert!(out.verified, "{}", app.name());
        });
        assert_eq!(counts, want, "{}", app.name());
    }
}

#[test]
fn undeferred_tasks_resume_through_one_hook() {
    let par = ParallelConstruct::new("completion-hook-par");
    let task = TaskConstruct::new("completion-hook-task");
    let tw = taskwait_region("completion-hook-tw");
    let task = &task;
    let (counts, fused) = counted(|m| {
        Team::new(1)
            .parallel(m, &par, |ctx| {
                ctx.task(task, |ctx| {
                    // Undeferred under an explicit task, nesting another
                    // undeferred one and a deferred one it waits for.
                    ctx.task_if(false, task, |ctx| {
                        ctx.task_if(false, task, |_| {});
                        ctx.task(task, |_| {});
                        ctx.taskwait(tw);
                    });
                });
            })
            .unwrap();
    });
    assert_eq!(counts, (2, 2, 4, 4, 3, 0, 1));
    assert_eq!(fused, 3);
}
