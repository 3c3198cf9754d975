//! The per-task execution context — the API task bodies and parallel
//! regions program against.

use crate::constructs::{SingleConstruct, TaskConstruct};
use crate::raw::erase_closure;
use crate::task::TaskNode;
use crate::worker::WorkerState;
use pomp::{Monitor, ParamId, RegionId, TaskId, ThreadHooks};
use std::marker::PhantomData;
use std::sync::Arc;

/// Handle to the current task, passed to every parallel-region and task
/// closure.
///
/// `'env` is the environment lifetime of the enclosing [`crate::Team::parallel`]
/// call: task closures may borrow anything that outlives the parallel
/// region, exactly like `rayon::scope` tasks.
pub struct TaskCtx<'w, 'env, M: Monitor> {
    pub(crate) worker: &'w WorkerState<'w, M>,
    pub(crate) node: Arc<TaskNode>,
    pub(crate) _env: PhantomData<&'env mut &'env ()>,
}

impl<'w, 'env, M: Monitor> TaskCtx<'w, 'env, M> {
    /// Team-local id of the executing thread (0-based).
    pub fn tid(&self) -> usize {
        self.worker.tid
    }

    /// Team size.
    pub fn num_threads(&self) -> usize {
        self.worker.shared.nthreads
    }

    /// Recursion depth of the current task in the dynamic task tree
    /// (implicit task = 0).
    pub fn task_depth(&self) -> u32 {
        self.node.depth
    }

    /// Instance id of the current task, `None` in the implicit task.
    pub fn task_id(&self) -> Option<TaskId> {
        self.node.id
    }

    /// True in the implicit task (directly inside the parallel region).
    pub fn is_implicit(&self) -> bool {
        self.node.is_implicit()
    }

    fn assert_current(&self) {
        debug_assert!(
            Arc::ptr_eq(&self.node, &self.worker.current.borrow()),
            "TaskCtx used outside its own task's execution"
        );
    }

    /// Create a tied task: an instance of `construct` whose body may run
    /// on any team thread, at any scheduling point, but — being tied —
    /// never migrates once started. Normally the task is deferred
    /// (queued); a [`crate::SchedulePolicy`] may instead choose to run it
    /// undeferred on the encountering thread, a freedom OpenMP grants the
    /// runtime for any task.
    pub fn task<F>(&self, construct: &TaskConstruct, f: F)
    where
        F: for<'x> FnOnce(&TaskCtx<'x, 'env, M>) + Send + 'env,
    {
        if self.worker.shared.policy.defer_task(self.worker.tid) {
            self.task_deferred(construct, f);
        } else {
            self.task_undeferred(construct, f);
        }
    }

    /// The `if` clause: when `cond` is false the task executes immediately
    /// (undeferred) on the encountering thread, still as a proper task
    /// instance with its own begin/end events.
    ///
    /// Undeferred bodies get the same panic isolation as deferred ones:
    /// a panicking body is recorded as a failed instance (`task_abort`
    /// event, [`crate::ParallelOutcome`] accounting), the encountering
    /// task resumes, and execution continues after the construct.
    pub fn task_if<F>(&self, cond: bool, construct: &TaskConstruct, f: F)
    where
        F: for<'x> FnOnce(&TaskCtx<'x, 'env, M>) + Send + 'env,
    {
        if cond {
            self.task(construct, f);
        } else {
            self.task_undeferred(construct, f);
        }
    }

    /// Queue a deferred instance of `construct`.
    fn task_deferred<F>(&self, construct: &TaskConstruct, f: F)
    where
        F: for<'x> FnOnce(&TaskCtx<'x, 'env, M>) + Send + 'env,
    {
        self.assert_current();
        let boxed: crate::raw::ScopedClosure<'env, M> = Box::new(f);
        // SAFETY: the implicit barrier at the end of the parallel region
        // completes every deferred task before `Team::parallel` returns,
        // i.e. before `'env` can end.
        let erased = unsafe { erase_closure(boxed) };
        self.worker
            .spawn(construct.task, construct.create, &self.node, erased);
    }

    /// Execute an instance of `construct` immediately (undeferred) on the
    /// encountering thread.
    fn task_undeferred<F>(&self, construct: &TaskConstruct, f: F)
    where
        F: for<'x> FnOnce(&TaskCtx<'x, 'env, M>) + Send + 'env,
    {
        self.assert_current();
        let id = self.worker.shared.ids.alloc();
        self.worker
            .run_task(construct.task, TaskNode::child_of(&self.node, id), f);
    }

    /// Wait for the current task's direct children, executing eligible
    /// queued tasks meanwhile (a task scheduling point).
    pub fn taskwait(&self, region: RegionId) {
        self.assert_current();
        self.worker.taskwait(region);
    }

    /// Explicit team barrier (only valid in the implicit task). Waiting
    /// threads execute queued tasks.
    pub fn barrier(&self, region: RegionId) {
        self.assert_current();
        assert!(
            self.node.is_implicit(),
            "explicit barrier inside an explicit task"
        );
        self.worker.barrier(region);
    }

    /// `single` construct: exactly one team thread runs `f`; an implied
    /// barrier (at which threads execute queued tasks) closes the
    /// construct. Only valid in the implicit task.
    pub fn single<F>(&self, construct: &SingleConstruct, f: F)
    where
        F: FnOnce(&TaskCtx<'_, 'env, M>),
    {
        self.assert_current();
        assert!(self.node.is_implicit(), "single inside an explicit task");
        let k = self.worker.single_count.get();
        self.worker.single_count.set(k + 1);
        // Let a simulating policy decide the arrival order — and thus the
        // winner — of this `single` arbitration (no-op in production).
        self.worker
            .shared
            .policy
            .sched_point(self.worker.tid, crate::policy::SchedPoint::SingleEnter);
        self.worker.hooks.enter(construct.region);
        if self.worker.shared.singles.claim(k) {
            f(self);
        }
        self.worker.hooks.exit(construct.region);
        self.worker.barrier(construct.barrier);
    }

    /// `for` worksharing, static schedule: iterations `range` are divided
    /// into `chunk`-sized blocks assigned round-robin by thread id (like
    /// `schedule(static, chunk)`); an implied barrier closes the
    /// construct. Only valid in the implicit task, and every team thread
    /// must reach the construct.
    pub fn for_static<F>(
        &self,
        construct: &crate::constructs::ForConstruct,
        range: std::ops::Range<usize>,
        chunk: usize,
        f: F,
    ) where
        F: Fn(usize),
    {
        self.assert_current();
        assert!(
            self.node.is_implicit(),
            "worksharing inside an explicit task"
        );
        assert!(chunk > 0, "chunk must be positive");
        // Keep the per-thread encounter counters aligned with for_dynamic.
        let k = self.worker.workshare_count.get();
        self.worker.workshare_count.set(k + 1);
        self.worker.hooks.enter(construct.region);
        let n = self.num_threads();
        let mut block = self.tid();
        loop {
            let start = range.start + block * chunk;
            if start >= range.end {
                break;
            }
            let end = (start + chunk).min(range.end);
            for i in start..end {
                f(i);
            }
            block += n;
        }
        self.worker.hooks.exit(construct.region);
        self.worker.barrier(construct.barrier);
    }

    /// `for` worksharing, dynamic schedule: threads grab `chunk`-sized
    /// blocks from a shared counter (like `schedule(dynamic, chunk)`); an
    /// implied barrier closes the construct. Only valid in the implicit
    /// task, and every team thread must reach the construct.
    pub fn for_dynamic<F>(
        &self,
        construct: &crate::constructs::ForConstruct,
        range: std::ops::Range<usize>,
        chunk: usize,
        f: F,
    ) where
        F: Fn(usize),
    {
        self.assert_current();
        assert!(
            self.node.is_implicit(),
            "worksharing inside an explicit task"
        );
        assert!(chunk > 0, "chunk must be positive");
        let k = self.worker.workshare_count.get();
        self.worker.workshare_count.set(k + 1);
        let counter = self.worker.shared.workshares.counter(k);
        self.worker.hooks.enter(construct.region);
        loop {
            let start =
                range.start + counter.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
            if start >= range.end {
                break;
            }
            let end = (start + chunk).min(range.end);
            for i in start..end {
                f(i);
            }
        }
        self.worker.hooks.exit(construct.region);
        self.worker.barrier(construct.barrier);
    }

    /// Named `critical` section: mutual exclusion across the team. The
    /// region is entered *before* acquiring the lock, so lock contention
    /// shows up as the critical region's exclusive time in the profile.
    /// Do not create or wait for tasks inside (the lock is held).
    pub fn critical<R>(&self, region: RegionId, f: impl FnOnce(&Self) -> R) -> R {
        self.assert_current();
        let lock = self.worker.shared.criticals.lock_for(region);
        self.worker.hooks.enter(region);
        let guard = lock.lock();
        let r = f(self);
        drop(guard);
        self.worker.hooks.exit(region);
        r
    }

    /// Run `f` inside an instrumented user region.
    pub fn region<R>(&self, region: RegionId, f: impl FnOnce(&Self) -> R) -> R {
        self.assert_current();
        self.worker.hooks.enter(region);
        let r = f(self);
        self.worker.hooks.exit(region);
        r
    }

    /// Run `f` inside a parameter scope (paper Section VI): profile
    /// children are recorded under a `(param, value)` sub-tree, e.g. the
    /// recursion depth of `nqueens` in the paper's Table IV.
    pub fn parameter<R>(&self, param: ParamId, value: i64, f: impl FnOnce(&Self) -> R) -> R {
        self.assert_current();
        self.worker.hooks.parameter_begin(param, value);
        let r = f(self);
        self.worker.hooks.parameter_end(param);
        r
    }
}
