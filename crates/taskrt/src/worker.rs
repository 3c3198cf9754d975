//! Per-thread worker: task execution, scheduling points, stealing.

use crate::ctx::TaskCtx;
use crate::policy::{AcquireOrder, SchedPoint};
use crate::raw::{ErasedClosure, RawTask};
use crate::sched::Shared;
use crate::task::{is_descendant_of, TaskNode};
use crossbeam_deque::{Steal, Worker};
use crossbeam_utils::Backoff;
use pomp::{Monitor, RegionId, TaskRef, ThreadHooks};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;

/// One team thread's execution state.
pub(crate) struct WorkerState<'s, M: Monitor> {
    pub shared: &'s Shared<M>,
    pub tid: usize,
    pub local: Worker<RawTask<M>>,
    pub hooks: M::Thread,
    /// The task currently executing on this thread (implicit at top level).
    pub current: RefCell<Arc<TaskNode>>,
    /// Count of `single` constructs dynamically encountered by this thread.
    pub single_count: Cell<usize>,
    /// Count of worksharing constructs dynamically encountered.
    pub workshare_count: Cell<usize>,
    /// Round-robin steal cursor.
    steal_from: Cell<usize>,
}

impl<'s, M: Monitor> WorkerState<'s, M> {
    pub fn new(
        shared: &'s Shared<M>,
        tid: usize,
        local: Worker<RawTask<M>>,
        hooks: M::Thread,
        implicit: Arc<TaskNode>,
    ) -> Self {
        Self {
            shared,
            tid,
            local,
            hooks,
            current: RefCell::new(implicit),
            single_count: Cell::new(0),
            workshare_count: Cell::new(0),
            steal_from: Cell::new((tid + 1) % shared.nthreads.max(1)),
        }
    }

    /// Queue a deferred tied task created by `creator`.
    pub fn spawn(
        &self,
        task_region: RegionId,
        create_region: RegionId,
        creator: &Arc<TaskNode>,
        body: ErasedClosure<M>,
    ) {
        let id = self.shared.ids.alloc();
        self.hooks.task_create_begin(create_region, task_region, id);
        let node = TaskNode::child_of(creator, id);
        self.shared.task_queued();
        self.local.push(RawTask {
            node,
            region: task_region,
            body,
        });
        // Task creation is a scheduling point; the simulation policy
        // charges its deterministic creation cost here, inside the
        // create_begin/create_end frame, and may switch simulated threads.
        self.shared.policy.sched_point(self.tid, SchedPoint::Spawn);
        self.hooks.task_create_end(create_region, id);
    }

    /// Run `body` as instance `node` of construct `region` on this
    /// thread, deferred or undeferred alike: the one task begin and
    /// completion sequence of the runtime. Emits `task_begin`, then
    /// `task_end_resume` when a suspended explicit task lies below (one
    /// hook, so a profiler stamps the end and the resume with one clock
    /// read), `task_end` when it is the implicit task, or, if the body
    /// panics, `task_abort` plus the resume `task_switch`. Maintains the
    /// current-task pointer, and signals completion to the parent after
    /// the hooks.
    ///
    /// Panic isolation: a panic in the task body is caught here, at the
    /// task boundary. The instance is recorded as failed on the shared
    /// state, its completion is still signalled (so the parent's
    /// `taskwait` and the team barrier counters cannot deadlock), and the
    /// thread carries on with sibling tasks. The panic payload surfaces
    /// through [`crate::ParallelOutcome`].
    ///
    /// Does not touch the outstanding-task counter: deferred-task callers
    /// retire it themselves; undeferred tasks were never counted.
    pub fn run_task<'env>(
        &self,
        region: RegionId,
        node: Arc<TaskNode>,
        body: impl FnOnce(&TaskCtx<'_, 'env, M>),
    ) {
        let prev = self.current.replace(node.clone());
        let id = node.id.expect("executing an implicit task");
        self.hooks.task_begin(region, id);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&TaskCtx {
                worker: self,
                node: node.clone(),
                _env: PhantomData,
            });
        }));
        match (outcome, prev.id) {
            (Ok(()), Some(resumed)) => self.hooks.task_end_resume(region, id, resumed),
            (Ok(()), None) => self.hooks.task_end(region, id),
            (Err(payload), resumed) => {
                self.hooks.task_abort(region, id);
                self.shared.task_panicked(payload);
                if let Some(resumed) = resumed {
                    self.hooks.task_switch(TaskRef::Explicit(resumed));
                }
            }
        }
        node.complete();
        *self.current.borrow_mut() = prev;
    }

    /// Pop from the thread's own LIFO deque.
    fn pop_local(&self) -> Option<RawTask<M>> {
        self.local.pop()
    }

    /// Pull from the shared injector (re-queued stashed tasks).
    fn pop_injector(&self) -> Option<RawTask<M>> {
        loop {
            match self.shared.injector.steal_batch_and_pop(&self.local) {
                Steal::Success(t) => return Some(t),
                Steal::Retry => continue,
                Steal::Empty => return None,
            }
        }
    }

    /// Steal from other workers, starting at the policy-chosen victim and
    /// continuing round-robin.
    fn pop_steal(&self) -> Option<RawTask<M>> {
        let n = self.shared.stealers.len();
        let start = self
            .shared
            .policy
            .steal_start(self.tid, n, self.steal_from.get());
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == self.tid {
                continue;
            }
            loop {
                match self.shared.stealers[victim].steal() {
                    Steal::Success(t) => {
                        self.steal_from.set(victim);
                        return Some(t);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    /// Pop any runnable task: by default local LIFO first, then the
    /// injector, then steal round-robin from other workers (the policy
    /// may flip the order). Used by (implicit-task) barriers, where the
    /// scheduling constraint allows any task.
    pub fn pop_any(&self) -> Option<RawTask<M>> {
        match self.shared.policy.acquire_order(self.tid) {
            AcquireOrder::LocalFirst => self
                .pop_local()
                .or_else(|| self.pop_injector())
                .or_else(|| self.pop_steal()),
            AcquireOrder::StealFirst => self
                .pop_steal()
                .or_else(|| self.pop_local())
                .or_else(|| self.pop_injector()),
        }
    }

    /// `taskwait`: wait until the current task's direct children complete,
    /// executing eligible queued tasks meanwhile.
    ///
    /// Tied-task scheduling constraint: a new tied task may only run here
    /// if it is a descendant of the suspended task, otherwise the schedule
    /// could require resuming the suspended task on a different thread.
    /// Ineligible tasks popped from the local deque are stashed and
    /// re-queued afterwards.
    pub fn taskwait(&self, region: RegionId) {
        self.hooks.enter(region);
        let waiting = self.current.borrow().clone();
        let eligible = |node: &Arc<TaskNode>| {
            self.shared.unrestricted_taskwait || is_descendant_of(node, &waiting)
        };
        if waiting.pending() > 0 {
            let mut stash: Vec<RawTask<M>> = Vec::new();
            let backoff = Backoff::new();
            while waiting.pending() > 0 {
                if let Some(t) = self.local.pop() {
                    if eligible(&t.node) {
                        self.run_task(t.region, t.node, t.body);
                        self.shared.task_retired();
                        backoff.reset();
                        // Completed a task at the scheduling point: let a
                        // simulating policy rotate to another thread
                        // before the next pop (no-op in production).
                        self.shared
                            .policy
                            .sched_point(self.tid, SchedPoint::TaskwaitPoll);
                    } else {
                        stash.push(t);
                    }
                    continue;
                }
                // Local deque exhausted: pull from the injector, which may
                // hold descendants re-queued by nested taskwaits.
                match self.shared.injector.steal_batch_and_pop(&self.local) {
                    Steal::Success(t) => {
                        if eligible(&t.node) {
                            self.run_task(t.region, t.node, t.body);
                            self.shared.task_retired();
                            backoff.reset();
                            self.shared
                                .policy
                                .sched_point(self.tid, SchedPoint::TaskwaitPoll);
                        } else {
                            stash.push(t);
                        }
                        continue;
                    }
                    Steal::Retry => continue,
                    Steal::Empty => {}
                }
                if !self
                    .shared
                    .policy
                    .sched_point(self.tid, SchedPoint::TaskwaitIdle)
                {
                    backoff.snooze();
                }
            }
            // Make stashed tasks schedulable again. They go back on the
            // local deque so that suspended ancestors (whose taskwait scans
            // this deque) find their children when they resume; idle
            // threads can steal them from here as usual.
            for t in stash.into_iter().rev() {
                self.local.push(t);
            }
        }
        self.hooks.exit(region);
    }

    /// Team barrier at which waiting threads execute queued tasks. Used
    /// for the implicit barrier at the end of the parallel region, for
    /// explicit barriers, and for the implied barrier of `single`.
    ///
    /// Must only be called from the implicit task (OpenMP forbids barriers
    /// inside explicit tasks).
    pub fn barrier(&self, region: RegionId) {
        debug_assert!(
            self.current.borrow().is_implicit(),
            "barrier inside an explicit task"
        );
        self.hooks.enter(region);
        let b = &self.shared.barrier;
        let gen = b.arrive();
        let backoff = Backoff::new();
        while !b.released(gen) {
            if let Some(t) = self.pop_any() {
                self.run_task(t.region, t.node, t.body);
                self.shared.task_retired();
                backoff.reset();
                self.shared
                    .policy
                    .sched_point(self.tid, SchedPoint::BarrierPoll);
                continue;
            }
            if b.all_arrived(gen, self.shared.nthreads)
                && self.shared.outstanding.load(std::sync::atomic::Ordering::Acquire) == 0
            {
                if b.try_release(gen) {
                    // Releasing is a state change the other waiters cannot
                    // observe through their own actions; tell the policy so
                    // a simulating scheduler can wake them (no-op in
                    // production).
                    self.shared
                        .policy
                        .sched_point(self.tid, SchedPoint::BarrierRelease);
                    break;
                }
                continue;
            }
            if !self
                .shared
                .policy
                .sched_point(self.tid, SchedPoint::BarrierIdle)
            {
                backoff.snooze();
            }
        }
        self.hooks.exit(region);
    }
}
