//! The measurement hook interface (the POMP2 analogue).
//!
//! A tasking runtime calls these hooks at exactly the program points where
//! OPARI2 inserts POMP2 calls:
//!
//! * `enter`/`exit` around every instrumented region — taskwaits, barriers,
//!   `single` constructs, user regions,
//! * `task_create_begin`/`task_create_end` around queuing a deferred task,
//! * `task_begin`/`task_end` around the execution of one task instance,
//! * `task_switch` whenever the thread's *current task* changes without a
//!   begin/end (i.e. suspension/resumption at a scheduling point),
//! * `task_end_resume` when a completed instance hands the thread back to
//!   the explicit task suspended below it: `task_end` and the resume
//!   `task_switch` as one call, so a monitor can stamp both with one
//!   clock read (by default it is exactly those two calls),
//! * `parameter_begin`/`parameter_end` for parameter instrumentation
//!   (paper Section VI, Table IV).
//!
//! Hook methods take `&self`: each [`ThreadHooks`] value is owned by exactly
//! one runtime thread, so implementations keep their mutable state in a
//! `RefCell`/`Cell` without synchronization — the "separate preallocated
//! memory per thread" design the paper inherits from Score-P.

use crate::region::{ParamId, RegionId};
use crate::task::TaskId;

/// Classification of the hook vocabulary for telemetry and perturbation
/// accounting: every [`ThreadHooks`] method maps to exactly one class
/// (begin/end pairs of the same construct share one — `task_create_begin`
/// and `task_create_end` are both [`EventClass::TaskCreate`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(usize)]
pub enum EventClass {
    /// Region `enter`.
    Enter,
    /// Region `exit`.
    Exit,
    /// `task_create_begin` / `task_create_end`.
    TaskCreate,
    /// `task_begin`.
    TaskBegin,
    /// `task_end`.
    TaskEnd,
    /// `task_abort`.
    TaskAbort,
    /// `task_switch`.
    TaskSwitch,
    /// `parameter_begin` / `parameter_end`.
    Param,
}

impl EventClass {
    /// Number of classes (array dimension for per-class counters).
    pub const COUNT: usize = 8;

    /// Every class, in index order.
    pub const ALL: [EventClass; EventClass::COUNT] = [
        EventClass::Enter,
        EventClass::Exit,
        EventClass::TaskCreate,
        EventClass::TaskBegin,
        EventClass::TaskEnd,
        EventClass::TaskAbort,
        EventClass::TaskSwitch,
        EventClass::Param,
    ];

    /// Dense index (0-based, stable across versions within `COUNT`).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case label used by exporters (`enter`, `task_begin`, ...).
    pub fn label(self) -> &'static str {
        match self {
            EventClass::Enter => "enter",
            EventClass::Exit => "exit",
            EventClass::TaskCreate => "task_create",
            EventClass::TaskBegin => "task_begin",
            EventClass::TaskEnd => "task_end",
            EventClass::TaskAbort => "task_abort",
            EventClass::TaskSwitch => "task_switch",
            EventClass::Param => "param",
        }
    }

    /// Inverse of [`EventClass::label`].
    pub fn from_label(label: &str) -> Option<EventClass> {
        EventClass::ALL.into_iter().find(|c| c.label() == label)
    }
}

/// The task whose execution a thread resumes at a `task_switch`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TaskRef {
    /// The thread's implicit task.
    Implicit,
    /// An explicit task instance.
    Explicit(TaskId),
}

impl TaskRef {
    /// `Some(id)` for explicit tasks.
    #[inline]
    pub fn explicit(self) -> Option<TaskId> {
        match self {
            TaskRef::Implicit => None,
            TaskRef::Explicit(id) => Some(id),
        }
    }
}

/// Per-thread measurement hooks. All methods default to no-ops so partial
/// monitors (e.g. a counter that only cares about task events) stay small.
pub trait ThreadHooks {
    /// The thread enters `region` within its current task.
    #[inline]
    fn enter(&self, region: RegionId) {
        let _ = region;
    }

    /// The thread exits `region` within its current task.
    #[inline]
    fn exit(&self, region: RegionId) {
        let _ = region;
    }

    /// The thread starts creating (queuing) a deferred instance `new_task`
    /// of the task construct `task_region`. `create_region` is the creation
    /// site's own region (kind [`crate::RegionKind::TaskCreate`]).
    #[inline]
    fn task_create_begin(&self, create_region: RegionId, task_region: RegionId, new_task: TaskId) {
        let _ = (create_region, task_region, new_task);
    }

    /// Creation of `new_task` finished; the creating task continues.
    #[inline]
    fn task_create_end(&self, create_region: RegionId, new_task: TaskId) {
        let _ = (create_region, new_task);
    }

    /// The thread begins executing instance `task` of construct
    /// `task_region` (paper Fig. 12 `TaskBegin`).
    #[inline]
    fn task_begin(&self, task_region: RegionId, task: TaskId) {
        let _ = (task_region, task);
    }

    /// Instance `task` completed (paper Fig. 12 `TaskEnd`).
    #[inline]
    fn task_end(&self, task_region: RegionId, task: TaskId) {
        let _ = (task_region, task);
    }

    /// Instance `task` terminated abnormally (its body panicked). Emitted
    /// *instead of* `task_end`: the instance will never complete normally,
    /// but the thread resumes whatever was below it just as after an end.
    /// Monitors should close any state still open for the instance; time
    /// measured up to the abort is still valid measurement data.
    #[inline]
    fn task_abort(&self, task_region: RegionId, task: TaskId) {
        let _ = (task_region, task);
    }

    /// The thread's current task changes to `resumed` at a scheduling point
    /// (paper Fig. 12 `TaskSwitch`). `task_begin`/`task_end` imply their own
    /// switches; the runtime only calls this for suspend/resume transitions
    /// that are *not* paired with a begin or end on this thread.
    #[inline]
    fn task_switch(&self, resumed: TaskRef) {
        let _ = resumed;
    }

    /// Instance `task` completed and the thread resumes the explicit task
    /// `resumed`, suspended below it. The runtime emits this instead of
    /// `task_end` + `task_switch(TaskRef::Explicit(resumed))` with nothing
    /// in between, so an override may treat the pair as one instant; the
    /// default is those two calls, in that order.
    #[inline]
    fn task_end_resume(&self, task_region: RegionId, task: TaskId, resumed: TaskId) {
        self.task_end(task_region, task);
        self.task_switch(TaskRef::Explicit(resumed));
    }

    /// Enter a parameter scope: subsequent children of the current node are
    /// recorded under a `(param, value)` sub-tree until `parameter_end`.
    #[inline]
    fn parameter_begin(&self, param: ParamId, value: i64) {
        let _ = (param, value);
    }

    /// Leave the innermost parameter scope for `param`.
    #[inline]
    fn parameter_end(&self, param: ParamId) {
        let _ = param;
    }
}

/// Process-level monitor: hands out per-thread hooks at parallel-region
/// fork and collects them at join.
pub trait Monitor: Sync {
    /// The per-thread hook type.
    type Thread: ThreadHooks;

    /// A parallel region with `nthreads` threads is about to fork.
    #[inline]
    fn parallel_fork(&self, region: RegionId, nthreads: usize) {
        let _ = (region, nthreads);
    }

    /// Thread `tid` (0-based) of the team starts; returns its hooks.
    fn thread_begin(&self, tid: usize, nthreads: usize, parallel_region: RegionId)
        -> Self::Thread;

    /// Thread `tid` finished the parallel region; its hooks are returned to
    /// the monitor (this is where a profiler collects the thread's data).
    fn thread_end(&self, tid: usize, thread: Self::Thread);

    /// The parallel region joined.
    #[inline]
    fn parallel_join(&self, region: RegionId) {
        let _ = region;
    }
}

/// Monitors can be passed by reference (useful with the pair monitor:
/// `(&counter, &profiler)`).
impl<M: Monitor> Monitor for &M {
    type Thread = M::Thread;

    fn parallel_fork(&self, region: RegionId, nthreads: usize) {
        (**self).parallel_fork(region, nthreads);
    }

    fn thread_begin(&self, tid: usize, nthreads: usize, region: RegionId) -> Self::Thread {
        (**self).thread_begin(tid, nthreads, region)
    }

    fn thread_end(&self, tid: usize, thread: Self::Thread) {
        (**self).thread_end(tid, thread);
    }

    fn parallel_join(&self, region: RegionId) {
        (**self).parallel_join(region);
    }
}

/// Fan-out: a pair of monitors observes the same run (e.g. a counter
/// plus a profiler). Hooks are invoked in order, first then second.
impl<A: Monitor, B: Monitor> Monitor for (A, B) {
    type Thread = (A::Thread, B::Thread);

    fn parallel_fork(&self, region: RegionId, nthreads: usize) {
        self.0.parallel_fork(region, nthreads);
        self.1.parallel_fork(region, nthreads);
    }

    fn thread_begin(&self, tid: usize, nthreads: usize, region: RegionId) -> Self::Thread {
        (
            self.0.thread_begin(tid, nthreads, region),
            self.1.thread_begin(tid, nthreads, region),
        )
    }

    fn thread_end(&self, tid: usize, thread: Self::Thread) {
        self.0.thread_end(tid, thread.0);
        self.1.thread_end(tid, thread.1);
    }

    fn parallel_join(&self, region: RegionId) {
        self.0.parallel_join(region);
        self.1.parallel_join(region);
    }
}

impl<A: ThreadHooks, B: ThreadHooks> ThreadHooks for (A, B) {
    #[inline]
    fn enter(&self, region: RegionId) {
        self.0.enter(region);
        self.1.enter(region);
    }

    #[inline]
    fn exit(&self, region: RegionId) {
        self.0.exit(region);
        self.1.exit(region);
    }

    #[inline]
    fn task_create_begin(&self, create_region: RegionId, task_region: RegionId, new_task: TaskId) {
        self.0.task_create_begin(create_region, task_region, new_task);
        self.1.task_create_begin(create_region, task_region, new_task);
    }

    #[inline]
    fn task_create_end(&self, create_region: RegionId, new_task: TaskId) {
        self.0.task_create_end(create_region, new_task);
        self.1.task_create_end(create_region, new_task);
    }

    #[inline]
    fn task_begin(&self, task_region: RegionId, task: TaskId) {
        self.0.task_begin(task_region, task);
        self.1.task_begin(task_region, task);
    }

    #[inline]
    fn task_end(&self, task_region: RegionId, task: TaskId) {
        self.0.task_end(task_region, task);
        self.1.task_end(task_region, task);
    }

    #[inline]
    fn task_abort(&self, task_region: RegionId, task: TaskId) {
        self.0.task_abort(task_region, task);
        self.1.task_abort(task_region, task);
    }

    #[inline]
    fn task_switch(&self, resumed: TaskRef) {
        self.0.task_switch(resumed);
        self.1.task_switch(resumed);
    }

    #[inline]
    fn task_end_resume(&self, task_region: RegionId, task: TaskId, resumed: TaskId) {
        self.0.task_end_resume(task_region, task, resumed);
        self.1.task_end_resume(task_region, task, resumed);
    }

    #[inline]
    fn parameter_begin(&self, param: ParamId, value: i64) {
        self.0.parameter_begin(param, value);
        self.1.parameter_begin(param, value);
    }

    #[inline]
    fn parameter_end(&self, param: ParamId) {
        self.0.parameter_end(param);
        self.1.parameter_end(param);
    }
}

/// Per-thread hooks that do nothing. With `NullMonitor` this is the
/// *uninstrumented* configuration: every hook is an empty inline function
/// the optimizer removes entirely.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullThreadHooks;

impl ThreadHooks for NullThreadHooks {}

/// Monitor that measures nothing — the overhead baseline.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullMonitor;

impl Monitor for NullMonitor {
    type Thread = NullThreadHooks;

    #[inline]
    fn thread_begin(&self, _tid: usize, _n: usize, _region: RegionId) -> NullThreadHooks {
        NullThreadHooks
    }

    #[inline]
    fn thread_end(&self, _tid: usize, _thread: NullThreadHooks) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionKind;
    use std::cell::RefCell;

    #[test]
    fn null_monitor_round_trip() {
        let m = NullMonitor;
        let r = crate::registry().register("p", RegionKind::Parallel, "t", 0);
        m.parallel_fork(r, 4);
        let t = m.thread_begin(0, 4, r);
        t.enter(r);
        t.exit(r);
        t.task_switch(TaskRef::Implicit);
        m.thread_end(0, t);
        m.parallel_join(r);
    }

    #[test]
    fn task_ref_explicit() {
        let alloc = crate::TaskIdAllocator::new();
        let id = alloc.alloc();
        assert_eq!(TaskRef::Implicit.explicit(), None);
        assert_eq!(TaskRef::Explicit(id).explicit(), Some(id));
    }

    /// A minimal recording monitor exercising the default-method surface —
    /// also documents the expected call sequencing for runtime authors.
    struct Recorder(RefCell<Vec<String>>);

    impl ThreadHooks for Recorder {
        fn enter(&self, r: RegionId) {
            self.0.borrow_mut().push(format!("enter {}", r.0));
        }
        fn exit(&self, r: RegionId) {
            self.0.borrow_mut().push(format!("exit {}", r.0));
        }
        fn task_begin(&self, r: RegionId, t: TaskId) {
            self.0.borrow_mut().push(format!("begin {} #{}", r.0, t.get()));
        }
        fn task_end(&self, r: RegionId, t: TaskId) {
            self.0.borrow_mut().push(format!("end {} #{}", r.0, t.get()));
        }
        fn task_switch(&self, resumed: TaskRef) {
            self.0.borrow_mut().push(format!("switch {resumed:?}"));
        }
    }

    fn recorder() -> Recorder {
        Recorder(RefCell::new(vec![]))
    }

    #[test]
    fn partial_hooks_record_only_overridden_events() {
        let rec = recorder();
        let alloc = crate::TaskIdAllocator::new();
        let r = RegionId(3);
        let t = alloc.alloc();
        rec.enter(r);
        rec.task_begin(r, t);
        rec.parameter_begin(ParamId(0), 1); // default no-op
        rec.task_end(r, t);
        rec.exit(r);
        assert_eq!(
            rec.0.into_inner(),
            vec!["enter 3", "begin 3 #1", "end 3 #1", "exit 3"]
        );
    }

    #[test]
    fn a_fused_end_and_resume_defaults_to_the_end_then_the_switch() {
        let alloc = crate::TaskIdAllocator::new();
        let (parent, child) = (alloc.alloc(), alloc.alloc());
        let rec = recorder();
        rec.task_end_resume(RegionId(4), child, parent);
        assert_eq!(
            rec.0.into_inner(),
            vec!["end 4 #2".to_string(), format!("switch {:?}", TaskRef::Explicit(parent))]
        );
    }

    #[test]
    fn a_pair_forwards_the_fused_call_to_both_sides() {
        let alloc = crate::TaskIdAllocator::new();
        let (parent, child) = (alloc.alloc(), alloc.alloc());
        let pair = (recorder(), recorder());
        pair.task_end_resume(RegionId(5), child, parent);
        let want = vec!["end 5 #2".to_string(), format!("switch {:?}", TaskRef::Explicit(parent))];
        assert_eq!(pair.0 .0.into_inner(), want);
        assert_eq!(pair.1 .0.into_inner(), want);
    }
}
