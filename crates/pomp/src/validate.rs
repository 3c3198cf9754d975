//! Event-stream validation (fault-tolerant measurement).
//!
//! Instrumentation is code, and code has bugs: a hand-instrumented runtime
//! may emit an `exit` for a region it never entered, end a task instance
//! twice, or switch to an instance the monitor has never seen. A strict
//! profiler turns each of those into a panic *inside the measurement
//! system* — the paper's equivalent would be Score-P aborting the whole
//! application run because one POMP2 call was misplaced.
//!
//! [`ValidatingMonitor`] wraps any [`Monitor`] and guarantees the wrapped
//! monitor only ever observes a *well-formed* stream:
//!
//! * enter/exit (and create/param) events are properly nested per task —
//!   unbalanced exits are either matched by force-closing the frames above
//!   them or dropped when nothing matches,
//! * task lifecycle is sane — `task_end`/`task_abort`/`task_switch`
//!   referring to an instance that never began are dropped, duplicate
//!   begins are dropped, an end for a *suspended* instance gets the
//!   missing `task_switch` synthesized,
//! * at `thread_end`, instances still live are closed with a synthetic
//!   [`ThreadHooks::task_abort`] and leftover open regions with synthetic
//!   closers, so downstream state is always finalized.
//!
//! Every deviation is recorded as a structured [`Diagnostic`] (which
//! defect, on which thread, and whether the event was dropped or
//! repaired); retrieve them with [`ValidatingMonitor::take_diagnostics`].
//! A clean run produces an identical stream and zero diagnostics.

use crate::hooks::{Monitor, TaskRef, ThreadHooks};
use crate::region::{ParamId, RegionId};
use crate::task::TaskId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A defect detected in the raw event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Defect {
    /// `exit` (or `task_create_end` / `parameter_end`) with no matching
    /// open frame anywhere on the current task's stack.
    ExitWithoutEnter {
        /// Region the spurious exit named.
        region: RegionId,
    },
    /// `exit` matched an open frame, but not the innermost one: the frames
    /// above it were never closed by the instrumentation.
    UnbalancedExit {
        /// Region the exit named.
        region: RegionId,
        /// Number of inner frames force-closed to reach it.
        force_closed: usize,
    },
    /// `parameter_end` with no matching open parameter scope.
    ParamEndWithoutBegin {
        /// Parameter the spurious end named.
        param: ParamId,
    },
    /// `parameter_end` matched an open scope, but frames above it were
    /// never closed by the instrumentation.
    UnbalancedParamEnd {
        /// Parameter the end named.
        param: ParamId,
        /// Number of inner frames force-closed to reach it.
        force_closed: usize,
    },
    /// `task_begin` for an instance id that is already executing.
    DuplicateTaskBegin {
        /// The doubly-begun instance.
        task: TaskId,
    },
    /// `task_end` for an instance that never began on this thread.
    TaskEndWithoutBegin {
        /// The unknown instance.
        task: TaskId,
    },
    /// `task_end` for a live instance that was suspended (not current) —
    /// the `task_switch` resuming it is missing.
    TaskEndWhileSuspended {
        /// The instance ended while suspended.
        task: TaskId,
    },
    /// `task_abort` for an instance that never began on this thread.
    TaskAbortWithoutBegin {
        /// The unknown instance.
        task: TaskId,
    },
    /// `task_switch` to an explicit instance that never began (or already
    /// ended) on this thread.
    SwitchToUnknown {
        /// The unknown instance.
        task: TaskId,
    },
    /// An instance was still live (begun, never ended) at `thread_end`.
    TaskNeverEnded {
        /// The leaked instance.
        task: TaskId,
    },
    /// Frames were still open on the implicit task at `thread_end`.
    UnclosedRegions {
        /// Number of frames force-closed.
        count: usize,
    },
}

impl std::fmt::Display for Defect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Defect::ExitWithoutEnter { region } => {
                write!(f, "exit of region {} without matching enter", region.0)
            }
            Defect::UnbalancedExit {
                region,
                force_closed,
            } => write!(
                f,
                "exit of region {} skipped {force_closed} still-open inner frame(s)",
                region.0
            ),
            Defect::ParamEndWithoutBegin { param } => {
                write!(f, "parameter_end of {} without matching begin", param.0)
            }
            Defect::UnbalancedParamEnd {
                param,
                force_closed,
            } => write!(
                f,
                "parameter_end of {} skipped {force_closed} still-open inner frame(s)",
                param.0
            ),
            Defect::DuplicateTaskBegin { task } => {
                write!(f, "task_begin for already-live instance {}", task.get())
            }
            Defect::TaskEndWithoutBegin { task } => {
                write!(f, "task_end for unknown instance {}", task.get())
            }
            Defect::TaskEndWhileSuspended { task } => write!(
                f,
                "task_end for suspended instance {} (missing task_switch)",
                task.get()
            ),
            Defect::TaskAbortWithoutBegin { task } => {
                write!(f, "task_abort for unknown instance {}", task.get())
            }
            Defect::SwitchToUnknown { task } => {
                write!(f, "task_switch to unknown instance {}", task.get())
            }
            Defect::TaskNeverEnded { task } => write!(
                f,
                "instance {} still live at thread end; aborted",
                task.get()
            ),
            Defect::UnclosedRegions { count } => {
                write!(f, "{count} frame(s) left open; force-closed")
            }
        }
    }
}

/// How the validator resolved a defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// The offending event was suppressed; the wrapped monitor never saw it.
    Dropped,
    /// Missing events were synthesized so the stream stays well-formed.
    Synthesized,
}

/// One validation finding: which defect, where, and what was done about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diagnostic {
    /// Team-local thread id the defect occurred on.
    pub tid: usize,
    /// The defect.
    pub defect: Defect,
    /// The repair action taken.
    pub repair: Repair,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let action = match self.repair {
            Repair::Dropped => "dropped",
            Repair::Synthesized => "repaired",
        };
        write!(f, "thread {}: {} [{action}]", self.tid, self.defect)
    }
}

/// One open frame on a task's validation stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    /// Opened by `enter`.
    Region(RegionId),
    /// Opened by `task_create_begin` (closed by `task_create_end`).
    Create(RegionId, TaskId),
    /// Opened by `parameter_begin`.
    Param(ParamId),
}

struct TaskState {
    region: RegionId,
    stack: Vec<Frame>,
}

struct State {
    current: TaskRef,
    implicit: Vec<Frame>,
    live: HashMap<TaskId, TaskState>,
}

/// A monitor wrapper validating (and where possible repairing) the event
/// stream before it reaches the wrapped monitor. See the module docs.
pub struct ValidatingMonitor<M> {
    inner: M,
    diags: Arc<Mutex<Vec<Diagnostic>>>,
}

impl<M: Monitor> ValidatingMonitor<M> {
    /// Wrap `inner`; it will only observe well-formed event streams.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            diags: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Access the wrapped monitor (e.g. to take its profile afterwards).
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Drain the diagnostics recorded so far (across all threads, in
    /// detection order per thread).
    pub fn take_diagnostics(&self) -> Vec<Diagnostic> {
        std::mem::take(&mut *self.diags.lock().unwrap())
    }

    /// True when no defect has been detected since the last
    /// [`Self::take_diagnostics`].
    pub fn is_clean(&self) -> bool {
        self.diags.lock().unwrap().is_empty()
    }
}

/// Per-thread handle of [`ValidatingMonitor`].
pub struct ValidatingThread<T> {
    inner: T,
    tid: usize,
    state: RefCell<State>,
    diags: Arc<Mutex<Vec<Diagnostic>>>,
}

impl<T: ThreadHooks> ValidatingThread<T> {
    fn report(&self, defect: Defect, repair: Repair) {
        self.diags.lock().unwrap().push(Diagnostic {
            tid: self.tid,
            defect,
            repair,
        });
    }

    /// Forward the closing event for one popped frame.
    fn close_frame(&self, frame: Frame) {
        match frame {
            Frame::Region(r) => self.inner.exit(r),
            Frame::Create(r, id) => self.inner.task_create_end(r, id),
            Frame::Param(p) => self.inner.parameter_end(p),
        }
    }

    /// Close `target` on the current task's stack: if it is the top frame
    /// the close is forwarded verbatim; if it is buried, the frames above
    /// it are force-closed first (synthesizing their closers); if it is
    /// absent the close is dropped. Returns diagnostics as needed.
    fn close_matching(&self, target: Frame) {
        let mut st = self.state.borrow_mut();
        let stack = match st.current {
            TaskRef::Implicit => &mut st.implicit,
            TaskRef::Explicit(id) => {
                &mut st
                    .live
                    .get_mut(&id)
                    .expect("current task is always live")
                    .stack
            }
        };
        let matches = |f: &Frame| match (f, &target) {
            (Frame::Region(a), Frame::Region(b)) => a == b,
            (Frame::Create(a, _), Frame::Create(b, _)) => a == b,
            (Frame::Param(a), Frame::Param(b)) => a == b,
            _ => false,
        };
        let Some(pos) = stack.iter().rposition(matches) else {
            drop(st);
            let defect = match target {
                Frame::Param(p) => Defect::ParamEndWithoutBegin { param: p },
                Frame::Region(r) | Frame::Create(r, _) => Defect::ExitWithoutEnter { region: r },
            };
            self.report(defect, Repair::Dropped);
            return;
        };
        let above: Vec<Frame> = stack.drain(pos + 1..).collect();
        let matched = stack.pop().expect("rposition points into the stack");
        drop(st);
        if !above.is_empty() {
            let defect = match target {
                Frame::Region(r) | Frame::Create(r, _) => Defect::UnbalancedExit {
                    region: r,
                    force_closed: above.len(),
                },
                Frame::Param(p) => Defect::UnbalancedParamEnd {
                    param: p,
                    force_closed: above.len(),
                },
            };
            self.report(defect, Repair::Synthesized);
            for f in above.into_iter().rev() {
                self.close_frame(f);
            }
        }
        self.close_frame(matched);
    }

    /// Finalize the thread's state: abort live instances, close leftover
    /// frames. Called by the monitor right before the real `thread_end`.
    fn heal_at_end(&self) {
        // A still-current explicit task ends first (its abort returns the
        // thread to the implicit task), then any suspended instances.
        let mut leaked: Vec<TaskId> = {
            let st = self.state.borrow();
            let mut v: Vec<TaskId> = st.live.keys().copied().collect();
            v.sort();
            if let TaskRef::Explicit(cur) = st.current {
                v.retain(|&id| id != cur);
                v.insert(0, cur);
            }
            v
        };
        for id in leaked.drain(..) {
            self.report(Defect::TaskNeverEnded { task: id }, Repair::Synthesized);
            let region = {
                let mut st = self.state.borrow_mut();
                let ts = st.live.remove(&id).expect("collected from live set");
                if st.current == TaskRef::Explicit(id) {
                    st.current = TaskRef::Implicit;
                }
                ts.region
            };
            self.inner.task_abort(region, id);
        }
        let frames: Vec<Frame> = {
            let mut st = self.state.borrow_mut();
            st.implicit.drain(..).collect()
        };
        if !frames.is_empty() {
            self.report(
                Defect::UnclosedRegions {
                    count: frames.len(),
                },
                Repair::Synthesized,
            );
            for f in frames.into_iter().rev() {
                self.close_frame(f);
            }
        }
    }
}

impl<M: Monitor> Monitor for ValidatingMonitor<M> {
    type Thread = ValidatingThread<M::Thread>;

    fn parallel_fork(&self, region: RegionId, nthreads: usize) {
        self.inner.parallel_fork(region, nthreads);
    }

    fn thread_begin(&self, tid: usize, nthreads: usize, region: RegionId) -> Self::Thread {
        ValidatingThread {
            inner: self.inner.thread_begin(tid, nthreads, region),
            tid,
            state: RefCell::new(State {
                current: TaskRef::Implicit,
                implicit: Vec::new(),
                live: HashMap::new(),
            }),
            diags: self.diags.clone(),
        }
    }

    fn thread_end(&self, tid: usize, thread: Self::Thread) {
        thread.heal_at_end();
        self.inner.thread_end(tid, thread.inner);
    }

    fn parallel_join(&self, region: RegionId) {
        self.inner.parallel_join(region);
    }
}

impl<T: ThreadHooks> ThreadHooks for ValidatingThread<T> {
    fn enter(&self, region: RegionId) {
        let mut st = self.state.borrow_mut();
        match st.current {
            TaskRef::Implicit => st.implicit.push(Frame::Region(region)),
            TaskRef::Explicit(id) => st
                .live
                .get_mut(&id)
                .expect("current task is always live")
                .stack
                .push(Frame::Region(region)),
        }
        drop(st);
        self.inner.enter(region);
    }

    fn exit(&self, region: RegionId) {
        self.close_matching(Frame::Region(region));
    }

    fn task_create_begin(&self, create_region: RegionId, task_region: RegionId, new_task: TaskId) {
        let mut st = self.state.borrow_mut();
        let frame = Frame::Create(create_region, new_task);
        match st.current {
            TaskRef::Implicit => st.implicit.push(frame),
            TaskRef::Explicit(id) => st
                .live
                .get_mut(&id)
                .expect("current task is always live")
                .stack
                .push(frame),
        }
        drop(st);
        self.inner
            .task_create_begin(create_region, task_region, new_task);
    }

    fn task_create_end(&self, create_region: RegionId, new_task: TaskId) {
        self.close_matching(Frame::Create(create_region, new_task));
    }

    fn task_begin(&self, task_region: RegionId, task: TaskId) {
        {
            let mut st = self.state.borrow_mut();
            if st.live.contains_key(&task) {
                drop(st);
                self.report(Defect::DuplicateTaskBegin { task }, Repair::Dropped);
                return;
            }
            st.live.insert(
                task,
                TaskState {
                    region: task_region,
                    stack: Vec::new(),
                },
            );
            st.current = TaskRef::Explicit(task);
        }
        self.inner.task_begin(task_region, task);
    }

    fn task_end(&self, task_region: RegionId, task: TaskId) {
        {
            let st = self.state.borrow();
            if !st.live.contains_key(&task) {
                drop(st);
                self.report(Defect::TaskEndWithoutBegin { task }, Repair::Dropped);
                return;
            }
            if st.current != TaskRef::Explicit(task) {
                drop(st);
                // The switch resuming the instance is missing — synthesize
                // it so the wrapped monitor sees a legal end.
                self.report(Defect::TaskEndWhileSuspended { task }, Repair::Synthesized);
                self.state.borrow_mut().current = TaskRef::Explicit(task);
                self.inner.task_switch(TaskRef::Explicit(task));
            }
        }
        // Close frames the task body left open before the end.
        let open: Vec<Frame> = {
            let mut st = self.state.borrow_mut();
            let ts = st.live.get_mut(&task).expect("checked live above");
            ts.stack.drain(..).collect()
        };
        if !open.is_empty() {
            self.report(
                Defect::UnclosedRegions { count: open.len() },
                Repair::Synthesized,
            );
            for f in open.into_iter().rev() {
                self.close_frame(f);
            }
        }
        {
            let mut st = self.state.borrow_mut();
            st.live.remove(&task);
            st.current = TaskRef::Implicit;
        }
        self.inner.task_end(task_region, task);
    }

    fn task_abort(&self, task_region: RegionId, task: TaskId) {
        let prev = {
            let mut st = self.state.borrow_mut();
            if !st.live.contains_key(&task) {
                drop(st);
                self.report(Defect::TaskAbortWithoutBegin { task }, Repair::Dropped);
                return;
            }
            // An abort legally closes a suspended or current instance; the
            // wrapped monitor force-closes its frames itself and ends up on
            // the implicit task.
            let prev = st.current;
            st.live.remove(&task);
            if st.current == TaskRef::Explicit(task) {
                st.current = TaskRef::Implicit;
            }
            prev
        };
        self.inner.task_abort(task_region, task);
        if let TaskRef::Explicit(cur) = prev {
            if cur != task {
                // Aborting a *suspended* instance left the wrapped monitor
                // on the implicit task; switch it back to the task this
                // thread is actually still executing.
                self.inner.task_switch(TaskRef::Explicit(cur));
            }
        }
    }

    fn task_switch(&self, resumed: TaskRef) {
        {
            let mut st = self.state.borrow_mut();
            if st.current == resumed {
                // Switch to the already-current task: a no-op by the hook
                // contract (profilers ignore it), so not worth a diagnostic
                // — and the validator's own abort repair can introduce one.
                return;
            }
            if let TaskRef::Explicit(id) = resumed {
                if !st.live.contains_key(&id) {
                    drop(st);
                    self.report(Defect::SwitchToUnknown { task: id }, Repair::Dropped);
                    return;
                }
            }
            st.current = resumed;
        }
        self.inner.task_switch(resumed);
    }

    fn parameter_begin(&self, param: ParamId, value: i64) {
        let mut st = self.state.borrow_mut();
        match st.current {
            TaskRef::Implicit => st.implicit.push(Frame::Param(param)),
            TaskRef::Explicit(id) => st
                .live
                .get_mut(&id)
                .expect("current task is always live")
                .stack
                .push(Frame::Param(param)),
        }
        drop(st);
        self.inner.parameter_begin(param, value);
    }

    fn parameter_end(&self, param: ParamId) {
        self.close_matching(Frame::Param(param));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::CountingMonitor;
    use crate::region::RegionKind;
    use crate::task::TaskIdAllocator;
    use std::sync::atomic::Ordering;

    fn regions(tag: &str) -> (RegionId, RegionId, RegionId) {
        let reg = crate::registry();
        (
            reg.register(&format!("vd-{tag}-par"), RegionKind::Parallel, "t", 0),
            reg.register(&format!("vd-{tag}-r"), RegionKind::User, "t", 0),
            reg.register(&format!("vd-{tag}-task"), RegionKind::Task, "t", 0),
        )
    }

    #[test]
    fn clean_stream_passes_untouched() {
        let (par, r, task) = regions("clean");
        let counting = CountingMonitor::new();
        let v = ValidatingMonitor::new(counting.clone());
        let ids = TaskIdAllocator::new();
        let th = v.thread_begin(0, 1, par);
        th.enter(r);
        let id = ids.alloc();
        th.task_create_begin(r, task, id);
        th.task_create_end(r, id);
        th.task_begin(task, id);
        th.task_end(task, id);
        th.exit(r);
        v.thread_end(0, th);
        assert!(v.is_clean());
        let (e, c, b, d, ..) = counting.counts().snapshot();
        assert_eq!((e, c, b, d), (1, 1, 1, 1));
        assert!(v.take_diagnostics().is_empty());
    }

    #[test]
    fn exit_without_enter_is_dropped() {
        let (par, r, _) = regions("noenter");
        let counting = CountingMonitor::new();
        let v = ValidatingMonitor::new(counting.clone());
        let th = v.thread_begin(0, 1, par);
        th.exit(r); // never entered
        v.thread_end(0, th);
        let diags = v.take_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].defect, Defect::ExitWithoutEnter { region: r });
        assert_eq!(diags[0].repair, Repair::Dropped);
        assert_eq!(counting.counts().enters.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn buried_exit_force_closes_inner_frames() {
        let reg = crate::registry();
        let par = reg.register("vd-buried-par", RegionKind::Parallel, "t", 0);
        let outer = reg.register("vd-buried-outer", RegionKind::User, "t", 0);
        let inner = reg.register("vd-buried-inner", RegionKind::User, "t", 0);
        let counting = CountingMonitor::new();
        let v = ValidatingMonitor::new(counting.clone());
        let th = v.thread_begin(0, 1, par);
        th.enter(outer);
        th.enter(inner);
        th.exit(outer); // inner never exited: synthesize its exit first
        v.thread_end(0, th);
        let diags = v.take_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].defect,
            Defect::UnbalancedExit {
                region: outer,
                force_closed: 1
            }
        );
        assert_eq!(diags[0].repair, Repair::Synthesized);
        assert_eq!(counting.counts().enters.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn lifecycle_defects_are_dropped() {
        let (par, _, task) = regions("life");
        let counting = CountingMonitor::new();
        let v = ValidatingMonitor::new(counting.clone());
        let ids = TaskIdAllocator::new();
        let th = v.thread_begin(0, 1, par);
        let ghost = ids.alloc();
        th.task_end(task, ghost); // never began
        th.task_switch(TaskRef::Explicit(ghost)); // unknown instance
        th.task_switch(TaskRef::Implicit); // already current: silent no-op
        th.task_abort(task, ghost); // never began
        let id = ids.alloc();
        th.task_begin(task, id);
        th.task_begin(task, id); // duplicate
        th.task_end(task, id);
        v.thread_end(0, th);
        let defects: Vec<Defect> = v.take_diagnostics().iter().map(|d| d.defect).collect();
        assert_eq!(
            defects,
            vec![
                Defect::TaskEndWithoutBegin { task: ghost },
                Defect::SwitchToUnknown { task: ghost },
                Defect::TaskAbortWithoutBegin { task: ghost },
                Defect::DuplicateTaskBegin { task: id },
            ]
        );
        let (_, _, b, d, s, ..) = counting.counts().snapshot();
        assert_eq!((b, d, s), (1, 1, 0), "only the legal begin/end forwarded");
        assert_eq!(counting.counts().task_aborts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn end_while_suspended_synthesizes_the_missing_switch() {
        let (par, _, task) = regions("susp");
        let counting = CountingMonitor::new();
        let v = ValidatingMonitor::new(counting.clone());
        let ids = TaskIdAllocator::new();
        let th = v.thread_begin(0, 1, par);
        let id = ids.alloc();
        th.task_begin(task, id);
        th.task_switch(TaskRef::Implicit); // suspend it
        th.task_end(task, id); // end without resuming first
        v.thread_end(0, th);
        let diags = v.take_diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].defect, Defect::TaskEndWhileSuspended { task: id });
        assert_eq!(diags[0].repair, Repair::Synthesized);
        let (_, _, b, d, s, ..) = counting.counts().snapshot();
        // suspend + synthesized resume; begin and end both forwarded.
        assert_eq!((b, d, s), (1, 1, 2));
    }

    #[test]
    fn leaked_instances_and_frames_heal_at_thread_end() {
        let (par, r, task) = regions("leak");
        let counting = CountingMonitor::new();
        let v = ValidatingMonitor::new(counting.clone());
        let ids = TaskIdAllocator::new();
        let th = v.thread_begin(0, 1, par);
        th.enter(r); // never exited
        let id = ids.alloc();
        th.task_begin(task, id); // never ended
        v.thread_end(0, th);
        let diags = v.take_diagnostics();
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].defect, Defect::TaskNeverEnded { task: id });
        assert_eq!(diags[1].defect, Defect::UnclosedRegions { count: 1 });
        assert_eq!(counting.counts().task_aborts.load(Ordering::Relaxed), 1);
        assert_eq!(counting.counts().task_ends.load(Ordering::Relaxed), 0);
    }
}
