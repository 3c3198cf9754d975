//! The trace-recording monitor.

use crate::event::{EventKind, Trace, TraceEvent};
use parking_lot::Mutex;
use pomp::{Clock, Monitor, MonotonicClock, ParamId, RegionId, TaskId, TaskRef, ThreadHooks};
use std::cell::RefCell;
use std::sync::Arc;

struct Inner<C> {
    clock: C,
    collected: Mutex<Vec<Vec<TraceEvent>>>,
    nthreads: Mutex<usize>,
}

/// Records a full task event trace. Attach alongside a profiler with the
/// pair monitor: `let m = (ProfMonitor::new(), TraceMonitor::new());`.
pub struct TraceMonitor<C: Clock = MonotonicClock> {
    inner: Arc<Inner<C>>,
}

impl Default for TraceMonitor<MonotonicClock> {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceMonitor<MonotonicClock> {
    /// Recorder with the monotonic clock.
    pub fn new() -> Self {
        Self::with_clock(MonotonicClock::new())
    }
}

impl<C: Clock> TraceMonitor<C> {
    /// Recorder over an arbitrary clock.
    pub fn with_clock(clock: C) -> Self {
        Self {
            inner: Arc::new(Inner {
                clock,
                collected: Mutex::new(Vec::new()),
                nthreads: Mutex::new(0),
            }),
        }
    }

    /// Drain the recorded trace (events of all threads, thread-major).
    pub fn take_trace(&self) -> Trace {
        let mut buffers = std::mem::take(&mut *self.inner.collected.lock());
        buffers.sort_by_key(|b| b.first().map_or(0, |e| e.tid));
        Trace {
            events: buffers.into_iter().flatten().collect(),
            nthreads: *self.inner.nthreads.lock(),
        }
    }
}

/// Per-thread trace buffer.
pub struct TraceThread<C: Clock> {
    inner: Arc<Inner<C>>,
    tid: usize,
    buf: RefCell<Vec<TraceEvent>>,
}

impl<C: Clock> TraceThread<C> {
    #[inline]
    fn push(&self, kind: EventKind) {
        let t = self.inner.clock.now();
        self.buf.borrow_mut().push(TraceEvent {
            t,
            tid: self.tid,
            kind,
        });
    }
}

impl<C: Clock + 'static> Monitor for TraceMonitor<C> {
    type Thread = TraceThread<C>;

    fn parallel_fork(&self, _region: RegionId, nthreads: usize) {
        *self.inner.nthreads.lock() = nthreads;
    }

    fn thread_begin(&self, tid: usize, nthreads: usize, _region: RegionId) -> TraceThread<C> {
        *self.inner.nthreads.lock() = nthreads;
        TraceThread {
            inner: self.inner.clone(),
            tid,
            buf: RefCell::new(Vec::with_capacity(1024)),
        }
    }

    fn thread_end(&self, _tid: usize, thread: TraceThread<C>) {
        self.inner.collected.lock().push(thread.buf.into_inner());
    }
}

impl<C: Clock> ThreadHooks for TraceThread<C> {
    #[inline]
    fn enter(&self, region: RegionId) {
        self.push(EventKind::Enter(region));
    }

    #[inline]
    fn exit(&self, region: RegionId) {
        self.push(EventKind::Exit(region));
    }

    #[inline]
    fn task_create_begin(&self, create_region: RegionId, task_region: RegionId, new_task: TaskId) {
        self.push(EventKind::TaskCreateBegin(create_region, task_region, new_task));
    }

    #[inline]
    fn task_create_end(&self, create_region: RegionId, new_task: TaskId) {
        self.push(EventKind::TaskCreateEnd(create_region, new_task));
    }

    #[inline]
    fn task_begin(&self, task_region: RegionId, task: TaskId) {
        self.push(EventKind::TaskBegin(task_region, task));
    }

    #[inline]
    fn task_end(&self, task_region: RegionId, task: TaskId) {
        self.push(EventKind::TaskEnd(task_region, task));
    }

    #[inline]
    fn task_abort(&self, task_region: RegionId, task: TaskId) {
        self.push(EventKind::TaskAbort(task_region, task));
    }

    #[inline]
    fn task_switch(&self, resumed: TaskRef) {
        self.push(EventKind::TaskSwitch(resumed));
    }

    #[inline]
    fn parameter_begin(&self, param: ParamId, value: i64) {
        self.push(EventKind::ParamBegin(param, value));
    }

    #[inline]
    fn parameter_end(&self, param: ParamId) {
        self.push(EventKind::ParamEnd(param));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionKind, TaskIdAllocator, VirtualClock};

    #[test]
    fn records_ordered_events_per_thread() {
        let reg = pomp::registry();
        let par = reg.register("rec-par", RegionKind::Parallel, "t", 0);
        let task = reg.register("rec-task", RegionKind::Task, "t", 0);
        let m = TraceMonitor::with_clock(VirtualClock::new());
        let ids = TaskIdAllocator::new();
        let th = m.thread_begin(0, 1, par);
        let id = ids.alloc();
        m.inner.clock.set(3);
        th.task_begin(task, id);
        m.inner.clock.set(9);
        th.task_end(task, id);
        m.thread_end(0, th);
        let trace = m.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events[0].t, 3);
        assert!(matches!(trace.events[0].kind, EventKind::TaskBegin(_, _)));
        assert_eq!(trace.events[1].t, 9);
        assert_eq!(trace.nthreads, 1);
        // Drained.
        assert!(m.take_trace().is_empty());
    }
}
