//! Runtime region filtering (Score-P's filtering feature).
//!
//! Score-P lets users exclude regions from measurement at runtime to cut
//! overhead ("filter files"). [`FilteredMonitor`] wraps any monitor and
//! suppresses enter/exit (and parameter) events for regions rejected by a
//! predicate, while always passing task lifecycle events through — the
//! profiler requires the complete task event stream, but can live without
//! arbitrarily many region events.
//!
//! Typical use: drop high-frequency tiny regions (e.g. the taskwait of a
//! pathological fib) to reduce the measurement perturbation the paper's
//! Section V-A quantifies.

use crate::hooks::{Monitor, TaskRef, ThreadHooks};
use crate::region::{ParamId, RegionId};
use crate::task::TaskId;
use std::sync::Arc;

/// Predicate deciding whether a region is measured.
pub trait RegionFilter: Send + Sync + 'static {
    /// True to keep (measure) the region.
    fn keep(&self, region: RegionId) -> bool;
}

impl<F: Fn(RegionId) -> bool + Send + Sync + 'static> RegionFilter for F {
    fn keep(&self, region: RegionId) -> bool {
        self(region)
    }
}

/// A monitor wrapper that filters region enter/exit events.
pub struct FilteredMonitor<M> {
    inner: M,
    filter: Arc<dyn RegionFilter>,
    filter_params: bool,
}

impl<M: Monitor> FilteredMonitor<M> {
    /// Wrap `inner`, keeping only regions for which `filter.keep` is true.
    pub fn new(inner: M, filter: impl RegionFilter) -> Self {
        Self {
            inner,
            filter: Arc::new(filter),
            filter_params: false,
        }
    }

    /// Also suppress parameter events (Table IV instrumentation).
    pub fn filtering_params(mut self) -> Self {
        self.filter_params = true;
        self
    }

    /// Access the wrapped monitor (e.g. to take its profile afterwards).
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

/// Per-thread handle of [`FilteredMonitor`].
pub struct FilteredThread<T> {
    inner: T,
    filter: Arc<dyn RegionFilter>,
    filter_params: bool,
}

impl<M: Monitor> Monitor for FilteredMonitor<M> {
    type Thread = FilteredThread<M::Thread>;

    fn parallel_fork(&self, region: RegionId, nthreads: usize) {
        self.inner.parallel_fork(region, nthreads);
    }

    fn thread_begin(&self, tid: usize, nthreads: usize, region: RegionId) -> Self::Thread {
        FilteredThread {
            inner: self.inner.thread_begin(tid, nthreads, region),
            filter: self.filter.clone(),
            filter_params: self.filter_params,
        }
    }

    fn thread_end(&self, tid: usize, thread: Self::Thread) {
        self.inner.thread_end(tid, thread.inner);
    }

    fn parallel_join(&self, region: RegionId) {
        self.inner.parallel_join(region);
    }
}

impl<T: ThreadHooks> ThreadHooks for FilteredThread<T> {
    #[inline]
    fn enter(&self, region: RegionId) {
        if self.filter.keep(region) {
            self.inner.enter(region);
        }
    }

    #[inline]
    fn exit(&self, region: RegionId) {
        if self.filter.keep(region) {
            self.inner.exit(region);
        }
    }

    // Task lifecycle events always pass through: the profiling algorithm
    // needs the full stream (paper Section IV-C).
    #[inline]
    fn task_create_begin(&self, create_region: RegionId, task_region: RegionId, new_task: TaskId) {
        if self.filter.keep(create_region) {
            self.inner
                .task_create_begin(create_region, task_region, new_task);
        }
    }

    #[inline]
    fn task_create_end(&self, create_region: RegionId, new_task: TaskId) {
        if self.filter.keep(create_region) {
            self.inner.task_create_end(create_region, new_task);
        }
    }

    #[inline]
    fn task_begin(&self, task_region: RegionId, task: TaskId) {
        self.inner.task_begin(task_region, task);
    }

    #[inline]
    fn task_end(&self, task_region: RegionId, task: TaskId) {
        self.inner.task_end(task_region, task);
    }

    #[inline]
    fn task_abort(&self, task_region: RegionId, task: TaskId) {
        self.inner.task_abort(task_region, task);
    }

    #[inline]
    fn task_switch(&self, resumed: TaskRef) {
        self.inner.task_switch(resumed);
    }

    #[inline]
    fn task_end_resume(&self, task_region: RegionId, task: TaskId, resumed: TaskId) {
        self.inner.task_end_resume(task_region, task, resumed);
    }

    #[inline]
    fn parameter_begin(&self, param: ParamId, value: i64) {
        if !self.filter_params {
            self.inner.parameter_begin(param, value);
        }
    }

    #[inline]
    fn parameter_end(&self, param: ParamId) {
        if !self.filter_params {
            self.inner.parameter_end(param);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::CountingMonitor;
    use crate::region::RegionKind;
    use crate::task::TaskIdAllocator;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn filters_region_events_but_not_task_events() {
        let reg = crate::registry();
        let keep = reg.register("fl-keep", RegionKind::User, "t", 0);
        let drop = reg.register("fl-drop", RegionKind::Taskwait, "t", 0);
        let task = reg.register("fl-task", RegionKind::Task, "t", 0);
        let counting = CountingMonitor::new();
        let filtered = FilteredMonitor::new(counting.clone(), move |r: RegionId| r != drop);
        let ids = TaskIdAllocator::new();
        let th = filtered.thread_begin(0, 1, keep);
        th.enter(keep);
        th.exit(keep);
        th.enter(drop); // suppressed
        th.exit(drop); // suppressed
        let id = ids.alloc();
        th.task_begin(task, id);
        th.task_end(task, id);
        filtered.thread_end(0, th);
        let (enters, _c, begins, ends, ..) = counting.counts().snapshot();
        assert_eq!(enters, 1, "only the kept region counted");
        assert_eq!((begins, ends), (1, 1), "task events always pass");
    }

    /// Counts the fused calls that reach it as such.
    #[derive(Clone, Default)]
    struct Fused(Arc<AtomicU64>);

    impl Monitor for Fused {
        type Thread = Fused;

        fn thread_begin(&self, _tid: usize, _n: usize, _region: RegionId) -> Fused {
            self.clone()
        }

        fn thread_end(&self, _tid: usize, _thread: Fused) {}
    }

    impl ThreadHooks for Fused {
        fn task_end_resume(&self, _task_region: RegionId, _task: TaskId, _resumed: TaskId) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn a_fused_end_and_resume_passes_through_a_filter_that_keeps_nothing() {
        let reg = crate::registry();
        let task = reg.register("fl-fused", RegionKind::Task, "t", 0);
        let (counting, fused) = (CountingMonitor::new(), Fused::default());
        let filtered =
            FilteredMonitor::new((counting.clone(), fused.clone()), |_| false).filtering_params();
        let ids = TaskIdAllocator::new();
        let (parent, child) = (ids.alloc(), ids.alloc());
        let th = filtered.thread_begin(0, 1, task);
        th.task_begin(task, parent);
        th.task_begin(task, child);
        th.task_end_resume(task, child, parent);
        th.task_end(task, parent);
        filtered.thread_end(0, th);
        assert_eq!(fused.0.load(Ordering::Relaxed), 1, "arrives fused");
        let (_e, _c, begins, ends, switches, ..) = counting.counts().snapshot();
        assert_eq!((begins, ends, switches), (2, 2, 1), "the default splits it");
    }

    #[test]
    fn param_filtering_is_opt_in() {
        let reg = crate::registry();
        let r = reg.register("fl-r", RegionKind::User, "t", 0);
        let passthrough = CountingMonitor::new();
        let f = FilteredMonitor::new(passthrough.clone(), |_| true);
        let th = f.thread_begin(0, 1, r);
        th.parameter_begin(ParamId(0), 5);
        th.parameter_end(ParamId(0));
        f.thread_end(0, th);
        assert_eq!(passthrough.counts().params.load(Ordering::Relaxed), 1);

        let suppressed = CountingMonitor::new();
        let f = FilteredMonitor::new(suppressed.clone(), |_| true).filtering_params();
        let th = f.thread_begin(0, 1, r);
        th.parameter_begin(ParamId(0), 5);
        th.parameter_end(ParamId(0));
        f.thread_end(0, th);
        assert_eq!(suppressed.counts().params.load(Ordering::Relaxed), 0);
    }
}
