//! Trace-based task analysis — the paper's Section VII proposals.
//!
//! A call-path profile cannot tell whether time at a synchronization
//! point was *management* (the runtime shuffling task queues) or
//! *waiting* (no runnable task). The trace can: the paper suggests
//! measuring "the time between the enter of the last synchronization
//! point and the task switch event" and "the ratio of overall management
//! time to exclusive execution time for tasks". [`analyze`] computes:
//!
//! * per scheduling-point-kind dwell decomposition: total dwell, task
//!   execution inside, time from entering the point to the *first* task
//!   switch (the management indicator), and fragment counts,
//! * per-instance creation-to-start queue latency and fragment counts,
//! * the global management-to-work ratio.

use crate::event::{EventKind, Trace, TraceEvent};
use pomp::{registry, RegionId, RegionKind, TaskId, TaskRef};
use std::collections::HashMap;

/// Dwell decomposition of one scheduling-point kind (aggregated over all
/// intervals of that kind on all threads).
#[derive(Clone, Copy, Debug)]
pub struct SchedulingPointBreakdown {
    /// The scheduling-point kind (taskwait, implicit/explicit barrier,
    /// task creation).
    pub kind: RegionKind,
    /// Number of enter/exit intervals observed.
    pub intervals: u64,
    /// Total time spent inside, ns.
    pub dwell_ns: u64,
    /// Of which: executing task fragments, ns.
    pub task_exec_ns: u64,
    /// Of which: between entering the point and the first task switch
    /// (or the whole dwell if no task ran) — the paper's estimator for
    /// management/wait time before useful work resumes, ns.
    pub pre_switch_ns: u64,
    /// Task fragments started or resumed inside.
    pub fragments: u64,
}

/// Lifecycle data of one task instance.
#[derive(Clone, Copy, Debug)]
pub struct InstanceLatency {
    /// Instance id.
    pub id: TaskId,
    /// Task construct.
    pub region: RegionId,
    /// Creation-completion to execution-start latency (None if the
    /// creation was not in the trace), ns.
    pub queue_ns: Option<u64>,
    /// Begin-to-end (or begin-to-abort) wall span, suspensions included,
    /// ns.
    pub span_ns: u64,
    /// Number of execution fragments (1 = never suspended).
    pub fragments: u32,
}

/// The full analysis result.
#[derive(Clone, Debug)]
pub struct TraceAnalysis {
    /// Per-kind scheduling-point decomposition.
    pub by_kind: Vec<SchedulingPointBreakdown>,
    /// Per-instance lifecycle data, in begin order.
    pub instances: Vec<InstanceLatency>,
    /// Total explicit-task execution time across threads, ns.
    pub total_task_exec_ns: u64,
    /// Total task-creation dwell, ns.
    pub total_creation_ns: u64,
    /// Total non-executing time inside top-level scheduling points, ns.
    pub total_sched_nonexec_ns: u64,
    /// Total task switches (begin/resume events).
    pub switches: u64,
    /// (creation + scheduling-point non-exec) / task execution — the
    /// paper's management-to-work ratio. `f64::INFINITY` with no work.
    pub management_to_work_ratio: f64,
}

struct OpenInterval {
    enter_t: u64,
    task_exec_ns: u64,
    first_switch: Option<u64>,
    fragments: u64,
    top_level: bool,
}

#[derive(Default)]
struct KindAcc {
    intervals: u64,
    dwell_ns: u64,
    task_exec_ns: u64,
    pre_switch_ns: u64,
    fragments: u64,
}

/// Analyze a trace.
pub fn analyze(trace: &Trace) -> TraceAnalysis {
    let reg = registry();
    let mut by_kind: HashMap<RegionKind, KindAcc> = HashMap::new();
    // Pre-pass: collect creation times globally — a task may be created
    // on a thread the per-thread sweep below visits *after* the one that
    // executed it.
    let created: HashMap<TaskId, u64> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskCreateEnd(_, id) => Some((id, e.t)),
            _ => None,
        })
        .collect();
    let mut begun: HashMap<TaskId, (RegionId, u64, u32)> = HashMap::new();
    let mut instances: Vec<InstanceLatency> = Vec::new();
    let mut total_task_exec = 0u64;
    let mut total_creation = 0u64;
    let mut total_sched_nonexec = 0u64;
    let mut switches = 0u64;

    for tid in 0..trace.nthreads.max(1) {
        let mut open: Vec<OpenInterval> = Vec::new();
        let mut exec_since: Option<u64> = None;
        let mut create_since: Option<u64> = None;

        let mut close_exec = |t: u64, open: &mut Vec<OpenInterval>, exec_since: &mut Option<u64>| {
            if let Some(since) = exec_since.take() {
                let d = t.saturating_sub(since);
                total_task_exec += d;
                for iv in open.iter_mut() {
                    iv.task_exec_ns += d;
                }
            }
        };
        let mut mark_switch_in = |t: u64, open: &mut Vec<OpenInterval>| {
            switches += 1;
            for iv in open.iter_mut() {
                iv.first_switch.get_or_insert(t);
                iv.fragments += 1;
            }
        };

        for &TraceEvent { t, kind, .. } in trace.thread(tid) {
            match kind {
                EventKind::Enter(r) => {
                    if reg.kind(r).is_scheduling_point() {
                        open.push(OpenInterval {
                            enter_t: t,
                            task_exec_ns: 0,
                            first_switch: None,
                            fragments: 0,
                            top_level: open.is_empty(),
                        });
                    }
                }
                EventKind::Exit(r) => {
                    if reg.kind(r).is_scheduling_point() {
                        // A recorded trace is balanced and time-ordered per
                        // thread; a parsed file need not be. An exit with
                        // no open interval is skipped and time differences
                        // saturate, so a malformed file skews the numbers
                        // instead of panicking.
                        let Some(iv) = open.pop() else { continue };
                        let dwell = t.saturating_sub(iv.enter_t);
                        let acc = by_kind.entry(reg.kind(r)).or_default();
                        acc.intervals += 1;
                        acc.dwell_ns += dwell;
                        acc.task_exec_ns += iv.task_exec_ns;
                        acc.pre_switch_ns +=
                            iv.first_switch.unwrap_or(t).saturating_sub(iv.enter_t);
                        acc.fragments += iv.fragments;
                        if iv.top_level {
                            total_sched_nonexec += dwell.saturating_sub(iv.task_exec_ns);
                        }
                    }
                }
                EventKind::TaskCreateBegin(..) => {
                    create_since = Some(t);
                }
                EventKind::TaskCreateEnd(_, id) => {
                    if let Some(since) = create_since.take() {
                        total_creation += t.saturating_sub(since);
                    }
                    let _ = id; // creation times were collected in the pre-pass
                }
                EventKind::TaskBegin(r, id) => {
                    // A running task suspends implicitly when another
                    // begins; execution time on this thread continues.
                    if exec_since.is_none() {
                        exec_since = Some(t);
                    }
                    mark_switch_in(t, &mut open);
                    begun.insert(id, (r, t, 1));
                }
                // An abort ends the instance's execution exactly as an
                // end does; the time up to it is valid measurement data.
                EventKind::TaskEnd(_, id) | EventKind::TaskAbort(_, id) => {
                    close_exec(t, &mut open, &mut exec_since);
                    if let Some((region, begin_t, fragments)) = begun.remove(&id) {
                        instances.push(InstanceLatency {
                            id,
                            region,
                            queue_ns: created.get(&id).map(|c| begin_t.saturating_sub(*c)),
                            span_ns: t.saturating_sub(begin_t),
                            fragments,
                        });
                    }
                }
                EventKind::TaskSwitch(TaskRef::Explicit(id)) => {
                    if exec_since.is_none() {
                        exec_since = Some(t);
                    }
                    mark_switch_in(t, &mut open);
                    if let Some(e) = begun.get_mut(&id) {
                        e.2 += 1;
                    }
                }
                EventKind::TaskSwitch(TaskRef::Implicit) => {
                    close_exec(t, &mut open, &mut exec_since);
                }
                EventKind::ParamBegin(..) | EventKind::ParamEnd(_) => {}
            }
        }
    }

    let mut by_kind: Vec<SchedulingPointBreakdown> = by_kind
        .into_iter()
        .map(|(kind, a)| SchedulingPointBreakdown {
            kind,
            intervals: a.intervals,
            dwell_ns: a.dwell_ns,
            task_exec_ns: a.task_exec_ns,
            pre_switch_ns: a.pre_switch_ns,
            fragments: a.fragments,
        })
        .collect();
    by_kind.sort_by_key(|b| std::cmp::Reverse(b.dwell_ns));
    instances.sort_by_key(|i| i.id);

    let management = total_creation + total_sched_nonexec;
    let ratio = if total_task_exec == 0 {
        f64::INFINITY
    } else {
        management as f64 / total_task_exec as f64
    };
    TraceAnalysis {
        by_kind,
        instances,
        total_task_exec_ns: total_task_exec,
        total_creation_ns: total_creation,
        total_sched_nonexec_ns: total_sched_nonexec,
        switches,
        management_to_work_ratio: ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::TaskIdAllocator;

    fn regs() -> (RegionId, RegionId, RegionId, RegionId) {
        let reg = registry();
        (
            reg.register("an-par", RegionKind::Parallel, "t", 0),
            reg.register("an-task", RegionKind::Task, "t", 0),
            reg.register("an-create", RegionKind::TaskCreate, "t", 0),
            reg.register("an-bar", RegionKind::ImplicitBarrier, "t", 0),
        )
    }

    #[test]
    fn barrier_breakdown_and_queue_latency() {
        let (_par, task, create, barrier) = regs();
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let ev = |t, kind| TraceEvent { t, tid: 0, kind };
        let trace = Trace {
            events: vec![
                ev(0, EventKind::TaskCreateBegin(create, task, id)),
                ev(3, EventKind::TaskCreateEnd(create, id)),
                ev(10, EventKind::Enter(barrier)),
                ev(14, EventKind::TaskBegin(task, id)), // 4 ns pre-switch
                ev(30, EventKind::TaskEnd(task, id)),   // 16 ns exec
                ev(36, EventKind::Exit(barrier)),       // 26 dwell, 10 non-exec
            ],
            nthreads: 1,
        };
        let a = analyze(&trace);
        assert_eq!(a.total_creation_ns, 3);
        assert_eq!(a.total_task_exec_ns, 16);
        assert_eq!(a.total_sched_nonexec_ns, 10);
        assert_eq!(a.switches, 1);
        let b = a
            .by_kind
            .iter()
            .find(|b| b.kind == RegionKind::ImplicitBarrier)
            .unwrap();
        assert_eq!(b.intervals, 1);
        assert_eq!(b.dwell_ns, 26);
        assert_eq!(b.task_exec_ns, 16);
        assert_eq!(b.pre_switch_ns, 4);
        assert_eq!(b.fragments, 1);
        assert_eq!(a.instances.len(), 1);
        let i = &a.instances[0];
        assert_eq!(i.queue_ns, Some(11)); // created at 3, begun at 14
        assert_eq!(i.span_ns, 16);
        assert_eq!(i.fragments, 1);
        let want = (3 + 10) as f64 / 16.0;
        assert!((a.management_to_work_ratio - want).abs() < 1e-12);
    }

    #[test]
    fn fragments_counted_across_suspension() {
        let (_par, task, _create, barrier) = regs();
        let ids = TaskIdAllocator::new();
        let (t1, t2) = (ids.alloc(), ids.alloc());
        let ev = |t, kind| TraceEvent { t, tid: 0, kind };
        let trace = Trace {
            events: vec![
                ev(0, EventKind::Enter(barrier)),
                ev(2, EventKind::TaskBegin(task, t1)),
                ev(5, EventKind::TaskBegin(task, t2)), // t1 suspends
                ev(9, EventKind::TaskEnd(task, t2)),
                ev(9, EventKind::TaskSwitch(TaskRef::Explicit(t1))),
                ev(12, EventKind::TaskEnd(task, t1)),
                ev(15, EventKind::Exit(barrier)),
            ],
            nthreads: 1,
        };
        let a = analyze(&trace);
        let i1 = a.instances.iter().find(|i| i.id == t1).unwrap();
        assert_eq!(i1.fragments, 2);
        assert_eq!(i1.span_ns, 10);
        let i2 = a.instances.iter().find(|i| i.id == t2).unwrap();
        assert_eq!(i2.fragments, 1);
        // exec: 2..9 continuous (7) + 9..12 (3) = 10.
        assert_eq!(a.total_task_exec_ns, 10);
        assert_eq!(a.switches, 3);
        let b = &a.by_kind[0];
        assert_eq!(b.fragments, 3);
        assert_eq!(b.pre_switch_ns, 2);
    }

    #[test]
    fn empty_trace_yields_infinite_ratio() {
        let a = analyze(&Trace::default());
        assert!(a.management_to_work_ratio.is_infinite());
        assert!(a.instances.is_empty());
    }
}
