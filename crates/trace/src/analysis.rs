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

use crate::event::{Trace, TraceEvent};
use pomp::{registry, RegionId, RegionKind, TaskId, TaskRef};
use std::collections::HashMap;
use taskprof::Event;

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
    /// Per-instance lifecycle data, by instance id within each parallel
    /// region (ids restart per region), regions in the order they ran.
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

/// Analyze a trace. Sums saturate: a parsed file controls every
/// timestamp, and a skewed total answers a malformed file better than a
/// panic.
pub fn analyze(trace: &Trace) -> TraceAnalysis {
    let reg = registry();
    let mut by_kind: HashMap<RegionKind, SchedulingPointBreakdown> = HashMap::new();
    let mut instances: Vec<InstanceLatency> = Vec::new();
    let mut total_task_exec = 0u64;
    let mut total_creation = 0u64;
    let mut total_sched_nonexec = 0u64;
    let mut switches = 0u64;

    let mut close_exec = |t: u64, open: &mut Vec<OpenInterval>, exec_since: &mut Option<u64>| {
        if let Some(since) = exec_since.take() {
            let d = t.saturating_sub(since);
            total_task_exec = total_task_exec.saturating_add(d);
            for iv in open.iter_mut() {
                iv.task_exec_ns = iv.task_exec_ns.saturating_add(d);
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

    // Task ids restart in every parallel region, so the maps that resolve
    // them live for one region at a time.
    for region in trace.regions() {
        // Pre-pass: collect creation times region-wide — a task may be
        // created on a thread the per-thread sweep below visits *after*
        // the one that executed it.
        let created: HashMap<TaskId, u64> = region
            .iter()
            .filter_map(|e| match e.event {
                Event::CreateEnd { id, .. } => Some((id, e.t)),
                _ => None,
            })
            .collect();
        let mut begun: HashMap<TaskId, (RegionId, u64, u32)> = HashMap::new();
        let first_instance = instances.len();

        // Sweep thread by thread over the tids the events carry — the
        // header's team size is only a claim. The sort is stable, so each
        // thread's events keep their order.
        let mut by_thread: Vec<&TraceEvent> = region.iter().collect();
        by_thread.sort_by_key(|e| e.tid);
        let mut sweeping = None;
        let mut open: Vec<OpenInterval> = Vec::new();
        let mut exec_since: Option<u64> = None;
        let mut create_since: Option<u64> = None;
        for &TraceEvent { t, tid, event } in by_thread {
            if sweeping.replace(tid) != Some(tid) {
                open.clear();
                exec_since = None;
                create_since = None;
            }
            match event {
                Event::Enter(r) => {
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
                Event::Exit(r) => {
                    if reg.kind(r).is_scheduling_point() {
                        // A recorded trace is balanced and time-ordered per
                        // thread; a parsed file need not be. An exit with
                        // no open interval is skipped and time differences
                        // saturate, so a malformed file skews the numbers
                        // instead of panicking.
                        let Some(iv) = open.pop() else { continue };
                        let dwell = t.saturating_sub(iv.enter_t);
                        let pre_switch = iv.first_switch.unwrap_or(t).saturating_sub(iv.enter_t);
                        let kind = reg.kind(r);
                        let acc = by_kind.entry(kind).or_insert(SchedulingPointBreakdown {
                            kind,
                            intervals: 0,
                            dwell_ns: 0,
                            task_exec_ns: 0,
                            pre_switch_ns: 0,
                            fragments: 0,
                        });
                        acc.intervals += 1;
                        acc.dwell_ns = acc.dwell_ns.saturating_add(dwell);
                        acc.task_exec_ns = acc.task_exec_ns.saturating_add(iv.task_exec_ns);
                        acc.pre_switch_ns = acc.pre_switch_ns.saturating_add(pre_switch);
                        acc.fragments += iv.fragments;
                        if iv.top_level {
                            total_sched_nonexec = total_sched_nonexec
                                .saturating_add(dwell.saturating_sub(iv.task_exec_ns));
                        }
                    }
                }
                Event::CreateBegin { .. } => {
                    create_since = Some(t);
                }
                // Creation times were collected in the pre-pass.
                Event::CreateEnd { .. } => {
                    if let Some(since) = create_since.take() {
                        total_creation = total_creation.saturating_add(t.saturating_sub(since));
                    }
                }
                Event::TaskBegin { region: r, id } => {
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
                Event::TaskEnd { id, .. } | Event::TaskAbort { id, .. } => {
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
                Event::Switch(TaskRef::Explicit(id)) => {
                    if exec_since.is_none() {
                        exec_since = Some(t);
                    }
                    mark_switch_in(t, &mut open);
                    if let Some(e) = begun.get_mut(&id) {
                        e.2 += 1;
                    }
                }
                Event::Switch(TaskRef::Implicit) => {
                    close_exec(t, &mut open, &mut exec_since);
                }
                Event::ParamBegin { .. } | Event::ParamEnd { .. } => {}
                Event::Advance(_) => unreachable!("Trace never holds an Advance"),
            }
        }
        instances[first_instance..].sort_by_key(|i| i.id);
    }

    let mut by_kind: Vec<SchedulingPointBreakdown> = by_kind.into_values().collect();
    by_kind.sort_by_key(|b| std::cmp::Reverse(b.dwell_ns));

    let management = total_creation.saturating_add(total_sched_nonexec);
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
    use taskprof::RegionEdges;

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
        let (par, task, create, barrier) = regs();
        let id = TaskIdAllocator::new().alloc();
        let stream = vec![
            Event::CreateBegin {
                create,
                task_region: task,
                id,
            },
            Event::Advance(3),
            Event::CreateEnd { create, id },
            Event::Advance(7),
            Event::Enter(barrier),
            Event::Advance(4), // pre-switch
            Event::TaskBegin { region: task, id },
            Event::Advance(16), // exec
            Event::TaskEnd { region: task, id },
            Event::Advance(6),
            Event::Exit(barrier), // 26 dwell, 10 non-exec
        ];
        // Once, then twice over: task ids restart in every parallel
        // region, so the second region's instance is `1` again and must
        // be measured against its own creation, not the other region's.
        for n in 1..=2u64 {
            let log: Vec<RegionEdges> = (1..=n)
                .map(|occurrence| RegionEdges {
                    occurrence,
                    region: par,
                    streams: vec![(0, stream.clone())],
                    origins: vec![occurrence * 1000],
                })
                .collect();
            let a = analyze(&Trace::from_edge_log(&log));
            assert_eq!(a.total_creation_ns, 3 * n);
            assert_eq!(a.total_task_exec_ns, 16 * n);
            assert_eq!(a.total_sched_nonexec_ns, 10 * n);
            assert_eq!(a.switches, n);
            let b = a
                .by_kind
                .iter()
                .find(|b| b.kind == RegionKind::ImplicitBarrier)
                .unwrap();
            assert_eq!(b.intervals, n);
            assert_eq!(b.dwell_ns, 26 * n);
            assert_eq!(b.task_exec_ns, 16 * n);
            assert_eq!(b.pre_switch_ns, 4 * n);
            assert_eq!(b.fragments, n);
            assert_eq!(a.instances.len() as u64, n);
            for i in &a.instances {
                assert_eq!(i.queue_ns, Some(11)); // created at 3, begun at 14
                assert_eq!(i.span_ns, 16);
                assert_eq!(i.fragments, 1);
            }
            let want = (3 + 10) as f64 / 16.0;
            assert!((a.management_to_work_ratio - want).abs() < 1e-12);
        }
    }

    #[test]
    fn fragments_counted_across_suspension() {
        let (_par, task, _create, barrier) = regs();
        let ids = TaskIdAllocator::new();
        let (t1, t2) = (ids.alloc(), ids.alloc());
        let ev = |t, event| TraceEvent { t, tid: 0, event };
        let trace = Trace::new(
            1,
            vec![
                ev(0, Event::Enter(barrier)),
                ev(2, Event::TaskBegin { region: task, id: t1 }),
                ev(5, Event::TaskBegin { region: task, id: t2 }), // t1 suspends
                ev(9, Event::TaskEnd { region: task, id: t2 }),
                ev(9, Event::Switch(TaskRef::Explicit(t1))),
                ev(12, Event::TaskEnd { region: task, id: t1 }),
                ev(15, Event::Exit(barrier)),
            ],
        );
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
