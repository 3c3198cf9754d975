//! Trace-based task analysis — the paper's Section VII proposals — as the
//! second reader of the DAG builder's walk.
//!
//! A call-path profile cannot tell whether time at a synchronization
//! point was *management* (the runtime shuffling task queues) or
//! *waiting* (no runnable task). The trace can: the paper suggests
//! measuring "the time between the enter of the last synchronization
//! point and the task switch event" and "the ratio of overall management
//! time to exclusive execution time for tasks". [`analyze_trace`]
//! computes:
//!
//! * per scheduling-point-kind dwell decomposition: total dwell, task
//!   execution inside, time from entering the point to the *first* task
//!   switch (the management indicator), and fragment counts,
//! * per-instance creation-to-start queue latency and fragment counts,
//! * the global management-to-work ratio.
//!
//! The trace is the profiler's own edge log: an event happens at its
//! stream's thread-begin origin plus the `Advance`s before it. Tasks are
//! known by the walk's task-table index, so nothing here is keyed by
//! `TaskId`.

use crate::dag::{Builder, Reader};
use crate::{DagError, DagOptions};
use pomp::{RegionId, RegionKind, TaskId, TaskRef};
use std::cmp::Reverse;
use taskprof::{Event, RegionEdges};

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
    /// Per-kind scheduling-point decomposition, most dwell first (equal
    /// dwells in `RegionKind` declaration order).
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

/// The §VII analysis of a drained edge log (`ProfMonitor::take_edge_log`),
/// read off the walk that builds each region's [`TaskDag`](crate::TaskDag):
/// it fails where that walk does. Differences saturate — per-thread
/// virtual clocks can start a task before its creation on another thread
/// ends.
pub fn analyze_trace(log: &[RegionEdges]) -> Result<TraceAnalysis, DagError> {
    let mut reader = TraceReader::default();
    for region in log {
        let first = reader.instances.len();
        Builder::walk(&region.streams, region.region, &DagOptions::default(), &mut reader)?;
        reader.end_region(first);
    }
    Ok(reader.finish())
}

struct OpenInterval {
    enter_t: u64,
    task_exec_ns: u64,
    first_switch: Option<u64>,
    fragments: u64,
    top_level: bool,
}

/// What the analysis knows of one entry of the walk's task table.
#[derive(Clone, Copy, Default)]
struct Instance {
    /// When its creation completed.
    created: Option<u64>,
    /// Construct, begin time and fragments so far, from its begin to its
    /// end.
    running: Option<(RegionId, u64, u32)>,
}

#[derive(Default)]
struct TraceReader {
    /// The stream being walked: its clock, its open scheduling points,
    /// and when its running task stretch and creation began.
    now: u64,
    open: Vec<OpenInterval>,
    exec_since: Option<u64>,
    create_since: Option<u64>,
    /// The region being walked, by task-table index.
    tasks: Vec<Instance>,
    /// Task-table index and begin time of the region's instances so far,
    /// for their queue latency once every creation is known.
    ended: Vec<(usize, u64)>,
    by_kind: Vec<SchedulingPointBreakdown>,
    instances: Vec<InstanceLatency>,
    task_exec: u64,
    creation: u64,
    sched_nonexec: u64,
    switches: u64,
}

impl TraceReader {
    fn task(&mut self, task: usize) -> &mut Instance {
        if task >= self.tasks.len() {
            self.tasks.resize(task + 1, Instance::default());
        }
        &mut self.tasks[task]
    }

    /// A task fragment starts or resumes at `t`; a stretch already
    /// running continues.
    fn switch_in(&mut self, t: u64) {
        self.exec_since.get_or_insert(t);
        self.switches += 1;
        for iv in &mut self.open {
            iv.first_switch.get_or_insert(t);
            iv.fragments += 1;
        }
    }

    /// The thread stops executing tasks at `t`.
    fn close_exec(&mut self, t: u64) {
        if let Some(since) = self.exec_since.take() {
            let d = t.saturating_sub(since);
            self.task_exec = self.task_exec.saturating_add(d);
            for iv in &mut self.open {
                iv.task_exec_ns = iv.task_exec_ns.saturating_add(d);
            }
        }
    }

    fn exit(&mut self, kind: RegionKind, t: u64) {
        // The walk balances frames per task, not per thread: a task
        // resumed on another stream may close a point this one never
        // opened.
        let Some(iv) = self.open.pop() else { return };
        let dwell = t.saturating_sub(iv.enter_t);
        let pre_switch = iv.first_switch.unwrap_or(t).saturating_sub(iv.enter_t);
        let acc = match self.by_kind.iter().position(|b| b.kind == kind) {
            Some(i) => &mut self.by_kind[i],
            None => {
                self.by_kind.push(SchedulingPointBreakdown {
                    kind,
                    intervals: 0,
                    dwell_ns: 0,
                    task_exec_ns: 0,
                    pre_switch_ns: 0,
                    fragments: 0,
                });
                self.by_kind.last_mut().expect("pushed above")
            }
        };
        acc.intervals += 1;
        acc.dwell_ns = acc.dwell_ns.saturating_add(dwell);
        acc.task_exec_ns = acc.task_exec_ns.saturating_add(iv.task_exec_ns);
        acc.pre_switch_ns = acc.pre_switch_ns.saturating_add(pre_switch);
        acc.fragments += iv.fragments;
        if iv.top_level {
            let nonexec = dwell.saturating_sub(iv.task_exec_ns);
            self.sched_nonexec = self.sched_nonexec.saturating_add(nonexec);
        }
    }

    /// The region's walk is over, so every creation in it is known: a
    /// task may be created on a stream walked after the one that ran it.
    fn end_region(&mut self, first: usize) {
        let instances = &mut self.instances[first..];
        for (i, (task, begin)) in instances.iter_mut().zip(self.ended.drain(..)) {
            i.queue_ns = self.tasks[task].created.map(|c| begin.saturating_sub(c));
        }
        instances.sort_by_key(|i| i.id);
        self.tasks.clear();
    }

    fn finish(mut self) -> TraceAnalysis {
        self.by_kind.sort_by_key(|b| (Reverse(b.dwell_ns), b.kind as u8));
        let management = self.creation.saturating_add(self.sched_nonexec);
        let ratio = match self.task_exec {
            0 => f64::INFINITY,
            work => management as f64 / work as f64,
        };
        TraceAnalysis {
            by_kind: self.by_kind,
            instances: self.instances,
            total_task_exec_ns: self.task_exec,
            total_creation_ns: self.creation,
            total_sched_nonexec_ns: self.sched_nonexec,
            switches: self.switches,
            management_to_work_ratio: ratio,
        }
    }
}

impl Reader for TraceReader {
    fn stream(&mut self, origin: u64) {
        self.now = origin;
        self.open.clear();
        self.exec_since = None;
        self.create_since = None;
    }

    fn read(&mut self, ev: &Event, task: usize, kind: impl FnOnce() -> RegionKind) {
        let t = self.now;
        match *ev {
            Event::Advance(dt) => self.now = t.saturating_add(dt),
            Event::Enter(_) => {
                if kind().is_scheduling_point() {
                    let top_level = self.open.is_empty();
                    self.open.push(OpenInterval {
                        enter_t: t,
                        task_exec_ns: 0,
                        first_switch: None,
                        fragments: 0,
                        top_level,
                    });
                }
            }
            Event::Exit(_) => {
                let kind = kind();
                if kind.is_scheduling_point() {
                    self.exit(kind, t);
                }
            }
            Event::CreateBegin { .. } => self.create_since = Some(t),
            Event::CreateEnd { .. } => {
                self.task(task).created = Some(t);
                if let Some(since) = self.create_since.take() {
                    self.creation = self.creation.saturating_add(t.saturating_sub(since));
                }
            }
            // A running task suspends implicitly when another begins;
            // execution time on this thread continues.
            Event::TaskBegin { region, .. } => {
                self.switch_in(t);
                self.task(task).running = Some((region, t, 1));
            }
            // An abort ends the instance's execution exactly as an end
            // does; the time up to it is valid measurement data.
            Event::TaskEnd { id, .. } | Event::TaskAbort { id, .. } => {
                self.close_exec(t);
                if let Some((region, begin, fragments)) = self.task(task).running.take() {
                    self.ended.push((task, begin));
                    self.instances.push(InstanceLatency {
                        id,
                        region,
                        queue_ns: None,
                        span_ns: t.saturating_sub(begin),
                        fragments,
                    });
                }
            }
            Event::Switch(TaskRef::Explicit(_)) => {
                self.switch_in(t);
                if let Some(running) = &mut self.task(task).running {
                    running.2 += 1;
                }
            }
            Event::Switch(TaskRef::Implicit) => self.close_exec(t),
            Event::ParamBegin { .. } | Event::ParamEnd { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{registry, TaskIdAllocator};
    use taskprof::EdgeStream;

    fn regs() -> (RegionId, RegionId, RegionId, RegionId) {
        let reg = registry();
        (
            reg.register("an-par", RegionKind::Parallel, "t", 0),
            reg.register("an-task", RegionKind::Task, "t", 0),
            reg.register("an-create", RegionKind::TaskCreate, "t", 0),
            reg.register("an-bar", RegionKind::ImplicitBarrier, "t", 0),
        )
    }

    /// One region of one stream starting at `origin`.
    fn log(par: RegionId, occurrence: u64, origin: u64, events: Vec<Event>) -> RegionEdges {
        let streams = vec![(0, EdgeStream::from_events(origin, events))];
        RegionEdges { occurrence, region: par, streams }
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
                .map(|occurrence| log(par, occurrence, occurrence * 1000, stream.clone()))
                .collect();
            let a = analyze_trace(&log).unwrap();
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
        let (par, task, _create, barrier) = regs();
        let ids = TaskIdAllocator::new();
        let (t1, t2) = (ids.alloc(), ids.alloc());
        let a = analyze_trace(&[log(
            par,
            1,
            0,
            vec![
                Event::Enter(barrier),
                Event::Advance(2),
                Event::TaskBegin { region: task, id: t1 },
                Event::Advance(3),
                Event::TaskBegin { region: task, id: t2 }, // t1 suspends
                Event::Advance(4),
                Event::TaskEnd { region: task, id: t2 },
                Event::Switch(TaskRef::Explicit(t1)),
                Event::Advance(3),
                Event::TaskEnd { region: task, id: t1 },
                Event::Advance(3),
                Event::Exit(barrier),
            ],
        )])
        .unwrap();
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
    fn equal_dwells_list_kinds_in_declaration_order() {
        let (par, _task, _create, barrier) = regs();
        let tw = registry().register("an-tw", RegionKind::Taskwait, "t", 0);
        let dwell = |r| [Event::Enter(r), Event::Advance(5), Event::Exit(r)];
        // Met barrier first, then taskwait first: the order is the same.
        for (a, b) in [(barrier, tw), (tw, barrier)] {
            let events = [dwell(a), dwell(b)].concat();
            let kinds: Vec<_> = analyze_trace(&[log(par, 1, 0, events)])
                .unwrap()
                .by_kind
                .iter()
                .map(|b| (b.kind, b.dwell_ns))
                .collect();
            assert_eq!(kinds, [(RegionKind::Taskwait, 5), (RegionKind::ImplicitBarrier, 5)]);
        }
    }

    #[test]
    fn empty_trace_yields_infinite_ratio() {
        let a = analyze_trace(&[]).unwrap();
        assert!(a.management_to_work_ratio.is_infinite());
        assert!(a.instances.is_empty());
    }
}
