//! Trace event model.

use pomp::{ParamId, RegionId, TaskId, TaskRef};

/// What happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// Region entered.
    Enter(RegionId),
    /// Region exited.
    Exit(RegionId),
    /// Deferred task creation began (creation region, construct, id).
    TaskCreateBegin(RegionId, RegionId, TaskId),
    /// Deferred task creation finished.
    TaskCreateEnd(RegionId, TaskId),
    /// Task instance began executing.
    TaskBegin(RegionId, TaskId),
    /// Task instance completed.
    TaskEnd(RegionId, TaskId),
    /// Task instance terminated abnormally (its body panicked); recorded
    /// instead of `TaskEnd`.
    TaskAbort(RegionId, TaskId),
    /// Current task switched (suspend/resume).
    TaskSwitch(TaskRef),
    /// Parameter scope opened.
    ParamBegin(ParamId, i64),
    /// Parameter scope closed.
    ParamEnd(ParamId),
}

/// One timestamped event on one thread.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Nanoseconds since the trace clock's origin.
    pub t: u64,
    /// Team-local thread id.
    pub tid: usize,
    /// The event.
    pub kind: EventKind,
}

/// A completed trace: all threads' events.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events, sorted by thread then time (each thread's stream is
    /// naturally time-ordered).
    pub events: Vec<TraceEvent>,
    /// Team size.
    pub nthreads: usize,
}

impl Trace {
    /// Events of one thread, in time order.
    pub fn thread(&self, tid: usize) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.tid == tid)
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Render the trace as an OTF2-print-style text listing.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let reg = pomp::registry();
        let mut out = String::new();
        let name = |r: RegionId| reg.name(r);
        for e in &self.events {
            let desc = match e.kind {
                EventKind::Enter(r) => format!("ENTER        {}", name(r)),
                EventKind::Exit(r) => format!("LEAVE        {}", name(r)),
                EventKind::TaskCreateBegin(c, tr, id) => {
                    format!("TASK_CREATE  {} -> {} #{}", name(c), name(tr), id.get())
                }
                EventKind::TaskCreateEnd(c, id) => {
                    format!("TASK_CREATED {} #{}", name(c), id.get())
                }
                EventKind::TaskBegin(r, id) => format!("TASK_BEGIN   {} #{}", name(r), id.get()),
                EventKind::TaskEnd(r, id) => format!("TASK_END     {} #{}", name(r), id.get()),
                EventKind::TaskAbort(r, id) => format!("TASK_ABORT   {} #{}", name(r), id.get()),
                EventKind::TaskSwitch(TaskRef::Implicit) => "TASK_SWITCH  implicit".to_string(),
                EventKind::TaskSwitch(TaskRef::Explicit(id)) => {
                    format!("TASK_SWITCH  #{}", id.get())
                }
                EventKind::ParamBegin(p, v) => {
                    format!("PARAM_BEGIN  {} = {v}", reg.param_name(p))
                }
                EventKind::ParamEnd(p) => format!("PARAM_END    {}", reg.param_name(p)),
            };
            let _ = writeln!(out, "[{:>12} ns] thread {:>2}  {desc}", e.t, e.tid);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionKind, TaskIdAllocator};

    #[test]
    fn thread_filter_and_text() {
        let reg = pomp::registry();
        let r = reg.register("tr-region", RegionKind::Task, "t", 0);
        let ids = TaskIdAllocator::new();
        let id = ids.alloc();
        let trace = Trace {
            events: vec![
                TraceEvent { t: 1, tid: 0, kind: EventKind::TaskBegin(r, id) },
                TraceEvent { t: 5, tid: 1, kind: EventKind::Enter(r) },
                TraceEvent { t: 9, tid: 0, kind: EventKind::TaskEnd(r, id) },
            ],
            nthreads: 2,
        };
        assert_eq!(trace.thread(0).count(), 2);
        assert_eq!(trace.thread(1).count(), 1);
        assert_eq!(trace.len(), 3);
        let text = trace.to_text();
        assert!(text.contains("TASK_BEGIN   tr-region #1"), "{text}");
        assert!(text.contains("thread  1"), "{text}");
    }
}
