//! Trace event model: the profiler's edge log with absolute timestamps.

use taskprof::{Event, RegionEdges};

/// One timestamped event on one thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace clock's origin.
    pub t: u64,
    /// Team-local thread id.
    pub tid: usize,
    /// The event. Never [`Event::Advance`]: elapsed time is the difference
    /// between two rows' `t`.
    pub event: Event,
}

/// A completed trace: all threads' events.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// By parallel region, then thread, then time when built from an edge
    /// log; in file order when parsed.
    events: Vec<TraceEvent>,
    nthreads: usize,
    /// End index in `events` of each parallel region. Task ids restart in
    /// every region, so the analysis resolves them region by region; a
    /// parsed file is one region (its rows have no column to say more).
    region_ends: Vec<usize>,
}

impl Trace {
    /// A one-region trace of `nthreads` threads. Panics on an
    /// [`Event::Advance`] or a thread outside the team: rows no trace
    /// file can hold.
    pub fn new(nthreads: usize, events: Vec<TraceEvent>) -> Trace {
        for e in &events {
            let timed = !matches!(e.event, Event::Advance(_));
            assert!(timed, "a trace row is timestamped, not an Advance");
            assert!(e.tid < nthreads, "tid {} outside a team of {nthreads}", e.tid);
        }
        Trace {
            region_ends: vec![events.len()],
            events,
            nthreads,
        }
    }

    /// The trace a drained edge log (`ProfMonitor::take_edge_log`)
    /// describes: each stream's `Advance` deltas are summed from its
    /// thread-begin origin into the rows' absolute `t`.
    pub fn from_edge_log(log: &[RegionEdges]) -> Trace {
        let mut trace = Trace::default();
        for region in log {
            for ((tid, stream), &origin) in region.streams.iter().zip(&region.origins) {
                trace.nthreads = trace.nthreads.max(tid + 1);
                let mut t = origin;
                for &event in stream {
                    match event {
                        Event::Advance(dt) => t += dt,
                        event => trace.events.push(TraceEvent { t, tid: *tid, event }),
                    }
                }
            }
            trace.region_ends.push(trace.events.len());
        }
        trace
    }

    /// Every event, in trace order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Team size.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Events of one thread, in trace order.
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

    /// The events of each parallel region, in order.
    pub(crate) fn regions(&self) -> impl Iterator<Item = &[TraceEvent]> {
        let mut start = 0;
        self.region_ends.iter().map(move |&end| {
            let region = &self.events[start..end];
            start = end;
            region
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionId, TaskIdAllocator};

    #[test]
    fn thread_filter() {
        let region = RegionId(1);
        let id = TaskIdAllocator::new().alloc();
        let ev = |t, tid, event| TraceEvent { t, tid, event };
        let trace = Trace::new(
            2,
            vec![
                ev(1, 0, Event::TaskBegin { region, id }),
                ev(5, 1, Event::Enter(region)),
                ev(9, 0, Event::TaskEnd { region, id }),
            ],
        );
        assert_eq!(trace.thread(0).count(), 2);
        assert_eq!(trace.thread(1).count(), 1);
        assert_eq!(trace.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not an Advance")]
    fn advance_rows_are_refused() {
        let event = Event::Advance(1);
        Trace::new(1, vec![TraceEvent { t: 0, tid: 0, event }]);
    }
}
