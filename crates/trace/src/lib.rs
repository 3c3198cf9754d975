//! `taskprof-trace` — OTF2-style event tracing and trace-based task
//! analysis.
//!
//! The paper's Section VII names trace analysis as the missing piece:
//! profiles cannot distinguish whether time at a synchronization point is
//! *management* overhead or *waiting* for task completion, and suggests
//! that "the time between the enter of the last synchronization point and
//! the task switch event would be of interest", as well as "the ratio of
//! overall management time to exclusive execution time for tasks".
//!
//! This crate implements that future work:
//!
//! * a [`Trace`] is the profiler's own packed edge log read back with
//!   absolute timestamps ([`Trace::from_edge_log`]): build the session
//!   with `record_task_edges()` and the hooks that profile the run also
//!   transcribe it, on the clock reads they already make; drain it with
//!   `profiler().take_edge_log()` once the run is over,
//! * [`analysis`] computes the paper's proposed metrics: scheduling-point
//!   dwell decomposition (pre-switch management vs. task execution vs.
//!   residual waiting), creation-to-start queue latencies, fragments per
//!   instance, and the management-to-work ratio.

#![warn(missing_docs)]

pub mod analysis;
pub mod event;
pub mod store;

pub use analysis::{analyze, InstanceLatency, SchedulingPointBreakdown, TraceAnalysis};
pub use event::{Trace, TraceEvent};
pub use store::{read_trace, write_trace, ParseError};
