//! `taskprof` — a call-path profiler for tied tasks, reproducing the
//! algorithm of *"Profiling of OpenMP Tasks with Score-P"* (Lorenz,
//! Philippen, Schmidl, Wolf — ICPP 2012).
//!
//! # The problem
//!
//! Task constructs break the two assumptions classic call-path profiling
//! rests on: enter/exit events are properly nested per thread, and work
//! executes where the call path says it does. A thread may interleave
//! fragments of many task instances (suspending at scheduling points), and
//! a task may execute far from where it was created — typically inside a
//! barrier.
//!
//! # The algorithm (paper Fig. 12)
//!
//! * Every *active* task instance gets a private call tree and a frame
//!   stack whose timers stop while the instance is suspended, so the task's
//!   statistics describe the task's own execution only.
//! * The implicit task's tree records a *stub node* under each scheduling
//!   point, accounting the time the thread spent executing task fragments
//!   there — splitting, e.g., barrier time into useful task work and
//!   management/idle time.
//! * On completion an instance tree is merged into a per-construct
//!   aggregate tree beside the main tree (min/max/mean over instances fall
//!   out of the merge), and its nodes are recycled, which keeps memory
//!   bounded by the number of *concurrently* active instances.
//!
//! # Entry points
//!
//! * [`ThreadProfile`] — the algorithm itself, driven by explicit
//!   timestamped events (used directly by tests/replay).
//! * [`ProfMonitor`] — adapter implementing [`pomp::Monitor`] with a clock;
//!   hand it to the `taskrt` runtime for real measurements.
//! * [`replay()`] — deterministic event-stream replay under virtual time.
//! * [`Profile`]/[`ThreadSnapshot`]/[`SnapNode`] — analysis-friendly
//!   snapshots consumed by the `cube` crate.

#![warn(missing_docs)]

mod body;
pub mod calibrate;
pub mod metrics;
pub mod migrate;
pub mod monitor;
pub mod profiler;
pub mod replay;
pub mod shard;
pub mod snapshot;
pub mod tree;

pub use calibrate::{calibrate, Calibration};
pub use metrics::Stats;
pub use migrate::DetachedInstance;
pub use monitor::{
    ConfigError, EdgeStream, ProfMonitor, ProfMonitorBuilder, ProfThread, RegionEdges,
    SessionActiveError, DEFAULT_PREALLOC_NODES,
};
pub use shard::HandoffStack;
pub use profiler::{AssignPolicy, ThreadProfile};
pub use replay::{replay, Event, Replayer, TeamReplayer};
pub use snapshot::{Profile, SnapNode, ThreadSnapshot};
pub use tree::NodeKind;
pub use taskprof_telemetry::{TelemetryConfig, TelemetryCore, TelemetrySnapshot};
