//! POMP2/OPARI2-style instrumentation interface.
//!
//! In the paper's stack, the source-to-source instrumenter OPARI2 rewrites
//! OpenMP pragmas into calls of the POMP2 measurement interface, which
//! Score-P implements. This crate plays the same role for the Rust stack:
//!
//! * a global, interned [`region::Registry`] of source-code regions
//!   (functions, task constructs, taskwaits, barriers, creation sites, ...),
//! * task-instance identifiers ([`task::TaskId`]) that the runtime stores in
//!   the task's own context — the OPARI2 extension of Lorenz et al.
//!   (IWOMP 2010) that makes instance-level tracking possible,
//! * the [`hooks::Monitor`] / [`hooks::ThreadHooks`] traits: the event
//!   vocabulary a measurement system (the `taskprof` crate) implements and a
//!   tasking runtime (the `taskrt` crate) invokes, and
//! * a [`clock::Clock`] abstraction so measurements can run against the
//!   monotonic system clock or a deterministic virtual clock for replaying
//!   the paper's event-stream figures exactly.
//!
//! The design keeps the three layers of the original system separable:
//! a runtime only depends on this crate (not on the profiler), a profiler
//! only depends on this crate (not on the runtime), and both can be unit
//! tested in isolation or recombined, e.g. a [`hooks::NullMonitor`] gives
//! the *uninstrumented* configuration used as the overhead baseline in the
//! paper's Section V.

#![warn(missing_docs)]

pub mod clock;
pub mod counting;
pub mod filter;
pub mod hooks;
pub mod region;
pub mod rng;
pub mod task;
pub mod validate;

pub use clock::{Clock, ClockReader, ClockSource, MonotonicClock, MonotonicReader, VirtualClock};
pub use counting::{CountingMonitor, EventCounts};
pub use filter::{FilteredMonitor, RegionFilter};
pub use hooks::{EventClass, Monitor, NullMonitor, NullThreadHooks, TaskRef, ThreadHooks};
pub use region::{registry, ParamId, RegionId, RegionInfo, RegionKind, Registry, RegistryView};
pub use rng::{fnv1a, SplitMix64, GOLDEN_GAMMA};
pub use task::{TaskId, TaskIdAllocator};
pub use validate::{Defect, Diagnostic, Repair, ValidatingMonitor, ValidatingThread};
