//! `cube` — CUBE-style analysis of task call-path profiles.
//!
//! Score-P writes profiles that the CUBE browser displays (paper Fig. 5);
//! this crate is the analysis layer of the reproduction: cross-thread
//! aggregation, metric queries for the experiment harness (Tables I–IV),
//! an ASCII call-tree renderer, CSV export, and profile diffing.

#![warn(missing_docs)]

pub mod agg;
pub mod diagnose;
pub mod diff;
pub mod export;
pub mod imbalance;
pub mod query;
pub mod render;
pub mod store;

pub use agg::{merge_nodes, AggProfile};
pub use diagnose::{diagnose, DiagnoseConfig, Finding, IssueKind};
pub use diff::{diff_profiles, DiffRow};
pub use export::{rows, to_csv, to_dot, CsvRow};
pub use imbalance::{imbalance_factor, render_loads, thread_loads, ThreadLoad};
pub use query::{
    param_table, region_excl_by_kind, region_excl_by_name, stub_time_under_kind, task_stats,
    TaskConstructStats,
};
pub use render::{
    format_ns, render_critpath, render_profile, render_telemetry, render_tree, render_whatif,
    RenderOpts,
};
pub use store::{read_profile, write_profile, write_profile_to, ParseError};
