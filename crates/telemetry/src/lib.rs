//! `taskprof-telemetry` — live introspection of a running measurement.
//!
//! The profiler's analysis metrics (per-construct instance runtimes,
//! fragment counts, the Table II bound on concurrently live instance
//! trees) are normally only observable *post mortem* through the session
//! report. This crate gives the profiler eyes on itself while it runs,
//! without re-introducing locks on the sharded event fast path:
//!
//! * [`TelemetryCore`] — per-shard relaxed-atomic counters and gauges,
//!   aggregated only on read. Each measurement thread writes to its own
//!   cache-line-padded slot; readers sum (or max) across slots. No CAS,
//!   no lock, no fence stronger than `Relaxed` anywhere on the event path
//!   (the high-water mark uses `fetch_max(Relaxed)`, which is a lock-free
//!   RMW, never a lock).
//! * [`ThreadTelemetry`] — the thread-owned write handle the profiling
//!   monitor drives from its hooks: event-class counters, task life-cycle
//!   counters, the live-instance-tree gauge, fragment/stub-time
//!   accounting, and 1-in-N sampled *perturbation accounting* — the
//!   profiler timing its own per-event cost so the estimated measurement
//!   overhead (paper Figs. 13–14) is available live.
//! * [`TelemetrySnapshot`] — a plain aggregated view, cheap to take from
//!   any thread at any time (including mid-measurement: counters are
//!   monotonic, the gauges merely slightly stale).
//! * [`Sampler`] — an optional background thread producing fixed-interval
//!   time-series snapshots.
//! * [`histogram`] — lock-free log2-bucket latency histograms (the
//!   serving daemon's request-tracing substrate).
//! * [`ServiceCounters`] — the serving daemon's relaxed-atomic totals
//!   (connections, ingests, queries, errors, subscriptions, …).
//! * [`export`] — the Prometheus text exposition format and JSON-lines
//!   time series for all of the above, both with parsers so round trips
//!   are testable. Each family is declared once, one row per metric
//!   (its JSONL key, Prometheus name, type, help and field), and one
//!   Prometheus writer and one JSONL writer and reader serve every
//!   family, the latency histograms included.

#![warn(missing_docs)]

pub mod counters;
pub mod export;
pub mod histogram;
pub mod sampler;
pub mod service;
pub mod snapshot;

pub use counters::{TelemetryConfig, TelemetryCore, ThreadTelemetry, MAX_TELEMETRY_SHARDS};
pub use export::{
    latency_to_jsonl_line, latency_to_prometheus, parse_jsonl_line, parse_latency_jsonl_line,
    parse_prometheus, to_jsonl_line, to_prometheus, ExportParseError, PromSample,
};
pub use histogram::{HistogramSnapshot, LatencyHistogram, HISTOGRAM_BUCKETS};
pub use sampler::{Sampler, TimedSnapshot};
pub use service::{service_to_prometheus, ServiceCounters, ServiceSnapshot};
pub use snapshot::TelemetrySnapshot;
