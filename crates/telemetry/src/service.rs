//! Service-level counters for long-running daemons built on the suite
//! (the profile repository server, most prominently).
//!
//! The measurement-path counters in [`crate::counters`] are sharded per
//! measurement thread because they sit on a nanosecond-scale hot path; a
//! network daemon's request path is microseconds at best, so these are
//! plain relaxed atomics — still lock-free, still safe to scrape from any
//! thread at any time, just without the cache-line choreography.
//!
//! The family is declared once, in the `service_counters!` table below:
//! each row names a counter and gives its Prometheus name and help. The
//! row becomes the atomic in [`ServiceCounters`], the field of
//! [`ServiceSnapshot`] and the exported metric. `profserve`'s wire codec
//! spells the snapshot's fields once more, in its frozen declaration.

use crate::export::{prom_family, Field, Metric};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Expands one row per counter, `field => "prometheus_name", "help";`,
/// into [`ServiceCounters`], [`ServiceSnapshot`] (fields in row order,
/// the help as their doc), [`ServiceCounters::snapshot`] and `SERVICE`,
/// the family's metric table.
macro_rules! service_counters {
    ($($field:ident => $name:literal, $help:literal;)*) => {
        /// Lock-free counters describing a serving daemon's lifetime
        /// totals, bumped through [`ServiceCounters::add`].
        #[derive(Debug, Default)]
        pub struct ServiceCounters {
            $(#[doc = $help] pub $field: AtomicU64,)*
        }

        /// Point-in-time copy of [`ServiceCounters`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct ServiceSnapshot {
            $(#[doc = $help] pub $field: u64,)*
        }

        impl ServiceCounters {
            /// Consistent-enough copy of all counters (each is individually
            /// atomic; cross-counter skew is bounded by in-flight requests).
            pub fn snapshot(&self) -> ServiceSnapshot {
                ServiceSnapshot { $($field: self.$field.load(Ordering::Relaxed),)* }
            }
        }

        static SERVICE: &[Metric<ServiceSnapshot>] = &[$(Metric {
            key: stringify!($field),
            name: $name,
            kind: "counter",
            help: $help,
            field: Field::Count(|s| &mut s.$field),
        },)*];
    };
}

service_counters! {
    connections => "profserve_connections_total", "Connections admitted past the permit gate.";
    // The accept loop never blocks: past the gate a connection is answered
    // `overloaded` and closed.
    shed_connections => "profserve_shed_connections_total", "Connections rejected by backpressure.";
    timeout_connections => "profserve_timeout_connections_total",
        "Connections dropped by the per-connection read/write deadline.";
    ingests => "profserve_ingests_total", "Profiles ingested.";
    ingest_bytes => "profserve_ingest_bytes_total", "Bytes appended to the store by ingests.";
    queries => "profserve_queries_total", "Query requests served.";
    errors => "profserve_errors_total", "Requests answered with a typed error.";
    panics => "profserve_panics_total", "Handler panics isolated by the per-request boundary.";
    json_requests => "profserve_json_requests_total", "Requests served over the JSON line protocol.";
    bin_requests => "profserve_bin_requests_total", "Requests served over the TPF1 binary protocol.";
    // A batch may carry many profiles; each still counts in `ingests`.
    ingest_batches => "profserve_ingest_batches_total", "Batched ingest requests served.";
    subscriptions => "profserve_subscriptions_total", "Live-stream subscriptions accepted.";
    sub_events => "profserve_sub_events_total", "Events pushed to live subscribers.";
    // Slow consumers are shed, never allowed to block ingest.
    sub_lagged => "profserve_sub_lagged_total", "Events dropped on slow subscribers.";
}

impl ServiceCounters {
    /// Fresh zeroed counters behind an `Arc` (handlers clone the arc).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Add `n` to the counter `pick` names, e.g.
    /// `counters.add(|c| &c.queries, 1)` (relaxed; totals are monotonic).
    pub fn add(&self, pick: fn(&Self) -> &AtomicU64, n: u64) {
        pick(self).fetch_add(n, Ordering::Relaxed);
    }
}

/// Render a service snapshot in the Prometheus text exposition format,
/// name-spaced `profserve_*` so it can be exposed alongside the
/// measurement metrics without collisions.
pub fn service_to_prometheus(s: &ServiceSnapshot) -> String {
    prom_family(SERVICE, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = ServiceCounters::new();
        c.add(|c| &c.connections, 1);
        c.add(|c| &c.connections, 1);
        c.add(|c| &c.shed_connections, 1);
        c.add(|c| &c.ingest_bytes, 100);
        c.add(|c| &c.ingest_bytes, 50);
        c.add(|c| &c.ingests, 2);
        c.add(|c| &c.queries, 1);
        c.add(|c| &c.errors, 1);
        c.add(|c| &c.panics, 1);
        c.add(|c| &c.json_requests, 1);
        c.add(|c| &c.bin_requests, 2);
        c.add(|c| &c.ingest_batches, 1);
        c.add(|c| &c.subscriptions, 1);
        c.add(|c| &c.sub_events, 5);
        c.add(|c| &c.sub_lagged, 2);
        let s = c.snapshot();
        assert_eq!(s.connections, 2);
        assert_eq!(s.shed_connections, 1);
        assert_eq!(s.ingests, 2);
        assert_eq!(s.ingest_bytes, 150);
        assert_eq!(s.queries, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.panics, 1);
        assert_eq!(s.json_requests, 1);
        assert_eq!(s.bin_requests, 2);
        assert_eq!(s.ingest_batches, 1);
        assert_eq!(s.subscriptions, 1);
        assert_eq!(s.sub_events, 5);
        assert_eq!(s.sub_lagged, 2);
    }

    #[test]
    fn concurrent_bumps_lose_nothing() {
        let c = ServiceCounters::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.add(|c| &c.ingests, 1);
                        c.add(|c| &c.ingest_bytes, 3);
                        c.add(|c| &c.queries, 1);
                    }
                });
            }
        });
        let s = c.snapshot();
        assert_eq!(s.ingests, 8000);
        assert_eq!(s.ingest_bytes, 24_000);
        assert_eq!(s.queries, 8000);
    }

    #[test]
    fn prometheus_export_parses_back() {
        let c = ServiceCounters::new();
        c.add(|c| &c.ingests, 1);
        c.add(|c| &c.ingest_bytes, 42);
        c.add(|c| &c.shed_connections, 1);
        let text = service_to_prometheus(&c.snapshot());
        let samples = crate::export::parse_prometheus(&text).expect("parse");
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        assert_eq!(get("profserve_ingests_total") as u64, 1);
        assert_eq!(get("profserve_ingest_bytes_total") as u64, 42);
        assert_eq!(get("profserve_shed_connections_total") as u64, 1);
    }
}
