//! Request tracing: per-(verb, protocol) latency histograms.
//!
//! Every request the daemon serves is timed as a span around the
//! dispatch (`parse → respond → serialize`) and recorded into a
//! [`LatencyHistogram`] keyed by the request verb and the wire protocol
//! it arrived over. Recording is two relaxed atomic adds — safe from the
//! reactor thread and any future worker pool without locks.
//!
//! The grid is surfaced three ways:
//!
//! * `STATS` — distilled [`LatencyStat`] rows (count/sum/max/p50/p99);
//! * `STATS prometheus` — full cumulative-bucket Prometheus histograms
//!   via [`taskprof_telemetry::latency_to_prometheus`];
//! * the JSONL telemetry exporter — flat `<verb>.<proto>.*` keys via
//!   [`taskprof_telemetry::latency_to_jsonl_line`].

use crate::protocol::{LatencyStat, Request};
use taskprof_telemetry::{HistogramSnapshot, LatencyHistogram};

/// Request verbs the daemon traces, in display order.
pub(crate) const VERBS: [&str; 11] = [
    "hello",
    "ingest",
    "ingest_batch",
    "query_top",
    "query_stats",
    "query_regress",
    "query_trend",
    "stats",
    "subscribe",
    "export",
    "apply",
];

/// Protocol axis of the grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReqProto {
    /// JSON lines.
    Json,
    /// TPF1 binary frames.
    Bin,
}

impl ReqProto {
    pub(crate) fn name(self) -> &'static str {
        match self {
            ReqProto::Json => "json",
            ReqProto::Bin => "bin",
        }
    }

    fn index(self) -> usize {
        match self {
            ReqProto::Json => 0,
            ReqProto::Bin => 1,
        }
    }
}

/// Which verb slot a request records under.
pub(crate) fn verb_index(req: &Request) -> usize {
    match req {
        Request::Hello { .. } => 0,
        Request::Ingest(_) => 1,
        Request::IngestBatch(_) => 2,
        Request::QueryTop { .. } => 3,
        Request::QueryStats { .. } => 4,
        Request::QueryRegress { .. } => 5,
        Request::QueryTrend { .. } => 6,
        Request::Stats | Request::StatsPrometheus => 7,
        Request::Subscribe { .. } => 8,
        Request::Export { .. } => 9,
        Request::Apply { .. } => 10,
    }
}

/// The verb × protocol histogram grid. Unparsable requests have no verb
/// and are not traced (they are already counted in `errors`).
#[derive(Debug, Default)]
pub(crate) struct RequestLatency {
    grid: [[LatencyHistogram; 2]; VERBS.len()],
}

impl RequestLatency {
    /// Record one request span.
    pub(crate) fn record(&self, verb: usize, proto: ReqProto, ns: u64) {
        self.grid[verb][proto.index()].record(ns);
    }

    /// Snapshot every non-empty cell as `(verb, proto, histogram)`.
    pub(crate) fn cells(&self) -> Vec<(&'static str, &'static str, HistogramSnapshot)> {
        let mut out = Vec::new();
        for (vi, verb) in VERBS.iter().enumerate() {
            for proto in [ReqProto::Json, ReqProto::Bin] {
                let snap = self.grid[vi][proto.index()].snapshot();
                if !snap.is_empty() {
                    out.push((*verb, proto.name(), snap));
                }
            }
        }
        out
    }

    /// Distill the grid into the `STATS` latency rows.
    pub(crate) fn stats(&self) -> Vec<LatencyStat> {
        self.cells()
            .into_iter()
            .map(|(verb, proto, snap)| LatencyStat {
                verb: verb.to_string(),
                proto: proto.to_string(),
                count: snap.count,
                sum_ns: snap.sum_ns,
                max_ns: snap.max_ns,
                p50_ns: snap.quantile_ns(0.5),
                p99_ns: snap.quantile_ns(0.99),
            })
            .collect()
    }

    /// Full-resolution Prometheus histogram rendering of the grid.
    pub(crate) fn to_prometheus(&self) -> String {
        let series: Vec<(Vec<(String, String)>, HistogramSnapshot)> = self
            .cells()
            .into_iter()
            .map(|(verb, proto, snap)| {
                (
                    vec![
                        ("verb".to_string(), verb.to_string()),
                        ("proto".to_string(), proto.to_string()),
                    ],
                    snap,
                )
            })
            .collect();
        taskprof_telemetry::latency_to_prometheus(
            "profserve_request_latency_ns",
            "Request handling latency by verb and protocol.",
            &series,
        )
    }

    /// Keyed snapshots (`<verb>.<proto>`) for the JSONL exporter.
    pub(crate) fn jsonl_series(&self) -> Vec<(String, HistogramSnapshot)> {
        self.cells()
            .into_iter()
            .map(|(verb, proto, snap)| (format!("{verb}.{proto}"), snap))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_the_right_cell() {
        let lat = RequestLatency::default();
        let ingest = verb_index(&Request::Ingest(crate::protocol::Record::from_text(
            "b", 1, None, "x",
        )));
        lat.record(ingest, ReqProto::Bin, 1_000);
        lat.record(ingest, ReqProto::Bin, 2_000);
        lat.record(verb_index(&Request::Stats), ReqProto::Json, 500);
        let stats = lat.stats();
        assert_eq!(stats.len(), 2);
        let row = stats
            .iter()
            .find(|l| l.verb == "ingest" && l.proto == "bin")
            .expect("ingest/bin row");
        assert_eq!(row.count, 2);
        assert_eq!(row.sum_ns, 3_000);
        assert_eq!(row.max_ns, 2_000);
        assert!(row.p50_ns >= 1_000 && row.p50_ns <= 2_047);
        let prom = lat.to_prometheus();
        assert!(prom.contains("profserve_request_latency_ns_bucket"));
        assert!(prom.contains("verb=\"stats\",proto=\"json\""));
        let series = lat.jsonl_series();
        assert!(series.iter().any(|(k, _)| k == "ingest.bin"));
    }

    #[test]
    fn stats_and_prometheus_verbs_cover_every_request() {
        // Every Request variant must map inside the VERBS table.
        let reqs = [
            Request::Hello {
                version: 1,
                features: 0,
                auth: None,
            },
            Request::Stats,
            Request::StatsPrometheus,
            Request::Subscribe { interval_ms: None },
            Request::Export { after: 0, max: 1 },
            Request::Apply { frames: Vec::new() },
        ];
        for r in &reqs {
            assert!(verb_index(r) < VERBS.len());
        }
    }
}
