//! Hand-rolled log2-bucket latency histograms for request tracing.
//!
//! The serving daemon wants per-verb/per-protocol latency distributions,
//! not just totals — but it must record them from concurrent handler
//! threads without locks and without a dependency. The classic answer is
//! a power-of-two bucketed histogram: `record(ns)` is a `leading_zeros`
//! plus two relaxed atomic adds, and the snapshot is exact enough for
//! p50/p99 at log2 resolution (each bucket spans one doubling).
//!
//! Bucket `i` covers `[2^i, 2^(i+1))` nanoseconds, except bucket 0 which
//! also absorbs 0 ns, and the last bucket which saturates upward. With
//! [`HISTOGRAM_BUCKETS`] = 32 the top bucket starts at `2^31` ns ≈ 2.1 s
//! — far beyond any sane request deadline, so saturation is theoretical.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets per histogram.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A lock-free latency histogram: relaxed atomic buckets plus count,
/// sum, and max. Recording never blocks and never allocates.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// Which bucket a duration lands in.
fn bucket_index(ns: u64) -> usize {
    ((63 - ns.max(1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the saturating
/// top bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl LatencyHistogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Consistent-enough copy (each cell individually atomic; skew is
    /// bounded by recordings in flight during the read).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, cell) in buckets.iter_mut().zip(&self.buckets) {
            *out = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Durations recorded.
    pub count: u64,
    /// Sum of recorded durations, ns.
    pub sum_ns: u64,
    /// Largest recorded duration, ns.
    pub max_ns: u64,
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean duration (0 while empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0..=1.0`) at bucket resolution: the upper
    /// bound of the bucket holding the `ceil(q * count)`-th sample,
    /// clamped to the observed maximum. 0 while empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Fold `other` into `self` (for cross-verb or cross-protocol
    /// rollups).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{
        latency_to_jsonl_line, latency_to_prometheus, parse_latency_jsonl_line, parse_prometheus,
    };
    use std::sync::Arc;

    #[test]
    fn buckets_cover_doublings() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(10), 2047);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().quantile_ns(0.5), 0);
        for ns in [100u64, 110, 120, 130, 90_000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_ns, 90_460);
        assert_eq!(s.max_ns, 90_000);
        assert_eq!(s.mean_ns(), 18_092);
        // p50 lands in the [64,128) bucket → upper bound 127.
        assert_eq!(s.quantile_ns(0.5), 127);
        // p99 reaches the outlier's bucket but clamps to the true max.
        assert_eq!(s.quantile_ns(0.99), 90_000);
        assert_eq!(s.quantile_ns(1.0), 90_000);
    }

    #[test]
    fn merge_folds_everything() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(10);
        a.record(20);
        b.record(1_000_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 3);
        assert_eq!(m.sum_ns, 1_000_030);
        assert_eq!(m.max_ns, 1_000_000);
        assert_eq!(m.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        let h = Arc::new(LatencyHistogram::new());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 8000);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_parses_back() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 3_000] {
            h.record(ns);
        }
        let series = vec![(
            vec![
                ("verb".to_string(), "ingest".to_string()),
                ("proto".to_string(), "json".to_string()),
            ],
            h.snapshot(),
        )];
        let text = latency_to_prometheus(
            "profserve_request_latency_ns",
            "Request latency by verb and protocol.",
            &series,
        );
        let samples = parse_prometheus(&text).expect("parses");
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "profserve_request_latency_ns_bucket" && s.label("le") == Some("+Inf")
            })
            .expect("+Inf bucket");
        assert_eq!(inf.value, 3.0);
        assert_eq!(inf.label("verb"), Some("ingest"));
        assert_eq!(inf.label("proto"), Some("json"));
        let count = samples
            .iter()
            .find(|s| s.name == "profserve_request_latency_ns_count")
            .expect("count");
        assert_eq!(count.value, 3.0);
        let sum = samples
            .iter()
            .find(|s| s.name == "profserve_request_latency_ns_sum")
            .expect("sum");
        assert_eq!(sum.value, 3_300.0);
        // Buckets are cumulative: values never decrease in le order.
        let mut last = 0.0;
        for s in samples
            .iter()
            .filter(|s| s.name.ends_with("_bucket") && s.label("le") != Some("+Inf"))
        {
            assert!(s.value >= last, "non-monotonic buckets:\n{text}");
            last = s.value;
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let h = LatencyHistogram::new();
        for ns in [50u64, 60, 1_000_000] {
            h.record(ns);
        }
        let series = vec![
            ("ingest.json".to_string(), h.snapshot()),
            ("query_top.bin".to_string(), HistogramSnapshot::default()),
        ];
        let line = latency_to_jsonl_line(42, &series);
        let (t, back) = parse_latency_jsonl_line(&line).expect("parses");
        assert_eq!(t, 42);
        assert_eq!(back.len(), 2);
        let ingest = &back.iter().find(|(k, _)| k == "ingest.json").unwrap().1;
        assert_eq!(*ingest, series[0].1);
        assert!(parse_latency_jsonl_line("nope").is_err());
    }
}
