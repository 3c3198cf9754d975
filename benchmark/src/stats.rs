//! Order statistics over batch and request samples.

use std::time::Instant;

/// Time `f` in nanoseconds.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Median (mean of the two middle samples when the count is even).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First decile (the sample a tenth of the way up): the estimator for
/// every gated timing.
///
/// On a shared guest disturbances only ever add time, and they come as
/// plateaus: the same query answered in 38 us, then 57 us, then 85 us
/// for tens of milliseconds each, with nothing else running. A run's
/// samples are a mixture whose proportions change from run to run, so
/// its median and even its first quartile move with how much of the run
/// was disturbed; the low edge stays put. The first decile follows that
/// edge while still needing a tenth of the samples to be that fast, so
/// one lucky sample cannot set it. Across repeated runs it spread a
/// third to a half as much as the first quartile did, and the first
/// quartile a third to a half as much as the median.
pub fn decile1(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "first decile of no samples");
    v[v.len() / 10]
}

/// Smallest sample: the estimator for single-thread ns-scale loops,
/// where every disturbance only ever adds time.
pub fn minimum(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `p`-th percentile, lowered to the highest percentile that still
/// has ten samples beyond it. Full-size phases are sized so the named
/// percentile is the one reported; only `--quick` runs lower it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "percentile of no samples");
    let idx = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let idx = idx.clamp(1, v.len()) - 1;
    v[idx.min(v.len().saturating_sub(11))]
}

/// Quartile spread as a share of the median, the way the acceptance
/// check computes it (`statistics.quantiles(values, n=4)`, exclusive
/// method).
pub fn iqr_share(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)).abs() / med.abs()
    }
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(decile1(&v), 101.0);
        assert_eq!(decile1(&[9.0, 5.0, 7.0]), 5.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
