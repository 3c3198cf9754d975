//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Every experiment binary (`fig13`, `table1`, ...) uses these helpers to
//! run BOTS codes instrumented (`taskprof::ProfMonitor`) and
//! uninstrumented (`pomp::NullMonitor`), compute overheads, and print
//! aligned tables.
//!
//! Environment knobs (all optional):
//!
//! * `BENCH_SCALE` — `test` | `small` | `medium` (default `small` so the
//!   full suite completes in minutes; use `medium` for paper-shaped runs),
//! * `BENCH_THREADS` — comma list, default `1,2,4,8` (the paper's sweep),
//! * `BENCH_REPS` — repetitions per configuration, default 3 (minimum is
//!   reported, which is the stablest overhead estimator).
//!
//! A value that does not parse is an error (exit status 2), not a silent
//! default: see [`Config::parse`].

#![warn(missing_docs)]

use bots::{run_app, AppId, Outcome, RunOpts, Scale, Variant};
use cube::AggProfile;
use pomp::{CountingMonitor, NullMonitor};
use std::time::Duration;
use taskprof_session::MeasurementSession;

/// Parsed environment configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Input scale.
    pub scale: Scale,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Repetitions per configuration.
    pub reps: usize,
}

impl Config {
    /// Read `BENCH_*` environment variables; a value [`Config::parse`]
    /// rejects is reported on stderr and the process exits with status 2.
    pub fn from_env() -> Self {
        let var = |name: &str| std::env::var(name).ok();
        let (scale, threads, reps) = (var("BENCH_SCALE"), var("BENCH_THREADS"), var("BENCH_REPS"));
        Self::parse(scale.as_deref(), threads.as_deref(), reps.as_deref()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Build a configuration from the three knobs' raw values (`None` =
    /// unset, which selects the default). An unknown scale, a thread list
    /// with no positive integer in it, and a repetition count that is not
    /// a positive integer are errors rather than silent defaults.
    pub fn parse(
        scale: Option<&str>,
        threads: Option<&str>,
        reps: Option<&str>,
    ) -> Result<Self, String> {
        let scale = match scale {
            None | Some("small") => Scale::Small,
            Some("test") => Scale::Test,
            Some("medium") => Scale::Medium,
            Some(other) => {
                return Err(format!(
                    "BENCH_SCALE={other}: expected test, small or medium"
                ))
            }
        };
        let threads = match threads {
            None => vec![1, 2, 4, 8],
            Some(list) => {
                let parsed: Vec<usize> = list
                    .split(',')
                    .filter_map(|t| t.trim().parse().ok())
                    .filter(|&n| n >= 1)
                    .collect();
                if parsed.is_empty() {
                    return Err(format!(
                        "BENCH_THREADS={list}: expected a comma list of thread counts >= 1"
                    ));
                }
                parsed
            }
        };
        let reps = match reps {
            None => 3,
            Some(text) => match text.trim().parse() {
                Ok(n) if n >= 1 => n,
                _ => return Err(format!("BENCH_REPS={text}: expected an integer >= 1")),
            },
        };
        Ok(Self {
            scale,
            threads,
            reps,
        })
    }
}

/// Minimum kernel time over `reps` uninstrumented runs.
pub fn uninstrumented_time(
    app: AppId,
    threads: usize,
    scale: Scale,
    variant: Variant,
    reps: usize,
) -> Duration {
    let opts = RunOpts::new(threads).scale(scale).variant(variant);
    (0..reps)
        .map(|_| {
            let out = run_app(app, &NullMonitor, &opts);
            assert!(out.verified, "{} failed verification", app.name());
            out.kernel
        })
        .min()
        .expect("reps >= 1")
}

/// Minimum kernel time over `reps` instrumented runs, plus the profile of
/// the fastest run.
pub fn instrumented_time(
    app: AppId,
    threads: usize,
    scale: Scale,
    variant: Variant,
    reps: usize,
) -> (Duration, AggProfile) {
    let opts = RunOpts::new(threads).scale(scale).variant(variant);
    let mut best: Option<(Duration, AggProfile)> = None;
    for _ in 0..reps {
        let session = MeasurementSession::builder("bench")
            .threads(threads)
            .build()
            .expect("default session configuration is valid");
        let out = run_app(app, session.monitor(), &opts);
        assert!(out.verified, "{} failed verification", app.name());
        let prof = AggProfile::from_profile(&session.finish().profile);
        if best.as_ref().is_none_or(|(t, _)| out.kernel < *t) {
            best = Some((out.kernel, prof));
        }
    }
    best.expect("reps >= 1")
}

/// One instrumented run with full options (e.g. depth-parameter runs).
pub fn instrumented_run(app: AppId, opts: &RunOpts) -> (Outcome, AggProfile) {
    let session = MeasurementSession::builder("bench")
        .threads(opts.threads)
        .build()
        .expect("default session configuration is valid");
    let out = run_app(app, session.monitor(), opts);
    assert!(out.verified, "{} failed verification", app.name());
    (out, AggProfile::from_profile(&session.finish().profile))
}

/// Count the measurement events one run of `app` emits (event counts are
/// deterministic per workload, so one counting-only run suffices).
pub fn count_events(app: AppId, threads: usize, scale: Scale, variant: Variant) -> u64 {
    let opts = RunOpts::new(threads).scale(scale).variant(variant);
    let counter = CountingMonitor::new();
    let out = run_app(app, &counter, &opts);
    assert!(out.verified, "{} failed verification", app.name());
    counter.counts().total()
}

/// Overhead of `instr` relative to `base`, in percent (the quantity of the
/// paper's Figs. 13/14).
pub fn overhead_pct(instr: Duration, base: Duration) -> f64 {
    if base.is_zero() {
        return 0.0;
    }
    (instr.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
}

/// Print an aligned table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i.min(ncols - 1)]))
            .collect();
        println!("  {}", line.join("  "));
    };
    fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "  {}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        fmt_row(row);
    }
}

/// Format a duration in seconds with 3 decimals.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format a percentage with sign.
pub fn fmt_pct(p: f64) -> String {
    format!("{p:+.1}%")
}

/// Header banner for an experiment binary.
pub fn banner(title: &str, cfg: &Config) {
    println!("== {title} ==");
    println!(
        "   scale={:?} threads={:?} reps={} (set BENCH_SCALE/BENCH_THREADS/BENCH_REPS to change)",
        cfg.scale, cfg.threads, cfg.reps
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        let base = Duration::from_millis(100);
        assert!((overhead_pct(Duration::from_millis(110), base) - 10.0).abs() < 1e-9);
        assert!((overhead_pct(Duration::from_millis(90), base) + 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(base, Duration::ZERO), 0.0);
    }

    #[test]
    fn config_parse_defaults_and_rejections() {
        let c = Config::parse(None, None, None).expect("defaults are valid");
        assert_eq!((c.scale, c.reps), (Scale::Small, 3));
        assert_eq!(c.threads, [1, 2, 4, 8]);

        let c = Config::parse(Some("test"), Some("2, x,4"), Some("1")).expect("valid knobs");
        assert_eq!((c.scale, c.reps), (Scale::Test, 1));
        assert_eq!(c.threads, [2, 4]);

        for (scale, threads, reps, names) in [
            (Some("tset"), None, None, "BENCH_SCALE=tset"),
            (None, Some("x,,0"), None, "BENCH_THREADS=x,,0"),
            (None, None, Some("0"), "BENCH_REPS=0"),
            (None, None, Some("three"), "BENCH_REPS=three"),
        ] {
            let err = Config::parse(scale, threads, reps).expect_err(names);
            assert!(err.starts_with(names), "{err}");
        }
    }

    #[test]
    fn harness_runs_fib_both_ways() {
        let t = uninstrumented_time(AppId::Fib, 2, Scale::Test, Variant::Cutoff, 1);
        let (ti, prof) = instrumented_time(AppId::Fib, 2, Scale::Test, Variant::Cutoff, 1);
        assert!(t > Duration::ZERO && ti > Duration::ZERO);
        assert_eq!(prof.nthreads, 2);
        assert!(!prof.task_trees.is_empty());
    }
}
