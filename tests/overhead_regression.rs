//! Overhead regression guard: the full session stack (counting +
//! validation + sharded profiler) must stay within a generous fixed
//! multiple of an uninstrumented run.
//!
//! The bound is deliberately loose — CI machines are noisy and debug
//! builds uninlined — but it catches the failure mode that matters: an
//! accidental lock or allocation on the per-event fast path turns the
//! multiplier into hundreds, not tens.
//!
//! Because these are wall-clock measurements, a violated bound only
//! *fails* the test when `TASKPROF_BENCH_STRICT` is set (dedicated
//! perf-CI); by default it is reported as a warning so a loaded share
//! machine cannot fail an otherwise-deterministic test suite.

use bots::{run_app, AppId, RunOpts, Scale, Variant};
use pomp::NullMonitor;
use std::time::Duration;
use taskprof_session::MeasurementSession;

/// Ratio ceiling: per-event work is bounded (clock read + arena bump +
/// counter increments), so even unoptimized builds stay well below this.
const MAX_OVERHEAD_RATIO: f64 = 25.0;
const REPS: usize = 3;

fn min_time(mut run: impl FnMut() -> Duration) -> Duration {
    (0..REPS).map(|_| run()).min().expect("REPS >= 1")
}

/// Enforce a timing bound: hard assert under `TASKPROF_BENCH_STRICT`,
/// stderr warning otherwise.
fn enforce_bound(ok: bool, message: String) {
    if ok {
        return;
    }
    if std::env::var_os("TASKPROF_BENCH_STRICT").is_some() {
        panic!("{message}");
    }
    eprintln!("warning (set TASKPROF_BENCH_STRICT=1 to fail on this): {message}");
}

#[test]
fn full_session_stack_overhead_is_bounded() {
    let threads = 2;
    let opts = RunOpts::new(threads)
        .scale(Scale::Small)
        .variant(Variant::Cutoff);

    let base = min_time(|| {
        let out = run_app(AppId::Fib, &NullMonitor, &opts);
        assert!(out.verified);
        out.kernel
    });

    let instrumented = min_time(|| {
        let session = MeasurementSession::builder("overhead-guard")
            .threads(threads)
            .build()
            .expect("default session configuration is valid")
            .counted()
            .validated();
        let out = run_app(AppId::Fib, session.monitor(), &opts);
        assert!(out.verified);
        let report = session.finish();
        assert!(report.is_clean());
        assert_eq!(report.profile.num_threads(), threads);
        out.kernel
    });

    // Guard against degenerate timer resolution on tiny baselines.
    let base = base.max(Duration::from_micros(50));
    let ratio = instrumented.as_secs_f64() / base.as_secs_f64();
    enforce_bound(
        ratio < MAX_OVERHEAD_RATIO,
        format!(
            "full measurement stack is {ratio:.1}x the uninstrumented run \
             (base {base:?}, instrumented {instrumented:?}); the per-event \
             fast path has likely regressed (lock or allocation in a hook?)"
        ),
    );
}

/// Telemetry's contract is a ~free event path: relaxed stores on the
/// thread's own cache line, no lock, no allocation. This guard compares
/// telemetry-on vs telemetry-off *per-event cost* over a long in-process
/// event stream (direct hook calls, so runtime scheduling noise is out of
/// the picture). The release-mode number is `telemetry.event_ns` in
/// `benchmark/` and the allocation half of the contract is exact in
/// `tests/instance_table.rs`; this debug-build bound is looser but still
/// catches a lock or syscall sneaking onto the telemetry path.
#[test]
fn telemetry_per_event_overhead_is_bounded() {
    use pomp::{Monitor, RegionId, TaskIdAllocator, ThreadHooks};
    use taskprof::ProfMonitor;

    const EVENTS_PER_REP: u64 = 60_000;
    // 5% is the release-mode target; allow debug-build jitter on top.
    const MAX_TELEMETRY_RATIO: f64 = 1.35;

    fn drive(telemetry: bool) -> Duration {
        let builder = ProfMonitor::builder();
        let builder = if telemetry {
            builder.telemetry()
        } else {
            builder
        };
        let monitor = builder.build().expect("valid configuration");
        let par = RegionId(9100);
        let work = RegionId(9101);
        let task = RegionId(9102);
        let ids = TaskIdAllocator::new();
        monitor.parallel_fork(par, 1);
        let th = monitor.thread_begin(0, 1, par);
        let start = std::time::Instant::now();
        for _ in 0..EVENTS_PER_REP / 6 {
            let id = ids.alloc();
            th.enter(work);
            th.task_create_begin(work, task, id);
            th.task_create_end(work, id);
            th.task_begin(task, id);
            th.task_end(task, id);
            th.exit(work);
        }
        let elapsed = start.elapsed();
        monitor.thread_end(0, th);
        monitor.parallel_join(par);
        let profile = monitor.take_profile().expect("region closed");
        assert_eq!(profile.num_threads(), 1);
        elapsed
    }

    // Warm up allocators and branch predictors once per mode, then take
    // the min of interleaved reps so machine noise hits both modes alike.
    drive(false);
    drive(true);
    let off = min_time(|| drive(false));
    let on = min_time(|| drive(true));

    let off = off.max(Duration::from_micros(200));
    let ratio = on.as_secs_f64() / off.as_secs_f64();
    enforce_bound(
        ratio < MAX_TELEMETRY_RATIO,
        format!(
            "telemetry-on event path is {ratio:.2}x telemetry-off \
             (off {off:?}, on {on:?}); the telemetry tail must stay a few \
             relaxed stores — no lock, no allocation, no syscall"
        ),
    );
}
