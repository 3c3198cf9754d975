//! Live telemetry: watch a measurement session from the outside while it
//! runs, then export the counters for a monitoring stack.
//!
//! ```text
//! cargo run --release --example live_telemetry
//! ```
//!
//! A watcher thread polls the session's lock-free gauges (task lifecycle,
//! live instance trees, perturbation estimate) while `nqueens` executes;
//! afterwards the final counters are printed as a dashboard, as
//! Prometheus text exposition (what a `/metrics` endpoint would serve),
//! and as one JSON line. The same run with its checks (the exports parse
//! back, the live-tree high-water mark equals the profile's) is the test
//! `nqueens_polled_while_running_exports_and_matches_its_profile` in
//! `tests/telemetry_live.rs`.

use bots::{run_app, AppId, RunOpts, Scale};
use cube::render_telemetry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use taskprof_session::MeasurementSession;
use taskprof_telemetry::{parse_jsonl_line, parse_prometheus};

fn main() {
    let threads = 4;
    let session = MeasurementSession::builder("live-telemetry")
        .threads(threads)
        .telemetry()
        .build()
        .expect("default session configuration is valid");
    let telemetry = session
        .telemetry()
        .expect("telemetry was enabled on the builder");

    // --- Poll the gauges from a watcher thread while the kernel runs. ---
    let done = AtomicBool::new(false);
    let out = std::thread::scope(|s| {
        let watcher_telemetry = telemetry.clone();
        let done = &done;
        let watcher = s.spawn(move || {
            let mut polls = 0u32;
            let mut peak_in_flight = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = watcher_telemetry.snapshot();
                peak_in_flight = peak_in_flight.max(snap.tasks_in_flight());
                polls += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            (polls, peak_in_flight)
        });
        let out = run_app(
            AppId::Nqueens,
            session.monitor(),
            &RunOpts::new(threads).scale(Scale::Small),
        );
        done.store(true, Ordering::Release);
        let (polls, peak) = watcher.join().expect("watcher thread");
        println!("watcher: {polls} polls during the run, peak tasks in flight {peak}");
        out
    });
    println!("nqueens verified: {}", out.verified);

    // --- Final counters: human dashboard. ---
    let elapsed = telemetry.elapsed_ns();
    let snapshot = telemetry.snapshot();
    print!("{}", render_telemetry(&snapshot, Some(elapsed)));

    // --- Prometheus text exposition, as a /metrics endpoint would serve. ---
    let prom = telemetry.prometheus();
    let samples = parse_prometheus(&prom).expect("own Prometheus output parses");
    let created = samples
        .iter()
        .find(|p| p.name == "taskprof_tasks_created_total")
        .expect("task counter exported");
    println!(
        "\nPrometheus export: {} samples, {} bytes (e.g. taskprof_tasks_created_total {})",
        samples.len(),
        prom.len(),
        created.value
    );

    // --- JSONL time-series line, as a log shipper would collect. ---
    let line = telemetry.jsonl_line();
    let (t_ns, parsed) = parse_jsonl_line(&line).expect("own JSONL output parses");
    println!(
        "JSONL point at t={t_ns}ns: {} bytes, {} tasks created",
        line.len(),
        parsed.tasks_created
    );

    // --- The live gauges beside the post-mortem report: the high-water
    // mark of live instance trees is the profile's Table II bound. ---
    let report = session.finish();
    let final_telemetry = report.telemetry.expect("telemetry-enabled session");
    println!(
        "telemetry HWM {}, profile max_live_trees {}, live trees at finish {}",
        final_telemetry.live_trees_hwm,
        report.profile.max_live_trees(),
        final_telemetry.live_trees
    );
}
