//! End-to-end exercise of the resilient export pipeline (ISSUE 6
//! tentpole): a `finish()` against a dead daemon must return within its
//! deadline and degrade the profile to the spool instead of dropping
//! it; a later export against a live daemon must deliver the spooled
//! frame exactly once; corrupt spool frames must be quarantined, not
//! re-sent and not panicked over.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use taskprof_session::{drain_spool, spool_profile, ExportPolicy, MeasurementSession};

fn unique_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "taskprof-resilience-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spool_frames(dir: &std::path::Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut frames: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "frame").unwrap_or(false))
        .collect();
    frames.sort();
    frames
}

fn measured_profile(name: &str) -> taskprof::Profile {
    let session = MeasurementSession::builder(name)
        .threads(1)
        .build()
        .expect("build");
    session.run(|_| {}).unwrap();
    session.finish().profile
}

/// The whole tentpole contract in one flow: daemon down -> deadline
/// respected + profile spooled; daemon up -> next export drains the
/// spool; drain is exactly-once.
#[test]
fn daemon_down_spools_and_next_success_drains_exactly_once() {
    let spool = unique_dir("spool");
    let store_dir = unique_dir("store");

    // Phase 1: nothing listens on 127.0.0.1:1. finish() must come back
    // within (a generous multiple of) the 500 ms deadline, with the
    // profile durably spooled rather than dropped.
    let session = MeasurementSession::builder("resilience-e2e")
        .threads(1)
        .export_to("127.0.0.1:1")
        .export_deadline(Duration::from_millis(500))
        .export_spool(&spool)
        .build()
        .expect("build");
    session.run(|_| {}).unwrap();
    let start = Instant::now();
    let report = session.finish();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "finish() blocked {elapsed:?} against a dead daemon"
    );
    let receipt = report
        .export
        .expect("export configured")
        .expect("spool fallback turns failure into a receipt");
    assert!(receipt.spooled, "expected spool degradation: {receipt:?}");
    assert_eq!(receipt.run_id, None);
    assert!(receipt.attempts >= 2, "refused connects should be retried");
    assert!(receipt.bytes > 0);
    let frame = receipt.spool_path.clone().expect("spool path");
    assert!(frame.is_file(), "spool frame must exist on disk");
    assert_eq!(spool_frames(&spool), vec![frame.clone()]);

    // Phase 2: bring a daemon up; the next successful export from the
    // same policy drains the spooled frame.
    let store = profstore::ProfileStore::open(&store_dir).expect("open store");
    let (handle, join) =
        profserve::Server::spawn("127.0.0.1:0", store, profserve::ServeConfig::default())
            .expect("spawn");
    let addr = handle.addr().to_string();

    let session = MeasurementSession::builder("resilience-e2e")
        .threads(1)
        .export_to(addr.as_str())
        .export_spool(&spool)
        .build()
        .expect("build");
    session.run(|_| {}).unwrap();
    let receipt = session
        .finish()
        .export
        .expect("export configured")
        .expect("live daemon accepts");
    assert!(!receipt.spooled);
    assert!(receipt.run_id.is_some());
    assert_eq!(
        receipt.drained.delivered, 1,
        "the spooled frame must ride along"
    );
    assert!(spool_frames(&spool).is_empty(), "drained frame is deleted");

    // Phase 3: exactly-once — draining again delivers nothing, and the
    // store holds exactly the two profiles (one direct, one drained).
    let again = drain_spool(&spool, &addr, &ExportPolicy::default());
    assert_eq!(again.delivered, 0);
    assert_eq!(again.remaining, 0);

    handle.stop();
    join.join().expect("join").expect("run");
    drop(handle);
    let store = profstore::ProfileStore::open(&store_dir).expect("reopen");
    assert_eq!(store.stats().runs, 2, "one spooled + one direct, no dupes");

    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// A corrupt frame (bit flip) is quarantined with a `.bad` suffix and
/// never blocks healthy frames behind it.
#[test]
fn corrupt_spool_frame_is_quarantined_not_delivered() {
    let spool = unique_dir("quarantine");
    let store_dir = unique_dir("quarantine-store");
    let profile = measured_profile("resilience-quarantine");

    let bad = spool_profile(&spool, "resilience-quarantine", 1, 100, &profile).expect("spool");
    let good = spool_profile(&spool, "resilience-quarantine", 1, 200, &profile).expect("spool");
    // Flip one payload bit in the first (oldest) frame.
    let mut bytes = std::fs::read(&bad).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&bad, &bytes).expect("rewrite");

    let store = profstore::ProfileStore::open(&store_dir).expect("open store");
    let (handle, join) =
        profserve::Server::spawn("127.0.0.1:0", store, profserve::ServeConfig::default())
            .expect("spawn");
    let addr = handle.addr().to_string();

    let report = drain_spool(&spool, &addr, &ExportPolicy::default());
    assert_eq!(report.delivered, 1, "the healthy frame goes through");
    assert_eq!(report.quarantined, 1, "the flipped frame is quarantined");
    assert_eq!(report.remaining, 0);
    assert!(!bad.exists(), "corrupt frame is renamed away");
    assert!(!good.exists(), "delivered frame is deleted");
    assert!(
        bad.with_extension("frame.bad").exists(),
        "quarantined frame is kept for inspection"
    );

    handle.stop();
    join.join().expect("join").expect("run");
    drop(handle);
    let store = profstore::ProfileStore::open(&store_dir).expect("reopen");
    assert_eq!(store.stats().runs, 1);

    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// With no spool configured the old contract holds: the failure is
/// reported, the measurement is unaffected, and `finish()` still
/// respects its deadline.
#[test]
fn no_spool_configured_reports_error_within_deadline() {
    let session = MeasurementSession::builder("resilience-nospool")
        .threads(1)
        .export_to("127.0.0.1:1")
        .export_deadline(Duration::from_millis(300))
        .build()
        .expect("build");
    session.run(|_| {}).unwrap();
    let start = Instant::now();
    let report = session.finish();
    assert!(start.elapsed() < Duration::from_secs(5));
    assert_eq!(report.profile.num_threads(), 1);
    assert!(matches!(
        report.export,
        Some(Err(taskprof_session::ExportError::Client(_)))
    ));
}
