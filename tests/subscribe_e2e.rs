//! End-to-end coverage of the fleet-observability surface: live
//! `SUBSCRIBE` push streams over both wire protocols, slow-consumer
//! shedding (a stalled subscriber must never block ingest), and
//! windowed `QUERY regress` gating against recent history.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pomp::{registry, RegionKind, TaskIdAllocator};
use profserve::{
    Client, ClientTimeouts, Notification, ProfilePayload, Record, ServeConfig, Server, WireProtocol,
};
use profstore::{ProfileStore, RunWindow};
use taskprof::{AssignPolicy, Event, Profile, TeamReplayer};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "subscribe-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server(
    dir: &std::path::Path,
    config: ServeConfig,
) -> (
    profserve::ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let store = ProfileStore::open(dir).expect("open store");
    Server::spawn("127.0.0.1:0", store, config).expect("spawn server")
}

/// A replayed single-task profile whose total time is `task_ns` — lets
/// the regression tests fabricate runs of a known speed.
fn profile(tag: &str, task_ns: u64) -> Profile {
    let reg = registry();
    let par = reg.register(&format!("{tag}-par"), RegionKind::Parallel, "t", 0);
    let task = reg.register(&format!("{tag}-task"), RegionKind::Task, "t", 0);
    let ids = TaskIdAllocator::new();
    let mut team = TeamReplayer::new(1, par, AssignPolicy::Executing);
    let id = ids.alloc();
    team.apply(0, Event::TaskBegin { region: task, id })
        .advance(task_ns)
        .apply(0, Event::TaskEnd { region: task, id });
    team.finish()
}

fn profile_text(tag: &str, task_ns: u64) -> String {
    cube::write_profile(&profile(tag, task_ns))
}

fn bounded_timeouts() -> ClientTimeouts {
    ClientTimeouts {
        connect: Some(Duration::from_secs(5)),
        read: Some(Duration::from_secs(10)),
        write: Some(Duration::from_secs(5)),
    }
}

/// Poll `f` against a fresh server-stats read until it holds or the
/// deadline passes; returns the last observed snapshot either way.
fn wait_for_stats(
    control: &mut Client,
    deadline: Duration,
    f: impl Fn(&profserve::ServerStatsReport) -> bool,
) -> profserve::ServerStatsReport {
    let start = Instant::now();
    loop {
        let stats = control.server_stats().expect("server stats");
        if f(&stats) || start.elapsed() > deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Both a JSON and a TPF1 binary subscriber attached to the same daemon
/// each observe periodic telemetry snapshots and the ingest notification
/// for a run uploaded by a third client.
#[test]
fn mixed_protocol_subscribers_see_snapshots_and_ingests() {
    let dir = temp_dir("mixed");
    let config = ServeConfig {
        subscribe_interval: Duration::from_millis(60),
        ..ServeConfig::default()
    };
    let (handle, join) = spawn_server(&dir, config);
    let addr = handle.addr().to_string();

    let subscribers: Vec<_> = [WireProtocol::Json, WireProtocol::Binary]
        .into_iter()
        .map(|proto| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let client =
                    Client::connect_proto(&addr, proto, bounded_timeouts()).expect("connect");
                let (mut sub, granted) = client.subscribe(Some(60)).expect("subscribe");
                // The daemon clamps the push period to its reactor tick.
                assert!((50..=60).contains(&granted), "granted {granted}ms");
                let mut telemetry = 0u32;
                let mut ingest = None;
                for _ in 0..200 {
                    match sub.next_event().expect("next event") {
                        Notification::Telemetry { t_ns, stats } => {
                            assert!(t_ns > 0);
                            assert!(stats.service.subscriptions >= 1);
                            telemetry += 1;
                        }
                        event @ Notification::Ingest { .. } => ingest = Some(event),
                        Notification::Lagged { .. } => panic!("healthy subscriber lagged"),
                    }
                    if telemetry >= 2 && ingest.is_some() {
                        break;
                    }
                }
                assert!(telemetry >= 2, "{proto:?}: saw {telemetry} snapshots");
                match ingest.expect("no ingest notification observed") {
                    Notification::Ingest {
                        count,
                        benchmark,
                        threads,
                        bytes,
                        ..
                    } => {
                        assert_eq!(benchmark, "sub-bench");
                        assert_eq!(threads, 2);
                        assert_eq!(count, 1);
                        assert!(bytes > 0);
                    }
                    other => panic!("expected ingest, got {other:?}"),
                }
            })
        })
        .collect();

    // Hold the upload until both subscribers are attached so the
    // fan-out provably reaches them.
    let mut control = Client::connect(&addr).expect("connect control");
    let stats = wait_for_stats(&mut control, Duration::from_secs(5), |s| {
        s.service.subscriptions >= 2
    });
    assert!(stats.service.subscriptions >= 2, "{stats:?}");

    control
        .ingest_record(&Record::from_text(
            "sub-bench",
            2,
            Some(1),
            profile_text("sub", 1_000),
        ))
        .expect("ingest");

    for sub in subscribers {
        sub.join().expect("subscriber thread");
    }

    let stats = control.server_stats().expect("server stats");
    assert_eq!(stats.service.subscriptions, 2);
    assert!(stats.service.sub_events >= 6, "{:?}", stats.service);
    assert_eq!(stats.service.sub_lagged, 0);

    handle.stop();
    drop(control);
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A subscriber that stops reading gets its events shed once its
/// bounded queue fills — ingest keeps flowing — and receives a typed
/// `lagged` notice when it recovers.
#[test]
fn stalled_subscriber_is_shed_and_told_about_it() {
    let dir = temp_dir("stall");
    let config = ServeConfig {
        subscribe_interval: Duration::from_millis(50),
        subscriber_queue_bytes: 1024,
        write_timeout: Some(Duration::from_secs(60)),
        ..ServeConfig::default()
    };
    let (handle, join) = spawn_server(&dir, config);
    let addr = handle.addr().to_string();

    let client = Client::connect_proto(&addr, WireProtocol::Json, bounded_timeouts())
        .expect("connect subscriber");
    let (mut sub, _) = client.subscribe(Some(50)).expect("subscribe");
    // Stall: stop reading. Pushes now pile into the socket buffers and
    // then the daemon-side queue, which is capped at 1 KiB.

    // A long benchmark name fattens each ingest notification so the
    // buffers between daemon and stalled reader fill quickly.
    let bench = format!("stall-bench-{}", "x".repeat(400));
    let text = profile_text("stall", 1_000);
    let mut control = Client::connect(&addr).expect("connect control");
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        for _ in 0..200 {
            control
                .ingest_record(&Record::from_text(&bench, 2, Some(sent), &text))
                .expect("ingest must not block on a stalled subscriber");
            sent += 1;
        }
        let stats = control.server_stats().expect("server stats");
        if stats.service.sub_lagged >= 1 || Instant::now() > deadline {
            break stats;
        }
    };
    assert!(
        stats.service.sub_lagged >= 1,
        "no shedding after {sent} ingests: {:?}",
        stats.service
    );
    assert_eq!(stats.service.ingests, sent, "ingest path degraded");

    // Recovery: drain the backlog; the first push after the gap is the
    // typed lagged notice.
    let mut lagged = None;
    for _ in 0..20_000 {
        match sub.next_event().expect("next event") {
            Notification::Lagged { dropped } => {
                lagged = Some(dropped);
                break;
            }
            _ => continue,
        }
    }
    let dropped = lagged.expect("no lagged notice after recovery");
    assert!(dropped >= 1, "lagged notice with dropped={dropped}");

    handle.stop();
    drop(sub);
    drop(control);
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Windowed `QUERY regress` gates against recent history: a regression
/// relative to an aged-out (faster) baseline stops flagging once the
/// window excludes it, and a genuinely fresh regression still flags.
#[test]
fn windowed_regress_gates_on_recent_baseline() {
    let dir = temp_dir("window");
    let (handle, join) = spawn_server(&dir, ServeConfig::default());
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // History: 8 fast runs, then 4 slow runs — the slow regime is the
    // accepted new normal.
    for ts in 1..=8u64 {
        client
            .ingest_record(&Record::from_text(
                "win-bench",
                2,
                Some(ts),
                profile_text("win", 1_000),
            ))
            .expect("ingest fast");
    }
    for ts in 9..=12u64 {
        client
            .ingest_record(&Record::from_text(
                "win-bench",
                2,
                Some(ts),
                profile_text("win", 10_000),
            ))
            .expect("ingest slow");
    }

    let candidate_normal = profile_text("win", 10_500);
    let candidate_bad = profile_text("win", 20_000);

    // Against the all-time mean (inflated by the aged-out fast runs) a
    // run at today's normal speed looks like a regression...
    let full = client
        .query_regress(
            "win-bench",
            2,
            ProfilePayload::Text(candidate_normal.clone()),
            None,
            None,
            None,
        )
        .expect("full-store regress");
    assert_eq!(full.baseline_runs, 12);
    assert!(full.regressed, "{full:?}");

    // ...but the recent-window baseline accepts it.
    let last4 = RunWindow {
        last: Some(4),
        since_ns: None,
    };
    let windowed = client
        .query_regress_window(
            "win-bench",
            2,
            ProfilePayload::Text(candidate_normal.clone()),
            None,
            None,
            None,
            last4,
        )
        .expect("windowed regress");
    assert_eq!(windowed.baseline_runs, 4);
    assert!(!windowed.regressed, "{windowed:?}");

    // A timestamp window selecting the same tail agrees.
    let since = RunWindow {
        last: None,
        since_ns: Some(9),
    };
    let since_report = client
        .query_regress_window(
            "win-bench",
            2,
            ProfilePayload::Text(candidate_normal),
            None,
            None,
            None,
            since,
        )
        .expect("since regress");
    assert_eq!(since_report.baseline_runs, 4);
    assert!(!since_report.regressed, "{since_report:?}");

    // A genuinely fresh regression still flags inside the window.
    let fresh = client
        .query_regress_window(
            "win-bench",
            2,
            ProfilePayload::Text(candidate_bad),
            None,
            None,
            None,
            last4,
        )
        .expect("fresh regress");
    assert_eq!(fresh.baseline_runs, 4);
    assert!(fresh.regressed, "{fresh:?}");

    handle.stop();
    drop(client);
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}
