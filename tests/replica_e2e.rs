//! End-to-end replication: auth refusal as a typed error, a follower
//! cold-starting into a live leader, a mid-stream partition that
//! resumes from the acked cursor without re-applying a single frame, an
//! `APPLY` of a record its store could never read refused, and a run
//! without threads an older daemon stored still replicating.

use profserve::{
    replicate, Client, ClientError, ClientTimeouts, ErrorKind, Record, ReplicaConfig, Response,
    ServeConfig, Server, ServerHandle, WireProtocol,
};
use profstore::{encode_record, put_meta, put_uv, ProfileStore, Repo, RunMeta, ShardedStore};
use std::path::PathBuf;
use taskprof_session::MeasurementSession;
use taskrt::TaskConstruct;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "replica-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server(
    dir: &std::path::Path,
    config: ServeConfig,
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let store = ProfileStore::open(dir).expect("open store");
    Server::spawn("127.0.0.1:0", store, config).expect("spawn server")
}

/// One deterministic seeded measurement as the text store format.
fn deterministic_profile_text(seed: u64) -> String {
    let task = TaskConstruct::new("replica_task");
    let tw = taskrt::taskwait_region("replica!tw");
    let session = MeasurementSession::builder("replica-e2e")
        .threads(2)
        .deterministic(seed)
        .build()
        .expect("valid session");
    session
        .run(|ctx| {
            for _ in 0..3 {
                ctx.task(&task, |_| {});
            }
            ctx.taskwait(tw);
        })
        .unwrap();
    cube::write_profile(&session.finish().profile)
}

fn ingest_seeds(client: &mut Client, bench: &str, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let text = deterministic_profile_text(seed);
        client
            .ingest_record(&Record::from_text(bench, 2, Some(seed * 1_000), &text))
            .expect("ingest");
    }
}

/// The canonical query lines both daemons must answer identically with.
fn query_lines(addr: &str, bench: &str) -> Vec<String> {
    let mut client = Client::connect_with(addr, ClientTimeouts::default()).expect("connect");
    vec![
        Response::Top(client.query_top(bench, 2, 10).expect("top")).to_json_line(),
        Response::Stats(client.query_stats(bench, 2).expect("stats")).to_json_line(),
    ]
}

#[test]
fn wrong_or_missing_secret_is_a_typed_unauthorized_error() {
    let dir = temp_dir("auth");
    let config = ServeConfig {
        auth_secret: Some("s3cret".to_string()),
        ..ServeConfig::default()
    };
    let (handle, join) = spawn_server(&dir, config);
    let addr = handle.addr().to_string();

    // A wrong secret is refused inside the binary handshake.
    match Client::connect_proto_auth(
        &addr,
        WireProtocol::Binary,
        ClientTimeouts::default(),
        Some("wrong"),
    ) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::Unauthorized),
        Err(other) => panic!("expected unauthorized, got {other}"),
        Ok(_) => panic!("wrong secret must not connect"),
    }

    // No secret at all: the connection opens (HELLO is always allowed)
    // but the first real request is refused, on both protocols.
    for proto in [WireProtocol::Binary, WireProtocol::Json] {
        let mut open =
            Client::connect_proto(&addr, proto, ClientTimeouts::default()).expect("connect");
        match open.server_stats() {
            Err(ClientError::Server { kind, message }) => {
                assert_eq!(kind, ErrorKind::Unauthorized, "{proto:?}");
                assert!(message.contains("HELLO"), "{message}");
            }
            other => panic!("{proto:?}: expected unauthorized, got {other:?}"),
        }
    }

    // The right secret authorizes the whole connection, on both
    // protocols (JSON authenticates with an explicit HELLO line).
    for proto in [WireProtocol::Binary, WireProtocol::Json] {
        let mut ok =
            Client::connect_proto_auth(&addr, proto, ClientTimeouts::default(), Some("s3cret"))
                .expect("authed connect");
        ok.server_stats().expect("authed request");
    }

    handle.stop();
    join.join().expect("join").expect("run");
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_follower_catches_up_during_live_ingest() {
    let leader_dir = temp_dir("live-leader");
    let follower_dir = temp_dir("live-follower");
    let (leader, leader_join) = spawn_server(&leader_dir, ServeConfig::default());
    let (follower, follower_join) = spawn_server(&follower_dir, ServeConfig::default());
    let leader_addr = leader.addr().to_string();
    let follower_addr = follower.addr().to_string();

    let mut ingester =
        Client::connect_with(&leader_addr, ClientTimeouts::default()).expect("connect");
    ingest_seeds(&mut ingester, "live", 0..12);

    // First pump: the cold follower pulls everything the leader has
    // while the ingester keeps writing *between* pages.
    let config = ReplicaConfig {
        batch: 4,
        ..ReplicaConfig::default()
    };
    let report = replicate(&leader_addr, &follower_addr, &config).expect("replicate");
    assert_eq!(report.start_cursor, 0);
    assert_eq!(report.frames_applied, 12);
    assert_eq!(report.frames_skipped, 0);
    assert_eq!(report.end_cursor, 12);

    // Live ingest after the first pump: the next pump ships only the
    // delta (resumed from the follower's cursor, not from zero).
    ingest_seeds(&mut ingester, "live", 12..20);
    let report = replicate(&leader_addr, &follower_addr, &config).expect("re-replicate");
    assert_eq!(report.start_cursor, 12);
    assert_eq!(report.frames_applied, 8);
    assert_eq!(report.frames_skipped, 0, "re-pump must not re-apply");
    assert_eq!(report.end_cursor, 20);

    // Caught up: leader and follower answer every query byte-identically.
    assert_eq!(
        query_lines(&leader_addr, "live"),
        query_lines(&follower_addr, "live")
    );

    leader.stop();
    follower.stop();
    drop(ingester);
    leader_join.join().expect("join").expect("run");
    follower_join.join().expect("join").expect("run");
    drop((leader, follower));
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

#[test]
fn partition_mid_stream_resumes_from_the_acked_cursor() {
    let leader_dir = temp_dir("part-leader");
    let follower_dir = temp_dir("part-follower");
    let (leader, leader_join) = spawn_server(&leader_dir, ServeConfig::default());
    let (follower, follower_join) = spawn_server(&follower_dir, ServeConfig::default());
    let leader_addr = leader.addr().to_string();
    let follower_addr = follower.addr().to_string();

    let mut ingester =
        Client::connect_with(&leader_addr, ClientTimeouts::default()).expect("connect");
    ingest_seeds(&mut ingester, "part", 0..10);

    // Hand-pump exactly one page, then "partition": drop both
    // connections with the stream incomplete. The only durable state is
    // what the follower acked.
    let mut src = Client::connect_with(&leader_addr, ClientTimeouts::default()).expect("connect");
    let mut dst = Client::connect_with(&follower_addr, ClientTimeouts::default()).expect("connect");
    let page = src.export_frames(0, 4).expect("export");
    assert_eq!(page.frames.len(), 4);
    assert!(!page.done);
    let ack = dst.apply_frames(&page.frames).expect("apply");
    assert_eq!((ack.applied, ack.skipped, ack.watermark), (4, 0, 4));
    drop((src, dst)); // the partition

    // A retry after the partition re-ships the acked page: exactly-once
    // means every re-shipped frame is skipped, never duplicated.
    let mut src = Client::connect_with(&leader_addr, ClientTimeouts::default()).expect("connect");
    let mut dst = Client::connect_with(&follower_addr, ClientTimeouts::default()).expect("connect");
    let replay = src.export_frames(0, 4).expect("export");
    let ack = dst.apply_frames(&replay.frames).expect("re-apply");
    assert_eq!(
        (ack.applied, ack.skipped),
        (0, 4),
        "retry must skip, not duplicate"
    );
    drop((src, dst));

    // The full pump resumes from the follower's own cursor (4): it
    // never re-reads the applied prefix, and ships exactly the rest.
    let config = ReplicaConfig {
        batch: 4,
        ..ReplicaConfig::default()
    };
    let report = replicate(&leader_addr, &follower_addr, &config).expect("resume");
    assert_eq!(report.start_cursor, 4);
    assert_eq!(report.frames_applied, 6);
    assert_eq!(
        report.frames_skipped, 0,
        "resume must not re-apply the acked prefix"
    );
    assert_eq!(report.end_cursor, 10);

    assert_eq!(
        query_lines(&leader_addr, "part"),
        query_lines(&follower_addr, "part")
    );

    leader.stop();
    follower.stop();
    drop(ingester);
    leader_join.join().expect("join").expect("run");
    follower_join.join().expect("join").expect("run");
    drop((leader, follower));
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

/// A single store and a two-shard store at `dir`.
fn followers(dir: &std::path::Path) -> [(&'static str, Repo); 2] {
    [
        (
            "single",
            ProfileStore::open(&dir.join("single")).unwrap().into(),
        ),
        (
            "sharded",
            ShardedStore::open(&dir.join("sharded"), 2).unwrap().into(),
        ),
    ]
}

fn meta(run_id: u64) -> RunMeta {
    RunMeta {
        run_id,
        benchmark: "apply".to_string(),
        threads: 2,
        timestamp_ns: run_id * 1_000,
    }
}

/// The frame of `payload`.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    profstore::frame::encode(payload, &mut frame);
    frame
}

#[test]
fn apply_refuses_a_record_its_store_could_not_read() {
    let dir = temp_dir("apply-refuses");
    let profile = cube::read_profile(&deterministic_profile_text(1)).expect("profile");
    let good = framed(&encode_record(&meta(1), &profile));
    // A CRC-valid frame whose record is a header claiming three threads
    // with nothing after it: `decode_record` refuses it.
    let mut headless = Vec::new();
    put_meta(&mut headless, &meta(2));
    put_uv(&mut headless, 3);
    let bad = framed(&headless);
    for (shape, store) in followers(&dir) {
        let (follower, join) =
            Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
        let addr = follower.addr().to_string();
        let mut client =
            Client::connect_proto(&addr, WireProtocol::Binary, ClientTimeouts::default())
                .expect("connect");
        let ack = client
            .apply_frames(std::slice::from_ref(&good))
            .expect("apply");
        assert_eq!((ack.applied, ack.watermark), (1, 1), "{shape}");
        for proto in [WireProtocol::Binary, WireProtocol::Json] {
            let mut client =
                Client::connect_proto(&addr, proto, ClientTimeouts::default()).expect("connect");
            match client.apply_frames(std::slice::from_ref(&bad)) {
                Err(ClientError::Server { kind, message }) => {
                    assert_eq!(kind, ErrorKind::BadRequest, "{shape} {proto}: {message}");
                    assert!(message.contains("truncated"), "{shape} {proto}: {message}");
                }
                other => panic!("{shape} {proto}: the headless record got {other:?}"),
            }
            let ack = client.apply_frames(&[]).expect("cursor probe");
            assert_eq!(ack.watermark, 1, "{shape} {proto}: nothing applied");
            let top = client.query_top("apply", 2, 10).expect("top still answers");
            assert_eq!(top.runs, 1, "{shape} {proto}");
        }
        follower.stop();
        drop(client);
        join.join().expect("join").expect("run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_legacy_run_without_threads_still_replicates() {
    let dir = temp_dir("legacy");
    let mut store = ProfileStore::open(&dir.join("leader")).expect("open");
    let profile = cube::read_profile(&deterministic_profile_text(2)).expect("profile");
    store.ingest("legacy", 2, 1, &profile).expect("ingest");
    // What an older daemon accepted from a client and stored.
    store
        .ingest("legacy", 2, 2, &taskprof::Profile::default())
        .expect("the store itself takes it");
    store.ingest("legacy", 2, 3, &profile).expect("ingest");
    let (leader, leader_join) =
        Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
    let leader_addr = leader.addr().to_string();
    for (shape, store) in followers(&dir) {
        let (follower, join) =
            Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
        let follower_addr = follower.addr().to_string();
        let report =
            replicate(&leader_addr, &follower_addr, &ReplicaConfig::default()).expect("replicate");
        assert_eq!(report.frames_applied, 3, "{shape}");
        assert_eq!(report.end_cursor, 3, "{shape}");
        assert_eq!(
            query_lines(&leader_addr, "legacy"),
            query_lines(&follower_addr, "legacy"),
            "{shape}"
        );
        follower.stop();
        join.join().expect("join").expect("run");
    }
    leader.stop();
    leader_join.join().expect("join").expect("run");
    let _ = std::fs::remove_dir_all(&dir);
}
