//! `profserve` — the profile-repository daemon and its client.
//!
//! A measurement produces one profile per run; a *repository* makes runs
//! comparable across time. This crate serves a [`profstore::ProfileStore`]
//! over TCP (std::net only — the build is offline, vendored-only) with
//! two interchangeable encodings of one typed protocol surface
//! ([`protocol`]):
//!
//! * **JSON lines** — one JSON object per line, both directions.
//!   Human-readable, `nc`-able, the original protocol.
//! * **TPF1 binary frames** ([`wire`]) — length-prefixed CRC-framed
//!   payloads sharing the store's LEB128 codec, opened by the 4-byte
//!   magic `"TPF1"`. Supports pipelining and `INGEST_BATCH` (one
//!   acknowledgement per batch) — the bulk-ingest path.
//!
//! Both live on the same port: the server sniffs the first bytes of each
//! connection. The requests are the same either way — `INGEST` /
//! `INGEST_BATCH` append profiles to the segment log, `QUERY
//! top|stats|regress` read the cross-run aggregates, `STATS` reports
//! daemon health.
//!
//! Concurrency model: a single-threaded readiness reactor ([`server`],
//! `reactor`) multiplexes the listener and every connection with one
//! poll(2) call per iteration over a set built from its connection
//! table, with per-connection state machines and nonblocking sockets.
//! Beyond `max_connections` live connections, new ones are shed
//! immediately with a typed `overloaded` error; each request runs under
//! `catch_unwind`, so a handler bug answers one request with `internal`
//! instead of killing the daemon.
//!
//! Failure model: per-connection read/write deadlines (slow-loris
//! defense, counted in `timeout_connections`), capped request sizes
//! (typed `too_large`), graceful shutdown that answers in-flight
//! requests before closing, and `ENOSPC`-triggered read-only degradation
//! (typed `read_only`, surfaced in `STATS`). See [`server`] for details.
//!
//! The [`Client`] negotiates the protocol ([`protocol::WireProtocol`]):
//! by default it tries the TPF1 handshake and falls back to JSON lines,
//! and exposes typed methods ([`Client::ingest_batch`],
//! [`Client::query_top`], …) returning the report structs from
//! [`protocol`].

#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("profserve needs a unix poll(2)");

pub mod client;
mod codec;
pub mod json;
pub mod protocol;
mod reactor;
pub mod replica;
pub mod server;
mod trace;
pub mod wire;

pub use client::{ApplyAck, Client, ClientError, ClientTimeouts, ExportPage, Subscription};
pub use json::{parse as parse_json, Json, JsonError};
pub use protocol::{
    render_fleet, ErrorKind, IngestReceipt, LatencyStat, Notification, ProfilePayload, Record,
    RegressReport, Request, Response, ServerStatsReport, StatsReport, TopReport, TrendReport,
    WireProtocol,
};
pub use replica::{replicate, ReplicaConfig, ReplicaReport};
pub use server::{ServeConfig, Server, ServerHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{registry, RegionKind, TaskIdAllocator};
    use profstore::{ProfileStore, StoreConfig};
    use std::path::PathBuf;
    use taskprof::{AssignPolicy, Event, TeamReplayer};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "profserve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn sample_profile_text(tag: &str, body_ns: u64) -> String {
        let reg = registry();
        let par = reg.register(&format!("serve-{tag}-par"), RegionKind::Parallel, "t", 0);
        let task = reg.register(&format!("serve-{tag}-task"), RegionKind::Task, "t", 0);
        let ids = TaskIdAllocator::new();
        let mut team = TeamReplayer::new(1, par, AssignPolicy::Executing);
        let id = ids.alloc();
        team.apply(0, Event::TaskBegin { region: task, id })
            .advance(body_ns)
            .apply(0, Event::TaskEnd { region: task, id });
        cube::write_profile(&team.finish())
    }

    fn open_store(dir: &std::path::Path) -> ProfileStore {
        ProfileStore::open_with(
            dir,
            StoreConfig {
                segment_max_bytes: 1 << 20,
                sync_writes: false,
            },
        )
        .expect("open store")
    }

    #[test]
    fn serve_ingest_query_stop() {
        let dir = temp_dir("basic");
        let store = open_store(&dir);
        let (handle, join) =
            Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
        let addr = handle.addr().to_string();

        let mut client = Client::connect(&addr).expect("connect");
        // The default connect negotiates TPF1 against an Auto server.
        assert_eq!(client.protocol(), WireProtocol::Binary);
        let profile = sample_profile_text("basic", 1_000);
        let ack = client
            .ingest_record(&Record::from_text("fib", 2, Some(111), &profile))
            .expect("ingest");
        assert_eq!(ack.run_id(), 1);
        let ack2 = client
            .ingest_record(&Record::from_text("fib", 2, Some(222), &profile))
            .expect("ingest");
        assert_eq!(ack2.run_id(), 2);

        let top = client.query_top("fib", 2, 5).expect("top");
        assert_eq!(top.runs, 2);
        assert!(!top.regions.is_empty());

        let stats = client.query_stats("fib", 2).expect("stats");
        assert_eq!(stats.runs, 2);

        let health = client.server_stats().expect("server stats");
        assert_eq!(health.service.ingests, 2);
        assert!(health.service.bin_requests >= 5, "{:?}", health.service);

        handle.stop();
        drop(client);
        join.join().expect("join").expect("run");
    }

    #[test]
    fn forced_protocols_both_serve() {
        let dir = temp_dir("proto");
        let store = open_store(&dir);
        let (handle, join) =
            Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
        let addr = handle.addr().to_string();
        let profile = sample_profile_text("proto", 750);

        let mut bin = Client::connect_proto(&addr, WireProtocol::Binary, ClientTimeouts::default())
            .expect("binary connect");
        assert_eq!(bin.protocol(), WireProtocol::Binary);
        bin.ingest_record(&Record::from_text("px", 2, Some(1), &profile))
            .expect("binary ingest");

        // A JSON client sees what the binary client wrote, and both
        // protocol counters advance.
        let mut json = Client::connect_proto(&addr, WireProtocol::Json, ClientTimeouts::default())
            .expect("json connect");
        assert_eq!(json.protocol(), WireProtocol::Json);
        let stats = json.query_stats("px", 2).expect("json stats");
        assert_eq!(stats.runs, 1);
        let health = json.server_stats().expect("health");
        assert!(health.service.bin_requests >= 1, "{:?}", health.service);
        assert!(health.service.json_requests >= 1, "{:?}", health.service);

        handle.stop();
        drop((bin, json));
        join.join().expect("join").expect("run");
    }

    #[test]
    fn ingest_batch_amortizes_acknowledgements() {
        let dir = temp_dir("batch");
        let store = open_store(&dir);
        let (handle, join) =
            Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

        let profile = sample_profile_text("batch", 400);
        let records: Vec<Record> = (0..10)
            .map(|i| Record::from_text("bulk", 4, Some(i + 1), &profile))
            .collect();
        let receipt = client.ingest_batch(&records).expect("batch");
        assert_eq!(receipt.count, 10);
        assert_eq!(receipt.first_run_id, 1);
        assert!(receipt.bytes > 0);

        let stats = client.query_stats("bulk", 4).expect("stats");
        assert_eq!(stats.runs, 10);
        let health = client.server_stats().expect("health");
        assert_eq!(health.service.ingests, 10);
        assert_eq!(health.service.ingest_batches, 1);

        handle.stop();
        drop(client);
        join.join().expect("join").expect("run");
    }

    #[test]
    fn unknown_group_is_not_found() {
        let dir = temp_dir("notfound");
        let store = open_store(&dir);
        let (handle, join) =
            Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        match client.query_stats("no-such-bench", 8) {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::NotFound),
            other => panic!("expected not_found, got {other:?}"),
        }
        handle.stop();
        drop(client);
        join.join().expect("join").expect("run");
    }

    #[test]
    fn malformed_requests_get_bad_request_and_connection_survives() {
        let dir = temp_dir("badreq");
        let store = open_store(&dir);
        let (handle, join) =
            Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

        use std::io::{BufRead, BufReader, Write};
        let mut raw = std::net::TcpStream::connect(handle.addr()).expect("raw connect");
        writeln!(raw, "this is not json").expect("write");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert!(line.contains("bad_request"), "{line}");
        // Same connection still serves valid requests.
        writeln!(raw, "{}", Request::Stats.to_json_line()).expect("write");
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert!(line.contains("\"ok\":true"), "{line}");

        // Typed client surfaces the kind.
        match client.query_top("fib", 0, 0) {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::NotFound),
            other => panic!("unexpected: {other:?}"),
        }
        handle.stop();
        drop((client, raw, reader));
        join.join().expect("join").expect("run");
    }

    #[test]
    fn corrupt_binary_frame_gets_typed_error_and_close() {
        let dir = temp_dir("badframe");
        let store = open_store(&dir);
        let (handle, join) =
            Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");

        use std::io::{Read, Write};
        // A flipped payload bit (the CRC catches it) and a length word
        // over the daemon's cap each get one typed error frame, then the
        // connection closes: the frame stream cannot resync.
        let mut flipped = wire::frame(&wire::encode_request(&Request::Stats));
        let flip = flipped.len() / 2;
        flipped[flip] ^= 0x40;
        let over_cap = u32::MAX.to_le_bytes().to_vec();
        for (bytes, want) in [
            (flipped, ErrorKind::BadRequest),
            (over_cap, ErrorKind::TooLarge),
        ] {
            let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
            raw.write_all(&wire::WIRE_MAGIC).expect("magic");
            raw.write_all(&bytes).expect("write");
            let mut reply = Vec::new();
            raw.read_to_end(&mut reply).expect("read until closed");
            let (payload, consumed) = wire::try_frame(&reply, usize::MAX)
                .expect("a reply frame")
                .expect("a whole reply frame");
            assert_eq!(consumed, reply.len(), "one reply frame, then close");
            match wire::decode_response(payload).expect("decode") {
                Response::Error { kind, .. } => assert_eq!(kind, want),
                other => panic!("expected error frame, got {other:?}"),
            }
        }

        handle.stop();
        join.join().expect("join").expect("run");
    }

    #[test]
    fn overload_sheds_with_typed_error() {
        let dir = temp_dir("shed");
        let store = open_store(&dir);
        let config = ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        };
        let (handle, join) = Server::spawn("127.0.0.1:0", store, config).expect("spawn");
        let addr = handle.addr().to_string();

        // First connection holds the only slot.
        let mut first = Client::connect(&addr).expect("connect");
        let _ = first.server_stats().expect("stats");

        // Subsequent connections are shed with a typed overloaded error
        // (the negotiating client surfaces it from connect, a JSON client
        // from its first call). The reactor may take a beat to register
        // the first connection, so retry until the shed is observed.
        let mut shed_seen = false;
        for _ in 0..50 {
            let outcome = Client::connect(&addr).and_then(|mut extra| {
                extra.server_stats()?;
                Ok(())
            });
            match outcome {
                Err(ClientError::Server {
                    kind: ErrorKind::Overloaded,
                    ..
                }) => {
                    shed_seen = true;
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        assert!(shed_seen, "no shed observed under max_connections=1");
        assert!(handle.counters().snapshot().shed_connections >= 1);

        handle.stop();
        drop(first);
        join.join().expect("join").expect("run");
    }

    #[test]
    fn oversized_request_line_gets_too_large_and_connection_closes() {
        let dir = temp_dir("toolarge");
        let store = open_store(&dir);
        let config = ServeConfig {
            max_request_bytes: 1024,
            ..ServeConfig::default()
        };
        let (handle, join) = Server::spawn("127.0.0.1:0", store, config).expect("spawn");

        use std::io::{BufRead, BufReader, Read, Write};
        let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
        // A newline-less flood larger than the cap: the old reader would
        // buffer it forever; the bounded reader answers and closes.
        raw.write_all(&vec![b'x'; 4096]).expect("write");
        raw.flush().expect("flush");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert!(line.contains("too_large"), "{line}");
        // The server closed the connection (no resync inside a torn line).
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("read_to_end");
        assert!(rest.is_empty(), "connection should be closed");

        // The daemon itself is fine: a fresh connection still serves.
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        client.server_stats().expect("stats after too_large");
        handle.stop();
        drop((client, raw, reader));
        join.join().expect("join").expect("run");
    }

    #[test]
    fn slow_loris_connection_is_dropped_by_the_read_deadline() {
        let dir = temp_dir("loris");
        let store = open_store(&dir);
        let config = ServeConfig {
            read_timeout: Some(std::time::Duration::from_millis(60)),
            ..ServeConfig::default()
        };
        let (handle, join) = Server::spawn("127.0.0.1:0", store, config).expect("spawn");

        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
        // Send a partial request and go silent — the classic slow loris.
        raw.write_all(b"{\"cmd\":\"STA").expect("write");
        raw.flush().expect("flush");
        // The deadline fires and the server closes the connection: the
        // read returns EOF rather than blocking forever.
        raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .expect("set timeout");
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).expect("read_to_end");
        assert!(buf.is_empty(), "server should close without a reply");
        // The drop is visible in telemetry and STATS.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while handle.counters().snapshot().timeout_connections == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "timeout never counted"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        let health = client.server_stats().expect("stats");
        assert!(
            health.service.timeout_connections >= 1,
            "{:?}",
            health.service
        );
        handle.stop();
        drop((client, raw));
        join.join().expect("join").expect("run");
    }

    /// An `APPLY` page whose second segment write fills the disk: the
    /// frames of the first write are on disk, the reply counts exactly
    /// them, and the daemon goes read-only.
    #[test]
    fn an_apply_that_fills_the_disk_counts_what_is_on_disk() {
        use profstore::{transcode_text, FaultIo, FaultKind, FaultPlan};
        let dir = temp_dir("apply-enospc");
        let body = transcode_text(&sample_profile_text("apply-enospc", 700)).expect("text");
        let mut leader = ProfileStore::open(&dir.join("leader")).expect("leader");
        for ts in 1..=5 {
            leader.ingest_record("fib", 2, ts, &body).expect("ingest");
        }
        let frames = leader.export_frames(0, 5).expect("export").frames;
        // Three frames fill a segment, so the page is two writes.
        let config = StoreConfig {
            segment_max_bytes: profstore::SEGMENT_MAGIC.len() as u64 + 3 * frames[0].len() as u64,
            sync_writes: false,
        };
        let (io, fault) = FaultIo::with_plan(FaultPlan::observe());
        let follower =
            ProfileStore::open_with_io(&dir.join("follower"), config, io).expect("follower");
        let (handle, join) =
            Server::spawn("127.0.0.1:0", follower, ServeConfig::default()).expect("spawn");
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

        // Mutating ops of the page: the first write, the next segment's
        // create and magic, then the second write, which fails.
        fault.set_plan(FaultPlan::fail_at(1, fault.ops() + 3, FaultKind::Enospc));
        match client.apply_frames(&frames) {
            Err(ClientError::Server { kind, message }) => {
                assert_eq!(kind, ErrorKind::ReadOnly);
                assert!(message.contains("(3 of 5 frames applied)"), "{message}");
            }
            other => panic!("expected read_only, got {other:?}"),
        }
        assert!(handle.read_only());
        let health = client.server_stats().expect("stats");
        assert_eq!(health.store.runs, 3);
        assert_eq!(health.service.ingests, 3);
        assert_eq!(client.replication_cursor().expect("cursor"), 3);
        handle.stop();
        drop(client);
        join.join().expect("join").expect("run");
        drop(handle);
        let follower = ProfileStore::open(&dir.join("follower")).expect("reopen");
        assert_eq!(
            follower.len(),
            3,
            "what the reply counted is what is on disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_degrades_the_daemon_to_read_only() {
        use profstore::{FaultIo, FaultKind, FaultPlan};
        let dir = temp_dir("readonly");
        let (io, fault) = FaultIo::with_plan(FaultPlan::observe());
        let store = ProfileStore::open_with_io(
            &dir,
            StoreConfig {
                segment_max_bytes: 1 << 20,
                sync_writes: false,
            },
            io,
        )
        .expect("open store");
        let (handle, join) =
            Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

        // Baseline data while the disk is healthy.
        let profile = sample_profile_text("readonly", 500);
        client
            .ingest_record(&Record::from_text("fib", 2, Some(1), &profile))
            .expect("ingest");

        // The disk fills: the next ingest trips read-only mode.
        fault.arm(FaultKind::Enospc);
        match client.ingest_record(&Record::from_text("fib", 2, Some(2), &profile)) {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::ReadOnly),
            other => panic!("expected read_only, got {other:?}"),
        }
        assert!(handle.read_only());

        // Sticky until restart: even after space frees up, ingests are
        // refused (an operator decision, not a silent flap) …
        fault.disarm();
        match client.ingest_record(&Record::from_text("fib", 2, Some(3), &profile)) {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::ReadOnly),
            other => panic!("expected read_only, got {other:?}"),
        }
        // … but queries keep serving the intact data, and STATS says why.
        let stats = client.query_stats("fib", 2).expect("query in read-only");
        assert_eq!(stats.runs, 1);
        let health = client.server_stats().expect("stats");
        assert!(health.read_only);

        handle.stop();
        drop(client);
        join.join().expect("join").expect("run");
    }

    /// Short connections come and go between long-lived ones, so the
    /// reactor reaps a connection every cycle and `accept` hands its fd
    /// number out again. Every reply must come back on the connection
    /// that asked: the poll set must stay aligned with the connection
    /// table through every reap and reuse.
    #[test]
    fn connection_churn_reuses_fds_and_loses_no_reply() {
        const HELD: usize = 8;
        const CYCLES: usize = 200;
        let dir = temp_dir("churn");
        let store = open_store(&dir);
        let (handle, join) =
            Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
        let addr = handle.addr().to_string();
        let proto = |i: usize| [WireProtocol::Json, WireProtocol::Binary][i % 2];
        let mut held: Vec<Client> = (0..HELD)
            .map(|i| {
                Client::connect_proto(&addr, proto(i), ClientTimeouts::default()).expect("connect")
            })
            .collect();

        for cycle in 0..CYCLES {
            let mut short = Client::connect_proto(&addr, proto(cycle), ClientTimeouts::default())
                .expect("short connect");
            short.server_stats().expect("short stats");
            drop(short);
            for client in &mut held {
                client.server_stats().expect("held stats");
            }
        }

        let health = held[0].server_stats().expect("final stats");
        assert_eq!(health.service.connections, (HELD + CYCLES) as u64);
        assert_eq!(health.service.shed_connections, 0);
        handle.stop();
        drop(held);
        join.join().expect("join").expect("run");
    }

    #[test]
    fn graceful_shutdown_answers_the_in_flight_request() {
        let dir = temp_dir("drain");
        let store = open_store(&dir);
        let (handle, join) =
            Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        client.server_stats().expect("stats before stop");

        // Stop the daemon, then send one more request on the connection
        // that was already open: draining must answer it before closing.
        handle.stop();
        let health = client.server_stats().expect("request drained across stop");
        assert!(health.service.connections >= 1);
        // After the drained reply the server closes the connection.
        match client.server_stats() {
            Err(_) => {}
            Ok(v) => panic!("connection should be closed after drain, got {v:?}"),
        }
        drop(client);
        join.join().expect("join").expect("run");
    }
}
