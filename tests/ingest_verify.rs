//! TPF1 ingest verifies a record, stamps its run id and appends it: it
//! never decodes the profile. So untrusted names never reach the
//! process-wide region registry, one ingest allocates the same handful
//! of times whatever the record's size, and a record the encoder would
//! never write is refused at the door.
//!
//! Every record here is spelled byte by byte: building a `Profile` would
//! register its names, and the registry is what the first test watches.

use pomp::RegionKind;
use profserve::{
    Client, ClientError, ClientTimeouts, ErrorKind, ProfilePayload, Record, ServeConfig, Server,
    ServerHandle, WireProtocol,
};
use profstore::{
    put_iv, put_meta, put_str, put_uv, verify_record, ProfileStore, RunMeta, RunWindow,
    ShardedStore, StoreConfig,
};
use std::path::PathBuf;
use std::thread::JoinHandle;
use taskprof_session::{drain_spool, DrainReport, ExportPolicy};
use test_util::alloc::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// Node tags of the record codec.
const TAG_REGION: u8 = 0;
const TAG_STUB: u8 = 1;
const TAG_PARAM: u8 = 2;
const TAG_TRUNCATED: u8 = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ingest-verify-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn header(out: &mut Vec<u8>) {
    put_meta(
        out,
        &RunMeta {
            run_id: 0,
            benchmark: "sender".to_string(),
            threads: 1,
            timestamp_ns: 0,
        },
    );
    // One thread: tid, max live trees, arena capacity, shed instances,
    // no diagnostics.
    out.extend_from_slice(&[1, 0, 1, 64, 0, 0]);
}

/// visits, sum, min, max, samples, aborted of one sampled visit.
const SAMPLED: [u8; 6] = [1, 10, 10, 10, 1, 0];

/// A one-thread record of `nodes` nodes whose region, stub and parameter
/// names all start with `tag`: a parallel region over a flat list of
/// regions, stubs and parameters.
fn record(tag: &str, nodes: usize) -> Vec<u8> {
    let mut out = Vec::new();
    header(&mut out);
    out.extend_from_slice(&[TAG_REGION, RegionKind::Parallel as u8]);
    put_str(&mut out, &format!("{tag} par"));
    out.extend_from_slice(&SAMPLED);
    put_uv(&mut out, nodes as u64 - 1);
    for k in 1..nodes {
        match k % 3 {
            0 => {
                out.extend_from_slice(&[TAG_REGION, RegionKind::Function as u8]);
                put_str(&mut out, &format!("{tag} fn {k}"));
            }
            1 => {
                out.push(TAG_STUB);
                put_str(&mut out, &format!("{tag} task {k}"));
            }
            _ => {
                out.push(TAG_PARAM);
                put_str(&mut out, &format!("{tag} depth {k}"));
                put_iv(&mut out, -(k as i64));
            }
        }
        out.extend_from_slice(&SAMPLED);
        out.push(0); // no children
    }
    out.push(0); // no task trees
    out
}

/// A one-thread record whose main tree is one truncation marker with
/// `stats` spelled out byte by byte.
fn truncated(stats: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    header(&mut out);
    out.push(TAG_TRUNCATED);
    out.extend_from_slice(stats);
    out.extend_from_slice(&[0, 0]);
    out
}

fn tpf1(payload: Vec<u8>, timestamp_ns: u64) -> Record {
    Record {
        benchmark: "verify".to_string(),
        threads: 1,
        timestamp_ns: Some(timestamp_ns),
        profile: ProfilePayload::Record(payload),
    }
}

struct Daemon {
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

fn serve(tag: &str) -> (Daemon, Client) {
    let dir = temp_dir(tag);
    let store = ProfileStore::open(&dir).expect("open store");
    // No background compaction: folding segments decodes records.
    let config = ServeConfig {
        compact_interval: None,
        ..ServeConfig::default()
    };
    let (handle, join) = Server::spawn("127.0.0.1:0", store, config).expect("spawn");
    let client = Client::connect_proto(
        &handle.addr().to_string(),
        WireProtocol::Binary,
        ClientTimeouts::unbounded(),
    )
    .expect("connect");
    (Daemon { handle, join, dir }, client)
}

fn stop(daemon: Daemon, client: Client) {
    drop(client);
    daemon.handle.stop();
    daemon
        .join
        .join()
        .expect("daemon thread")
        .expect("daemon run");
    let _ = std::fs::remove_dir_all(&daemon.dir);
}

#[test]
fn tpf1_ingest_interns_no_name() {
    const RECORDS: usize = 10_000;
    const BATCH: usize = 500;
    let (daemon, mut client) = serve("registry");
    let registry = pomp::registry();
    let before = (registry.len(), registry.param_count());
    for batch in 0..RECORDS / BATCH {
        let records: Vec<Record> = (0..BATCH)
            .map(|i| {
                let n = batch * BATCH + i;
                tpf1(record(&format!("distinct-{n}"), 4), n as u64)
            })
            .collect();
        let receipt = client.ingest_batch(&records).expect("ingest");
        assert_eq!(receipt.count, BATCH as u64);
    }
    assert_eq!(
        (registry.len(), registry.param_count()),
        before,
        "(regions, parameters) after {RECORDS} records of distinct names"
    );
    stop(daemon, client);
}

/// A spool drain verifies each frame and forwards its record payload: it
/// never decodes one, so the names of 10³ distinct-name frames stay out of
/// the registry.
#[test]
fn spool_drain_interns_no_name() {
    const FRAMES: usize = 1_000;
    let (daemon, client) = serve("drain");
    let spool = temp_dir("drain-spool");
    std::fs::create_dir_all(&spool).expect("spool dir");
    let registry = pomp::registry();
    let before = (registry.len(), registry.param_count());
    for n in 0..FRAMES {
        // The frame file `spool_profile` writes.
        let mut frame = Vec::new();
        profstore::frame::encode(&record(&format!("spooled-{n}"), 4), &mut frame);
        std::fs::write(spool.join(format!("spool-{n:020}-0-0.frame")), frame).expect("frame");
    }
    let policy = ExportPolicy {
        wire_protocol: WireProtocol::Binary,
        ..ExportPolicy::default()
    };
    let report = drain_spool(&spool, &daemon.handle.addr().to_string(), &policy);
    assert_eq!(
        report,
        DrainReport {
            delivered: FRAMES as u64,
            quarantined: 0,
            remaining: 0
        }
    );
    assert_eq!(std::fs::read_dir(&spool).expect("spool dir").count(), 0);
    assert_eq!(
        (registry.len(), registry.param_count()),
        before,
        "(regions, parameters) after draining {FRAMES} frames of distinct names"
    );
    let _ = std::fs::remove_dir_all(&spool);
    stop(daemon, client);
}

/// Fails unless no name of `record(tag, nodes)` is in the registry.
fn assert_never_interned(tag: &str, nodes: usize) {
    let registry = pomp::registry();
    let mut regions = vec![(format!("{tag} par"), RegionKind::Parallel)];
    let mut params = Vec::new();
    for k in 1..nodes {
        match k % 3 {
            0 => regions.push((format!("{tag} fn {k}"), RegionKind::Function)),
            // A stub names its task region.
            1 => regions.push((format!("{tag} task {k}"), RegionKind::Task)),
            _ => params.push(format!("{tag} depth {k}")),
        }
    }
    for (name, kind) in &regions {
        assert_eq!(registry.lookup(name, *kind), None, "{name} was interned");
    }
    let view = registry.view();
    for id in 0..registry.param_count() {
        let name = view.param_name(pomp::ParamId(id as u32));
        assert!(!params.iter().any(|p| p == name), "{name} was interned");
    }
}

/// The readers that fold stored runs — compaction, a windowed aggregate
/// and a trend, on a single store and through a sharded store's fan-in,
/// and a `QUERY regress` whose candidate is a record — read the names out
/// of the record bytes and intern none of them.
#[test]
fn folding_stored_runs_interns_no_name() {
    const TAG: &str = "fold-never-interned";
    const NODES: usize = 12;
    let payload = record(TAG, NODES);
    let body = verify_record(&payload).expect("the record verifies");
    let window = RunWindow {
        last: Some(3),
        since_ns: None,
    };

    let dir = temp_dir("fold-single");
    // One record per segment, so compaction has closed segments to fold.
    let config = StoreConfig {
        segment_max_bytes: 1,
        ..StoreConfig::default()
    };
    let mut store = ProfileStore::open_with(&dir, config).expect("open");
    for ts in 0..4 {
        store.ingest_record("fold", 1, ts, body).expect("ingest");
    }
    assert_eq!(store.compact().expect("compact"), 3);
    assert_eq!(store.aggregate_window("fold", 1, &window).expect("window").runs, 3);
    assert_eq!(store.aggregate("fold", 1).expect("aggregate").runs, 4);
    let trend = store.trend("fold", 1, &RunWindow::default(), 2).expect("trend");
    assert_eq!(trend.iter().map(|b| b.runs).sum::<u64>(), 4);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // An unnamed group is spread over the shards and fanned back in.
    let dir = temp_dir("fold-sharded");
    let sharded = ShardedStore::open(&dir, 2).expect("open sharded");
    for ts in 0..4 {
        sharded.ingest_record("", 1, ts, body).expect("ingest");
    }
    assert_eq!(sharded.aggregate_window("", 1, &window).expect("window").runs, 3);
    let trend = sharded.trend("", 1, &window, 2).expect("trend");
    assert_eq!(trend.iter().map(|b| b.runs).sum::<u64>(), 3);
    drop(sharded);
    let _ = std::fs::remove_dir_all(&dir);

    let (daemon, mut client) = serve("fold-daemon");
    let records: Vec<Record> = (0..4).map(|ts| tpf1(payload.clone(), ts)).collect();
    client.ingest_batch(&records).expect("ingest");
    for window in [RunWindow::default(), window] {
        let report = client
            .query_regress_window(
                "verify",
                1,
                ProfilePayload::Record(payload.clone()),
                None,
                None,
                None,
                window,
            )
            .expect("regress");
        assert_eq!(report.baseline_runs, window.last.unwrap_or(4));
        assert!(!report.regressed, "{report:?}");
    }
    stop(daemon, client);

    assert_never_interned(TAG, NODES);
}

#[test]
fn one_ingest_allocates_the_same_for_any_record_size() {
    let counts = [100, 10_000].map(|nodes| {
        let payload = record(&format!("alloc-{nodes}"), nodes);
        let body = verify_record(&payload).expect("the record verifies");
        let verifying = measure(|| {
            verify_record(&payload).expect("the record verifies");
        });
        assert_eq!(
            verifying.allocs, 0,
            "verify_record of {nodes} nodes allocated"
        );
        let dir = temp_dir(&format!("alloc-{nodes}"));
        let mut store = ProfileStore::open(&dir).expect("open");
        // The first append sizes the index; measure the second.
        store.ingest_record("alloc", 1, 1, body).expect("ingest");
        let allocs = measure(|| {
            store.ingest_record("alloc", 1, 2, body).expect("ingest");
        })
        .allocs;
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        allocs
    });
    assert_eq!(counts[0], counts[1], "allocations for 100 vs 10 000 nodes");
    // The run's name in the index, the stamped payload and its frame.
    assert!(counts[0] <= 3, "{} allocations per ingest", counts[0]);
}

#[test]
fn the_daemon_refuses_what_the_encoder_never_writes() {
    let (daemon, mut client) = serve("refuse");
    let mut torn = record("refuse", 10);
    torn.pop();
    for (payload, why) in [
        (torn, "record payload truncated"),
        (
            truncated(&[1, 0, 5, 0, 0, 0]),
            "malformed record: minimum without samples",
        ),
        (
            truncated(&[0x81, 0x00, 0, 0, 0, 0, 0]),
            "malformed record: overlong varint",
        ),
    ] {
        match client.ingest_record(&tpf1(payload, 1)) {
            Err(ClientError::Server { kind, message }) => {
                assert_eq!(kind, ErrorKind::BadRequest, "{message}");
                assert_eq!(message, format!("item 0: bad profile record: {why}"));
            }
            other => panic!("{why}: got {other:?}"),
        }
    }
    let receipt = client
        .ingest_record(&tpf1(truncated(&[1, 0, 0, 0, 0, 0]), 2))
        .expect("the canonical spelling is stored");
    assert_eq!(receipt.run_id(), 1, "nothing refused took a run id");
    stop(daemon, client);
}
