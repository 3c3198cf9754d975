//! The frozen store, `tests/golden/compat/store_v1/`: the segment files a
//! daemon writes from one fixed sequence of TPF1 and JSON ingests, once
//! into a single store (`single/`) and once into a two-shard store
//! (`sharded/`), as the daemon of commit 4686729 wrote them. The files are
//! never regenerated: replaying the sequence through this build must
//! reproduce every segment file byte for byte, so a change to how an
//! ingest is checked, stamped or appended cannot change what lands on
//! disk unnoticed.

use pomp::RegionKind;
use profserve::{
    Client, ClientTimeouts, ProfilePayload, Record, ServeConfig, Server, WireProtocol,
};
use profstore::{encode_record, Repo, RunMeta, ShardedStore, StoreConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use taskprof::{NodeKind, Profile, SnapNode, Stats, ThreadSnapshot};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "store-v1-compat-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compat/store_v1")
}

fn stats(visits: u64, sum_ns: u64, min_ns: u64, max_ns: u64, samples: u64) -> Stats {
    let mut s = Stats::new();
    s.visits = visits;
    s.sum_ns = sum_ns;
    if samples > 0 {
        s.min_ns = min_ns;
    }
    s.max_ns = max_ns;
    s.samples = samples;
    s
}

fn node(kind: NodeKind, stats: Stats, children: Vec<SnapNode>) -> SnapNode {
    SnapNode {
        kind,
        stats,
        children,
    }
}

/// A profile with every node kind: regions of several kinds (two sharing
/// one display name), stubs, parameters, a truncation marker, a node
/// visited but never sampled, diagnostics and non-ASCII names. `extreme`
/// puts the largest values the record codec can carry in it.
fn profile(k: u64, nthreads: usize, extreme: bool) -> Profile {
    let reg = pomp::registry();
    let par = reg.register("store-v1 par", RegionKind::Parallel, "t", 0);
    let task = reg.register("store-v1 task", RegionKind::Task, "t", 0);
    let twin = reg.register("store-v1 task", RegionKind::Function, "t", 0);
    let work = reg.register("store-v1 wörk ✓", RegionKind::Function, "t", 0);
    let wait = reg.register("store-v1 taskwait", RegionKind::Taskwait, "t", 0);
    let depth = reg.register_param("store-v1 depth");
    let big = if extreme { u64::MAX } else { 90_000 + k };
    let value = if extreme { i64::MIN } else { -(k as i64) };
    let threads = (0..nthreads)
        .map(|tid| {
            let t = tid as u64;
            let main = node(
                NodeKind::Region(par),
                stats(1, 100_000 + 10 * k + t, 100_000, 100_000 + 10 * k + t, 1),
                vec![
                    node(
                        NodeKind::Region(work),
                        stats(3 + t, 3_000 + k, 900, 1_200 + k, 3 + t),
                        vec![],
                    ),
                    node(
                        NodeKind::Region(wait),
                        stats(2, 5_000, 2_000, 3_000, 2),
                        vec![node(
                            NodeKind::Stub(task),
                            stats(4 + k, 4_000, 500, 1_500, 4 + k),
                            vec![],
                        )],
                    ),
                    node(
                        NodeKind::Param(depth, value),
                        stats(1, big, big, big, 1),
                        vec![node(
                            NodeKind::Region(twin),
                            stats(1, 70, 70, 70, 1),
                            vec![],
                        )],
                    ),
                    node(NodeKind::Truncated, stats(2, 0, 0, 0, 0), vec![]),
                ],
            );
            let task_trees = (0..=t % 2)
                .map(|j| {
                    node(
                        NodeKind::Region(task),
                        stats(5 + j, 8_000 + k, 1_000, 2_500, 5 + j),
                        vec![node(
                            NodeKind::Param(depth, j as i64 + 3),
                            stats(5, 6_000, 1_000, 1_400, 5),
                            vec![node(
                                NodeKind::Region(work),
                                stats(5, 2_000, 300, 500, 5),
                                vec![],
                            )],
                        )],
                    )
                })
                .collect();
            ThreadSnapshot {
                tid,
                parallel_region: par,
                main,
                task_trees,
                max_live_trees: 1 + tid,
                arena_capacity: 64,
                shed_instances: k % 2,
                diagnostics: if tid == 0 {
                    vec![format!("store-v1 diagnostic «{k}»")]
                } else {
                    Vec::new()
                },
            }
        })
        .collect();
    Profile { threads }
}

fn bin(benchmark: &str, threads: u32, ts: u64, p: &Profile) -> Record {
    Record::from_profile(benchmark, threads, Some(ts), p)
}

fn text(benchmark: &str, threads: u32, ts: u64, p: &Profile) -> Record {
    Record::from_text(benchmark, threads, Some(ts), cube::write_profile(p))
}

/// Serve `store` and drive the fixed ingest sequence into it, then stop
/// the daemon so every segment is closed.
fn replay(store: Repo) {
    let config = ServeConfig {
        compact_interval: None,
        ..ServeConfig::default()
    };
    let (handle, join) = Server::spawn("127.0.0.1:0", store, config).expect("spawn");
    let addr = handle.addr().to_string();
    let connect =
        |proto| Client::connect_proto(&addr, proto, ClientTimeouts::unbounded()).expect("connect");
    let mut tpf1 = connect(WireProtocol::Binary);
    let mut json = connect(WireProtocol::Json);

    tpf1.ingest_record(&bin("fib", 2, 1_000, &profile(1, 2, false)))
        .expect("tpf1 ingest");
    json.ingest_record(&text("nqueens", 2, 1_001, &profile(2, 2, false)))
        .expect("json ingest");
    // A record payload whose own header names another run: the request's
    // benchmark, threads and timestamp are what is stored.
    let foreign = RunMeta {
        run_id: 99,
        benchmark: "not-this-one".to_string(),
        threads: 7,
        timestamp_ns: 5,
    };
    let stamped = Record {
        benchmark: "sort".to_string(),
        threads: 4,
        timestamp_ns: Some(1_002),
        profile: ProfilePayload::Record(encode_record(&foreign, &profile(3, 4, false))),
    };
    tpf1.ingest_batch(&[
        stamped,
        bin("health", 1, 1_003, &profile(4, 1, false)),
        bin("fib", 2, 1_004, &profile(5, 2, true)),
    ])
    .expect("tpf1 batch");
    json.ingest_batch(&[
        text("sort", 4, 1_005, &profile(6, 4, false)),
        text("fib", 2, 1_006, &profile(7, 2, false)),
    ])
    .expect("json batch");
    // A batch with one bad item stores nothing.
    let mut torn = bin("fib", 2, 1_007, &profile(8, 2, false));
    if let ProfilePayload::Record(bytes) = &mut torn.profile {
        bytes.pop();
    }
    tpf1.ingest_batch(&[bin("fib", 2, 1_007, &profile(8, 2, false)), torn])
        .expect_err("a torn record refuses its batch");
    for k in 0..6u64 {
        let group = ["fib", "nqueens", "sort"][k as usize % 3];
        tpf1.ingest_record(&bin(
            group,
            2,
            2_000 + k,
            &profile(10 + k, 1 + k as usize % 3, false),
        ))
        .expect("tpf1 ingest");
        json.ingest_record(&text(group, 2, 3_000 + k, &profile(20 + k, 2, false)))
            .expect("json ingest");
    }
    drop((tpf1, json));
    handle.stop();
    join.join().expect("daemon thread").expect("daemon run");
}

/// Small segments, so the sequence rotates several times per store.
fn config() -> StoreConfig {
    StoreConfig {
        segment_max_bytes: 3 << 10,
        sync_writes: false,
    }
}

/// Write the sequence into a fresh store at `dir`: one `ProfileStore`
/// when `shards == 1`, else a `ShardedStore`.
fn write_store(dir: &Path, shards: u32) {
    let store: Repo = if shards == 1 {
        profstore::ProfileStore::open_with(dir, config())
            .expect("open store")
            .into()
    } else {
        ShardedStore::open_with(dir, shards, config())
            .expect("open sharded store")
            .into()
    };
    replay(store);
}

/// Every segment file under `root`, by path relative to it.
fn segments(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if path.extension().is_some_and(|e| e == "log") {
                let rel = path.strip_prefix(root).expect("under root");
                out.insert(
                    rel.to_string_lossy().into_owned(),
                    std::fs::read(&path).expect("read segment"),
                );
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

#[test]
fn the_daemon_reproduces_every_frozen_segment() {
    for (shape, shards) in [("single", 1), ("sharded", 2)] {
        let dir = temp_dir(shape);
        write_store(&dir, shards);
        let got = segments(&dir);
        let want = segments(&golden().join(shape));
        assert!(want.len() > 2, "{shape}: golden store truncated");
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "{shape}: segment files"
        );
        for (name, bytes) in &want {
            let mine = &got[name];
            let first_diff = mine.iter().zip(bytes).position(|(a, b)| a != b);
            assert!(
                mine == bytes,
                "{shape}/{name}: {} bytes written, {} frozen, first difference at {:?}",
                mine.len(),
                bytes.len(),
                first_diff
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
