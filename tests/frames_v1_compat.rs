//! The frozen frames, `tests/golden/compat/frames_v1/`: the
//! `len | payload | crc32` frames of commit d6addc3, never regenerated.
//!
//! * `tpf1.txt` holds three framed TPF1 messages as hex: a `HELLO`, an
//!   `INGEST_BATCH` of two records and an `EXPORT` reply carrying two
//!   record frames. Framing the payloads this build encodes must give
//!   those bytes, and splitting them must give the payloads back.
//! * `spool/` holds a spool directory: one frame `spool_profile` wrote,
//!   a copy with one payload bit flipped and a copy cut short. Draining
//!   it into a daemon delivers the first and quarantines the other two.

use pomp::RegionKind;
use profserve::protocol::{hex_decode, hex_encode};
use profserve::wire::{self, encode_request, encode_response};
use profserve::{ProfilePayload, Record, Request, Response, ServeConfig, Server};
use profstore::{encode_record, ProfileStore, RunMeta};
use std::path::{Path, PathBuf};
use taskprof::{NodeKind, Profile, SnapNode, Stats, ThreadSnapshot};
use taskprof_session::{drain_spool, DrainReport, ExportPolicy};

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compat/frames_v1")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "frames-v1-compat-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stats(visits: u64, sum_ns: u64, samples: u64) -> Stats {
    let mut s = Stats::new();
    s.visits = visits;
    s.sum_ns = sum_ns;
    if let Some(min_ns) = sum_ns.checked_div(samples) {
        s.min_ns = min_ns;
    }
    s.max_ns = sum_ns;
    s.samples = samples;
    s
}

/// A small profile of `nthreads` threads with a region, a stub and a
/// task tree each; `k` varies its numbers.
fn profile(k: u64, nthreads: usize) -> Profile {
    let reg = pomp::registry();
    let par = reg.register("frames-v1 par", RegionKind::Parallel, "t", 0);
    let task = reg.register("frames-v1 task", RegionKind::Task, "t", 0);
    let wait = reg.register("frames-v1 taskwait", RegionKind::Taskwait, "t", 0);
    let threads = (0..nthreads)
        .map(|tid| {
            let stub = SnapNode {
                kind: NodeKind::Stub(task),
                stats: stats(2, 400 + k, 2),
                children: Vec::new(),
            };
            let waited = SnapNode {
                kind: NodeKind::Region(wait),
                stats: stats(1, 900 + k, 1),
                children: vec![stub],
            };
            ThreadSnapshot {
                tid,
                parallel_region: par,
                main: SnapNode {
                    kind: NodeKind::Region(par),
                    stats: stats(1, 10_000 + 10 * k + tid as u64, 1),
                    children: vec![waited],
                },
                task_trees: vec![SnapNode {
                    kind: NodeKind::Region(task),
                    stats: stats(2, 3_000 + k, 2),
                    children: Vec::new(),
                }],
                max_live_trees: 1,
                arena_capacity: 64,
                shed_instances: 0,
                diagnostics: Vec::new(),
            }
        })
        .collect();
    Profile { threads }
}

fn meta(run_id: u64, benchmark: &str, threads: u32, timestamp_ns: u64) -> RunMeta {
    RunMeta {
        run_id,
        benchmark: benchmark.to_string(),
        threads,
        timestamp_ns,
    }
}

/// The record payload of run `run_id` in the corpus.
fn payload(run_id: u64) -> Vec<u8> {
    encode_record(&meta(run_id, "fib", 2, 1_000 + run_id), &profile(run_id, 2))
}

/// The unframed payload of the corpus message named `label`.
fn message(label: &str) -> Vec<u8> {
    match label {
        "hello" => encode_request(&Request::Hello {
            version: wire::WIRE_VERSION,
            features: wire::FEATURE_BATCH_INGEST,
            auth: Some("hunter2".to_string()),
        }),
        "ingest_batch" => encode_request(&Request::IngestBatch(
            (1..=2)
                .map(|k| Record {
                    benchmark: "fib".to_string(),
                    threads: 2,
                    timestamp_ns: Some(1_000 + k),
                    profile: ProfilePayload::Record(payload(0)),
                })
                .collect(),
        )),
        "export_chunk" => encode_response(&Response::ExportChunk {
            frames: (1..=2).map(|k| wire::frame(&payload(k))).collect(),
            watermark: 2,
            done: true,
        }),
        other => panic!("no corpus message {other:?}"),
    }
}

#[test]
fn tpf1_frames_are_the_frozen_bytes_and_split_back() {
    let corpus = std::fs::read_to_string(golden().join("tpf1.txt")).expect("tpf1.txt");
    let mut labels = Vec::new();
    for line in corpus.lines().filter(|l| !l.starts_with('#')) {
        let (label, hex) = line.split_once(' ').expect("<label> <hex>");
        let frozen = hex_decode(hex).expect("corpus hex");
        let payload = message(label);
        assert_eq!(
            hex_encode(&wire::frame(&payload)),
            hex,
            "{label}: framing its payload no longer gives the frozen bytes"
        );
        let (split, consumed) = wire::try_frame(&frozen, frozen.len())
            .expect("a frozen frame splits")
            .expect("a frozen frame is whole");
        assert_eq!(consumed, frozen.len(), "{label}");
        assert_eq!(split, payload, "{label}: the split payload");
        for cut in 0..frozen.len() {
            assert!(
                matches!(wire::try_frame(&frozen[..cut], frozen.len()), Ok(None)),
                "{label}: a {cut}-byte prefix asks for more"
            );
        }
        labels.push(label.to_string());
    }
    assert_eq!(labels, ["hello", "ingest_batch", "export_chunk"]);

    // The record frames inside the EXPORT reply split back to the records.
    let Response::ExportChunk { frames, .. } =
        wire::decode_response(&message("export_chunk")).expect("decode")
    else {
        panic!("not an export chunk");
    };
    for (run_id, frame) in (1..).zip(&frames) {
        let (split, consumed) = wire::try_frame(frame, frame.len())
            .expect("a record frame splits")
            .expect("a record frame is whole");
        assert_eq!(split, payload(run_id));
        assert_eq!(consumed, frame.len());
    }
}

#[test]
fn frozen_spool_delivers_one_and_quarantines_two() {
    let spool = temp_dir("spool");
    std::fs::create_dir_all(&spool).expect("spool dir");
    let mut names = Vec::new();
    for entry in std::fs::read_dir(golden().join("spool")).expect("frozen spool") {
        let path = entry.expect("entry").path();
        let name = path.file_name().expect("name").to_owned();
        std::fs::copy(&path, spool.join(&name)).expect("copy");
        names.push(name.into_string().expect("utf-8 name"));
    }
    names.sort();
    assert_eq!(names.len(), 3, "{names:?}");

    let store_dir = temp_dir("store");
    let store = ProfileStore::open(&store_dir).expect("open store");
    let (handle, join) =
        Server::spawn("127.0.0.1:0", store, ServeConfig::default()).expect("spawn");
    let report = drain_spool(&spool, &handle.addr().to_string(), &ExportPolicy::default());
    handle.stop();
    join.join().expect("join").expect("run");
    drop(handle);
    assert_eq!(
        report,
        DrainReport {
            delivered: 1,
            quarantined: 2,
            remaining: 0
        }
    );
    let mut left: Vec<String> = std::fs::read_dir(&spool)
        .expect("spool")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    left.sort();
    let bad: Vec<String> = names[1..].iter().map(|n| format!("{n}.bad")).collect();
    assert_eq!(
        left, bad,
        "the damaged copies are renamed, the good one is gone"
    );

    let store = ProfileStore::open(&store_dir).expect("reopen");
    assert_eq!(store.stats().runs, 1);
    let (meta, profile) = store.load(store.index()[0].run_id).expect("load");
    assert_eq!(
        meta,
        RunMeta {
            run_id: 1,
            ..self::meta(0, "fib", 2, 1_000)
        }
    );
    assert_eq!(profile.threads.len(), 2);
    drop(store);
    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_dir_all(&store_dir);
}
