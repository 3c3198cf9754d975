//! Frozen `QUERY stats / top / regress / trend` replies.
//!
//! `tests/golden/query_replies.txt` holds the JSON reply line of every
//! query below — windowed and unbounded, before and after `compact()` —
//! over a three-segment single store and a two-shard store fed the same
//! runs. The runs carry a stub node, a parameter node, two region ids
//! under one display name, threads of different shape, and one run whose
//! root construct differs from the rest. A change to how the store reads
//! or folds a run must leave the file byte-identical, not `BLESS` it
//! (`BLESS=1 cargo test --test query_replies` rewrites it after an
//! intentional change to what a reply says).

use pomp::{registry, ParamId, RegionId, RegionKind, TaskIdAllocator};
use profserve::{RegressReport, Response, StatsReport, TopReport, TrendReport};
use profstore::{
    ProfileStore, RealIo, RegressConfig, Repo, RunSummary, RunWindow, ShardedStore, StoreConfig,
    StoreFile, StoreIo,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use taskprof::{AssignPolicy, Event, Profile, TeamReplayer};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "query-replies-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Regions {
    par: RegionId,
    other_par: RegionId,
    barrier: RegionId,
    /// `qr!work` as a task construct ...
    task: RegionId,
    /// ... and `qr!work` again as a function: two ids, one display name.
    func: RegionId,
    leaf: RegionId,
    depth: ParamId,
}

fn regions() -> Regions {
    let reg = registry();
    let r = |name, kind| reg.register(name, kind, file!(), line!());
    Regions {
        par: r("qr!parallel", RegionKind::Parallel),
        other_par: r("qr!other-parallel", RegionKind::Parallel),
        barrier: r("qr!ibarrier", RegionKind::ImplicitBarrier),
        task: r("qr!work", RegionKind::Task),
        func: r("qr!work", RegionKind::Function),
        leaf: r("qr!leaf", RegionKind::Function),
        depth: reg.register_param("qr-depth"),
    }
}

/// A two-thread run under `root`: every instance of the task executes
/// inside the implicit barrier (a stub node in the main tree), opens a
/// `qr-depth` parameter scope and calls `qr!work` → `qr!leaf` in it.
/// Thread 1 runs one instance more than thread 0, at another depth, so
/// the per-thread trees differ in shape; `k` scales every duration.
fn profile(r: &Regions, root: RegionId, k: u64) -> Profile {
    let ids = TaskIdAllocator::new();
    let mut team = TeamReplayer::new(2, root, AssignPolicy::Executing);
    for tid in 0..2usize {
        team.apply(tid, Event::Enter(r.barrier)).advance(5 + k);
        for depth in 0..=tid as i64 {
            let id = ids.alloc();
            team.apply(tid, Event::TaskBegin { region: r.task, id })
                .advance(10 + 3 * k)
                .apply(
                    tid,
                    Event::ParamBegin {
                        param: r.depth,
                        value: depth + (k % 2) as i64,
                    },
                )
                .apply(tid, Event::Enter(r.func))
                .advance(100 + 17 * k)
                .apply(tid, Event::Enter(r.leaf))
                .advance(40 + (7 * k) % 13)
                .apply(tid, Event::Exit(r.leaf))
                .apply(tid, Event::Exit(r.func))
                .apply(tid, Event::ParamEnd { param: r.depth })
                .advance(2)
                .apply(tid, Event::TaskEnd { region: r.task, id });
        }
        team.advance(20 + k).apply(tid, Event::Exit(r.barrier));
    }
    team.finish()
}

/// The runs both stores hold, in ingest order: (benchmark, threads,
/// timestamp, profile). `alpha` is the main group (one run rooted at
/// another construct), `beta` a second group, and the unnamed group is
/// the one a sharded store spreads over its shards by run id.
fn runs(r: &Regions) -> Vec<(&'static str, u32, u64, Profile)> {
    let mut out = Vec::new();
    for i in 0..14u64 {
        let root = if i == 5 { r.other_par } else { r.par };
        out.push(("alpha", 2, 100 + 10 * i, profile(r, root, i)));
        if i % 3 == 0 {
            out.push(("beta", 4, 105 + 10 * i, profile(r, r.par, 20 + i)));
        }
        if i % 2 == 1 {
            out.push(("", 2, 107 + 10 * i, profile(r, r.par, 40 + i)));
        }
    }
    out
}

const WINDOWS: [(&str, RunWindow); 4] = [
    (
        "all",
        RunWindow {
            last: None,
            since_ns: None,
        },
    ),
    (
        "last=4",
        RunWindow {
            last: Some(4),
            since_ns: None,
        },
    ),
    (
        "since=170",
        RunWindow {
            last: None,
            since_ns: Some(170),
        },
    ),
    (
        "last=3,since=130",
        RunWindow {
            last: Some(3),
            since_ns: Some(130),
        },
    ),
];

/// Every query against every group and window, one reply line each.
fn query_lines(out: &mut String, label: &str, repo: &Repo, candidate: &Profile) {
    let candidate = RunSummary::from_profile(candidate);
    let strict = RegressConfig {
        threshold: 0.05,
        min_runs: 2,
        min_delta_ns: 10,
    };
    for (benchmark, threads) in [("alpha", 2), ("beta", 4), ("", 2)] {
        for (wname, window) in &WINDOWS {
            let agg = repo
                .aggregate_window(benchmark, threads, window)
                .expect("aggregate_window");
            let head = format!("{label} '{benchmark}'/{threads} {wname}");
            let mut line = |verb: &str, response: Response| {
                writeln!(out, "{head} {verb}: {}", response.to_json_line()).unwrap();
            };
            line(
                "stats",
                Response::Stats(StatsReport::from_agg(benchmark, threads, &agg)),
            );
            line(
                "top10",
                Response::Top(TopReport::from_agg(benchmark, threads, &agg, 10)),
            );
            line(
                "top2",
                Response::Top(TopReport::from_agg(benchmark, threads, &agg, 2)),
            );
            for (cname, config) in [("default", RegressConfig::default()), ("strict", strict)] {
                line(
                    &format!("regress[{cname}]"),
                    Response::Regress(RegressReport::from_verdict(
                        &agg.check_regression(&candidate, &config),
                    )),
                );
            }
            for buckets in [1usize, 3] {
                let b = repo
                    .trend(benchmark, threads, window, buckets)
                    .expect("trend");
                line(
                    &format!("trend{buckets}"),
                    Response::Trend(TrendReport {
                        benchmark: benchmark.to_string(),
                        threads,
                        runs: b.iter().map(|x| x.runs).sum(),
                        buckets: b,
                    }),
                );
            }
        }
    }
}

/// `RealIo` behind a [`StoreIo`] written before `open_read` existed: it
/// implements only the required methods, so the store reads through the
/// trait's path-backed default.
#[derive(Debug)]
struct PathOnlyIo;

impl StoreIo for PathOnlyIo {
    fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn StoreFile>> {
        RealIo.create_new(path)
    }
    fn open_rw(&self, path: &Path) -> std::io::Result<Box<dyn StoreFile>> {
        RealIo.open_rw(path)
    }
    fn read_all(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealIo.read_all(path)
    }
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        RealIo.read_range(path, offset, len)
    }
    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        RealIo.file_len(path)
    }
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        RealIo.list_dir(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        RealIo.create_dir_all(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealIo.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealIo.remove_file(path)
    }
}

/// Every reply line of both stores, built on `io`.
fn reply_lines(tag: &str, io: Arc<dyn StoreIo>) -> String {
    let r = regions();
    let runs = runs(&r);
    let candidate = profile(&r, r.par, 9);
    // Small enough that the single store rotates twice over the runs.
    let config = StoreConfig {
        segment_max_bytes: 4_000,
        sync_writes: false,
    };
    let single_dir = temp_dir(&format!("{tag}-single"));
    let sharded_dir = temp_dir(&format!("{tag}-sharded"));
    let mut single: Repo = ProfileStore::open_with_io(&single_dir, config, Arc::clone(&io))
        .expect("open single")
        .into();
    let mut sharded: Repo = ShardedStore::open_with_io(&sharded_dir, 2, config, io)
        .expect("open sharded")
        .into();
    for (benchmark, threads, timestamp_ns, p) in &runs {
        single
            .ingest(benchmark, *threads, *timestamp_ns, p)
            .expect("single ingest");
        sharded
            .ingest(benchmark, *threads, *timestamp_ns, p)
            .expect("sharded ingest");
    }
    assert_eq!(
        single.stats().segments,
        3,
        "the single store has three segments"
    );
    assert!(
        sharded.per_shard_stats().iter().all(|s| s.runs > 0),
        "both shards hold runs"
    );

    let mut out = String::new();
    for (name, repo) in [("single", &mut single), ("sharded", &mut sharded)] {
        query_lines(&mut out, &format!("{name} fresh"), repo, &candidate);
        let folded = repo.compact().expect("compact");
        assert!(folded > 0, "{name}: compaction folded nothing");
        query_lines(&mut out, &format!("{name} compacted"), repo, &candidate);
    }
    let _ = std::fs::remove_dir_all(&single_dir);
    let _ = std::fs::remove_dir_all(&sharded_dir);
    out
}

#[test]
fn query_replies_are_frozen() {
    let out = reply_lines("frozen", RealIo::handle());
    assert!(
        out.contains("\"tree_mismatches\":1"),
        "the run rooted at another construct must count as a mismatch"
    );
    assert!(
        out.contains("qr!work (stub)"),
        "no stub node reached a reply"
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/query_replies.txt");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, &out).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {}", path.display()));
    assert!(
        out == expected,
        "QUERY replies differ from tests/golden/query_replies.txt; the first \
         differing line:\n{:?}",
        out.lines()
            .zip(expected.lines())
            .find(|(a, b)| a != b)
            .or(Some(("(line count)", "(line count)")))
    );
}

/// A `StoreIo` that does not override `open_read` answers every query
/// byte for byte like one that holds a handle per segment.
#[test]
fn replies_do_not_depend_on_open_read_being_overridden() {
    let held = reply_lines("held", RealIo::handle());
    let path_backed = reply_lines("path", Arc::new(PathOnlyIo));
    assert!(
        held == path_backed,
        "the path-backed default read differently"
    );
}
