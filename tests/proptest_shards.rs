//! Properties of the sharded repository: routing is a total, stable
//! function of the run's identity; the k-way fan-in answers queries
//! byte-identically to a single store holding the same runs; and the
//! retention sweep never removes a run at or above the cutoff.

use pomp::{registry, RegionKind, TaskIdAllocator};
use profstore::{ProfileStore, RetentionPolicy, RunWindow, ShardedStore, StoreConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use taskprof::{AssignPolicy, Event, Profile, TeamReplayer};
use test_util::prop::{check, line, Gen};

/// A unique scratch directory per property case (cases run concurrently
/// within one process and leftovers from failed cases must not alias).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "taskprof-proptest-shards-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny one-task profile with a distinctive duration.
fn small_profile(task_ns: u64) -> Profile {
    let reg = registry();
    let par = reg.register("pshard-par", RegionKind::Parallel, "t", 0);
    let task = reg.register("pshard-task", RegionKind::Task, "t", 0);
    let ids = TaskIdAllocator::new();
    let mut team = TeamReplayer::new(1, par, AssignPolicy::Executing);
    let id = ids.alloc();
    team.apply(0, Event::TaskBegin { region: task, id })
        .advance(task_ns)
        .apply(0, Event::TaskEnd { region: task, id });
    team.finish()
}

/// Pool index 0 is the empty benchmark name (routed by run-id hash);
/// the rest are named groups (routed by name hash).
fn bench_name(pool: usize) -> String {
    if pool == 0 {
        String::new()
    } else {
        format!("pp-bench-{pool}")
    }
}

/// An ingest sequence: (benchmark pool, timestamp, task duration).
fn runs(g: &mut Gen) -> Vec<(usize, u64, u64)> {
    g.vec(1..25, |g| {
        (g.u64(0..5) as usize, g.u64(0..1000), g.u64(1..500))
    })
}

/// Tiny segments so rotation — and therefore real GC segment rewrites —
/// happen even for small generated workloads.
fn tiny_segments() -> StoreConfig {
    StoreConfig {
        segment_max_bytes: 400,
        sync_writes: false,
    }
}

/// Routing is a pure total function: always in range and identical
/// on every call — which is exactly what "stable across reopen"
/// reduces to, since a reopen re-runs the same function on the same
/// recorded identity and shard count.
#[test]
fn routing_is_total_and_stable() {
    let gen = |g: &mut Gen| (line(g, 0..25), g.u64(..), g.u64(1..16) as usize);
    check(
        "routing_is_total_and_stable",
        16,
        gen,
        |(bench, run_id, shards)| {
            let k = ShardedStore::route(&bench, run_id, shards);
            assert!(k < shards);
            for _ in 0..3 {
                assert_eq!(k, ShardedStore::route(&bench, run_id, shards));
            }
            // A named benchmark routes independently of the run id.
            if !bench.is_empty() {
                assert_eq!(
                    k,
                    ShardedStore::route(&bench, run_id.wrapping_add(1), shards)
                );
            }
            // The empty name falls back to the id hash and stays in range.
            assert!(ShardedStore::route("", run_id, shards) < shards);
        },
    );
}

/// Every acked run survives a reopen in a shard the router still
/// selects: load-by-id finds it and the metadata round-trips.
#[test]
fn reopen_finds_every_run_where_routing_put_it() {
    let gen = |g: &mut Gen| (runs(g), g.u64(1..6) as u32);
    check(
        "reopen_finds_every_run_where_routing_put_it",
        16,
        gen,
        |(runs, shards)| {
            let dir = scratch_dir("reopen");
            let mut acked = Vec::new();
            {
                let store = ShardedStore::open_with(&dir, shards, tiny_segments()).expect("open");
                for &(pool, ts, dur) in &runs {
                    let r = store
                        .ingest(&bench_name(pool), 2, ts, &small_profile(dur))
                        .expect("ingest");
                    acked.push((r.run_id, pool, ts));
                }
            }
            let store = ShardedStore::open_with(&dir, shards, tiny_segments()).expect("reopen");
            assert_eq!(store.len(), runs.len());
            for &(id, pool, ts) in &acked {
                let (meta, _) = store.load(id).expect("acked run present after reopen");
                assert_eq!(&meta.benchmark, &bench_name(pool));
                assert_eq!(meta.timestamp_ns, ts);
            }
            let _ = std::fs::remove_dir_all(&dir);
        },
    );
}

/// Sharding is invisible to queries: for the same ingest sequence, a
/// sharded store and a single store produce byte-identical
/// aggregates and trends for every group, windowed or not.
#[test]
fn fan_in_equals_single_store_fold() {
    let gen = |g: &mut Gen| {
        let (runs, shards) = (runs(g), g.u64(2..6) as u32);
        let window = RunWindow {
            last: g.option(|g| g.u64(1..30)),
            since_ns: g.option(|g| g.u64(0..1000)),
        };
        (runs, shards, window)
    };
    check(
        "fan_in_equals_single_store_fold",
        16,
        gen,
        |(runs, shards, window)| {
            let sharded_dir = scratch_dir("fanin");
            let single_dir = scratch_dir("fanin-single");
            let sharded = ShardedStore::open_with(&sharded_dir, shards, tiny_segments())
                .expect("open sharded");
            let mut single =
                ProfileStore::open_with(&single_dir, tiny_segments()).expect("open single");
            for &(pool, ts, dur) in &runs {
                // Both stores assign sequential global ids from 1, so the
                // same ingest order gives the same run identities.
                let p = small_profile(dur);
                let a = sharded
                    .ingest(&bench_name(pool), 2, ts, &p)
                    .expect("sharded ingest");
                let b = single
                    .ingest(&bench_name(pool), 2, ts, &p)
                    .expect("single ingest");
                assert_eq!(a.run_id, b.run_id);
            }
            for pool in 0..5 {
                let bench = bench_name(pool);
                let a = sharded
                    .aggregate_window(&bench, 2, &window)
                    .expect("sharded agg");
                let b = single
                    .aggregate_window(&bench, 2, &window)
                    .expect("single agg");
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "aggregate diverges for {:?} window {:?}",
                    bench,
                    window
                );
                let ta = sharded.trend(&bench, 2, &window, 3).expect("sharded trend");
                let tb = single.trend(&bench, 2, &window, 3).expect("single trend");
                assert_eq!(
                    format!("{ta:?}"),
                    format!("{tb:?}"),
                    "trend diverges for {:?} window {:?}",
                    bench,
                    window
                );
            }
            drop(sharded);
            drop(single);
            let _ = std::fs::remove_dir_all(&sharded_dir);
            let _ = std::fs::remove_dir_all(&single_dir);
        },
    );
}

/// The timestamp-cutoff sweep drops exactly the runs below the
/// cutoff: never one at or above it, and the report's arithmetic
/// accounts for every ingested run.
#[test]
fn gc_never_removes_a_run_at_or_above_the_cutoff() {
    let gen = |g: &mut Gen| (runs(g), g.u64(1..6) as u32, g.u64(0..1200));
    check(
        "gc_never_removes_a_run_at_or_above_the_cutoff",
        16,
        gen,
        |(runs, shards, cutoff)| {
            let dir = scratch_dir("gc");
            let store = ShardedStore::open_with(&dir, shards, tiny_segments()).expect("open");
            let mut acked = Vec::new();
            for &(pool, ts, dur) in &runs {
                let r = store
                    .ingest(&bench_name(pool), 2, ts, &small_profile(dur))
                    .expect("ingest");
                acked.push((r.run_id, ts));
            }
            let report = store
                .gc(&RetentionPolicy {
                    keep_last: None,
                    min_timestamp_ns: Some(cutoff),
                })
                .expect("gc");
            let survivors: Vec<&(u64, u64)> =
                acked.iter().filter(|&&(_, ts)| ts >= cutoff).collect();
            assert_eq!(
                store.len() + report.dropped_runs as usize,
                runs.len(),
                "sweep dropped and kept counts must cover every run"
            );
            assert_eq!(store.len(), survivors.len());
            for &&(id, ts) in &survivors {
                assert!(
                    store.load(id).is_ok(),
                    "run {} (ts {}) at/above cutoff {} was removed",
                    id,
                    ts,
                    cutoff
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        },
    );
}

/// The keep-last sweep always retains the newest `keep` runs of
/// every (benchmark, threads) group, across all shards.
#[test]
fn gc_keep_last_retains_the_newest_runs_of_every_group() {
    let gen = |g: &mut Gen| (runs(g), g.u64(1..6) as u32, g.u64(1..8));
    check(
        "gc_keep_last_retains_the_newest_runs_of_every_group",
        16,
        gen,
        |(runs, shards, keep)| {
            let dir = scratch_dir("keep");
            let store = ShardedStore::open_with(&dir, shards, tiny_segments()).expect("open");
            let mut acked: Vec<(u64, usize)> = Vec::new();
            for &(pool, ts, dur) in &runs {
                let r = store
                    .ingest(&bench_name(pool), 2, ts, &small_profile(dur))
                    .expect("ingest");
                acked.push((r.run_id, pool));
            }
            store
                .gc(&RetentionPolicy {
                    keep_last: Some(keep),
                    min_timestamp_ns: None,
                })
                .expect("gc");
            for pool in 0..5 {
                let ids: Vec<u64> = acked
                    .iter()
                    .filter(|&&(_, p)| p == pool)
                    .map(|&(id, _)| id)
                    .collect();
                for &id in ids.iter().rev().take(keep as usize) {
                    assert!(
                        store.load(id).is_ok(),
                        "run {} is among the newest {} of its group but was removed",
                        id,
                        keep
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        },
    );
}
