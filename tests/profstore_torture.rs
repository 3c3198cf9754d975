//! Crash-at-every-point torture of the profile repository.
//!
//! The store's durability contract says an acknowledged ingest survives
//! any crash and is never duplicated. This test *proves* it by brute
//! force: a deterministic workload runs against a [`FaultIo`] that kills
//! the process (fails every later mutating file operation, tearing a
//! seeded prefix of the in-flight write) at mutating operation `k` — for
//! every `k` the workload has, across several seeds. After each simulated
//! crash the directory is reopened with the real filesystem and every
//! acked run must be present exactly once with its exact payload.
//!
//! Determinism: the fault plan is pure (seed, point) state, the workload
//! is fixed, so the bytes a crash leaves behind are byte-reproducible —
//! checked by replaying a subset of (seed, point) pairs into a second
//! directory and diffing the files. `TASKPROF_TORTURE_SEED` adds one
//! pinned seed to the sweep (the CI gate sets it).

use pomp::{registry, RegionKind, TaskIdAllocator};
use profstore::{
    decode_meta, is_enospc, ExportBatch, FaultIo, FaultKind, FaultPlan, ProfileStore, RealIo, Repo,
    RetentionPolicy, RunWindow, ShardedStore, StoreConfig, StoreError, MAX_RECORD_BYTES,
};
use std::collections::HashSet;
use std::path::PathBuf;
use taskprof::{AssignPolicy, Event, Profile, TeamReplayer};
use test_util::dir_bytes;

const INGESTS: usize = 30;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "profstore-torture-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn torture_config() -> StoreConfig {
    StoreConfig {
        // Tiny segments force rotation mid-workload so segment creation
        // is among the crashed operations.
        segment_max_bytes: 600,
        // Sync per append: sync_data/sync_all become injection points too.
        sync_writes: true,
    }
}

/// One distinct tiny profile per ingest slot (distinct durations, so a
/// recovered payload can be matched to exactly one acked run).
fn workload_profiles() -> Vec<Profile> {
    let reg = registry();
    let par = reg.register("torture-par", RegionKind::Parallel, "t", 0);
    let task = reg.register("torture-task", RegionKind::Task, "t", 0);
    (0..INGESTS)
        .map(|i| {
            let ids = TaskIdAllocator::new();
            let mut team = TeamReplayer::new(1, par, AssignPolicy::Executing);
            let id = ids.alloc();
            team.apply(0, Event::TaskBegin { region: task, id })
                .advance(100 + i as u64)
                .apply(0, Event::TaskEnd { region: task, id });
            team.finish()
        })
        .collect()
}

/// Run the fixed workload against `io` in `dir`: open, then ingest until
/// the first failure. Returns the acked (run id, ingest slot) pairs —
/// the receipts a real client would hold when the process died.
fn run_workload(
    dir: &std::path::Path,
    io: std::sync::Arc<dyn profstore::StoreIo>,
    profiles: &[Profile],
) -> Vec<(u64, usize)> {
    let mut acked = Vec::new();
    let Ok(mut store) = ProfileStore::open_with_io(dir, torture_config(), io) else {
        return acked; // crashed during open: nothing was ever acked
    };
    for (i, p) in profiles.iter().enumerate() {
        match store.ingest("torture", 2, i as u64, p) {
            Ok(receipt) => acked.push((receipt.run_id, i)),
            Err(_) => break, // the crash point (or its aftermath)
        }
    }
    acked
}

/// Reopen `dir` for real and assert the durability contract against the
/// acked receipts; returns the recovered store for extra checks.
fn verify_recovery(
    dir: &std::path::Path,
    acked: &[(u64, usize)],
    profiles: &[Profile],
    ctx: &str,
) -> ProfileStore {
    let store = ProfileStore::open(dir).unwrap_or_else(|e| panic!("{ctx}: recovering open: {e}"));
    let ids: Vec<u64> = store.index().iter().map(|e| e.run_id).collect();
    let unique: HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(ids.len(), unique.len(), "{ctx}: duplicate run ids: {ids:?}");
    for &(run_id, slot) in acked {
        let (meta, profile) = store
            .load(run_id)
            .unwrap_or_else(|e| panic!("{ctx}: acked run {run_id} lost: {e}"));
        assert_eq!(meta.timestamp_ns, slot as u64, "{ctx}: run {run_id} meta");
        assert_eq!(
            profile.threads[0].main, profiles[slot].threads[0].main,
            "{ctx}: run {run_id} payload"
        );
    }
    store
}

/// The crash-sweep seeds: the fixed trio plus the CI-pinned
/// `TASKPROF_TORTURE_SEED` when set.
fn torture_seeds() -> Vec<u64> {
    let mut seeds = vec![1u64, 7, 1234];
    if let Ok(s) = std::env::var("TASKPROF_TORTURE_SEED") {
        let pinned: u64 = s.parse().expect("TASKPROF_TORTURE_SEED must be a u64");
        if !seeds.contains(&pinned) {
            seeds.insert(0, pinned);
        }
    }
    seeds
}

#[test]
fn crash_at_every_injection_point_loses_no_acked_run() {
    let profiles = workload_profiles();

    // Pass 1: count the workload's mutating operations with no faults.
    let dir = temp_dir("observe");
    let (io, handle) = FaultIo::with_plan(FaultPlan::observe());
    let acked = run_workload(&dir, io, &profiles);
    assert_eq!(acked.len(), INGESTS, "fault-free workload acks everything");
    let total_ops = handle.ops();
    assert!(
        total_ops >= 60,
        "workload too small to satisfy the 200-iteration floor: {total_ops} ops"
    );
    verify_recovery(&dir, &acked, &profiles, "observe");
    let _ = std::fs::remove_dir_all(&dir);

    // Pass 2: crash at every point, for every seed in the sweep.
    let seeds = torture_seeds();
    let mut iterations = 0u64;
    for &seed in &seeds {
        for point in 0..total_ops {
            iterations += 1;
            let ctx = format!("seed {seed} point {point}");
            let dir = temp_dir("crash");
            let (io, handle) = FaultIo::with_plan(FaultPlan::crash_at(seed, point));
            let acked = run_workload(&dir, io, &profiles);
            assert!(handle.crashed(), "{ctx}: the crash point must fire");
            assert!(acked.len() < INGESTS, "{ctx}: crash must cut the workload");

            // Byte-reproducibility: the same (seed, point) replayed into a
            // fresh directory leaves the identical post-crash bytes.
            if point % 5 == 0 {
                let dir2 = temp_dir("crash-replay");
                let (io2, _) = FaultIo::with_plan(FaultPlan::crash_at(seed, point));
                let acked2 = run_workload(&dir2, io2, &profiles);
                assert_eq!(acked, acked2, "{ctx}: replay acked differently");
                assert_eq!(
                    dir_bytes(&dir),
                    dir_bytes(&dir2),
                    "{ctx}: post-crash bytes not reproducible from the seed"
                );
                let _ = std::fs::remove_dir_all(&dir2);
            }

            // The first open truncates a torn tail and skips its id; a
            // second open, with no ingest in between, hands out none of
            // the ids the first one skipped.
            let first = verify_recovery(&dir, &acked, &profiles, &ctx);
            let skipped_to = first.next_run_id();
            drop(first);
            let mut store = verify_recovery(&dir, &acked, &profiles, &ctx);
            assert!(
                store.next_run_id() >= skipped_to,
                "{ctx}: second open hands out id {} again (first open: {skipped_to})",
                store.next_run_id()
            );
            // The recovered log accepts appends again with a fresh id.
            let max_acked = acked.iter().map(|&(id, _)| id).max().unwrap_or(0);
            let receipt = store
                .ingest("torture", 2, 999, &profiles[0])
                .unwrap_or_else(|e| panic!("{ctx}: post-recovery ingest: {e}"));
            assert!(
                receipt.run_id > max_acked,
                "{ctx}: recycled id {} (max acked {max_acked})",
                receipt.run_id
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(
        iterations >= 200,
        "acceptance floor: need >= 200 crash iterations, ran {iterations}"
    );
}

#[test]
fn transient_enospc_fails_the_ingest_but_corrupts_nothing() {
    let profiles = workload_profiles();
    let dir = temp_dir("enospc");
    // Ops (sync off): 0 create_new, 1 magic write, then one frame write
    // per ingest. Fail the write of the third ingest (op 4).
    let (io, _handle) = FaultIo::with_plan(FaultPlan::fail_at(42, 4, FaultKind::Enospc));
    let mut store = ProfileStore::open_with_io(&dir, StoreConfig::default(), io).expect("open");
    let a = store.ingest("torture", 2, 0, &profiles[0]).expect("ingest");
    let b = store.ingest("torture", 2, 1, &profiles[1]).expect("ingest");
    let err = store
        .ingest("torture", 2, 2, &profiles[2])
        .expect_err("injected enospc");
    match &err {
        StoreError::Io(e) => assert!(is_enospc(e), "{e}"),
        other => panic!("expected Io(ENOSPC), got {other:?}"),
    }
    // The disk "recovered": the very next ingest succeeds in place.
    let c = store.ingest("torture", 2, 3, &profiles[3]).expect("ingest");
    assert!(c.run_id > b.run_id);
    drop(store);
    // The append repair truncated the torn frame, so the reopen is clean:
    // no recovered tail, every acked run present.
    let store = ProfileStore::open(&dir).expect("reopen");
    assert_eq!(store.recovered_tail_bytes(), 0, "repair left a torn tail");
    assert_eq!(store.len(), 3);
    for receipt in [a, b, c] {
        store.load(receipt.run_id).expect("acked run present");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistently_full_disk_never_loses_acked_runs() {
    let profiles = workload_profiles();
    let dir = temp_dir("armed");
    let (io, handle) = FaultIo::with_plan(FaultPlan::observe());
    let mut store = ProfileStore::open_with_io(&dir, StoreConfig::default(), io).expect("open");
    let mut acked = Vec::new();
    for (i, profile) in profiles.iter().enumerate().take(3) {
        let r = store
            .ingest("torture", 2, i as u64, profile)
            .expect("ingest");
        acked.push((r.run_id, i));
    }
    handle.arm(FaultKind::Eio);
    for (i, profile) in profiles.iter().enumerate().take(6).skip(3) {
        assert!(
            store.ingest("torture", 2, i as u64, profile).is_err(),
            "armed fault must fail ingest {i}"
        );
    }
    handle.disarm();
    let r = store
        .ingest("torture", 2, 6, &profiles[6])
        .expect("recovered ingest");
    acked.push((r.run_id, 6));
    drop(store);
    verify_recovery(&dir, &acked, &profiles, "armed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stamps of the id-mark workload, by ingest slot: the third run is the
/// newest id but the oldest stamp, so [`drop_the_newest`] removes it.
const MARK_STAMPS: [u64; 4] = [200, 300, 100, 400];

fn drop_the_newest() -> RetentionPolicy {
    RetentionPolicy {
        keep_last: None,
        min_timestamp_ns: Some(150),
    }
}

/// Ingest three runs, GC the newest, ingest a fourth, stopping at the
/// first failure. Returns the acked (run id, slot) receipts, the dropped
/// run's included.
fn run_gc_newest_workload(
    dir: &std::path::Path,
    io: std::sync::Arc<dyn profstore::StoreIo>,
    profiles: &[Profile],
) -> Vec<(u64, usize)> {
    let mut acked = Vec::new();
    let Ok(mut store) = ProfileStore::open_with_io(dir, torture_config(), io) else {
        return acked;
    };
    for slot in 0..MARK_STAMPS.len() {
        if slot == 3 && store.gc(&drop_the_newest()).is_err() {
            break;
        }
        match store.ingest("torture", 2, MARK_STAMPS[slot], &profiles[slot]) {
            Ok(receipt) => acked.push((receipt.run_id, slot)),
            Err(_) => break,
        }
    }
    acked
}

#[test]
fn crash_around_a_gc_of_the_newest_run_never_recycles_its_id() {
    let profiles = workload_profiles();
    let dir = temp_dir("mark-observe");
    let (io, handle) = FaultIo::with_plan(FaultPlan::observe());
    let acked = run_gc_newest_workload(&dir, io, &profiles);
    assert_eq!(
        acked.len(),
        MARK_STAMPS.len(),
        "fault-free workload acks all"
    );
    let total_ops = handle.ops();
    let _ = std::fs::remove_dir_all(&dir);

    for &seed in &torture_seeds() {
        for point in 0..total_ops {
            let ctx = format!("seed {seed} point {point}");
            let dir = temp_dir("mark-crash");
            let (io, handle) = FaultIo::with_plan(FaultPlan::crash_at(seed, point));
            let acked = run_gc_newest_workload(&dir, io, &profiles);
            assert!(handle.crashed(), "{ctx}: the crash point must fire");

            // The first open truncates a torn tail and skips its id; the
            // second sees what a later restart would, and hands out none
            // of the ids the first one skipped.
            let first =
                ProfileStore::open(&dir).unwrap_or_else(|e| panic!("{ctx}: recovering open: {e}"));
            let skipped_to = first.next_run_id();
            drop(first);
            let mut store =
                ProfileStore::open(&dir).unwrap_or_else(|e| panic!("{ctx}: second open: {e}"));
            assert!(
                store.next_run_id() >= skipped_to,
                "{ctx}: second open hands out id {} again (first open: {skipped_to})",
                store.next_run_id()
            );
            for &(run_id, slot) in &acked {
                if MARK_STAMPS[slot] < 150 {
                    continue; // the run the sweep drops
                }
                let (meta, _) = store
                    .load(run_id)
                    .unwrap_or_else(|e| panic!("{ctx}: acked run {run_id} lost: {e}"));
                assert_eq!(meta.timestamp_ns, MARK_STAMPS[slot], "{ctx}: run {run_id}");
            }
            // No id ever acked is handed out again, the dropped run's
            // included.
            let max_acked = acked.iter().map(|&(id, _)| id).max().unwrap_or(0);
            let receipt = store
                .ingest("torture", 2, 999, &profiles[0])
                .unwrap_or_else(|e| panic!("{ctx}: post-recovery ingest: {e}"));
            assert!(
                receipt.run_id > max_acked,
                "{ctx}: recycled id {} (max acked {max_acked})",
                receipt.run_id
            );
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ---------------------------------------------------------------------------
// Replicated sharded repository torture: the same crash-at-every-point
// discipline, but against a leader/follower pair — first crashing the
// leader mid-workload (EXPORT streaming interleaved with the retention
// sweep), then crashing the follower at every APPLY-side mutating op.
// ---------------------------------------------------------------------------

const SHARD_COUNT: u32 = 2;
/// Ingest slot after which the leader workload runs its retention sweep.
const GC_AT: usize = 20;
/// Retention cutoff (timestamps are ingest slots): slots below it are
/// GC-eligible, everything at or above must survive any sweep.
const GC_CUTOFF_NS: u64 = 10;

fn retention() -> RetentionPolicy {
    RetentionPolicy {
        keep_last: None,
        min_timestamp_ns: Some(GC_CUTOFF_NS),
    }
}

/// Config for the non-faulted side of a pair: same tiny segments (so
/// GC and rotation still happen), but buffered writes for speed.
fn replica_config() -> StoreConfig {
    StoreConfig {
        segment_max_bytes: 600,
        sync_writes: false,
    }
}

/// Open every shard directory directly and assert global run-id
/// uniqueness (the across-shard collision a routed apply must never
/// produce; missing shard dirs just mean the crash preceded them).
fn assert_unique_ids(dir: &std::path::Path, ctx: &str) {
    let mut ids = Vec::new();
    for k in 0..SHARD_COUNT {
        let shard_dir = dir.join(format!("shard-{k:03}"));
        if !shard_dir.exists() {
            continue;
        }
        let store = ProfileStore::open(&shard_dir)
            .unwrap_or_else(|e| panic!("{ctx}: shard {k} failed recovery: {e}"));
        ids.extend(store.index().iter().map(|e| e.run_id));
    }
    let unique: HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(ids.len(), unique.len(), "{ctx}: duplicate run ids: {ids:?}");
}

/// Deterministic query answers (every group with its aggregate) — the
/// lines a replica pair must agree on byte-for-byte. A macro, so a
/// `ShardedStore` and a `Repo` of either shape are asked alike.
macro_rules! query_lines {
    ($store:expr) => {{
        let store = $store;
        store
            .groups()
            .iter()
            .map(|((bench, threads), runs)| {
                let agg = store
                    .aggregate_window(bench, *threads, &RunWindow::default())
                    .unwrap_or_else(|e| panic!("aggregate {bench}/{threads}: {e}"));
                format!("{bench}/{threads}: {runs} runs, {agg:?}")
            })
            .collect::<Vec<String>>()
    }};
}

/// Pump the replication stream leader → follower to completion, both
/// sides on the real filesystem.
fn resync(leader: &ShardedStore, follower: &ShardedStore, ctx: &str) {
    let mut cursor = follower.max_run_id();
    loop {
        let batch = leader
            .export_frames(cursor, 4)
            .unwrap_or_else(|e| panic!("{ctx}: export: {e}"));
        for frame in &batch.frames {
            follower
                .apply_frame(frame)
                .unwrap_or_else(|e| panic!("{ctx}: re-sync apply: {e}"));
        }
        cursor = batch.watermark;
        if batch.done {
            break;
        }
    }
}

/// The leader-side workload: ingest every profile into the sharded
/// leader through `io`, ship one replication page to the real-filesystem
/// follower every fourth ingest, and run the retention sweep once
/// mid-stream. Returns the acked (run id, slot) receipts and whether
/// the sweep was reached (acked receipts below the cutoff are
/// legitimately GC-eligible from that moment on).
fn run_replicated_workload(
    leader_dir: &std::path::Path,
    io: std::sync::Arc<dyn profstore::StoreIo>,
    profiles: &[Profile],
    follower: &ShardedStore,
) -> (Vec<(u64, usize)>, bool) {
    let mut acked = Vec::new();
    let mut gc_attempted = false;
    let Ok(leader) = ShardedStore::open_with_io(leader_dir, SHARD_COUNT, torture_config(), io)
    else {
        return (acked, gc_attempted); // crashed during open
    };
    let mut cursor = follower.max_run_id();
    for (i, p) in profiles.iter().enumerate() {
        match leader.ingest(&format!("torture-{}", i % 3), 2, i as u64, p) {
            Ok(receipt) => acked.push((receipt.run_id, i)),
            Err(_) => break,
        }
        if i == GC_AT {
            gc_attempted = true;
            if leader.gc(&retention()).is_err() {
                break;
            }
        }
        if i % 4 == 3 {
            // Exports are reads and survive the crash; stop shipping
            // only when the faulted leader can no longer serve one.
            let Ok(batch) = leader.export_frames(cursor, 4) else {
                break;
            };
            for frame in &batch.frames {
                follower.apply_frame(frame).expect("real-io follower apply");
            }
            cursor = batch.watermark;
        }
    }
    (acked, gc_attempted)
}

#[test]
fn leader_crash_during_replicated_gc_workload_loses_no_acked_run() {
    let profiles = workload_profiles();

    // Pass 1: count the leader's mutating operations with no faults.
    let leader_dir = temp_dir("repl-observe");
    let follower_dir = temp_dir("repl-observe-f");
    let follower = ShardedStore::open_with(&follower_dir, SHARD_COUNT, replica_config())
        .expect("observe follower");
    let (io, handle) = FaultIo::with_plan(FaultPlan::observe());
    let (acked, gc_attempted) = run_replicated_workload(&leader_dir, io, &profiles, &follower);
    assert_eq!(acked.len(), INGESTS, "fault-free workload acks everything");
    assert!(gc_attempted, "fault-free workload reaches the sweep");
    let total_ops = handle.ops();
    assert!(
        total_ops >= 67,
        "workload too small to satisfy the 200-iteration floor: {total_ops} ops"
    );
    drop(follower);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);

    // Pass 2: crash the leader at every point, for every seed.
    let seeds = torture_seeds();
    let mut iterations = 0u64;
    for &seed in &seeds {
        for point in 0..total_ops {
            iterations += 1;
            let ctx = format!("leader seed {seed} point {point}");
            let leader_dir = temp_dir("repl-crash");
            let follower_dir = temp_dir("repl-crash-f");
            let follower = ShardedStore::open_with(&follower_dir, SHARD_COUNT, replica_config())
                .unwrap_or_else(|e| panic!("{ctx}: follower open: {e}"));
            let (io, handle) = FaultIo::with_plan(FaultPlan::crash_at(seed, point));
            let (acked, gc_attempted) =
                run_replicated_workload(&leader_dir, io, &profiles, &follower);
            assert!(handle.crashed(), "{ctx}: the crash point must fire");
            assert!(acked.len() < INGESTS, "{ctx}: crash must cut the workload");

            // Durability: no duplicate id in any shard, and every acked
            // run the sweep could not have dropped is present with its
            // exact payload.
            assert_unique_ids(&leader_dir, &ctx);
            let leader = ShardedStore::open(&leader_dir, SHARD_COUNT)
                .unwrap_or_else(|e| panic!("{ctx}: recovering open: {e}"));
            for &(run_id, slot) in &acked {
                if gc_attempted && (slot as u64) < GC_CUTOFF_NS {
                    continue; // legitimately GC-eligible
                }
                let (meta, profile) = leader
                    .load(run_id)
                    .unwrap_or_else(|e| panic!("{ctx}: acked run {run_id} lost: {e}"));
                assert_eq!(meta.timestamp_ns, slot as u64, "{ctx}: run {run_id} meta");
                assert_eq!(
                    profile.threads[0].main, profiles[slot].threads[0].main,
                    "{ctx}: run {run_id} payload"
                );
            }

            // Recovery: finish the sweep on both sides, re-sync, and
            // the replicas must answer every query byte-identically.
            leader
                .gc(&retention())
                .unwrap_or_else(|e| panic!("{ctx}: leader gc: {e}"));
            resync(&leader, &follower, &ctx);
            follower
                .gc(&retention())
                .unwrap_or_else(|e| panic!("{ctx}: follower gc: {e}"));
            assert_eq!(leader.len(), follower.len(), "{ctx}: replica sizes diverge");
            assert_eq!(
                leader.max_run_id(),
                follower.max_run_id(),
                "{ctx}: cursors diverge"
            );
            assert_eq!(
                query_lines!(&leader),
                query_lines!(&follower),
                "{ctx}: replica answers diverge"
            );

            drop(leader);
            drop(follower);
            let _ = std::fs::remove_dir_all(&leader_dir);
            let _ = std::fs::remove_dir_all(&follower_dir);
        }
    }
    assert!(
        iterations >= 200,
        "acceptance floor: need >= 200 crash iterations, ran {iterations}"
    );
}

/// Frames per page of the follower sweep's pump: with the tiny segments
/// of [`torture_config`], every page crosses a segment rotation.
const PAGE: usize = 8;

/// Open a follower of `shards` shards in `dir` through `io`; 0 shards
/// is a single store.
fn open_follower(
    dir: &std::path::Path,
    shards: u32,
    io: std::sync::Arc<dyn profstore::StoreIo>,
) -> Result<Repo, StoreError> {
    if shards == 0 {
        ProfileStore::open_with_io(dir, torture_config(), io).map(Repo::from)
    } else {
        ShardedStore::open_with_io(dir, shards, torture_config(), io).map(Repo::from)
    }
}

/// Pump pages into a (possibly faulted) follower, each with one page
/// apply, until the stream completes or a page stops short; returns the
/// ids the follower acked as applied.
fn pump_until_failure(leader: &Repo, follower: &mut Repo) -> Vec<u64> {
    let mut acked = Vec::new();
    let mut cursor = follower.max_run_id();
    loop {
        let batch = leader.export_frames(cursor, PAGE).expect("real-io export");
        let page = follower.apply_frames(&batch.frames);
        acked.extend(page.applied.iter().map(|r| r.run_id));
        // A page error is the crash point (or its aftermath).
        if page.error.is_some() || batch.done {
            break;
        }
        cursor = batch.watermark;
    }
    acked
}

/// The replication stream `store` serves from the start, page by page.
fn export_stream(store: &Repo) -> Vec<ExportBatch> {
    let mut pages = Vec::new();
    let mut cursor = 0;
    loop {
        let batch = store.export_frames(cursor, PAGE).expect("export");
        cursor = batch.watermark;
        let done = batch.done;
        pages.push(batch);
        if done {
            return pages;
        }
    }
}

/// Every run id `store` holds, in the order its export streams them.
fn held_ids(store: &Repo) -> Vec<u64> {
    let batch = store.export_frames(0, usize::MAX).expect("export");
    batch
        .frames
        .iter()
        .map(|f| {
            let frame = profstore::frame::check(f, MAX_RECORD_BYTES).expect("exported frame");
            decode_meta(frame.payload())
                .expect("exported record")
                .run_id
        })
        .collect()
}

/// A single and a sharded follower, each crashed at every mutating
/// operation of a page-by-page pump. After every crash the reopened
/// follower holds an ascending prefix of the leader's ids with no id
/// twice — a crash mid-page leaves a prefix of the page — and a resumed
/// pump leaves it serving the leader's export stream byte for byte and
/// the leader's query answers line for line. The
/// fault-free pump writes the files the per-frame path writes.
#[test]
fn follower_crash_at_every_apply_point_loses_no_acked_frame() {
    let profiles = workload_profiles();

    // A fixed, real-filesystem leader shared by every iteration.
    let leader_dir = temp_dir("fapply-leader");
    let mut leader = Repo::from(
        ShardedStore::open_with(&leader_dir, SHARD_COUNT, replica_config()).expect("leader"),
    );
    for (i, p) in profiles.iter().enumerate() {
        leader
            .ingest(&format!("torture-{}", i % 3), 2, i as u64, p)
            .expect("leader ingest");
    }
    let leader_ids = held_ids(&leader);
    let leader_stream = export_stream(&leader);
    let leader_frames = leader.export_frames(0, usize::MAX).expect("export").frames;
    let leader_answers = query_lines!(&leader);
    assert_eq!(leader_ids.len(), INGESTS);

    let seeds = torture_seeds();
    let mut iterations = 0u64;
    for shards in [0, SHARD_COUNT] {
        let shape = format!("{shards}-shard follower");

        // Pass 1: count the follower's mutating operations over a full
        // pump, and hold its files against the per-frame path's.
        let follower_dir = temp_dir("fapply-observe");
        let (io, handle) = FaultIo::with_plan(FaultPlan::observe());
        let mut follower = open_follower(&follower_dir, shards, io).expect("observe follower");
        let acked = pump_until_failure(&leader, &mut follower);
        assert_eq!(
            acked, leader_ids,
            "{shape}: fault-free pump applies everything"
        );
        drop(follower);
        let total_ops = handle.ops();
        let per_frame_dir = temp_dir("fapply-per-frame");
        let mut per_frame =
            open_follower(&per_frame_dir, shards, RealIo::handle()).expect("per-frame follower");
        for frame in &leader_frames {
            per_frame.apply_frame(frame).expect("per-frame apply");
        }
        drop(per_frame);
        assert!(
            dir_bytes(&follower_dir) == dir_bytes(&per_frame_dir),
            "{shape}: the page apply wrote other files than the per-frame apply"
        );
        let _ = std::fs::remove_dir_all(&follower_dir);
        let _ = std::fs::remove_dir_all(&per_frame_dir);

        // Pass 2: crash the follower at every apply-side point, every seed.
        for &seed in &seeds {
            for point in 0..total_ops {
                iterations += 1;
                let ctx = format!("{shape} seed {seed} point {point}");
                let follower_dir = temp_dir("fapply-crash");
                let (io, handle) = FaultIo::with_plan(FaultPlan::crash_at(seed, point));
                let acked = match open_follower(&follower_dir, shards, io) {
                    Ok(mut follower) => pump_until_failure(&leader, &mut follower),
                    Err(_) => Vec::new(), // crashed during open
                };
                assert!(handle.crashed(), "{ctx}: the crash point must fire");
                assert!(acked.len() < INGESTS, "{ctx}: crash must cut the pump");

                // Durability: an ascending prefix of the leader's ids, no
                // id twice (in any shard), every acked frame in it.
                if shards > 0 {
                    assert_unique_ids(&follower_dir, &ctx);
                }
                let mut follower = open_follower(&follower_dir, shards, RealIo::handle())
                    .unwrap_or_else(|e| panic!("{ctx}: recovering open: {e}"));
                let held = held_ids(&follower);
                assert!(
                    leader_ids.starts_with(&held),
                    "{ctx}: the follower holds {held:?}, no prefix of the leader's ids"
                );
                assert!(
                    held.starts_with(&acked),
                    "{ctx}: acked {acked:?} but the follower holds {held:?}"
                );

                // Re-sync from the recovered cursor: exactly-once, and the
                // follower serves the leader's stream byte for byte.
                let resumed = pump_until_failure(&leader, &mut follower);
                assert_eq!(resumed, leader_ids[held.len()..], "{ctx}: the resumed pump");
                assert!(
                    export_stream(&follower) == leader_stream,
                    "{ctx}: the follower's export stream differs from the leader's"
                );
                // ... and answers every query as the leader does, through
                // its index and aggregate cache rebuilt by the recovery.
                assert_eq!(
                    follower.max_run_id(),
                    leader.max_run_id(),
                    "{ctx}: cursors diverge"
                );
                assert_eq!(
                    query_lines!(&follower),
                    leader_answers,
                    "{ctx}: replica answers diverge"
                );
                drop(follower);
                let _ = std::fs::remove_dir_all(&follower_dir);
            }
        }
    }
    assert!(
        iterations >= 200,
        "acceptance floor: need >= 200 crash iterations, ran {iterations}"
    );
    drop(leader);
    let _ = std::fs::remove_dir_all(&leader_dir);
}
