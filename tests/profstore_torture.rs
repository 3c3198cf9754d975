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
    is_enospc, FaultIo, FaultKind, FaultPlan, ProfileStore, RetentionPolicy, RunWindow,
    ShardedStore, StoreConfig, StoreError,
};
use std::collections::HashSet;
use std::path::PathBuf;
use taskprof::{AssignPolicy, Event, Profile, TeamReplayer};

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

/// Every file in `dir` with its bytes, sorted by name.
fn dir_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read_dir")
        .filter_map(|e| e.ok())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).expect("read file");
            (name, bytes)
        })
        .collect();
    out.sort();
    out
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
/// lines a replica pair must agree on byte-for-byte.
fn sharded_query_lines(store: &ShardedStore) -> Vec<String> {
    store
        .groups()
        .iter()
        .map(|((bench, threads), runs)| {
            let agg = store
                .aggregate_window(bench, *threads, &RunWindow::default())
                .unwrap_or_else(|e| panic!("aggregate {bench}/{threads}: {e}"));
            format!("{bench}/{threads}: {runs} runs, {agg:?}")
        })
        .collect()
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
                sharded_query_lines(&leader),
                sharded_query_lines(&follower),
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

/// Pump pages into a (possibly faulted) follower until the stream
/// completes or the first apply fails; returns the acked applied ids.
fn pump_until_failure(leader: &ShardedStore, follower: &ShardedStore) -> Vec<u64> {
    let mut acked = Vec::new();
    let mut cursor = follower.max_run_id();
    'outer: loop {
        let batch = leader.export_frames(cursor, 4).expect("real-io export");
        for frame in &batch.frames {
            match follower.apply_frame(frame) {
                Ok(Some(receipt)) => acked.push(receipt.run_id),
                Ok(None) => {}
                Err(_) => break 'outer, // the crash point (or aftermath)
            }
        }
        cursor = batch.watermark;
        if batch.done {
            break;
        }
    }
    acked
}

#[test]
fn follower_crash_at_every_apply_point_loses_no_acked_frame() {
    let profiles = workload_profiles();

    // A fixed, real-filesystem leader shared by every iteration.
    let leader_dir = temp_dir("fapply-leader");
    let leader =
        ShardedStore::open_with(&leader_dir, SHARD_COUNT, replica_config()).expect("leader");
    let mut slot_of = std::collections::BTreeMap::new();
    for (i, p) in profiles.iter().enumerate() {
        let r = leader
            .ingest(&format!("torture-{}", i % 3), 2, i as u64, p)
            .expect("leader ingest");
        slot_of.insert(r.run_id, i);
    }

    // Pass 1: count the follower's mutating operations over a full pump.
    let follower_dir = temp_dir("fapply-observe");
    let (io, handle) = FaultIo::with_plan(FaultPlan::observe());
    {
        let follower = ShardedStore::open_with_io(&follower_dir, SHARD_COUNT, torture_config(), io)
            .expect("observe follower");
        let acked = pump_until_failure(&leader, &follower);
        assert_eq!(acked.len(), INGESTS, "fault-free pump applies everything");
    }
    let total_ops = handle.ops();
    assert!(
        total_ops >= 67,
        "pump too small to satisfy the 200-iteration floor: {total_ops} ops"
    );
    let _ = std::fs::remove_dir_all(&follower_dir);

    // Pass 2: crash the follower at every apply-side point, every seed.
    let seeds = torture_seeds();
    let mut iterations = 0u64;
    for &seed in &seeds {
        for point in 0..total_ops {
            iterations += 1;
            let ctx = format!("follower seed {seed} point {point}");
            let follower_dir = temp_dir("fapply-crash");
            let (io, handle) = FaultIo::with_plan(FaultPlan::crash_at(seed, point));
            let acked = match ShardedStore::open_with_io(
                &follower_dir,
                SHARD_COUNT,
                torture_config(),
                io,
            ) {
                Ok(follower) => pump_until_failure(&leader, &follower),
                Err(_) => Vec::new(), // crashed during open
            };
            assert!(handle.crashed(), "{ctx}: the crash point must fire");
            assert!(acked.len() < INGESTS, "{ctx}: crash must cut the pump");

            // Durability: unique ids, every acked frame present exactly.
            assert_unique_ids(&follower_dir, &ctx);
            let follower = ShardedStore::open(&follower_dir, SHARD_COUNT)
                .unwrap_or_else(|e| panic!("{ctx}: recovering open: {e}"));
            for &run_id in &acked {
                let slot = slot_of[&run_id];
                let (meta, profile) = follower
                    .load(run_id)
                    .unwrap_or_else(|e| panic!("{ctx}: acked frame {run_id} lost: {e}"));
                assert_eq!(meta.timestamp_ns, slot as u64, "{ctx}: frame {run_id} meta");
                assert_eq!(
                    profile.threads[0].main, profiles[slot].threads[0].main,
                    "{ctx}: frame {run_id} payload"
                );
            }

            // Re-sync from the recovered cursor: exactly-once, and the
            // replicas converge to byte-identical answers.
            resync(&leader, &follower, &ctx);
            assert_eq!(follower.len(), leader.len(), "{ctx}: replica sizes diverge");
            assert_eq!(
                follower.max_run_id(),
                leader.max_run_id(),
                "{ctx}: cursors diverge"
            );
            assert_eq!(
                sharded_query_lines(&leader),
                sharded_query_lines(&follower),
                "{ctx}: replica answers diverge"
            );
            drop(follower);
            let _ = std::fs::remove_dir_all(&follower_dir);
        }
    }
    assert!(
        iterations >= 200,
        "acceptance floor: need >= 200 crash iterations, ran {iterations}"
    );
    drop(leader);
    let _ = std::fs::remove_dir_all(&leader_dir);
}
