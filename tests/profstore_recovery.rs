//! Crash-safety of the profile repository's segment log: a write torn
//! mid-record (the moral equivalent of `kill -9` during `INGEST`) must
//! cost at most the in-flight record — every previously acknowledged run
//! survives, byte-exact, and the store keeps accepting ingests.

use pomp::{registry, RegionKind, TaskIdAllocator};
use profstore::{ProfileStore, RetentionPolicy, ShardedStore, StoreConfig, StoreError};
use std::path::PathBuf;
use taskprof::{AssignPolicy, Event, Profile, TeamReplayer};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "profstore-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn deterministic_profile(tag: &str, task_ns: u64) -> Profile {
    let reg = registry();
    let par = reg.register(&format!("rec-{tag}-par"), RegionKind::Parallel, "t", 0);
    let task = reg.register(&format!("rec-{tag}-task"), RegionKind::Task, "t", 0);
    let ids = TaskIdAllocator::new();
    let mut team = TeamReplayer::new(2, par, AssignPolicy::Executing);
    let id = ids.alloc();
    team.apply(0, Event::TaskBegin { region: task, id })
        .advance(task_ns)
        .apply(0, Event::TaskEnd { region: task, id });
    team.finish()
}

fn last_segment(dir: &std::path::Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "log").unwrap_or(false))
        .collect();
    segments.sort();
    segments.pop().expect("at least one segment")
}

#[test]
fn torn_tail_record_is_truncated_and_earlier_runs_survive() {
    let dir = temp_dir("torn-tail");
    let ingested: Vec<(u64, Profile)> = {
        let mut store = ProfileStore::open(&dir).expect("open");
        (0..5u64)
            .map(|k| {
                let p = deterministic_profile("a", 100 + k * 10);
                let receipt = store
                    .ingest("recovery-bench", 2, 1_000 + k, &p)
                    .expect("ingest");
                (receipt.run_id, p)
            })
            .collect()
    };

    // Tear the final frame: chop a few bytes off the end of the active
    // segment, as a crash mid-write would.
    let seg = last_segment(&dir);
    let len = std::fs::metadata(&seg).expect("metadata").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("open segment");
    file.set_len(len - 3).expect("truncate");
    drop(file);

    let store = ProfileStore::open(&dir).expect("recovering open succeeds");
    assert!(
        store.stats().recovered_tail_bytes > 0,
        "recovery must report the dropped tail"
    );
    // Exactly the in-flight (last) record is gone.
    assert_eq!(store.stats().runs, ingested.len() as u64 - 1);
    for (run_id, original) in &ingested[..ingested.len() - 1] {
        let (meta, loaded) = store.load(*run_id).expect("survivor loads");
        assert_eq!(meta.run_id, *run_id);
        assert_eq!(meta.benchmark, "recovery-bench");
        assert_eq!(
            cube::write_profile(&loaded),
            cube::write_profile(original),
            "run {run_id} must round-trip byte-exact through recovery"
        );
    }
    let lost = ingested.last().expect("had runs").0;
    assert!(matches!(store.load(lost), Err(StoreError::NotFound(_))));
}

#[test]
fn recovered_store_keeps_ingesting_and_reuses_no_run_id() {
    let dir = temp_dir("reingest");
    {
        let mut store = ProfileStore::open(&dir).expect("open");
        for k in 0..3u64 {
            store
                .ingest("reingest-bench", 2, k, &deterministic_profile("b", 50 + k))
                .expect("ingest");
        }
    }
    let seg = last_segment(&dir);
    let len = std::fs::metadata(&seg).expect("metadata").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("open segment")
        .set_len(len - 1)
        .expect("truncate");

    let mut store = ProfileStore::open(&dir).expect("recovering open");
    let before = store.stats().runs;
    let receipt = store
        .ingest("reingest-bench", 2, 99, &deterministic_profile("b", 500))
        .expect("post-recovery ingest");
    assert_eq!(store.stats().runs, before + 1);
    // The truncated run's id is never recycled: ids stay unique for the
    // lifetime of the directory, so external references cannot alias.
    assert!(receipt.run_id > 3, "run id {} was recycled", receipt.run_id);

    // And a clean reopen sees everything the recovered store wrote.
    drop(store);
    let store = ProfileStore::open(&dir).expect("clean reopen");
    assert_eq!(store.stats().recovered_tail_bytes, 0);
    assert_eq!(store.stats().runs, before + 1);
}

#[test]
fn zero_length_final_segment_recovers_with_a_fresh_header() {
    let dir = temp_dir("zero-final");
    {
        // Tiny segments force rotation so earlier runs live in closed
        // segments that must survive untouched.
        let mut store = ProfileStore::open_with(
            &dir,
            StoreConfig {
                segment_max_bytes: 1,
                sync_writes: false,
            },
        )
        .expect("open");
        for k in 0..3u64 {
            store
                .ingest("zero-bench", 2, k, &deterministic_profile("z", 40 + k))
                .expect("ingest");
        }
    }
    // Simulate a crash between segment creation and the magic write
    // during rotation: the final segment exists but is empty.
    let seg = last_segment(&dir);
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .expect("open segment")
        .set_len(0)
        .expect("truncate to zero");

    let mut store = ProfileStore::open(&dir).expect("recovering open");
    assert_eq!(store.stats().runs, 2, "closed-segment runs survive");
    let receipt = store
        .ingest("zero-bench", 2, 99, &deterministic_profile("z", 400))
        .expect("post-recovery ingest");

    // The recovered segment got its header back: records appended after
    // recovery survive the next open instead of being discarded behind a
    // missing magic.
    drop(store);
    let store = ProfileStore::open(&dir).expect("clean reopen");
    assert_eq!(store.stats().recovered_tail_bytes, 0);
    assert_eq!(store.stats().runs, 3);
    store.load(receipt.run_id).expect("post-recovery run loads");
}

#[test]
fn corruption_in_a_closed_segment_is_an_error_not_a_silent_drop() {
    let dir = temp_dir("closed-corrupt");
    {
        // Tiny segments force rotation, producing closed segments.
        let mut store = ProfileStore::open_with(
            &dir,
            StoreConfig {
                segment_max_bytes: 1,
                sync_writes: false,
            },
        )
        .expect("open");
        for k in 0..3u64 {
            store
                .ingest("closed-bench", 2, k, &deterministic_profile("c", 70 + k))
                .expect("ingest");
        }
    }
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "log").unwrap_or(false))
        .collect();
    segments.sort();
    assert!(segments.len() >= 2, "rotation should have closed a segment");
    let closed = &segments[0];
    let len = std::fs::metadata(closed).expect("metadata").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(closed)
        .expect("open closed segment")
        .set_len(len - 2)
        .expect("truncate");

    // A torn tail is only legal in the *last* segment; damage anywhere
    // else means lost acknowledged data and must refuse to open quietly.
    match ProfileStore::open_with(
        &dir,
        StoreConfig {
            segment_max_bytes: 1,
            sync_writes: false,
        },
    ) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// Drops every run stamped before 150: of runs stamped 200, 300 and 100,
/// the newest.
fn drop_the_newest() -> RetentionPolicy {
    RetentionPolicy {
        keep_last: None,
        min_timestamp_ns: Some(150),
    }
}

#[test]
fn a_sharded_store_hands_out_no_id_a_dropped_run_held_after_a_reopen() {
    let dir = temp_dir("sharded-id-mark");
    {
        let store = ShardedStore::open(&dir, 2).expect("open");
        // Three benchmarks, so the runs spread over the shards.
        for (bench, ts) in [("fib", 200), ("nqueens", 300), ("sort", 100)] {
            store
                .ingest(bench, 2, ts, &deterministic_profile("shard-mark", ts))
                .expect("ingest");
        }
        assert_eq!(store.gc(&drop_the_newest()).expect("gc").dropped_runs, 1);
        assert_eq!(store.max_run_id(), 2);
    }
    let store = ShardedStore::open(&dir, 2).expect("reopen");
    assert_eq!(store.next_run_id(), 4);
    let receipt = store
        .ingest("sort", 2, 400, &deterministic_profile("shard-mark", 400))
        .expect("ingest after reopen");
    assert_eq!(receipt.run_id, 4);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_follower_past_a_dropped_id_receives_the_next_run() {
    let leader_dir = temp_dir("mark-leader");
    let follower_dir = temp_dir("mark-follower");
    let mut follower = ProfileStore::open(&follower_dir).expect("follower");
    let pump = |leader: &ProfileStore, follower: &mut ProfileStore| {
        let batch = leader
            .export_frames(follower.max_run_id(), 100)
            .expect("export");
        assert!(batch.done);
        batch
            .frames
            .iter()
            .filter_map(|f| follower.apply_frame(f).expect("apply"))
            .map(|receipt| receipt.run_id)
            .collect::<Vec<u64>>()
    };
    {
        let mut leader = ProfileStore::open(&leader_dir).expect("leader");
        for ts in [200, 300, 100] {
            leader
                .ingest("fib", 2, ts, &deterministic_profile("mark-repl", ts))
                .expect("ingest");
        }
        assert_eq!(pump(&leader, &mut follower), [1, 2, 3]);
        assert_eq!(leader.gc(&drop_the_newest()).expect("gc").dropped_runs, 1);
    }
    // The follower's cursor is 3. Were the leader to reuse id 3 after its
    // reopen, the follower would skip the new run as already applied.
    let mut leader = ProfileStore::open(&leader_dir).expect("reopen leader");
    let receipt = leader
        .ingest("fib", 2, 400, &deterministic_profile("mark-repl", 400))
        .expect("ingest after reopen");
    assert_eq!(receipt.run_id, 4);
    assert_eq!(pump(&leader, &mut follower), [4]);
    let (meta, _) = follower.load(4).expect("the follower holds the new run");
    assert_eq!(meta.timestamp_ns, 400);
    drop(leader);
    drop(follower);
    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}
