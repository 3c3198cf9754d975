//! The store's read path, counted and cornered: how many files a
//! windowed query or an export page opens, what an exported frame is,
//! what a damaged one does to the export, and a record without threads
//! that an older daemon let in.

use pomp::{registry, RegionKind, TaskIdAllocator};
use profserve::{
    Client, ClientError, ClientTimeouts, ErrorKind, ProfilePayload, Record, ServeConfig, Server,
    WireProtocol,
};
use profstore::{
    encode_record, ProfileStore, RealIo, RegressConfig, RunMeta, RunSummary, RunWindow,
    StoreConfig, StoreError, StoreFile, StoreIo, StoreRead,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use taskprof::{AssignPolicy, Event, Profile, TeamReplayer};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "profstore-read-path-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A one-thread run of one task; every such profile encodes to the same
/// number of bytes, so segments rotate at a known run count.
fn profile(task_ns: u64) -> Profile {
    let reg = registry();
    let par = reg.register("read-path!parallel", RegionKind::Parallel, "t", 0);
    let task = reg.register("read-path!task", RegionKind::Task, "t", 0);
    let ids = TaskIdAllocator::new();
    let mut team = TeamReplayer::new(1, par, AssignPolicy::Executing);
    let id = ids.alloc();
    team.apply(0, Event::TaskBegin { region: task, id })
        .advance(task_ns)
        .apply(0, Event::TaskEnd { region: task, id });
    team.finish()
}

// ---------------------------------------------------------------------
// A spy that overrides `open_read`
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct ReadCounts {
    opens: AtomicU64,
    reads: AtomicU64,
    path_reads: AtomicU64,
}

impl ReadCounts {
    /// (handles opened, reads through them, `read_range` calls) since
    /// the last take.
    fn take(&self) -> (u64, u64, u64) {
        (
            self.opens.swap(0, Ordering::SeqCst),
            self.reads.swap(0, Ordering::SeqCst),
            self.path_reads.swap(0, Ordering::SeqCst),
        )
    }
}

/// `RealIo` with every read handle and every read through one counted.
#[derive(Debug)]
struct SpyIo(Arc<ReadCounts>);

struct SpyRead<'a> {
    inner: Box<dyn StoreRead + 'a>,
    counts: &'a ReadCounts,
}

impl StoreRead for SpyRead<'_> {
    fn read_at(&self, offset: u64, len: usize, buf: &mut Vec<u8>) -> std::io::Result<()> {
        self.counts.reads.fetch_add(1, Ordering::SeqCst);
        self.inner.read_at(offset, len, buf)
    }
}

impl StoreIo for SpyIo {
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
        self.0.path_reads.fetch_add(1, Ordering::SeqCst);
        RealIo.read_range(path, offset, len)
    }
    fn open_read(&self, path: PathBuf) -> std::io::Result<Box<dyn StoreRead + '_>> {
        self.0.opens.fetch_add(1, Ordering::SeqCst);
        Ok(Box::new(SpyRead {
            inner: RealIo.open_read(path)?,
            counts: &self.0,
        }))
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

#[test]
fn a_window_opens_each_segment_once_and_reads_each_frame_once() {
    let dir = temp_dir("counts");
    let counts = Arc::new(ReadCounts::default());
    let frame_bytes = {
        let meta = RunMeta {
            run_id: 1,
            benchmark: "fib".to_string(),
            threads: 2,
            timestamp_ns: 1,
        };
        encode_record(&meta, &profile(1_000)).len() as u64 + profstore::RECORD_HEADER_BYTES
    };
    // Room for a little over 300 runs per segment.
    let config = StoreConfig {
        segment_max_bytes: 300 * (frame_bytes + 2),
        sync_writes: false,
    };
    let mut store = ProfileStore::open_with_io(&dir, config, Arc::new(SpyIo(Arc::clone(&counts))))
        .expect("open");
    // Fill segment 1, then put exactly 40 runs into segment 2.
    let mut stamp = 0u64;
    let mut ingest = |store: &mut ProfileStore| {
        stamp += 1;
        store
            .ingest("fib", 2, stamp, &profile(1_000 + stamp % 7))
            .expect("ingest")
            .segment
    };
    while ingest(&mut store) == 1 {}
    for _ in 1..40 {
        assert_eq!(ingest(&mut store), 2);
    }
    let total = store.len() as u64;
    assert!(total >= 256 + 40, "segment 1 holds {} runs", total - 40);
    counts.take();

    let window = |last| RunWindow {
        last: Some(last),
        since_ns: None,
    };
    let agg = store.aggregate_window("fib", 2, &window(32)).expect("fold");
    assert_eq!(agg.runs, 32);
    assert_eq!(counts.take(), (1, 32, 0), "last 32 runs sit in one segment");

    let agg = store.aggregate_window("fib", 2, &window(50)).expect("fold");
    assert_eq!(agg.runs, 50);
    assert_eq!(counts.take(), (2, 50, 0), "last 50 runs span two segments");

    let trend = store.trend("fib", 2, &window(32), 1).expect("trend");
    assert_eq!(trend[0].runs, 32);
    assert_eq!(
        counts.take(),
        (1, 32, 0),
        "a trend bucket reads like a fold"
    );

    let page = store.export_frames(total - 256, 256).expect("export");
    assert_eq!(page.frames.len(), 256);
    assert!(page.done);
    assert_eq!(
        counts.take(),
        (2, 256, 0),
        "an export page spanning two segments"
    );

    store.load(total).expect("load");
    assert_eq!(
        counts.take(),
        (1, 1, 0),
        "one load is one open and one read"
    );

    assert!(store.compact().expect("compact") > 0);
    assert_eq!(
        counts.take(),
        (1, total - 40, 0),
        "compaction reads segment 1 once"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Export ships the on-disk frame
// ---------------------------------------------------------------------

#[test]
fn exported_frames_are_the_leaders_on_disk_bytes() {
    let dir = temp_dir("export");
    let config = StoreConfig {
        segment_max_bytes: 600,
        sync_writes: false,
    };
    let mut store = ProfileStore::open_with(&dir, config).expect("open");
    for i in 0..12u64 {
        store
            .ingest("fib", 2, 10 + i, &profile(100 * (i + 1)))
            .expect("ingest");
    }
    assert!(
        store.stats().segments > 1,
        "the export must cross a segment"
    );
    let page = store.export_frames(0, 100).expect("export");
    assert_eq!(page.frames.len(), 12);
    assert_eq!(page.watermark, 12);
    let on_disk = |n: u64| std::fs::read(dir.join(format!("seg-{n:06}.log"))).expect("segment");
    for (frame, entry) in page.frames.iter().zip(store.index()) {
        let segment = on_disk(entry.segment);
        let at = entry.offset as usize;
        assert_eq!(frame.len() as u64, entry.bytes);
        assert_eq!(
            frame[..],
            segment[at..at + frame.len()],
            "run {}",
            entry.run_id
        );
    }

    // Flip one payload bit of run 2 on disk: the page holding it fails,
    // a page before it does not.
    let victim = store.index()[1].clone();
    let path = dir.join(format!("seg-{:06}.log", victim.segment));
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[victim.offset as usize + 9] ^= 0x10;
    std::fs::write(&path, &bytes).expect("write");
    assert_eq!(
        store
            .export_frames(0, 1)
            .expect("run 1 is intact")
            .frames
            .len(),
        1
    );
    match store.export_frames(0, 100) {
        Err(StoreError::Corrupt { detail, .. }) => assert_eq!(
            detail,
            format!("indexed record at offset {} unreadable", victim.offset)
        ),
        other => panic!("a damaged frame must fail the export, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frames_a_gc_rewrite_moved_are_read_at_their_new_offsets() {
    let dir = temp_dir("gc");
    let config = StoreConfig {
        segment_max_bytes: 600,
        sync_writes: false,
    };
    let mut store = ProfileStore::open_with(&dir, config).expect("open");
    for i in 0..12u64 {
        store
            .ingest("fib", 2, 10 + i, &profile(100 * (i + 1)))
            .expect("ingest");
    }
    let before: Vec<(u64, u64, u64)> = store
        .index()
        .iter()
        .map(|e| (e.run_id, e.segment, e.offset))
        .collect();
    let totals = |store: &ProfileStore| -> Vec<(u64, u64)> {
        store
            .index()
            .iter()
            .map(|e| {
                let (meta, p) = store.load(e.run_id).expect("load");
                assert_eq!(meta.timestamp_ns, e.timestamp_ns);
                (e.run_id, RunSummary::from_profile(&p).total_ns)
            })
            .collect()
    };
    let expected = totals(&store);
    // Dropping the oldest run shifts every later frame of its segment.
    let report = store
        .gc(&profstore::RetentionPolicy {
            keep_last: None,
            min_timestamp_ns: Some(11),
        })
        .expect("gc");
    assert_eq!(report.dropped_runs, 1);
    assert_eq!(report.rewritten_segments, 1);
    let moved = store
        .index()
        .iter()
        .filter(|e| !before.contains(&(e.run_id, e.segment, e.offset)))
        .count();
    assert!(moved > 0, "the rewrite moved no frame");
    assert_eq!(totals(&store), expected[1..]);
    assert_eq!(
        store.export_frames(0, 100).expect("export").frames.len(),
        11
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// A record without threads
// ---------------------------------------------------------------------

#[test]
fn a_stored_record_without_threads_poisons_nothing() {
    let dir = temp_dir("zero");
    let config = StoreConfig {
        segment_max_bytes: 1, // one record per segment: all but the last are closed
        sync_writes: false,
    };
    let mut store = ProfileStore::open_with(&dir, config).expect("open");
    store.ingest("fib", 2, 1, &profile(100)).expect("ingest");
    // What an older daemon accepted from a client and stored.
    store
        .ingest("fib", 2, 2, &Profile::default())
        .expect("the store itself takes it");
    store.ingest("fib", 2, 3, &profile(300)).expect("ingest");
    store.ingest("fib", 2, 4, &profile(500)).expect("ingest");

    let check = |store: &ProfileStore| {
        let agg = store.aggregate("fib", 2).expect("aggregate");
        assert_eq!(agg.runs, 4);
        assert_eq!(
            agg.total_ns.min(),
            Some(0),
            "the empty run counts as a zero total"
        );
        assert_eq!(agg.tree_mismatches, 0);
        let windowed = store
            .aggregate_window(
                "fib",
                2,
                &RunWindow {
                    last: Some(3),
                    since_ns: None,
                },
            )
            .expect("window");
        assert_eq!(windowed.runs, 3);
        let verdict = agg.check_regression(
            &RunSummary::from_profile(&profile(5_000)),
            &RegressConfig::default(),
        );
        assert!(verdict.regressed);
        let trend = store
            .trend("fib", 2, &RunWindow::default(), 4)
            .expect("trend");
        assert_eq!(trend[1].sum_ns, 0);
    };
    check(&store);
    assert_eq!(store.compact().expect("compact"), 3);
    check(&store);
    assert_eq!(RunSummary::from_profile(&Profile::default()).total_ns, 0);

    // Behind a daemon with a background compactor: queries keep being
    // answered (the compactor folds under the store's write lock, where a
    // panic would poison it), and the door is shut to more such records.
    let serve = ServeConfig {
        compact_interval: Some(Duration::from_millis(20)),
        ..ServeConfig::default()
    };
    let (handle, join) = Server::spawn("127.0.0.1:0", store, serve).expect("spawn");
    let addr = handle.addr().to_string();
    let empty = Profile::default();
    let payloads = [
        (
            WireProtocol::Binary,
            Record::from_profile("fib", 2, Some(9), &empty).profile,
        ),
        (
            WireProtocol::Json,
            ProfilePayload::Text(cube::write_profile(&empty)),
        ),
    ];
    for (proto, payload) in payloads {
        assert!(payload.decode().is_err(), "{proto}: decode must refuse");
        let mut client =
            Client::connect_proto(&addr, proto, ClientTimeouts::unbounded()).expect("connect");
        let record = Record {
            benchmark: "fib".to_string(),
            threads: 2,
            timestamp_ns: Some(9),
            profile: payload.clone(),
        };
        for attempt in [
            client.ingest_record(&record).map(|_| ()),
            client
                .query_regress("fib", 2, payload, None, None, None)
                .map(|_| ()),
        ] {
            match attempt {
                Err(ClientError::Server { kind, message }) => {
                    assert_eq!(kind, ErrorKind::BadRequest, "{proto}: {message}");
                    assert!(message.contains("no threads"), "{proto}: {message}");
                }
                other => panic!("{proto}: a profile without threads got {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(60)); // a compaction pass or two
        let stats = client.query_stats("fib", 2).expect("stats");
        assert_eq!(stats.runs, 4);
        let verdict = client
            .query_regress(
                "fib",
                2,
                Record::from_profile("fib", 2, None, &profile(5_000)).profile,
                None,
                None,
                None,
            )
            .expect("regress");
        assert!(verdict.regressed);
    }
    handle.stop();
    join.join()
        .expect("server thread")
        .expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
