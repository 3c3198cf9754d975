//! The profile repository: segments + index + recovery + compaction.
//!
//! Replication moves pages. [`ProfileStore::export_frames`] chooses its
//! page from the index alone and reads only those frames, one positioned
//! read per run of adjacent frames ([`ExportBatch::read`]).
//! [`ProfileStore::apply_frames`] checks each frame of a page against a
//! running exactly-once cursor ([`CheckedPage`]) and appends the frames
//! bound for one segment with one write, rotating where a per-frame
//! append would, so the files are the same as if each frame had been
//! applied on its own; [`ProfileStore::apply_frame`] is that path over
//! one frame.

use crate::agg::{BenchAgg, RunSummary};
use crate::codec::{
    check_record, decode_meta, decode_record, encode_record, CodecError, RunMeta, VerifiedBody,
    MAX_RECORD_BYTES,
};
use crate::frame::{self, Checked, FrameError};
use crate::io::{replace_file, RealIo, StoreIo};
use crate::merge::KWayMerge;
use crate::segment::{SegmentReader, SegmentWriter};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use taskprof::Profile;

/// Repository tunables.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Rotate the active segment once it would exceed this many bytes
    /// (the segment a record lands in may exceed it by that one record).
    pub segment_max_bytes: u64,
    /// `fsync` after every append (durable against power loss, slower).
    /// Off, the store still flushes each full frame to the OS, which is
    /// durable against process crashes — the recovery tests' scenario.
    pub sync_writes: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            segment_max_bytes: 4 << 20,
            sync_writes: false,
        }
    }
}

/// Anything the repository can fail with.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A fully-framed record failed to decode — real corruption (CRC
    /// passed, structure didn't), never a torn tail.
    Codec {
        /// Segment file name.
        segment: String,
        /// Frame offset within the segment.
        offset: u64,
        /// The decoder's complaint.
        source: CodecError,
    },
    /// A *closed* (non-final) segment has a bad tail; appends only ever
    /// went to the final segment, so this is damage, not a crash artifact.
    Corrupt {
        /// Segment file name.
        segment: String,
        /// What the scan found.
        detail: String,
    },
    /// No run with the requested id.
    NotFound(u64),
    /// Another `ProfileStore` (in this process or another) holds the
    /// directory's writer lock. The log is strictly single-writer: two
    /// independent writers on the same active segment would interleave
    /// frames at overlapping offsets and assign duplicate run ids.
    Locked {
        /// The contended repository directory.
        dir: PathBuf,
    },
    /// A sharded repository was opened with a shard count that differs
    /// from the one recorded on disk. Routing is a function of the
    /// count, so honoring the request would strand runs in shards the
    /// router no longer selects.
    ShardMismatch {
        /// The sharded repository root.
        dir: PathBuf,
        /// Shard count recorded in the `SHARDS` file.
        on_disk: u32,
        /// Shard count the open requested.
        requested: u32,
    },
    /// A replicated frame is not a [`frame`]: torn, too large, of the
    /// wrong length or failing its CRC.
    BadFrame(FrameError),
    /// A replicated frame's record is one [`decode_record`] refuses.
    BadRecord(CodecError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Codec {
                segment,
                offset,
                source,
            } => write!(f, "corrupt record in {segment} at offset {offset}: {source}"),
            StoreError::Corrupt { segment, detail } => {
                write!(f, "closed segment {segment} is corrupt: {detail}")
            }
            StoreError::NotFound(id) => write!(f, "run {id} not found"),
            StoreError::Locked { dir } => write!(
                f,
                "store directory {} is locked by another writer (close the other store or daemon first)",
                dir.display()
            ),
            StoreError::ShardMismatch {
                dir,
                on_disk,
                requested,
            } => write!(
                f,
                "sharded store {} holds {on_disk} shard(s) but {requested} were requested \
                 (the shard count is fixed at creation)",
                dir.display()
            ),
            StoreError::BadFrame(e) => write!(f, "replication frame rejected: {e}"),
            StoreError::BadRecord(e) => write!(f, "replicated record rejected: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One stored run, as the in-memory index sees it.
#[derive(Clone, Debug)]
pub struct IndexEntry {
    /// Store-assigned run id.
    pub run_id: u64,
    /// Benchmark name.
    pub benchmark: String,
    /// Thread count of the run.
    pub threads: u32,
    /// Caller-supplied timestamp.
    pub timestamp_ns: u64,
    /// Segment number the record lives in.
    pub segment: u64,
    /// Frame offset within that segment.
    pub offset: u64,
    /// Framed size on disk (payload + length + CRC words).
    pub bytes: u64,
}

/// Acknowledgement of one ingest.
#[derive(Clone, Copy, Debug)]
pub struct IngestReceipt {
    /// The id the store assigned.
    pub run_id: u64,
    /// Bytes appended (full frame).
    pub bytes: u64,
    /// Segment the record landed in.
    pub segment: u64,
}

/// Repository health/shape summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Segment files on disk.
    pub segments: u64,
    /// Runs indexed.
    pub runs: u64,
    /// Total framed bytes across live records.
    pub bytes: u64,
    /// Bytes of torn tail truncated by the last [`ProfileStore::open`].
    pub recovered_tail_bytes: u64,
    /// Highest segment number folded into the compaction cache (0 =
    /// nothing compacted yet).
    pub compacted_through: u64,
}

/// A window over one (benchmark, threads) group's runs. Both members
/// compose: the timestamp filter applies first, then the ingest-order
/// tail. The default (`None`/`None`) keeps everything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunWindow {
    /// Keep only the newest N matching runs (ingest-order tail).
    pub last: Option<u64>,
    /// Keep only runs whose caller timestamp is `>= since_ns`.
    pub since_ns: Option<u64>,
}

impl RunWindow {
    /// True when the window filters nothing.
    pub fn is_unbounded(&self) -> bool {
        self.last.is_none() && self.since_ns.is_none()
    }
}

/// One bucket of a [`ProfileStore::trend`] sweep: a span of consecutive
/// runs (ingest order) reduced to their run-total statistics — the
/// sparkline shape of a benchmark over time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrendBucket {
    /// Runs folded into this bucket.
    pub runs: u64,
    /// Sum of run totals (root inclusive nanoseconds).
    pub sum_ns: u64,
    /// Smallest run total in the bucket.
    pub min_ns: u64,
    /// Largest run total in the bucket.
    pub max_ns: u64,
    /// Caller timestamp of the bucket's first run.
    pub first_timestamp_ns: u64,
    /// Caller timestamp of the bucket's last run.
    pub last_timestamp_ns: u64,
}

impl TrendBucket {
    /// Mean run total over the bucket (0 while empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.runs).unwrap_or(0)
    }

    /// Fold one run's total.
    pub(crate) fn add(&mut self, total_ns: u64) {
        self.runs += 1;
        self.sum_ns += total_ns;
        self.min_ns = self.min_ns.min(total_ns);
        self.max_ns = self.max_ns.max(total_ns);
    }
}

/// One `EXPORT` page: record frames in ascending run-id order, plus the
/// cursor the follower acknowledges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExportBatch {
    /// Whole [`frame`]s, byte-identical to the leader's on-disk ones.
    pub frames: Vec<Vec<u8>>,
    /// Highest run id included (equal to the requested cursor when the
    /// batch is empty). The follower's next request resumes after it.
    pub watermark: u64,
    /// True when no runs beyond this batch remain.
    pub done: bool,
}

impl ExportBatch {
    /// The page after cursor `after` holding the frames of `page`: index
    /// entries tagged with their store in `stores`, in ascending run-id
    /// order, as [`choose_page`] picks them. Each run of adjacent frames
    /// in one segment is read with one positioned read, and each frame of
    /// it is checked on its own.
    pub(crate) fn read(
        after: u64,
        stores: &[&ProfileStore],
        page: &[(usize, &IndexEntry)],
        done: bool,
    ) -> Result<Self, StoreError> {
        let mut order: Vec<usize> = (0..page.len()).collect();
        order.sort_unstable_by_key(|&i| {
            let (k, e) = page[i];
            (k, e.segment, e.offset)
        });
        let mut frames = vec![Vec::new(); page.len()];
        let mut cursors: Vec<SegmentCursor<'_>> = stores.iter().map(|s| s.cursor()).collect();
        for run in order.chunk_by(|&a, &b| {
            let ((ka, a), (kb, b)) = (page[a], page[b]);
            ka == kb && a.segment == b.segment && a.offset + a.bytes == b.offset
        }) {
            let entries: Vec<&IndexEntry> = run.iter().map(|&i| page[i].1).collect();
            let checked = cursors[page[run[0]].0].frames(&entries)?;
            for (&i, frame) in run.iter().zip(checked) {
                frames[i] = frame.bytes().to_vec();
            }
        }
        Ok(ExportBatch {
            frames,
            watermark: page.last().map_or(after, |(_, e)| e.run_id),
            done,
        })
    }
}

/// The export page after cursor `after` among `entries`, index entries
/// tagged with their store: the `max` with the smallest run ids above
/// `after`, in ascending run-id order, and whether no entry is left
/// beyond them. Only the index is read.
pub(crate) fn choose_page<'a>(
    entries: impl Iterator<Item = (usize, &'a IndexEntry)>,
    after: u64,
    max: usize,
) -> (Vec<(usize, &'a IndexEntry)>, bool) {
    let mut page: Vec<_> = entries.filter(|(_, e)| e.run_id > after).collect();
    let done = page.len() <= max;
    if !done {
        page.select_nth_unstable_by_key(max, |(_, e)| e.run_id);
        page.truncate(max);
    }
    page.sort_unstable_by_key(|(_, e)| e.run_id);
    (page, done)
}

/// What applying one page of replicated frames did
/// ([`ProfileStore::apply_frames`], `ShardedStore::apply_frames`).
#[derive(Debug, Default)]
pub struct PageApply {
    /// Receipts of the frames appended, in page order.
    pub applied: Vec<IngestReceipt>,
    /// Frames skipped as already applied.
    pub skipped: u64,
    /// Why the page stopped short: the first frame refused, or the failed
    /// write of the first frame not appended. Every frame before that one
    /// was applied or skipped; none from it on was applied.
    pub error: Option<StoreError>,
}

impl PageApply {
    /// A one-frame page's outcome, as `apply_frame` reports it.
    pub(crate) fn into_frame(mut self) -> Result<Option<IngestReceipt>, StoreError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.applied.pop()),
        }
    }
}

/// One frame of a replicated page that [`replica`] let through: its
/// place in the page, its run's header and the checked frame.
pub(crate) struct Replica<'f> {
    at: usize,
    pub(crate) meta: RunMeta,
    frame: Checked<'f>,
}

/// A replicated page after its checks: the frames to append and the
/// first frame refused, if any.
pub(crate) struct CheckedPage<'f> {
    len: usize,
    pub(crate) replicas: Vec<Replica<'f>>,
    refused: Option<(usize, StoreError)>,
}

impl<'f> CheckedPage<'f> {
    /// Check `frames` in order with [`replica`] up to the first one it
    /// refuses. The exactly-once cursor starts at `applied`, the highest
    /// run id already stored, and rises with each frame let through, so a
    /// repeated or out-of-order id is skipped as it would be had every
    /// frame before it been applied on its own.
    pub(crate) fn check<F: AsRef<[u8]>>(frames: &'f [F], mut applied: u64) -> Self {
        let mut replicas = Vec::new();
        for (at, frame) in frames.iter().enumerate() {
            match replica(frame.as_ref(), applied) {
                Ok(Some((meta, frame))) => {
                    applied = meta.run_id;
                    replicas.push(Replica { at, meta, frame });
                }
                Ok(None) => {}
                Err(e) => {
                    return Self {
                        len: frames.len(),
                        replicas,
                        refused: Some((at, e)),
                    }
                }
            }
        }
        Self {
            len: frames.len(),
            replicas,
            refused: None,
        }
    }

    /// The page's outcome once the first `applied.len()` replicas are
    /// appended and `written` says whether the rest were too.
    pub(crate) fn settle(
        self,
        applied: Vec<IngestReceipt>,
        written: Result<(), StoreError>,
    ) -> PageApply {
        let (stop, error) = match (written, self.refused) {
            (Err(e), _) => (self.replicas[applied.len()].at, Some(e)),
            (Ok(()), Some((at, e))) => (at, Some(e)),
            (Ok(()), None) => (self.len, None),
        };
        PageApply {
            skipped: (stop - applied.len()) as u64,
            applied,
            error,
        }
    }
}

/// What the retention sweep keeps. Filters compose by union of their
/// drop sets: a run is garbage-collected when *any* configured filter
/// rejects it. The default keeps everything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Keep only the newest N runs (ingest order) of each
    /// (benchmark, threads) group.
    pub keep_last: Option<u64>,
    /// Drop runs whose caller timestamp is older than this cutoff.
    /// Runs at or after the cutoff are never removed by this filter.
    pub min_timestamp_ns: Option<u64>,
}

impl RetentionPolicy {
    /// True when the policy filters nothing.
    pub fn is_noop(&self) -> bool {
        self.keep_last.is_none() && self.min_timestamp_ns.is_none()
    }
}

/// What one [`ProfileStore::gc`] sweep reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Runs removed from the index (and from disk).
    pub dropped_runs: u64,
    /// Disk bytes reclaimed (removed files plus rewrite shrinkage).
    pub reclaimed_bytes: u64,
    /// Closed segments rewritten in place (live frames carried over).
    pub rewritten_segments: u64,
    /// Closed segments unlinked outright (no live frames).
    pub removed_segments: u64,
}

impl GcReport {
    pub(crate) fn absorb(&mut self, other: GcReport) {
        self.dropped_runs += other.dropped_runs;
        self.reclaimed_bytes += other.reclaimed_bytes;
        self.rewritten_segments += other.rewritten_segments;
        self.removed_segments += other.removed_segments;
    }
}

/// Name of the advisory lock file guarding the directory against a
/// second concurrent writer.
const LOCK_FILE: &str = "LOCK";

/// Name of the run-id high-water mark: the decimal id the next ingest may
/// take at the least. Ids are otherwise rebuilt from the frames on disk,
/// so the mark is written (tmp + rename) before an id leaves them: by GC
/// before it drops the newest run, and by open before it truncates a
/// torn tail whose id it skips. A store without the file opens from its
/// frames alone.
const ID_MARK_FILE: &str = "NEXT_RUN_ID";

fn segment_name(n: u64) -> String {
    format!("seg-{n:06}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// The durable multi-run repository. See the crate docs for the on-disk
/// layout and the durability contract.
pub struct ProfileStore {
    dir: PathBuf,
    config: StoreConfig,
    io: Arc<dyn StoreIo>,
    writer: SegmentWriter,
    active_segment: u64,
    index: Vec<IndexEntry>,
    next_run_id: u64,
    /// The persisted [`ID_MARK_FILE`] value (0 when there is none).
    id_mark: u64,
    /// Highest run id in `index` (0 when empty), kept as entries come and go.
    max_run_id: u64,
    recovered_tail_bytes: u64,
    agg_cache: BTreeMap<(String, u32), BenchAgg>,
    compacted_through: u64,
    /// Held for the store's lifetime; the OS releases the advisory lock
    /// when the file closes, so a crash never leaves the directory stale.
    _lock: std::fs::File,
}

impl std::fmt::Debug for ProfileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileStore")
            .field("dir", &self.dir)
            .field("runs", &self.index.len())
            .field("active_segment", &self.active_segment)
            .field("compacted_through", &self.compacted_through)
            .finish_non_exhaustive()
    }
}

impl ProfileStore {
    /// Open (creating if needed) the repository at `dir` with default
    /// configuration.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::open_with(dir, StoreConfig::default())
    }

    /// Open with explicit configuration. Recovery happens here: the final
    /// segment's torn tail (if any) is truncated; damage anywhere else is
    /// reported as an error rather than silently dropped.
    ///
    /// The open takes an exclusive advisory lock on a `LOCK` file in the
    /// directory and holds it for the store's lifetime; a second open of
    /// the same directory — from this process or another — fails with
    /// [`StoreError::Locked`] instead of corrupting the active segment.
    pub fn open_with(dir: &Path, config: StoreConfig) -> Result<Self, StoreError> {
        Self::open_with_io(dir, config, RealIo::handle())
    }

    /// Open with an explicit [`StoreIo`] implementation — the seam the
    /// fault-injection tests use ([`crate::FaultIo`]); production goes
    /// through [`ProfileStore::open_with`], which passes the passthrough
    /// [`RealIo`]. The advisory `LOCK` file stays on real `std::fs`
    /// either way: it is liveness metadata, not durable state, and a
    /// simulated crash must still release it the way a real process death
    /// would.
    pub fn open_with_io(
        dir: &Path,
        config: StoreConfig,
        io: Arc<dyn StoreIo>,
    ) -> Result<Self, StoreError> {
        io.create_dir_all(dir)?;
        let lock = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK_FILE))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                return Err(StoreError::Locked {
                    dir: dir.to_path_buf(),
                })
            }
            Err(std::fs::TryLockError::Error(e)) => return Err(StoreError::Io(e)),
        }
        let names = io.list_dir(dir)?;
        for name in &names {
            if let Some(stem) = name.strip_suffix(".tmp") {
                if parse_segment_name(stem).is_some() {
                    // A GC rewrite died before its atomic rename. The
                    // half-written replacement is inert (recovery only
                    // reads `seg-*.log`) — reclaim the space.
                    let _ = io.remove_file(&dir.join(name));
                }
            }
        }
        let mut numbers: Vec<u64> = names
            .iter()
            .filter_map(|name| parse_segment_name(name))
            .collect();
        numbers.sort_unstable();

        let mut index = Vec::new();
        let mut next_run_id = 1;
        let mut recovered_tail_bytes = 0;
        // Where the last segment's valid prefix ends: appends resume there.
        let mut last_valid_len = 0;
        for (i, &n) in numbers.iter().enumerate() {
            let is_last = i + 1 == numbers.len();
            let path = dir.join(segment_name(n));
            let mut codec_error = None;
            let scan =
                SegmentReader::scan(&*io, &path, |offset, payload| match decode_meta(payload) {
                    Ok(meta) => {
                        next_run_id = next_run_id.max(meta.run_id + 1);
                        index.push(IndexEntry {
                            run_id: meta.run_id,
                            benchmark: meta.benchmark,
                            threads: meta.threads,
                            timestamp_ns: meta.timestamp_ns,
                            segment: n,
                            offset,
                            bytes: (payload.len() + frame::OVERHEAD) as u64,
                        });
                    }
                    Err(source) => {
                        let segment = segment_name(n);
                        codec_error.get_or_insert(StoreError::Codec {
                            segment,
                            offset,
                            source,
                        });
                    }
                })?;
            if let Some(defect) = &scan.tail_defect {
                if !is_last {
                    return Err(StoreError::Corrupt {
                        segment: segment_name(n),
                        detail: defect.to_string(),
                    });
                }
                let file_len = io.file_len(&path)?;
                recovered_tail_bytes = file_len.saturating_sub(scan.valid_len);
            }
            if let Some(err) = codec_error {
                return Err(err);
            }
            last_valid_len = scan.valid_len;
        }

        // Ids of runs GC dropped are beyond the frames' reach.
        let mut id_mark = read_id_mark(&*io, dir)?;
        next_run_id = next_run_id.max(id_mark);
        // A torn tail is one in-flight record whose id was already handed
        // out in an ingest receipt. Skip it so the id is never recycled:
        // external references to the lost run must not alias a new one.
        // The tail is truncated below, after which no frame remembers the
        // id, so the skip goes into the mark first.
        if recovered_tail_bytes > 0 {
            next_run_id += 1;
            if id_mark < next_run_id {
                write_id_mark(&*io, dir, next_run_id)?;
                id_mark = next_run_id;
            }
        }

        let max_run_id = index.iter().map(|e| e.run_id).max().unwrap_or(0);
        let (writer, active_segment) = match numbers.last() {
            Some(&last) => (
                SegmentWriter::recover(
                    &*io,
                    &dir.join(segment_name(last)),
                    last_valid_len,
                    config.sync_writes,
                )?,
                last,
            ),
            None => (
                SegmentWriter::create(&*io, &dir.join(segment_name(1)), config.sync_writes)?,
                1,
            ),
        };

        Ok(Self {
            dir: dir.to_path_buf(),
            config,
            io,
            writer,
            active_segment,
            index,
            next_run_id,
            id_mark,
            max_run_id,
            recovered_tail_bytes,
            agg_cache: BTreeMap::new(),
            compacted_through: 0,
            _lock: lock,
        })
    }

    /// The repository directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one run; assigns and returns the next run id.
    pub fn ingest(
        &mut self,
        benchmark: &str,
        threads: u32,
        timestamp_ns: u64,
        profile: &Profile,
    ) -> Result<IngestReceipt, StoreError> {
        self.ingest_with_id(self.next_run_id, benchmark, threads, timestamp_ns, profile)
    }

    /// Append one run under a caller-chosen id — the sharded store's
    /// path, where ids are allocated globally so shards never collide.
    /// Bumps the local id counter past `run_id` so a later plain
    /// [`ProfileStore::ingest`] cannot reuse it.
    pub fn ingest_with_id(
        &mut self,
        run_id: u64,
        benchmark: &str,
        threads: u32,
        timestamp_ns: u64,
        profile: &Profile,
    ) -> Result<IngestReceipt, StoreError> {
        let meta = RunMeta {
            run_id,
            benchmark: benchmark.to_string(),
            threads,
            timestamp_ns,
        };
        let payload = encode_record(&meta, profile);
        self.append_payload(meta, &payload)
    }

    /// Append one run whose profile arrived as a record body
    /// [`verify_record`](crate::verify_record) accepted: the body is
    /// stamped with this run's header and appended as is, never decoded.
    /// The bytes on disk are the ones [`ProfileStore::ingest`] writes for
    /// the profile the body spells.
    pub fn ingest_record(
        &mut self,
        benchmark: &str,
        threads: u32,
        timestamp_ns: u64,
        body: &VerifiedBody<'_>,
    ) -> Result<IngestReceipt, StoreError> {
        self.ingest_record_with_id(self.next_run_id, benchmark, threads, timestamp_ns, body)
    }

    /// [`ProfileStore::ingest_record`] under a caller-chosen id, as
    /// [`ProfileStore::ingest_with_id`] is to [`ProfileStore::ingest`].
    pub(crate) fn ingest_record_with_id(
        &mut self,
        run_id: u64,
        benchmark: &str,
        threads: u32,
        timestamp_ns: u64,
        body: &VerifiedBody<'_>,
    ) -> Result<IngestReceipt, StoreError> {
        let meta = RunMeta {
            run_id,
            benchmark: benchmark.to_string(),
            threads,
            timestamp_ns,
        };
        let payload = body.stamp(&meta);
        self.append_payload(meta, &payload)
    }

    /// Append an already-encoded payload under `meta`'s identity.
    fn append_payload(
        &mut self,
        meta: RunMeta,
        payload: &[u8],
    ) -> Result<IngestReceipt, StoreError> {
        let frame_bytes = (payload.len() + frame::OVERHEAD) as u64;
        self.append_with(meta, frame_bytes, |writer| writer.append(payload))
    }

    /// Append the checked frames of `replicas` as they are, in order,
    /// under their runs' identities: the frames bound for one segment
    /// with one write, the active segment rotating before the same frames
    /// [`ProfileStore::ingest`] would rotate it before. Each appended
    /// frame's receipt goes to `receipts`; a failed write appends none of
    /// its frames.
    pub(crate) fn append_replicas(
        &mut self,
        replicas: &mut [Replica<'_>],
        receipts: &mut Vec<IngestReceipt>,
    ) -> Result<(), StoreError> {
        let frame_bytes = |r: &Replica<'_>| r.frame.bytes().len() as u64;
        let mut rest = replicas;
        while let Some(first) = rest.first() {
            self.rotate_for(frame_bytes(first))?;
            let mut end = self.writer.len() + frame_bytes(first);
            let mut n = 1;
            while let Some(next) = rest.get(n) {
                if end + frame_bytes(next) > self.config.segment_max_bytes {
                    break;
                }
                end += frame_bytes(next);
                n += 1;
            }
            let (segment, tail) = rest.split_at_mut(n);
            let frames: Vec<Checked<'_>> = segment.iter().map(|r| r.frame).collect();
            let mut offset = self.writer.append_checked(&frames)?;
            for r in segment {
                let bytes = frame_bytes(r);
                receipts.push(self.index_frame(std::mem::take(&mut r.meta), offset, bytes));
                offset += bytes;
            }
            rest = tail;
        }
        Ok(())
    }

    /// Index the `frame_bytes` frame of `meta`'s run that `write` appends,
    /// rotating the active segment first as needed.
    fn append_with(
        &mut self,
        meta: RunMeta,
        frame_bytes: u64,
        write: impl FnOnce(&mut SegmentWriter) -> std::io::Result<u64>,
    ) -> Result<IngestReceipt, StoreError> {
        self.rotate_for(frame_bytes)?;
        let offset = write(&mut self.writer)?;
        Ok(self.index_frame(meta, offset, frame_bytes))
    }

    /// Rotate the active segment if a `frame_bytes` frame would take it
    /// past `segment_max_bytes`; an empty segment takes any frame.
    fn rotate_for(&mut self, frame_bytes: u64) -> Result<(), StoreError> {
        if !self.writer.is_empty()
            && self.writer.len() + frame_bytes > self.config.segment_max_bytes
        {
            self.rotate()?;
        }
        Ok(())
    }

    /// Index the `frame_bytes` frame of `meta`'s run that the active
    /// segment now holds at `offset`.
    fn index_frame(&mut self, meta: RunMeta, offset: u64, frame_bytes: u64) -> IngestReceipt {
        self.next_run_id = self.next_run_id.max(meta.run_id + 1);
        self.max_run_id = self.max_run_id.max(meta.run_id);
        self.index.push(IndexEntry {
            run_id: meta.run_id,
            benchmark: meta.benchmark,
            threads: meta.threads,
            timestamp_ns: meta.timestamp_ns,
            segment: self.active_segment,
            offset,
            bytes: frame_bytes,
        });
        IngestReceipt {
            run_id: meta.run_id,
            bytes: frame_bytes,
            segment: self.active_segment,
        }
    }

    /// The id the next [`ProfileStore::ingest`] will assign.
    pub fn next_run_id(&self) -> u64 {
        self.next_run_id
    }

    /// Highest run id currently indexed (0 when empty). This — not
    /// [`ProfileStore::next_run_id`] — is a follower's replication
    /// cursor: recovery from a torn tail bumps `next_run_id` past an id
    /// that never durably landed, and a cursor derived from it would
    /// silently skip the legitimate re-send of that frame.
    pub fn max_run_id(&self) -> u64 {
        self.max_run_id
    }

    fn rotate(&mut self) -> Result<(), StoreError> {
        let next = self.active_segment + 1;
        self.writer = SegmentWriter::create(
            &*self.io,
            &self.dir.join(segment_name(next)),
            self.config.sync_writes,
        )?;
        self.active_segment = next;
        Ok(())
    }

    /// The in-memory index, in ingest order.
    pub fn index(&self) -> &[IndexEntry] {
        &self.index
    }

    /// Number of stored runs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no run is stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Load one run by id.
    pub fn load(&self, run_id: u64) -> Result<(RunMeta, Profile), StoreError> {
        let entry = self
            .index
            .iter()
            .find(|e| e.run_id == run_id)
            .ok_or(StoreError::NotFound(run_id))?;
        self.cursor()
            .read(entry, |_, payload| decode_record(payload))
    }

    /// A fresh read cursor over this store's segments.
    pub(crate) fn cursor(&self) -> SegmentCursor<'_> {
        SegmentCursor {
            io: &*self.io,
            dir: &self.dir,
            open: None,
        }
    }

    /// Index entries of one (benchmark, threads) group, in ingest order.
    pub fn runs_for(&self, benchmark: &str, threads: u32) -> Vec<&IndexEntry> {
        self.index
            .iter()
            .filter(|e| e.benchmark == benchmark && e.threads == threads)
            .collect()
    }

    /// Every distinct (benchmark, threads) group with its run count.
    pub fn groups(&self) -> BTreeMap<(String, u32), u64> {
        let mut out = BTreeMap::new();
        for e in &self.index {
            *out.entry((e.benchmark.clone(), e.threads)).or_insert(0) += 1;
        }
        out
    }

    /// Stream every run of a set of entries in (timestamp, run id) order,
    /// handing `f` each entry with its record payload, borrowed from the
    /// read buffer; an error `f` returns is that record's
    /// [`StoreError::Codec`]. This is the k-way path: entries are grouped
    /// per segment, each group sorted by key, and [`KWayMerge`]
    /// interleaves the groups; only one record is ever read at once.
    fn stream_entries(
        &self,
        entries: &[&IndexEntry],
        mut f: impl FnMut(&IndexEntry, &[u8]) -> Result<(), CodecError>,
    ) -> Result<(), StoreError> {
        let mut per_segment: BTreeMap<u64, Vec<&IndexEntry>> = BTreeMap::new();
        for e in entries {
            per_segment.entry(e.segment).or_default().push(e);
        }
        let sources: Vec<std::vec::IntoIter<&IndexEntry>> = per_segment
            .into_values()
            .map(|mut v| {
                v.sort_by_key(|e| (e.timestamp_ns, e.run_id));
                v.into_iter()
            })
            .collect();
        let merged = KWayMerge::new(sources, |e| (e.timestamp_ns, e.run_id));
        let mut cursor = self.cursor();
        for entry in merged {
            cursor.read(entry, &mut f)?;
        }
        Ok(())
    }

    /// Fold every record of every *closed* segment (all but the active
    /// one) into the per-benchmark aggregate cache. Returns how many runs
    /// were newly folded. Queries after this only fold the active
    /// segment's tail on demand.
    ///
    /// All-or-nothing: on a mid-stream I/O or decode error nothing is
    /// committed — the folding happens in a scratch copy of the cache, so
    /// a retry (the daemon's background compactor retries every interval)
    /// never folds the same run twice.
    pub fn compact(&mut self) -> Result<u64, StoreError> {
        let upto = self.active_segment.saturating_sub(1);
        if upto <= self.compacted_through {
            return Ok(0);
        }
        let entries: Vec<&IndexEntry> = self
            .index
            .iter()
            .filter(|e| e.segment > self.compacted_through && e.segment <= upto)
            .collect();
        let mut cache = self.agg_cache.clone();
        let folded = entries.len() as u64;
        self.stream_entries(&entries, |entry, payload| {
            cache
                .entry((entry.benchmark.clone(), entry.threads))
                .or_default()
                .fold_summary(RunSummary::from_record(payload)?);
            Ok(())
        })?;
        self.agg_cache = cache;
        self.compacted_through = upto;
        Ok(folded)
    }

    /// Cross-run aggregate of one (benchmark, threads) group: the
    /// compacted cache plus a streaming fold of any runs not yet
    /// compacted (the active segment, and closed segments if
    /// [`ProfileStore::compact`] has not run).
    pub fn aggregate(&self, benchmark: &str, threads: u32) -> Result<BenchAgg, StoreError> {
        let mut agg = self
            .agg_cache
            .get(&(benchmark.to_string(), threads))
            .cloned()
            .unwrap_or_default();
        let tail: Vec<&IndexEntry> = self
            .index
            .iter()
            .filter(|e| {
                e.segment > self.compacted_through
                    && e.benchmark == benchmark
                    && e.threads == threads
            })
            .collect();
        self.stream_entries(&tail, |_, payload| {
            agg.fold_summary(RunSummary::from_record(payload)?);
            Ok(())
        })?;
        Ok(agg)
    }

    /// Index entries of one group after applying `window`: the
    /// timestamp filter first, then the ingest-order tail of
    /// [`RunWindow::last`] runs. Ingest order, like
    /// [`ProfileStore::runs_for`].
    pub fn runs_in_window(
        &self,
        benchmark: &str,
        threads: u32,
        window: &RunWindow,
    ) -> Vec<&IndexEntry> {
        let mut entries: Vec<&IndexEntry> = self
            .index
            .iter()
            .filter(|e| {
                e.benchmark == benchmark
                    && e.threads == threads
                    && window.since_ns.is_none_or(|s| e.timestamp_ns >= s)
            })
            .collect();
        if let Some(last) = window.last {
            let keep = last.min(entries.len() as u64) as usize;
            entries.drain(..entries.len() - keep);
        }
        entries
    }

    /// Cross-run aggregate of a windowed subset of one group. The
    /// compaction cache holds whole-history aggregates and cannot serve
    /// a window, so a bounded window always stream-folds the matching
    /// entries from disk; an unbounded one takes the cached
    /// [`ProfileStore::aggregate`] path.
    pub fn aggregate_window(
        &self,
        benchmark: &str,
        threads: u32,
        window: &RunWindow,
    ) -> Result<BenchAgg, StoreError> {
        if window.is_unbounded() {
            return self.aggregate(benchmark, threads);
        }
        let entries = self.runs_in_window(benchmark, threads, window);
        let mut agg = BenchAgg::default();
        self.stream_entries(&entries, |_, payload| {
            agg.fold_summary(RunSummary::from_record(payload)?);
            Ok(())
        })?;
        Ok(agg)
    }

    /// Reduce a windowed group to at most `buckets` consecutive
    /// ingest-order spans of run-total statistics — the data behind a
    /// sparkline. Earlier buckets absorb the remainder when the run
    /// count does not divide evenly, so the newest bucket is never
    /// artificially small. Streams one record at a time.
    pub fn trend(
        &self,
        benchmark: &str,
        threads: u32,
        window: &RunWindow,
        buckets: usize,
    ) -> Result<Vec<TrendBucket>, StoreError> {
        let entries = self.runs_in_window(benchmark, threads, window);
        if entries.is_empty() || buckets == 0 {
            return Ok(Vec::new());
        }
        let buckets = buckets.min(entries.len());
        let base = entries.len() / buckets;
        let extra = entries.len() % buckets;
        // Bucket boundaries in ingest order; bucket i gets base runs,
        // the first `extra` buckets one more.
        let mut bounds = Vec::with_capacity(buckets);
        let mut start = 0;
        for i in 0..buckets {
            let len = base + usize::from(i < extra);
            bounds.push((start, start + len));
            start += len;
        }
        let mut out = vec![TrendBucket::default(); buckets];
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            let span = &entries[lo..hi];
            let bucket = &mut out[i];
            bucket.min_ns = u64::MAX;
            bucket.first_timestamp_ns = span.first().map(|e| e.timestamp_ns).unwrap_or(0);
            bucket.last_timestamp_ns = span.last().map(|e| e.timestamp_ns).unwrap_or(0);
            self.stream_entries(span, |_, payload| {
                bucket.add(RunSummary::from_record(payload)?.total_ns);
                Ok(())
            })?;
            if bucket.runs == 0 {
                bucket.min_ns = 0;
            }
        }
        Ok(out)
    }

    /// Shape/health summary.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            segments: {
                let mut segs: Vec<u64> = self.index.iter().map(|e| e.segment).collect();
                segs.push(self.active_segment);
                segs.sort_unstable();
                segs.dedup();
                segs.len() as u64
            },
            runs: self.index.len() as u64,
            bytes: self.index.iter().map(|e| e.bytes).sum(),
            recovered_tail_bytes: self.recovered_tail_bytes,
            compacted_through: self.compacted_through,
        }
    }

    /// Bytes the last `open` truncated as a torn tail (0 for a clean
    /// open) — surfaced so operators can tell a crash happened.
    pub fn recovered_tail_bytes(&self) -> u64 {
        self.recovered_tail_bytes
    }

    /// One page of the replication stream: up to `max` frames for runs
    /// with `run_id > after`, in ascending run-id order. The frames are
    /// byte-identical to the leader's on disk, so a follower's
    /// [`ProfileStore::apply_frames`] re-verifies the same CRC the leader
    /// wrote. The page is chosen from the index, then only its frames are
    /// read: one positioned read per run of adjacent frames.
    pub fn export_frames(&self, after: u64, max: usize) -> Result<ExportBatch, StoreError> {
        let (page, done) = choose_page(self.index.iter().map(|e| (0, e)), after, max);
        ExportBatch::read(after, &[self], &page, done)
    }

    /// Apply one page of replicated frames, keeping the leader's run ids.
    /// Exactly-once by construction: a frame whose id is at or below the
    /// highest one indexed or applied before it in the page — which an
    /// in-order stream implies was applied already, perhaps before a
    /// crash — is skipped. Before anything touches disk each frame is
    /// checked and its record must be one [`decode_record`] accepts
    /// ([`check_record`]); the frames before the first one refused are
    /// then appended as they are, one write per segment they land in
    /// (and, with `sync_writes`, one `fdatasync` per segment).
    pub fn apply_frames<F: AsRef<[u8]>>(&mut self, frames: &[F]) -> PageApply {
        let mut page = CheckedPage::check(frames, self.max_run_id);
        let mut applied = Vec::new();
        let written = self.append_replicas(&mut page.replicas, &mut applied);
        page.settle(applied, written)
    }

    /// [`ProfileStore::apply_frames`] over one frame: `Ok(None)` when it
    /// is skipped as already applied.
    pub fn apply_frame(&mut self, frame: &[u8]) -> Result<Option<IngestReceipt>, StoreError> {
        self.apply_frames(&[frame]).into_frame()
    }

    /// Garbage-collect runs the retention `policy` rejects, reclaiming
    /// their disk space. Fully-dead closed segments are unlinked; mixed
    /// segments are rewritten (live frames copied into a fresh file that
    /// atomically replaces the original via `rename`, the PR 6 VFS seam
    /// gating both steps). The active segment is rotated out first when
    /// it holds dead runs, so the live writer never races a rewrite.
    ///
    /// Crash-safe: a rewrite builds `seg-N.log.tmp`, which recovery
    /// ignores and the next open deletes; the index only switches to the
    /// new offsets after the rename commits. A crash at any point leaves
    /// either the old or the new file — never a mix.
    pub fn gc(&mut self, policy: &RetentionPolicy) -> Result<GcReport, StoreError> {
        if policy.is_noop() {
            return Ok(GcReport::default());
        }
        let mut dead: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        if let Some(cutoff) = policy.min_timestamp_ns {
            dead.extend(
                self.index
                    .iter()
                    .filter(|e| e.timestamp_ns < cutoff)
                    .map(|e| e.run_id),
            );
        }
        if let Some(keep) = policy.keep_last {
            let mut groups: BTreeMap<(&str, u32), Vec<u64>> = BTreeMap::new();
            for e in &self.index {
                groups
                    .entry((e.benchmark.as_str(), e.threads))
                    .or_default()
                    .push(e.run_id);
            }
            for ids in groups.values() {
                if ids.len() as u64 > keep {
                    dead.extend(&ids[..ids.len() - keep as usize]);
                }
            }
        }
        if dead.is_empty() {
            return Ok(GcReport::default());
        }
        // Without the runs about to go, a reopen would rebuild a lower
        // next id from the frames: persist this one before any goes.
        let survivors_max = self
            .index
            .iter()
            .filter(|e| !dead.contains(&e.run_id))
            .map(|e| e.run_id)
            .max()
            .unwrap_or(0);
        if survivors_max + 1 < self.next_run_id && self.id_mark < self.next_run_id {
            write_id_mark(&*self.io, &self.dir, self.next_run_id)?;
            self.id_mark = self.next_run_id;
        }
        if self
            .index
            .iter()
            .any(|e| e.segment == self.active_segment && dead.contains(&e.run_id))
        {
            self.rotate()?;
        }
        let segments: std::collections::BTreeSet<u64> = self
            .index
            .iter()
            .filter(|e| dead.contains(&e.run_id))
            .map(|e| e.segment)
            .collect();
        let mut report = GcReport::default();
        for seg in segments {
            let path = self.dir.join(segment_name(seg));
            // Indices of this segment's live entries, in offset order
            // (index order within a segment is append order).
            let live: Vec<usize> = self
                .index
                .iter()
                .enumerate()
                .filter(|(_, e)| e.segment == seg && !dead.contains(&e.run_id))
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                let old_len = self.io.file_len(&path)?;
                self.io.remove_file(&path)?;
                report.removed_segments += 1;
                report.reclaimed_bytes += old_len;
            } else {
                let tmp = self.dir.join(format!("{}.tmp", segment_name(seg)));
                match self.io.remove_file(&tmp) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
                // Sync the rewrite regardless of the store's append
                // policy: the rename commit must never point at frames
                // still sitting in a volatile cache.
                let mut writer = SegmentWriter::create(&*self.io, &tmp, true)?;
                let mut new_offsets = Vec::with_capacity(live.len());
                let mut cursor = self.cursor();
                for &i in &live {
                    let frame = cursor.frame(&self.index[i])?;
                    new_offsets.push(writer.append_checked(&[frame])?);
                }
                // Close the old file before the rewrite is renamed over it.
                drop(cursor);
                let old_len = self.io.file_len(&path)?;
                let new_len = writer.len();
                drop(writer);
                self.io.rename(&tmp, &path)?;
                self.io.sync_dir(&self.dir)?;
                for (&i, &offset) in live.iter().zip(&new_offsets) {
                    self.index[i].offset = offset;
                }
                report.rewritten_segments += 1;
                report.reclaimed_bytes += old_len.saturating_sub(new_len);
            }
            let before = self.index.len();
            self.index
                .retain(|e| e.segment != seg || !dead.contains(&e.run_id));
            report.dropped_runs += (before - self.index.len()) as u64;
        }
        if report.removed_segments > 0 {
            // Make the unlinks durable too (each rewrite synced its own).
            self.io.sync_dir(&self.dir)?;
        }
        // The newest run may have been among the dead.
        self.max_run_id = self.index.iter().map(|e| e.run_id).max().unwrap_or(0);
        // The aggregate cache may have folded now-dropped runs; rebuild
        // it from scratch on the next compaction pass.
        self.agg_cache.clear();
        self.compacted_through = 0;
        Ok(report)
    }
}

/// Make `next_run_id` the [`ID_MARK_FILE`] value in `dir`.
fn write_id_mark(io: &dyn StoreIo, dir: &Path, next_run_id: u64) -> std::io::Result<()> {
    replace_file(
        io,
        &dir.join(ID_MARK_FILE),
        format!("{next_run_id}\n").as_bytes(),
    )
}

/// The [`ID_MARK_FILE`] value in `dir`, or 0 when there is none.
fn read_id_mark(io: &dyn StoreIo, dir: &Path) -> Result<u64, StoreError> {
    let bytes = match io.read_all(&dir.join(ID_MARK_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let text = String::from_utf8_lossy(&bytes);
    text.trim().parse().map_err(|_| {
        StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{ID_MARK_FILE} holds no run id: {text:?}"),
        ))
    })
}

/// The run header and checked frame of a replicated `frame`, or `None`
/// when its run id is at or below `applied`, the highest one already
/// applied. A record that passes is one [`decode_record`] accepts
/// ([`check_record`]); that walk runs only after the exactly-once skip.
pub(crate) fn replica(
    frame: &[u8],
    applied: u64,
) -> Result<Option<(RunMeta, Checked<'_>)>, StoreError> {
    let checked = frame::check(frame, MAX_RECORD_BYTES).map_err(StoreError::BadFrame)?;
    let meta = decode_meta(checked.payload()).map_err(StoreError::BadRecord)?;
    if meta.run_id <= applied {
        return Ok(None);
    }
    check_record(checked.payload()).map_err(StoreError::BadRecord)?;
    Ok(Some((meta, checked)))
}

/// The read cursor of one query, export page or GC rewrite: the open
/// reader of the segment last read from, reopened only when the segment
/// number changes and dropped when the call returns — so nothing
/// outlives a rewrite of the files it reads.
pub(crate) struct SegmentCursor<'a> {
    io: &'a dyn StoreIo,
    dir: &'a Path,
    open: Option<(u64, SegmentReader<'a>)>,
}

impl<'a> SegmentCursor<'a> {
    /// The reader of segment `n`, opened unless it is the one last read.
    fn reader(&mut self, n: u64) -> Result<&mut SegmentReader<'a>, StoreError> {
        if self.open.as_ref().is_none_or(|(open, _)| *open != n) {
            let path = self.dir.join(segment_name(n));
            self.open = Some((n, SegmentReader::open(self.io, path)?));
        }
        Ok(&mut self.open.as_mut().expect("opened above").1)
    }

    /// The checked on-disk frame of `entry`, valid until the next read.
    pub(crate) fn frame(&mut self, entry: &IndexEntry) -> Result<Checked<'_>, StoreError> {
        self.reader(entry.segment)?
            .read_frame(entry.offset, entry.bytes)?
            .ok_or_else(|| unreadable(entry))
    }

    /// The checked on-disk frames of `run`, the entries of adjacent frames
    /// in one segment in file order, read with one positioned read; valid
    /// until the next read.
    pub(crate) fn frames(&mut self, run: &[&IndexEntry]) -> Result<Vec<Checked<'_>>, StoreError> {
        let sizes: Vec<u64> = run.iter().map(|e| e.bytes).collect();
        self.reader(run[0].segment)?
            .read_frames(run[0].offset, &sizes)?
            .into_iter()
            .zip(run)
            .map(|(frame, entry)| frame.ok_or_else(|| unreadable(entry)))
            .collect()
    }

    /// Read the record of `entry` and hand its payload to `f`; an error
    /// `f` returns is the record's [`StoreError::Codec`].
    pub(crate) fn read<T>(
        &mut self,
        entry: &IndexEntry,
        f: impl FnOnce(&IndexEntry, &[u8]) -> Result<T, CodecError>,
    ) -> Result<T, StoreError> {
        let frame = self.frame(entry)?;
        f(entry, frame.payload()).map_err(|source| StoreError::Codec {
            segment: segment_name(entry.segment),
            offset: entry.offset,
            source,
        })
    }
}

/// The error of an index entry whose frame does not read back.
fn unreadable(entry: &IndexEntry) -> StoreError {
    StoreError::Corrupt {
        segment: segment_name(entry.segment),
        detail: format!("indexed record at offset {} unreadable", entry.offset),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{registry, RegionKind, TaskIdAllocator};
    use taskprof::{AssignPolicy, Event, TeamReplayer};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "profstore-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn profile(tag: &str, task_ns: u64) -> Profile {
        let reg = registry();
        let par = reg.register(&format!("{tag}-par"), RegionKind::Parallel, "t", 0);
        let task = reg.register(&format!("{tag}-task"), RegionKind::Task, "t", 0);
        let ids = TaskIdAllocator::new();
        let mut team = TeamReplayer::new(1, par, AssignPolicy::Executing);
        let id = ids.alloc();
        team.apply(0, Event::TaskBegin { region: task, id })
            .advance(task_ns)
            .apply(0, Event::TaskEnd { region: task, id });
        team.finish()
    }

    #[test]
    fn ingest_load_round_trip_and_reopen() {
        let dir = tmpdir("rt");
        let p = profile("store-rt", 50);
        let (id1, id2);
        {
            let mut store = ProfileStore::open(&dir).expect("open");
            id1 = store.ingest("fib", 2, 100, &p).expect("ingest").run_id;
            id2 = store.ingest("fib", 2, 200, &p).expect("ingest").run_id;
            assert_eq!(store.len(), 2);
            assert_ne!(id1, id2);
        }
        let store = ProfileStore::open(&dir).expect("reopen");
        assert_eq!(store.len(), 2);
        assert_eq!(store.recovered_tail_bytes(), 0);
        let (meta, q) = store.load(id2).expect("load");
        assert_eq!(meta.benchmark, "fib");
        assert_eq!(meta.threads, 2);
        assert_eq!(meta.timestamp_ns, 200);
        assert_eq!(q.threads[0].main, p.threads[0].main);
        assert!(matches!(store.load(999), Err(StoreError::NotFound(999))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spreads_runs_across_segments() {
        let dir = tmpdir("rot");
        let config = StoreConfig {
            segment_max_bytes: 256,
            sync_writes: false,
        };
        let mut store = ProfileStore::open_with(&dir, config).expect("open");
        let p = profile("store-rot", 10);
        for i in 0..10 {
            store.ingest("fib", 2, i, &p).expect("ingest");
        }
        let stats = store.stats();
        assert_eq!(stats.runs, 10);
        assert!(stats.segments > 1, "expected rotation, got {stats:?}");
        // Reopen sees all runs across all segments.
        drop(store);
        let store = ProfileStore::open_with(&dir, config).expect("reopen");
        assert_eq!(store.len(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_loses_only_the_last_record() {
        let dir = tmpdir("torn");
        let p = profile("store-torn", 10);
        {
            let mut store = ProfileStore::open(&dir).expect("open");
            for i in 0..3 {
                store.ingest("fib", 2, i, &p).expect("ingest");
            }
        }
        // Cut the active segment mid-record.
        let seg = dir.join(segment_name(1));
        let data = std::fs::read(&seg).expect("read");
        std::fs::write(&seg, &data[..data.len() - 3]).expect("write");
        let mut store = ProfileStore::open(&dir).expect("recovering open");
        assert_eq!(store.len(), 2, "only the torn record is lost");
        assert!(store.recovered_tail_bytes() > 0);
        // The log accepts appends again and ids do not collide.
        let r = store.ingest("fib", 2, 99, &p).expect("ingest");
        assert!(
            store
                .index()
                .iter()
                .filter(|e| e.run_id == r.run_id)
                .count()
                == 1
        );
        drop(store);
        let store = ProfileStore::open(&dir).expect("clean reopen");
        assert_eq!(store.len(), 3);
        assert_eq!(store.recovered_tail_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tails_skipped_id_survives_a_second_open() {
        let dir = tmpdir("torn-twice");
        let p = profile("store-torn-twice", 10);
        {
            let mut store = ProfileStore::open(&dir).expect("open");
            for i in 0..3 {
                store.ingest("fib", 2, i, &p).expect("ingest");
            }
        }
        let seg = dir.join(segment_name(1));
        let data = std::fs::read(&seg).expect("read");
        std::fs::write(&seg, &data[..data.len() - 3]).expect("write");
        // Run 3 is torn: the first open skips its id.
        let first = ProfileStore::open(&dir).expect("recovering open");
        assert!(first.recovered_tail_bytes() > 0);
        assert_eq!(first.next_run_id(), 4);
        drop(first);
        // The tail is gone, so only the mark remembers the skip.
        let second = ProfileStore::open(&dir).expect("second open");
        assert_eq!(second.recovered_tail_bytes(), 0);
        assert_eq!(
            second.next_run_id(),
            4,
            "the skipped id is handed out again"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_matches_direct_aggregation() {
        let dir = tmpdir("compact");
        let config = StoreConfig {
            segment_max_bytes: 300,
            sync_writes: false,
        };
        let mut store = ProfileStore::open_with(&dir, config).expect("open");
        for i in 0..8 {
            store
                .ingest("fib", 2, i, &profile("store-cmp", 100 + i))
                .expect("ingest");
        }
        let direct = store.aggregate("fib", 2).expect("aggregate");
        let folded = store.compact().expect("compact");
        assert!(folded > 0, "multi-segment store should compact something");
        let cached = store.aggregate("fib", 2).expect("aggregate");
        assert_eq!(direct.runs, cached.runs);
        assert_eq!(direct.total_ns, cached.total_ns);
        assert_eq!(direct.regions, cached.regions);
        assert_eq!(store.compact().expect("idempotent"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_writer_on_the_same_directory_is_refused() {
        let dir = tmpdir("lock");
        let store = ProfileStore::open(&dir).expect("first open");
        match ProfileStore::open(&dir) {
            Err(StoreError::Locked { dir: d }) => assert_eq!(d, dir),
            other => panic!("expected Locked, got {other:?}"),
        }
        // Dropping the holder releases the lock.
        drop(store);
        ProfileStore::open(&dir).expect("reopen after release");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_compaction_commits_nothing_so_retries_never_double_fold() {
        let dir = tmpdir("compact-retry");
        let config = StoreConfig {
            segment_max_bytes: 1, // one record per segment
            sync_writes: false,
        };
        let mut store = ProfileStore::open_with(&dir, config).expect("open");
        for i in 0..8 {
            store
                .ingest("fib", 2, i, &profile("store-retry", 100 + i))
                .expect("ingest");
        }
        let direct = store.aggregate("fib", 2).expect("aggregate");
        // Hide the *last* closed segment: the stream folds earlier runs
        // before erroring on it, which must not leak into the cache.
        let hidden = dir.join(segment_name(7));
        let aside = dir.join("seg-000007.hidden");
        std::fs::rename(&hidden, &aside).expect("hide segment");
        assert!(store.compact().is_err(), "compaction must fail");
        std::fs::rename(&aside, &hidden).expect("restore segment");
        // The retry folds every closed run exactly once.
        assert_eq!(store.compact().expect("retry"), 7);
        let cached = store.aggregate("fib", 2).expect("aggregate");
        assert_eq!(direct.runs, cached.runs);
        assert_eq!(direct.total_ns, cached.total_ns);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbled_magic_in_final_segment_recovers_and_keeps_new_appends() {
        let dir = tmpdir("badmagic");
        let p = profile("store-magic", 25);
        {
            let mut store = ProfileStore::open(&dir).expect("open");
            store.ingest("fib", 2, 1, &p).expect("ingest");
        }
        // Destroy the magic header of the (only, final) segment.
        let seg = dir.join(segment_name(1));
        let mut data = std::fs::read(&seg).expect("read");
        data[0] ^= 0xFF;
        std::fs::write(&seg, &data).expect("write");
        // Recovery treats the whole segment as a lost tail, but must leave
        // behind a well-formed segment: records appended afterwards have
        // to survive the next open instead of vanishing behind the bad
        // header.
        let mut store = ProfileStore::open(&dir).expect("recovering open");
        assert_eq!(store.len(), 0);
        assert!(store.recovered_tail_bytes() > 0);
        let r = store.ingest("fib", 2, 2, &p).expect("post-recovery ingest");
        drop(store);
        let store = ProfileStore::open(&dir).expect("clean reopen");
        assert_eq!(store.recovered_tail_bytes(), 0, "no residual damage");
        assert_eq!(store.len(), 1, "post-recovery append survives reopen");
        store.load(r.run_id).expect("post-recovery run loads");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn windowed_aggregation_sees_only_the_window() {
        let dir = tmpdir("window");
        let config = StoreConfig {
            segment_max_bytes: 300, // force rotation so the agg cache engages
            sync_writes: false,
        };
        let mut store = ProfileStore::open_with(&dir, config).expect("open");
        // Old epoch: 5 slow runs at timestamps 100..104; new epoch: 3
        // fast runs at 1000..1002.
        for i in 0..5u64 {
            store
                .ingest("fib", 2, 100 + i, &profile("store-win", 1_000))
                .expect("ingest");
        }
        for i in 0..3u64 {
            store
                .ingest("fib", 2, 1_000 + i, &profile("store-win", 100))
                .expect("ingest");
        }
        store.compact().expect("compact");

        let full = store
            .aggregate_window("fib", 2, &RunWindow::default())
            .expect("full");
        assert_eq!(full.runs, 8, "unbounded window aggregates everything");

        let last3 = RunWindow {
            last: Some(3),
            since_ns: None,
        };
        let agg = store.aggregate_window("fib", 2, &last3).expect("last 3");
        assert_eq!(agg.runs, 3);
        assert!(
            agg.total_ns.max < full.total_ns.max,
            "window must exclude the slow old runs"
        );

        let since = RunWindow {
            last: None,
            since_ns: Some(1_000),
        };
        assert_eq!(store.runs_in_window("fib", 2, &since).len(), 3);
        // Composition: timestamp filter first, then the tail.
        let both = RunWindow {
            last: Some(2),
            since_ns: Some(1_000),
        };
        let entries = store.runs_in_window("fib", 2, &both);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].timestamp_ns, 1_001);
        // Oversized `last` clamps; other groups stay invisible.
        let big = RunWindow {
            last: Some(99),
            since_ns: None,
        };
        assert_eq!(store.runs_in_window("fib", 2, &big).len(), 8);
        assert!(store.runs_in_window("fib", 8, &big).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trend_buckets_follow_ingest_order() {
        let dir = tmpdir("trend");
        let mut store = ProfileStore::open(&dir).expect("open");
        // Run totals step up over time: 100, 200, ..., 700.
        for i in 0..7u64 {
            store
                .ingest("fib", 2, 10 + i, &profile("store-trend", 100 * (i + 1)))
                .expect("ingest");
        }
        let buckets = store
            .trend("fib", 2, &RunWindow::default(), 3)
            .expect("trend");
        // 7 runs over 3 buckets: 3 + 2 + 2.
        assert_eq!(buckets.len(), 3);
        assert_eq!(
            buckets.iter().map(|b| b.runs).collect::<Vec<_>>(),
            [3, 2, 2]
        );
        assert_eq!(buckets.iter().map(|b| b.runs).sum::<u64>(), 7);
        assert!(
            buckets[0].mean_ns() < buckets[1].mean_ns()
                && buckets[1].mean_ns() < buckets[2].mean_ns(),
            "rising totals must rise across buckets: {buckets:?}"
        );
        assert!(buckets[0].min_ns <= buckets[0].max_ns);
        assert_eq!(buckets[0].first_timestamp_ns, 10);
        assert_eq!(buckets[2].last_timestamp_ns, 16);
        // More buckets than runs degrades to one run per bucket.
        let fine = store
            .trend("fib", 2, &RunWindow::default(), 100)
            .expect("trend");
        assert_eq!(fine.len(), 7);
        assert!(fine.iter().all(|b| b.runs == 1));
        // Empty group / zero buckets are empty, not an error.
        assert!(store
            .trend("nope", 2, &RunWindow::default(), 3)
            .expect("trend")
            .is_empty());
        assert!(store
            .trend("fib", 2, &RunWindow::default(), 0)
            .expect("trend")
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn dir_file_bytes(dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .expect("read_dir")
            .filter_map(|e| e.ok())
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    #[test]
    fn gc_reclaims_disk_after_deleting_heavy_workload() {
        let dir = tmpdir("gc-disk");
        let config = StoreConfig {
            segment_max_bytes: 400, // several segments
            sync_writes: false,
        };
        let mut store = ProfileStore::open_with(&dir, config).expect("open");
        for i in 0..20u64 {
            store
                .ingest("fib", 2, 100 + i, &profile("store-gc", 50 + i))
                .expect("ingest");
        }
        store.compact().expect("compact");
        let before = dir_file_bytes(&dir);
        let report = store
            .gc(&RetentionPolicy {
                keep_last: Some(3),
                min_timestamp_ns: None,
            })
            .expect("gc");
        assert_eq!(report.dropped_runs, 17);
        assert!(report.reclaimed_bytes > 0, "{report:?}");
        assert!(
            report.removed_segments + report.rewritten_segments > 0,
            "{report:?}"
        );
        let after = dir_file_bytes(&dir);
        assert!(
            after < before,
            "directory must shrink: {before} -> {after} ({report:?})"
        );
        // The survivors are the newest 3 and still load + aggregate.
        assert_eq!(store.len(), 3);
        let timestamps: Vec<u64> = store.index().iter().map(|e| e.timestamp_ns).collect();
        assert_eq!(timestamps, [117, 118, 119]);
        let agg = store.aggregate("fib", 2).expect("aggregate");
        assert_eq!(agg.runs, 3);
        for e in store.index().to_vec() {
            store.load(e.run_id).expect("survivor loads");
        }
        // Reopen agrees byte-for-byte with the in-process view.
        drop(store);
        let store = ProfileStore::open_with(&dir, config).expect("reopen");
        assert_eq!(store.len(), 3);
        assert_eq!(store.recovered_tail_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_cutoff_never_removes_newer_runs_and_is_idempotent() {
        let dir = tmpdir("gc-cut");
        let mut store = ProfileStore::open(&dir).expect("open");
        for i in 0..10u64 {
            store
                .ingest("fib", 2, 100 + i, &profile("store-cut", 10))
                .expect("ingest");
        }
        let policy = RetentionPolicy {
            keep_last: None,
            min_timestamp_ns: Some(105),
        };
        let report = store.gc(&policy).expect("gc");
        assert_eq!(report.dropped_runs, 5);
        assert!(store.index().iter().all(|e| e.timestamp_ns >= 105));
        // Idempotent: nothing newer than the cutoff is ever touched.
        let report = store.gc(&policy).expect("gc again");
        assert_eq!(report, GcReport::default());
        assert_eq!(store.len(), 5);
        // A no-op policy is free.
        let report = store.gc(&RetentionPolicy::default()).expect("noop");
        assert_eq!(report, GcReport::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_run_id_survives_a_gc_of_the_newest_run_and_a_reopen() {
        let dir = tmpdir("max-id");
        let mut store = ProfileStore::open(&dir).expect("open");
        assert_eq!(store.max_run_id(), 0);
        // Run 3 is the newest id but carries the oldest timestamp.
        for ts in [200, 300, 100] {
            store
                .ingest("fib", 2, ts, &profile("store-max-id", 10))
                .expect("ingest");
        }
        assert_eq!(store.max_run_id(), 3);
        let policy = RetentionPolicy {
            keep_last: None,
            min_timestamp_ns: Some(150),
        };
        assert_eq!(store.gc(&policy).expect("gc").dropped_runs, 1);
        assert_eq!(store.max_run_id(), 2);
        assert_eq!(
            store.next_run_id(),
            4,
            "a dropped id is never handed out again"
        );
        drop(store);
        let mut store = ProfileStore::open(&dir).expect("reopen");
        assert_eq!(store.max_run_id(), 2);
        assert_eq!(
            store.next_run_id(),
            4,
            "nor after a reopen: the mark outlives the dropped frame"
        );
        store
            .ingest_with_id(9, "fib", 2, 400, &profile("store-max-id", 10))
            .expect("ingest");
        assert_eq!(store.max_run_id(), 9);
        drop(store);
        assert_eq!(ProfileStore::open(&dir).expect("reopen").max_run_id(), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_apply_round_trips_single_stores() {
        let leader_dir = tmpdir("exp-l");
        let follower_dir = tmpdir("exp-f");
        let mut leader = ProfileStore::open(&leader_dir).expect("leader");
        let mut follower = ProfileStore::open(&follower_dir).expect("follower");
        let mut acked = Vec::new();
        for i in 0..7u64 {
            let r = leader
                .ingest("fib", 2, 10 + i, &profile("store-exp", 20 + i))
                .expect("ingest");
            acked.push(r.run_id);
        }
        let mut cursor = follower.max_run_id();
        loop {
            let batch = leader.export_frames(cursor, 3).expect("export");
            assert!(batch.frames.len() <= 3);
            for frame in &batch.frames {
                follower.apply_frame(frame).expect("apply");
            }
            cursor = batch.watermark;
            if batch.done {
                break;
            }
        }
        assert_eq!(follower.len(), leader.len());
        for &id in &acked {
            let (lm, lp) = leader.load(id).expect("leader load");
            let (fm, fp) = follower.load(id).expect("follower load");
            assert_eq!(lm.timestamp_ns, fm.timestamp_ns);
            assert_eq!(lp.threads[0].main, fp.threads[0].main);
        }
        // Replay from zero: every frame is skipped, nothing duplicates.
        let batch = leader.export_frames(0, 100).expect("export all");
        for frame in &batch.frames {
            assert!(follower.apply_frame(frame).expect("re-apply").is_none());
        }
        assert_eq!(follower.len(), leader.len());
        // A garbage frame is refused with a typed error.
        assert!(matches!(
            follower.apply_frame(b"not a frame"),
            Err(StoreError::BadFrame(_))
        ));
        // So is a frame whose CRC holds but whose record does not: a
        // header claiming three threads, with nothing after it. Stored,
        // it would fail every load and aggregate of its group.
        let mut headless = Vec::new();
        crate::codec::put_meta(
            &mut headless,
            &RunMeta {
                run_id: follower.max_run_id() + 1,
                benchmark: "fib".to_string(),
                threads: 2,
                timestamp_ns: 99,
            },
        );
        crate::codec::put_uv(&mut headless, 3);
        let mut frame = Vec::new();
        crate::frame::encode(&headless, &mut frame);
        assert!(matches!(
            follower.apply_frame(&frame),
            Err(StoreError::BadRecord(CodecError::Truncated))
        ));
        assert_eq!(follower.len(), leader.len());
        drop(follower);
        let follower = ProfileStore::open(&follower_dir).expect("reopen");
        assert_eq!(follower.len(), leader.len());
        assert_eq!(follower.aggregate("fib", 2).expect("aggregate").runs, 7);
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn groups_are_keyed_by_benchmark_and_threads() {
        let dir = tmpdir("groups");
        let mut store = ProfileStore::open(&dir).expect("open");
        let p = profile("store-grp", 10);
        store.ingest("fib", 2, 1, &p).expect("ingest");
        store.ingest("fib", 4, 2, &p).expect("ingest");
        store.ingest("nqueens", 2, 3, &p).expect("ingest");
        store.ingest("fib", 2, 4, &p).expect("ingest");
        let groups = store.groups();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[&("fib".to_string(), 2)], 2);
        assert_eq!(store.runs_for("fib", 2).len(), 2);
        assert_eq!(store.runs_for("fib", 8).len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
