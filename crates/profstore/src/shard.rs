//! The sharded repository: N independent [`ProfileStore`]s under one
//! root, one global run-id space, queries fanned back in with the
//! streaming [`KWayMerge`].
//!
//! Layout:
//!
//! ```text
//! root/
//!   SHARDS        # decimal shard count, fixed at creation
//!   shard-000/    # a full ProfileStore (segments + LOCK)
//!   shard-001/
//!   ...
//! ```
//!
//! Routing is a pure function of the run's identity: a non-empty
//! benchmark name hashes (FNV-1a) to one shard, so every run of a
//! (benchmark, threads) group lives together and group queries touch a
//! single shard; runs with no benchmark name fall back to hashing the
//! run id, spreading them evenly. The shard count is recorded in the
//! `SHARDS` file at creation and must match on every later open —
//! changing it would silently strand runs in shards the router no
//! longer selects ([`StoreError::ShardMismatch`]).
//!
//! Concurrency: run ids come from one atomic counter; each shard sits
//! behind its own mutex (and its own on-disk advisory `LOCK`), so
//! ingest, compaction, and GC on different shards proceed in parallel —
//! the single-owner starvation the detrimental-pattern literature warns
//! about is bounded to one shard, not the whole repository.

use crate::agg::{BenchAgg, RunSummary};
use crate::codec::{CodecError, RunMeta, VerifiedBody};
use crate::io::{replace_file, RealIo, StoreIo};
use crate::merge::KWayMerge;
use crate::store::{
    replica, ExportBatch, GcReport, IndexEntry, IngestReceipt, ProfileStore, RetentionPolicy,
    RunWindow, StoreConfig, StoreError, StoreStats, TrendBucket,
};
use pomp::fnv1a;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use taskprof::Profile;

/// Name of the shard-count metadata file at the repository root.
const SHARDS_FILE: &str = "SHARDS";

/// A repository of N independent single-writer stores with one global
/// run-id space. See the module docs for layout and routing rules.
pub struct ShardedStore {
    dir: PathBuf,
    shards: Vec<Mutex<ProfileStore>>,
    next_run_id: AtomicU64,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("dir", &self.dir)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardedStore {
    /// Open (creating if needed) a sharded repository with default
    /// per-shard configuration.
    pub fn open(dir: &Path, shards: u32) -> Result<Self, StoreError> {
        Self::open_with(dir, shards, StoreConfig::default())
    }

    /// Open with explicit per-shard configuration.
    pub fn open_with(dir: &Path, shards: u32, config: StoreConfig) -> Result<Self, StoreError> {
        Self::open_with_io(dir, shards, config, RealIo::handle())
    }

    /// Open through an explicit [`StoreIo`] — the fault-injection seam.
    /// The `SHARDS` count file is written once, tmp + rename, through
    /// the same seam; a mismatch against an existing file is refused.
    pub fn open_with_io(
        dir: &Path,
        shards: u32,
        config: StoreConfig,
        io: Arc<dyn StoreIo>,
    ) -> Result<Self, StoreError> {
        let shards = shards.max(1);
        io.create_dir_all(dir)?;
        let meta_path = dir.join(SHARDS_FILE);
        let on_disk = match io.read_all(&meta_path) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).trim().parse::<u32>().ok(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let count = match on_disk {
            Some(n) if n == shards => n,
            Some(n) => {
                return Err(StoreError::ShardMismatch {
                    dir: dir.to_path_buf(),
                    on_disk: n,
                    requested: shards,
                })
            }
            None => {
                // First open: record the count durably before any shard
                // exists, tmp + rename so a crash never leaves a torn
                // count that would mis-route every future run.
                replace_file(&*io, &meta_path, format!("{shards}\n").as_bytes())?;
                shards
            }
        };
        let mut stores = Vec::with_capacity(count as usize);
        let mut next_run_id = 1u64;
        for k in 0..count {
            let store =
                ProfileStore::open_with_io(&dir.join(shard_dir_name(k)), config, Arc::clone(&io))?;
            next_run_id = next_run_id.max(store.next_run_id());
            stores.push(Mutex::new(store));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            shards: stores,
            next_run_id: AtomicU64::new(next_run_id),
        })
    }

    /// The repository root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shards (fixed at creation).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a run with this identity routes to. Total and stable:
    /// a pure function of (benchmark, run id, shard count), identical
    /// across reopens and processes.
    pub fn route(benchmark: &str, run_id: u64, shards: usize) -> usize {
        // FNV-1a: stable across processes and platforms, which is what
        // routing needs (a rehash would orphan every stored run).
        let hash = if benchmark.is_empty() {
            fnv1a(&run_id.to_le_bytes())
        } else {
            fnv1a(benchmark.as_bytes())
        };
        (hash % shards.max(1) as u64) as usize
    }

    fn shard(&self, k: usize) -> MutexGuard<'_, ProfileStore> {
        self.shards[k].lock().expect("shard lock")
    }

    /// Append one run; takes `&self` — the id counter is atomic and
    /// only the routed shard locks, so distinct benchmarks ingest in
    /// parallel.
    pub fn ingest(
        &self,
        benchmark: &str,
        threads: u32,
        timestamp_ns: u64,
        profile: &Profile,
    ) -> Result<IngestReceipt, StoreError> {
        let run_id = self.next_run_id.fetch_add(1, Ordering::SeqCst);
        let k = Self::route(benchmark, run_id, self.shards.len());
        self.shard(k)
            .ingest_with_id(run_id, benchmark, threads, timestamp_ns, profile)
    }

    /// Append one run from a verified record body (see
    /// [`ProfileStore::ingest_record`]), routed like
    /// [`ShardedStore::ingest`].
    pub fn ingest_record(
        &self,
        benchmark: &str,
        threads: u32,
        timestamp_ns: u64,
        body: &VerifiedBody<'_>,
    ) -> Result<IngestReceipt, StoreError> {
        let run_id = self.next_run_id.fetch_add(1, Ordering::SeqCst);
        let k = Self::route(benchmark, run_id, self.shards.len());
        self.shard(k)
            .ingest_record_with_id(run_id, benchmark, threads, timestamp_ns, body)
    }

    /// The id the next ingest will assign.
    pub fn next_run_id(&self) -> u64 {
        self.next_run_id.load(Ordering::SeqCst)
    }

    /// Highest run id indexed across all shards (the replication
    /// cursor; see [`ProfileStore::max_run_id`]).
    pub fn max_run_id(&self) -> u64 {
        (0..self.shards.len())
            .map(|k| self.shard(k).max_run_id())
            .max()
            .unwrap_or(0)
    }

    /// Runs stored across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|k| self.shard(k).len()).sum()
    }

    /// True when no shard stores a run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Load one run by id (routed when the id's shard is unknown: every
    /// shard is probed, cheapest first by index search).
    pub fn load(&self, run_id: u64) -> Result<(RunMeta, Profile), StoreError> {
        for k in 0..self.shards.len() {
            match self.shard(k).load(run_id) {
                Err(StoreError::NotFound(_)) => continue,
                other => return other,
            }
        }
        Err(StoreError::NotFound(run_id))
    }

    /// Every distinct (benchmark, threads) group with its run count,
    /// summed across shards.
    pub fn groups(&self) -> BTreeMap<(String, u32), u64> {
        let mut out = BTreeMap::new();
        for k in 0..self.shards.len() {
            for (key, runs) in self.shard(k).groups() {
                *out.entry(key).or_insert(0) += runs;
            }
        }
        out
    }

    /// Aggregated shape/health summary (`compacted_through` reports the
    /// minimum over shards — the conservative "everything at least this
    /// far" view).
    pub fn stats(&self) -> StoreStats {
        let mut out = StoreStats::default();
        let mut compacted = u64::MAX;
        for s in self.per_shard_stats() {
            out.segments += s.segments;
            out.runs += s.runs;
            out.bytes += s.bytes;
            out.recovered_tail_bytes += s.recovered_tail_bytes;
            compacted = compacted.min(s.compacted_through);
        }
        out.compacted_through = if compacted == u64::MAX { 0 } else { compacted };
        out
    }

    /// Each shard's own summary, in shard order (the per-shard gauges).
    pub fn per_shard_stats(&self) -> Vec<StoreStats> {
        (0..self.shards.len())
            .map(|k| self.shard(k).stats())
            .collect()
    }

    /// Fold closed segments into every shard's aggregate cache; returns
    /// the total newly folded runs.
    pub fn compact(&self) -> Result<u64, StoreError> {
        let mut folded = 0;
        for k in 0..self.shards.len() {
            folded += self.shard(k).compact()?;
        }
        Ok(folded)
    }

    /// Run the retention sweep on every shard. Groups are shard-local,
    /// so per-group `keep_last` semantics are global for any run with a
    /// benchmark name (the group lives wholly in one shard).
    pub fn gc(&self, policy: &RetentionPolicy) -> Result<GcReport, StoreError> {
        let mut report = GcReport::default();
        for k in 0..self.shards.len() {
            report.absorb(self.shard(k).gc(policy)?);
        }
        Ok(report)
    }

    /// Every shard, locked in shard order — the one order a path that
    /// needs more than one shard at a time takes them in. The fan-in
    /// queries hold the guards from picking their entries to reading the
    /// last one, so no GC can move a frame in between.
    fn lock_all(&self) -> Vec<MutexGuard<'_, ProfileStore>> {
        (0..self.shards.len()).map(|k| self.shard(k)).collect()
    }

    /// Windowed entries of one group in *global* ingest order (run id),
    /// tagged with their shard. The window's `last` tail applies after
    /// the cross-shard sort, matching the single-store semantics.
    fn window_entries<'a>(
        shards: &'a [MutexGuard<'_, ProfileStore>],
        benchmark: &str,
        threads: u32,
        window: &RunWindow,
    ) -> Vec<(usize, &'a IndexEntry)> {
        let mut all: Vec<(usize, &IndexEntry)> = Vec::new();
        for (k, store) in shards.iter().enumerate() {
            for e in store.index() {
                if e.benchmark == benchmark
                    && e.threads == threads
                    && window.since_ns.is_none_or(|s| e.timestamp_ns >= s)
                {
                    all.push((k, e));
                }
            }
        }
        all.sort_by_key(|(_, e)| e.run_id);
        if let Some(last) = window.last {
            let keep = last.min(all.len() as u64) as usize;
            all.drain(..all.len() - keep);
        }
        all
    }

    /// Stream shard-tagged entries in (timestamp, run id) order through
    /// the k-way merge — one read cursor per shard, one record at a time,
    /// each handed to `f` as the single store's `stream_entries` does.
    fn stream_entries(
        shards: &[MutexGuard<'_, ProfileStore>],
        entries: &[(usize, &IndexEntry)],
        mut f: impl FnMut(&IndexEntry, &[u8]) -> Result<(), CodecError>,
    ) -> Result<(), StoreError> {
        let mut per_shard: BTreeMap<usize, Vec<(usize, &IndexEntry)>> = BTreeMap::new();
        for &item in entries {
            per_shard.entry(item.0).or_default().push(item);
        }
        let sources: Vec<std::vec::IntoIter<(usize, &IndexEntry)>> = per_shard
            .into_values()
            .map(|mut v| {
                v.sort_by_key(|(_, e)| (e.timestamp_ns, e.run_id));
                v.into_iter()
            })
            .collect();
        let merged = KWayMerge::new(sources, |(_, e)| (e.timestamp_ns, e.run_id));
        let mut cursors: Vec<_> = shards.iter().map(|store| store.cursor()).collect();
        for (k, entry) in merged {
            cursors[k].read(entry, &mut f)?;
        }
        Ok(())
    }

    /// Cross-run aggregate of a windowed group. A named benchmark lives
    /// wholly in its routed shard, so the query delegates there (and
    /// benefits from that shard's compaction cache); the empty-name
    /// group is spread by run-id hash and takes the k-way fan-in.
    pub fn aggregate_window(
        &self,
        benchmark: &str,
        threads: u32,
        window: &RunWindow,
    ) -> Result<BenchAgg, StoreError> {
        if !benchmark.is_empty() {
            let k = Self::route(benchmark, 0, self.shards.len());
            return self.shard(k).aggregate_window(benchmark, threads, window);
        }
        let shards = self.lock_all();
        let entries = Self::window_entries(&shards, benchmark, threads, window);
        let mut agg = BenchAgg::default();
        Self::stream_entries(&shards, &entries, |_, payload| {
            agg.fold_summary(RunSummary::from_record(payload)?);
            Ok(())
        })?;
        Ok(agg)
    }

    /// Trend buckets over a windowed group — same delegation rule as
    /// [`ShardedStore::aggregate_window`].
    pub fn trend(
        &self,
        benchmark: &str,
        threads: u32,
        window: &RunWindow,
        buckets: usize,
    ) -> Result<Vec<TrendBucket>, StoreError> {
        if !benchmark.is_empty() {
            let k = Self::route(benchmark, 0, self.shards.len());
            return self.shard(k).trend(benchmark, threads, window, buckets);
        }
        let shards = self.lock_all();
        let entries = Self::window_entries(&shards, benchmark, threads, window);
        if entries.is_empty() || buckets == 0 {
            return Ok(Vec::new());
        }
        let buckets = buckets.min(entries.len());
        let base = entries.len() / buckets;
        let extra = entries.len() % buckets;
        let mut out = Vec::with_capacity(buckets);
        let mut start = 0;
        for i in 0..buckets {
            let len = base + usize::from(i < extra);
            let span = &entries[start..start + len];
            start += len;
            let mut bucket = TrendBucket {
                min_ns: u64::MAX,
                first_timestamp_ns: span.first().map(|(_, e)| e.timestamp_ns).unwrap_or(0),
                last_timestamp_ns: span.last().map(|(_, e)| e.timestamp_ns).unwrap_or(0),
                ..TrendBucket::default()
            };
            Self::stream_entries(&shards, span, |_, payload| {
                bucket.add(RunSummary::from_record(payload)?.total_ns);
                Ok(())
            })?;
            if bucket.runs == 0 {
                bucket.min_ns = 0;
            }
            out.push(bucket);
        }
        Ok(out)
    }

    /// One page of the replication stream in global ascending run-id
    /// order: per-shard pages (each already ascending) interleaved by
    /// the k-way merge, truncated to `max`.
    pub fn export_frames(&self, after: u64, max: usize) -> Result<ExportBatch, StoreError> {
        let mut pages = Vec::with_capacity(self.shards.len());
        let mut all_done = true;
        for k in 0..self.shards.len() {
            let (page, done) = self.shard(k).export_page(after, max)?;
            all_done &= done;
            pages.push(page.into_iter());
        }
        let mut merged: Vec<_> = KWayMerge::new(pages, |(id, _)| (*id, 0)).collect();
        let done = all_done && merged.len() <= max;
        merged.truncate(max);
        Ok(ExportBatch::page(after, merged, done))
    }

    /// Apply one replicated frame, routing it to the shard its identity
    /// selects. Exactly-once across the whole repository: a frame at or
    /// below the global [`ShardedStore::max_run_id`] is skipped. The
    /// frame and its record are checked as [`ProfileStore::apply_frame`]
    /// checks them, and the checked frame is appended as it is.
    pub fn apply_frame(&self, frame: &[u8]) -> Result<Option<IngestReceipt>, StoreError> {
        let Some((meta, checked)) = replica(frame, self.max_run_id())? else {
            return Ok(None);
        };
        let k = Self::route(&meta.benchmark, meta.run_id, self.shards.len());
        let run_id = meta.run_id;
        let receipt = self.shard(k).append_checked(meta, checked)?;
        self.next_run_id.fetch_max(run_id + 1, Ordering::SeqCst);
        Ok(Some(receipt))
    }

    /// Sum of torn-tail bytes recovered by the last open, over shards.
    pub fn recovered_tail_bytes(&self) -> u64 {
        (0..self.shards.len())
            .map(|k| self.shard(k).recovered_tail_bytes())
            .sum()
    }
}

fn shard_dir_name(k: u32) -> String {
    format!("shard-{k:03}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{registry, RegionKind, TaskIdAllocator};
    use taskprof::{AssignPolicy, Event, TeamReplayer};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "profstore-shard-{tag}-{}-{:?}",
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
    fn routing_is_total_and_ids_are_globally_unique() {
        let dir = tmpdir("route");
        let store = ShardedStore::open(&dir, 4).expect("open");
        let p = profile("shard-route", 10);
        let mut ids = std::collections::BTreeSet::new();
        for i in 0..20u64 {
            let bench = format!("bench-{}", i % 5);
            let r = store.ingest(&bench, 2, i, &p).expect("ingest");
            assert!(ids.insert(r.run_id), "duplicate id {}", r.run_id);
        }
        assert_eq!(store.len(), 20);
        // Reopen sees everything and resumes past the highest id.
        let next = store.next_run_id();
        drop(store);
        let store = ShardedStore::open(&dir, 4).expect("reopen");
        assert_eq!(store.len(), 20);
        assert!(store.next_run_id() >= next - 1);
        let r = store.ingest("bench-0", 2, 99, &p).expect("ingest");
        assert!(ids.insert(r.run_id), "reopen reused id {}", r.run_id);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_count_is_fixed_at_creation() {
        let dir = tmpdir("fixed");
        let store = ShardedStore::open(&dir, 3).expect("open");
        drop(store);
        match ShardedStore::open(&dir, 5) {
            Err(StoreError::ShardMismatch {
                on_disk, requested, ..
            }) => {
                assert_eq!(on_disk, 3);
                assert_eq!(requested, 5);
            }
            other => panic!("expected ShardMismatch, got {other:?}"),
        }
        ShardedStore::open(&dir, 3).expect("matching count reopens");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fan_in_matches_single_store_aggregation() {
        let dir = tmpdir("fanin");
        let single_dir = tmpdir("fanin-single");
        let sharded = ShardedStore::open(&dir, 4).expect("open sharded");
        let mut single = ProfileStore::open(&single_dir).expect("open single");
        for i in 0..12u64 {
            let p = profile("shard-fanin", 100 + i);
            sharded
                .ingest("fib", 2, 10 + i, &p)
                .expect("sharded ingest");
            single.ingest("fib", 2, 10 + i, &p).expect("single ingest");
        }
        let a = sharded
            .aggregate_window("fib", 2, &RunWindow::default())
            .expect("sharded agg");
        let b = single
            .aggregate_window("fib", 2, &RunWindow::default())
            .expect("single agg");
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.total_ns, b.total_ns);
        assert_eq!(a.regions, b.regions);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&single_dir);
    }

    #[test]
    fn export_apply_replicates_byte_identically() {
        let leader_dir = tmpdir("exp-leader");
        let follower_dir = tmpdir("exp-follower");
        let leader = ShardedStore::open(&leader_dir, 3).expect("leader");
        let follower = ShardedStore::open(&follower_dir, 2).expect("follower");
        for i in 0..9u64 {
            let p = profile("shard-exp", 50 + i);
            leader
                .ingest(&format!("bench-{}", i % 3), 2, i, &p)
                .expect("ingest");
        }
        let mut cursor = follower.max_run_id();
        loop {
            let batch = leader.export_frames(cursor, 4).expect("export");
            for frame in &batch.frames {
                follower.apply_frame(frame).expect("apply");
            }
            cursor = batch.watermark;
            if batch.done {
                break;
            }
        }
        assert_eq!(follower.len(), leader.len());
        assert_eq!(follower.max_run_id(), leader.max_run_id());
        // Re-applying the whole stream is a no-op (exactly-once).
        let batch = leader.export_frames(0, 100).expect("re-export");
        for frame in &batch.frames {
            assert!(follower.apply_frame(frame).expect("re-apply").is_none());
        }
        assert_eq!(follower.len(), leader.len());
        // Every run round-trips byte-identically.
        let ids: Vec<u64> = {
            let shards = leader.lock_all();
            ShardedStore::window_entries(&shards, "bench-0", 2, &RunWindow::default())
                .iter()
                .map(|(_, e)| e.run_id)
                .collect()
        };
        assert_eq!(ids.len(), 3);
        for id in ids {
            let (lm, lp) = leader.load(id).expect("leader load");
            let (fm, fp) = follower.load(id).expect("follower load");
            assert_eq!(lm.benchmark, fm.benchmark);
            assert_eq!(lm.timestamp_ns, fm.timestamp_ns);
            assert_eq!(lp.threads[0].main, fp.threads[0].main);
        }
        let _ = std::fs::remove_dir_all(&leader_dir);
        let _ = std::fs::remove_dir_all(&follower_dir);
    }

    #[test]
    fn gc_respects_cutoff_across_shards() {
        let dir = tmpdir("gc");
        let store = ShardedStore::open_with(
            &dir,
            3,
            StoreConfig {
                segment_max_bytes: 400,
                sync_writes: false,
            },
        )
        .expect("open");
        for i in 0..12u64 {
            let p = profile("shard-gc", 10);
            store
                .ingest(&format!("bench-{}", i % 3), 2, 100 + i, &p)
                .expect("ingest");
        }
        let report = store
            .gc(&RetentionPolicy {
                keep_last: None,
                min_timestamp_ns: Some(106),
            })
            .expect("gc");
        assert_eq!(report.dropped_runs, 6);
        assert_eq!(store.len(), 6);
        for k in 0..3 {
            for e in store.shard(k).index() {
                assert!(e.timestamp_ns >= 106, "run newer than cutoff removed");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
