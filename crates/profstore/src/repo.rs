//! [`Repo`]: one handle over either repository flavor, so the serving
//! daemon is agnostic to whether it fronts a single [`ProfileStore`] or
//! a [`ShardedStore`]. Exactly the operations the daemon needs are
//! delegated; everything else stays on the concrete types.

use crate::agg::BenchAgg;
use crate::codec::{RunMeta, VerifiedBody};
use crate::shard::ShardedStore;
use crate::store::{
    ExportBatch, GcReport, IngestReceipt, PageApply, ProfileStore, RetentionPolicy, RunWindow,
    StoreError, StoreStats, TrendBucket,
};
use std::collections::BTreeMap;
use std::path::Path;
use taskprof::Profile;

/// A single-store or sharded repository behind one dispatching handle.
#[derive(Debug)]
pub enum Repo {
    /// One `ProfileStore` (the pre-sharding deployment shape).
    Single(ProfileStore),
    /// N stores routed by benchmark with global run ids.
    Sharded(ShardedStore),
}

impl From<ProfileStore> for Repo {
    fn from(store: ProfileStore) -> Self {
        Repo::Single(store)
    }
}

impl From<ShardedStore> for Repo {
    fn from(store: ShardedStore) -> Self {
        Repo::Sharded(store)
    }
}

impl Repo {
    /// The repository root directory.
    pub fn dir(&self) -> &Path {
        match self {
            Repo::Single(s) => s.dir(),
            Repo::Sharded(s) => s.dir(),
        }
    }

    /// Shards behind this handle (1 for a single store).
    pub fn shard_count(&self) -> usize {
        match self {
            Repo::Single(_) => 1,
            Repo::Sharded(s) => s.shard_count(),
        }
    }

    /// Append one run, assigning the next run id.
    pub fn ingest(
        &mut self,
        benchmark: &str,
        threads: u32,
        timestamp_ns: u64,
        profile: &Profile,
    ) -> Result<IngestReceipt, StoreError> {
        match self {
            Repo::Single(s) => s.ingest(benchmark, threads, timestamp_ns, profile),
            Repo::Sharded(s) => s.ingest(benchmark, threads, timestamp_ns, profile),
        }
    }

    /// Append one run from a verified record body, assigning the next
    /// run id (see [`ProfileStore::ingest_record`]).
    pub fn ingest_record(
        &mut self,
        benchmark: &str,
        threads: u32,
        timestamp_ns: u64,
        body: &VerifiedBody<'_>,
    ) -> Result<IngestReceipt, StoreError> {
        match self {
            Repo::Single(s) => s.ingest_record(benchmark, threads, timestamp_ns, body),
            Repo::Sharded(s) => s.ingest_record(benchmark, threads, timestamp_ns, body),
        }
    }

    /// Load one run by id.
    pub fn load(&self, run_id: u64) -> Result<(RunMeta, Profile), StoreError> {
        match self {
            Repo::Single(s) => s.load(run_id),
            Repo::Sharded(s) => s.load(run_id),
        }
    }

    /// Cross-run aggregate of a windowed (benchmark, threads) group.
    pub fn aggregate_window(
        &self,
        benchmark: &str,
        threads: u32,
        window: &RunWindow,
    ) -> Result<BenchAgg, StoreError> {
        match self {
            Repo::Single(s) => s.aggregate_window(benchmark, threads, window),
            Repo::Sharded(s) => s.aggregate_window(benchmark, threads, window),
        }
    }

    /// Trend buckets over a windowed group.
    pub fn trend(
        &self,
        benchmark: &str,
        threads: u32,
        window: &RunWindow,
        buckets: usize,
    ) -> Result<Vec<TrendBucket>, StoreError> {
        match self {
            Repo::Single(s) => s.trend(benchmark, threads, window, buckets),
            Repo::Sharded(s) => s.trend(benchmark, threads, window, buckets),
        }
    }

    /// Every distinct (benchmark, threads) group with its run count.
    pub fn groups(&self) -> BTreeMap<(String, u32), u64> {
        match self {
            Repo::Single(s) => s.groups(),
            Repo::Sharded(s) => s.groups(),
        }
    }

    /// Whole-repository shape/health summary.
    pub fn stats(&self) -> StoreStats {
        match self {
            Repo::Single(s) => s.stats(),
            Repo::Sharded(s) => s.stats(),
        }
    }

    /// Per-shard summaries, in shard order (one entry for a single
    /// store) — the data behind the daemon's per-shard gauges.
    pub fn per_shard_stats(&self) -> Vec<StoreStats> {
        match self {
            Repo::Single(s) => vec![s.stats()],
            Repo::Sharded(s) => s.per_shard_stats(),
        }
    }

    /// Fold closed segments into the aggregate cache(s).
    pub fn compact(&mut self) -> Result<u64, StoreError> {
        match self {
            Repo::Single(s) => s.compact(),
            Repo::Sharded(s) => s.compact(),
        }
    }

    /// Garbage-collect runs the retention policy rejects.
    pub fn gc(&mut self, policy: &RetentionPolicy) -> Result<GcReport, StoreError> {
        match self {
            Repo::Single(s) => s.gc(policy),
            Repo::Sharded(s) => s.gc(policy),
        }
    }

    /// One page of the replication stream (ascending run-id order).
    pub fn export_frames(&self, after: u64, max: usize) -> Result<ExportBatch, StoreError> {
        match self {
            Repo::Single(s) => s.export_frames(after, max),
            Repo::Sharded(s) => s.export_frames(after, max),
        }
    }

    /// Apply one page of replicated frames exactly-once (see
    /// [`ProfileStore::apply_frames`]).
    pub fn apply_frames<F: AsRef<[u8]>>(&mut self, frames: &[F]) -> PageApply {
        match self {
            Repo::Single(s) => s.apply_frames(frames),
            Repo::Sharded(s) => s.apply_frames(frames),
        }
    }

    /// [`Repo::apply_frames`] over one frame (None = already applied).
    pub fn apply_frame(&mut self, frame: &[u8]) -> Result<Option<IngestReceipt>, StoreError> {
        self.apply_frames(&[frame]).into_frame()
    }

    /// Highest run id indexed (the replication cursor).
    pub fn max_run_id(&self) -> u64 {
        match self {
            Repo::Single(s) => s.max_run_id(),
            Repo::Sharded(s) => s.max_run_id(),
        }
    }
}
