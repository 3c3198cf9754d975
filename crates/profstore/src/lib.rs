//! `profstore` — a durable repository of measurement runs.
//!
//! The paper's workflow ends at one CUBE file per run; this crate is the
//! next layer: many runs, retained durably, aggregated across each other,
//! and queryable online. The design is a classic append-only log:
//!
//! * [`codec`] — a compact length-prefixed binary encoding of a
//!   [`taskprof::Profile`] plus its [`RunMeta`], varint-packed, with a
//!   version byte and a CRC-32 per record.
//! * [`segment`] — segment files (`seg-NNNNNN.log`): a magic header
//!   followed by framed records. Only the newest segment is ever written;
//!   older ("closed") segments are immutable.
//! * [`ProfileStore`] — the repository: an in-memory index keyed by
//!   (run id, benchmark, thread count, timestamp), crash-safe recovery
//!   that truncates a torn tail record on open, size-based segment
//!   rotation, and compaction that folds closed segments into
//!   per-benchmark cross-run aggregates.
//! * [`merge`] — a streaming k-way merge over per-segment cursors, so
//!   aggregation visits runs one at a time in (timestamp, run id) order
//!   and never materializes every profile at once.
//! * [`agg`] — the cross-run statistics themselves: min/max/mean/sum of
//!   the paper's per-construct metrics over runs, plus the regression
//!   check a serving daemon runs against a freshly ingested profile.
//! * [`io`] — the injectable I/O seam: every file operation goes through
//!   a [`StoreIo`] handle ([`RealIo`] in production, a zero-cost
//!   passthrough), so [`FaultIo`] can deterministically inject short
//!   writes, `ENOSPC`, `EIO`, and crash-at-point torn frames from a
//!   splitmix64-seeded [`FaultPlan`]. The torture tests crash the store
//!   at *every* mutating operation and prove recovery never loses or
//!   duplicates an acknowledged run.
//!
//! Durability contract: a record is either fully on disk (length,
//! payload, CRC all intact) or it is dropped at the next
//! [`ProfileStore::open`]. A crash mid-append therefore loses at most the
//! in-flight record; everything previously acknowledged survives.
//!
//! Single-writer contract: opening a store takes an exclusive advisory
//! lock on the directory (a `LOCK` file, held for the store's lifetime
//! and released by the OS even on crash). A second concurrent open —
//! from this process or another — fails with [`StoreError::Locked`]
//! rather than letting two writers interleave frames on the same active
//! segment.

#![warn(missing_docs)]

pub mod agg;
pub mod codec;
pub mod crc;
pub mod io;
pub mod merge;
mod repo;
pub mod segment;
mod shard;
mod store;

pub use agg::{BenchAgg, MetricAgg, RegressConfig, Regression, RegressionFinding, RunSummary};
pub use codec::{
    decode_meta, decode_record, encode_record, put_iv, put_meta, put_str, put_uv, verify_record,
    CodecError, Reader as PayloadReader, RunMeta, VerifiedBody, CODEC_VERSION, MAX_RECORD_BYTES,
};
pub use io::{
    is_enospc, FaultHandle, FaultIo, FaultKind, FaultMode, FaultPlan, RealIo, StoreFile, StoreIo,
    StoreRead,
};
pub use merge::KWayMerge;
pub use repo::Repo;
pub use segment::{SegmentReader, SegmentWriter, RECORD_HEADER_BYTES, SEGMENT_MAGIC};
pub use shard::ShardedStore;
pub use store::{
    ExportBatch, GcReport, IndexEntry, IngestReceipt, ProfileStore, RetentionPolicy, RunWindow,
    StoreConfig, StoreError, StoreStats, TrendBucket,
};
