//! The protocol surface: one shared, typed request/response model with
//! two interchangeable encodings.
//!
//! * **JSON lines** (this module): one JSON object per line, both
//!   directions — human-readable, `nc`-able, the original protocol.
//! * **TPF1 binary frames** ([`crate::wire`]): length-prefixed CRC-framed
//!   payloads sharing the store's LEB128 codec — the bulk-ingest path.
//!
//! Both codecs encode the same [`Request`] / [`Response`] enums, so the
//! server core and the typed [`crate::Client`] are protocol-agnostic, and
//! both are derived from one declaration per message
//! (`crates/profserve/src/codec.rs`, the spec of every member below and
//! of the replies).
//!
//! JSON requests, members in the order the encoder writes them (a reader
//! takes any order, ignores unknown members, and reads an optional member
//! of the wrong type as absent):
//!
//! ```text
//! {"cmd":"HELLO","version":1,"features":0,"auth":"<secret>"}
//! {"cmd":"INGEST","benchmark":"fib","threads":2,"timestamp_ns":N,
//!  "profile":"taskprof-profile v1\n…"}
//! {"cmd":"INGEST_BATCH","items":[{"benchmark":…,"threads":…,"profile":…},…]}
//! {"cmd":"QUERY","query":"top","benchmark":"fib","threads":2,"n":10}
//! {"cmd":"QUERY","query":"stats","benchmark":"fib","threads":2}
//! {"cmd":"QUERY","query":"regress","benchmark":"fib","threads":2,
//!  "threshold":0.2,"min_runs":N,"min_delta_ns":N,"profile":"…"}
//! {"cmd":"QUERY","query":"trend","benchmark":"fib","threads":2,"buckets":16}
//! {"cmd":"STATS"}                             or: "format":"prometheus"
//! {"cmd":"SUBSCRIBE","interval_ms":N}
//! {"cmd":"EXPORT","after":N,"max":N}
//! {"cmd":"APPLY","frames":["<hex>",…]}
//! ```
//!
//! Optional: `features` (0), `auth`, `timestamp_ns`, `threshold` (finite),
//! `min_runs`, `min_delta_ns`, `interval_ms` — absent, the server's clock
//! or defaults apply. The `HELLO` secret, `auth`, is required (on both
//! protocols) when the server is configured with one; unauthenticated
//! connections are limited to `HELLO`.
//!
//! `EXPORT`/`APPLY` are the replication verbs: a leader streams raw
//! CRC-framed store record frames out of `EXPORT` pages and a follower
//! ingests them via `APPLY`, exactly-once, resuming from its own
//! watermark after any interruption. Over JSON the frames travel
//! hex-encoded; over TPF1 they travel as raw bytes.
//!
//! Every `QUERY` additionally accepts an optional run window:
//! `"last":N` (newest N runs) and/or `"since_ns":T` (runs stamped at or
//! after `T`) — evaluated against the store index before aggregation.
//!
//! `SUBSCRIBE` upgrades the connection to a push stream: the server
//! acknowledges with `{"ok":true,"subscribed":true,…}` and then sends
//! unsolicited [`Response::Event`] lines/frames — periodic telemetry
//! snapshots, ingest notifications, and `lagged` notices when a slow
//! subscriber's queue overflowed and events were shed.
//!
//! Every JSON response is `{"ok":true,…}` or a typed error
//! `{"ok":false,"error":{"kind":"<kind>","message":"…"}}` with kind one of
//! `overloaded`, `bad_request`, `not_found`, `internal`, `too_large`,
//! `read_only`, `unauthorized`. Over JSON, profiles travel as the text
//! store format (`cube::write_profile`) inside a JSON string; over TPF1
//! they travel as the store's binary record payload. [`ProfilePayload`]
//! carries either form. The server parses text; it verifies a record and
//! stores its bytes without decoding them.

use profstore::{
    BenchAgg, CodecError, MetricAgg, Regression, RunMeta, RunWindow, StoreStats, TrendBucket,
    VerifiedBody,
};
use std::borrow::Cow;
use taskprof::Profile;
use taskprof_telemetry::ServiceSnapshot;

/// Typed error categories a response can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The connection permit gate is exhausted; retry later.
    Overloaded,
    /// The request line did not parse or lacked required fields.
    BadRequest,
    /// The referenced benchmark/run does not exist.
    NotFound,
    /// The handler failed (including isolated panics).
    Internal,
    /// The request line exceeded the configured size cap; the connection
    /// is closed after this reply (there is no way to resync mid-line).
    TooLarge,
    /// The store hit `ENOSPC` and the daemon degraded to read-only:
    /// queries still work, ingests are refused until an operator frees
    /// disk space and restarts (or the store recovers).
    ReadOnly,
    /// The server requires a shared secret and this connection has not
    /// presented it (or presented the wrong one) in its `HELLO`.
    /// Unauthenticated connections may only negotiate.
    Unauthorized,
}

impl ErrorKind {
    /// Every kind, in declaration (= [`byte`](Self::byte)) order.
    const ALL: [ErrorKind; 7] = [
        ErrorKind::Overloaded,
        ErrorKind::BadRequest,
        ErrorKind::NotFound,
        ErrorKind::Internal,
        ErrorKind::TooLarge,
        ErrorKind::ReadOnly,
        ErrorKind::Unauthorized,
    ];

    /// The kind's name on the JSON wire.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::NotFound => "not_found",
            ErrorKind::Internal => "internal",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::ReadOnly => "read_only",
            ErrorKind::Unauthorized => "unauthorized",
        }
    }

    /// Inverse of [`tag`](Self::tag); `None` for an unknown tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// The kind's byte on the TPF1 wire: its place in the declaration
    /// (a wire format — never reorder the variants).
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Inverse of [`byte`](Self::byte); `None` for an unknown byte.
    pub fn from_byte(byte: u8) -> Option<Self> {
        Self::ALL.get(usize::from(byte)).copied()
    }
}

/// Transport selection knob shared by the client, the server, the CLI
/// (`--proto`), and the session exporter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireProtocol {
    /// Negotiate. A client tries TPF1 and falls back to JSON lines if
    /// the handshake fails; a server sniffs the first bytes of each
    /// connection and speaks whichever protocol arrives.
    #[default]
    Auto,
    /// JSON lines only.
    Json,
    /// TPF1 binary frames only.
    Binary,
}

impl WireProtocol {
    /// Parse a CLI/config spelling (`auto`, `json`, `bin`/`binary`).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "auto" => WireProtocol::Auto,
            "json" => WireProtocol::Json,
            "bin" | "binary" => WireProtocol::Binary,
            _ => return None,
        })
    }

    /// Canonical spelling (round-trips through [`WireProtocol::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            WireProtocol::Auto => "auto",
            WireProtocol::Json => "json",
            WireProtocol::Binary => "bin",
        }
    }
}

impl std::str::FromStr for WireProtocol {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        WireProtocol::parse(s)
            .ok_or_else(|| format!("unknown wire protocol '{s}' (expected auto|json|bin)"))
    }
}

impl std::fmt::Display for WireProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------
// Payloads and requests
// ---------------------------------------------------------------------

/// A profile in transit, in whichever encoding the protocol chose.
///
/// JSON carries [`Text`](ProfilePayload::Text) (the `cube` text store
/// format); TPF1 carries [`Record`](ProfilePayload::Record) (the
/// `profstore` record codec payload, run id 0 — the store assigns the
/// real id on ingest). The server accepts either on either protocol; the
/// explicit benchmark/threads/timestamp fields on the request always win
/// over whatever metadata a record payload embeds.
#[derive(Clone, Debug, PartialEq)]
pub enum ProfilePayload {
    /// `cube::write_profile` text.
    Text(String),
    /// `profstore::encode_record` payload bytes.
    Record(Vec<u8>),
}

/// Empty text — what a decoder starts from.
impl Default for ProfilePayload {
    fn default() -> Self {
        ProfilePayload::Text(String::new())
    }
}

/// A payload checked at the ingest door, in the form the store appends.
pub(crate) enum Checked<'a> {
    /// Parsed text; the store encodes it.
    Profile(Profile),
    /// A verified record body; the store stamps a header on it.
    Body(VerifiedBody<'a>),
}

impl ProfilePayload {
    /// Decode to an in-memory [`Profile`]; `Err` carries a `bad_request`
    /// explanation. Both encodings can spell a profile without threads;
    /// no measurement produces one, so it is refused here, at the door.
    pub fn decode(&self) -> Result<Profile, String> {
        match self {
            ProfilePayload::Text(text) => parse_text(text),
            ProfilePayload::Record(bytes) => profstore::decode_record(bytes)
                .map_err(bad_record)
                .and_then(|(_, p)| with_threads(p)),
        }
    }

    /// What ingest needs of a payload, refusing at least what
    /// [`ProfilePayload::decode`] refuses: text is parsed, since the store
    /// can only encode a [`Profile`]; a record is verified in place and
    /// never decoded (see [`profstore::verify_record`]).
    pub(crate) fn check(&self) -> Result<Checked<'_>, String> {
        match self {
            ProfilePayload::Text(text) => parse_text(text).map(Checked::Profile),
            ProfilePayload::Record(bytes) => profstore::verify_record(bytes)
                .map(Checked::Body)
                .map_err(bad_record),
        }
    }

    /// Render as text-store format (re-encoding a binary record if
    /// needed) — what the JSON codec puts on the wire.
    pub fn to_text(&self) -> Result<Cow<'_, str>, String> {
        match self {
            ProfilePayload::Text(text) => Ok(Cow::Borrowed(text)),
            ProfilePayload::Record(_) => Ok(Cow::Owned(cube::write_profile(&self.decode()?))),
        }
    }

    /// Approximate in-transit size, for accounting and size caps.
    pub fn len(&self) -> usize {
        match self {
            ProfilePayload::Text(t) => t.len(),
            ProfilePayload::Record(b) => b.len(),
        }
    }

    /// True when the payload is empty (vacuous, but clippy insists a
    /// `len` has an `is_empty`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn parse_text(text: &str) -> Result<Profile, String> {
    cube::read_profile(text)
        .map_err(|e| format!("bad profile: {e}"))
        .and_then(with_threads)
}

fn with_threads(profile: Profile) -> Result<Profile, String> {
    if profile.threads.is_empty() {
        return Err("bad profile: no threads".to_string());
    }
    Ok(profile)
}

fn bad_record(e: CodecError) -> String {
    format!("bad profile record: {e}")
}

/// One profile to ingest: group identity plus the payload. This is the
/// item type of [`Request::Ingest`] and [`Request::IngestBatch`], and the
/// argument to [`crate::Client::ingest_batch`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    /// Benchmark / workload name the run belongs to.
    pub benchmark: String,
    /// Team thread count of the run.
    pub threads: u32,
    /// Caller timestamp; the server stamps its own clock when absent.
    pub timestamp_ns: Option<u64>,
    /// The profile itself.
    pub profile: ProfilePayload,
}

impl Record {
    /// A record from text-store-format profile text.
    pub fn from_text(
        benchmark: impl Into<String>,
        threads: u32,
        timestamp_ns: Option<u64>,
        profile_text: impl Into<String>,
    ) -> Self {
        Record {
            benchmark: benchmark.into(),
            threads,
            timestamp_ns,
            profile: ProfilePayload::Text(profile_text.into()),
        }
    }

    /// A record from an in-memory profile, encoded as the compact binary
    /// record payload (run id 0; the store assigns the real one).
    pub fn from_profile(
        benchmark: impl Into<String>,
        threads: u32,
        timestamp_ns: Option<u64>,
        profile: &Profile,
    ) -> Self {
        let benchmark = benchmark.into();
        let meta = RunMeta {
            run_id: 0,
            benchmark: benchmark.clone(),
            threads,
            timestamp_ns: timestamp_ns.unwrap_or(0),
        };
        Record {
            benchmark,
            threads,
            timestamp_ns,
            profile: ProfilePayload::Record(profstore::encode_record(&meta, profile)),
        }
    }
}

/// One parsed request, protocol-independent.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Version/feature negotiation (sent first on binary connections;
    /// legal but optional over JSON — required there too when the server
    /// is configured with a shared secret).
    Hello {
        /// Highest protocol version the client speaks.
        version: u32,
        /// Feature bitmask the client understands (see [`crate::wire`]).
        features: u64,
        /// Shared secret authenticating this connection. A server with
        /// no secret configured ignores it; a server with one refuses
        /// everything but `HELLO` until a valid secret arrives.
        auth: Option<String>,
    },
    /// Upload one profile.
    Ingest(Record),
    /// Upload many profiles under one acknowledgement — the pipelined
    /// bulk path. Items are ingested in order; the first failure aborts
    /// the rest and the error reply tells the client nothing after the
    /// reported count was stored.
    IngestBatch(Vec<Record>),
    /// Top-N constructs by summed inclusive time across stored runs.
    QueryTop {
        /// Benchmark name.
        benchmark: String,
        /// Thread count group.
        threads: u32,
        /// How many rows.
        n: usize,
        /// Run window the aggregate is computed over.
        window: RunWindow,
    },
    /// Cross-run scalar statistics of one group.
    QueryStats {
        /// Benchmark name.
        benchmark: String,
        /// Thread count group.
        threads: u32,
        /// Run window the aggregate is computed over.
        window: RunWindow,
    },
    /// Check a fresh run against the stored aggregate.
    QueryRegress {
        /// Benchmark name.
        benchmark: String,
        /// Thread count group.
        threads: u32,
        /// The candidate profile.
        profile: ProfilePayload,
        /// Relative threshold (default: the server's).
        threshold: Option<f64>,
        /// Minimum baseline runs (default: the server's).
        min_runs: Option<u64>,
        /// Absolute noise floor in ns (default: the server's).
        min_delta_ns: Option<u64>,
        /// Run window the baseline is built from.
        window: RunWindow,
    },
    /// Per-bucket run-total aggregates over the window, ingest order —
    /// the sparkline/trend-dashboard query.
    QueryTrend {
        /// Benchmark name.
        benchmark: String,
        /// Thread count group.
        threads: u32,
        /// Maximum number of trend buckets.
        buckets: u32,
        /// Run window the trend is computed over.
        window: RunWindow,
    },
    /// Server health: service counters + store shape.
    Stats,
    /// Server health in the Prometheus text exposition format.
    StatsPrometheus,
    /// Upgrade this connection to a live event stream (reactor only).
    Subscribe {
        /// Telemetry snapshot period in ms (`None` = server default).
        interval_ms: Option<u64>,
    },
    /// One page of the bulk replication stream: raw store record frames
    /// with run ids above `after`, ascending.
    Export {
        /// Replication cursor — highest run id the follower has applied.
        after: u64,
        /// Maximum frames in this page.
        max: u64,
    },
    /// Apply exported record frames to this (follower) store. An empty
    /// frame list is a cursor probe: the reply reports the follower's
    /// current watermark without writing anything.
    Apply {
        /// Raw `len|payload|crc` record frames from [`Request::Export`].
        frames: Vec<Vec<u8>>,
    },
}

// ---------------------------------------------------------------------
// Typed responses
// ---------------------------------------------------------------------

/// Acknowledgement of one ingest (or one whole batch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Run id of the first profile stored (ids are consecutive within a
    /// batch).
    pub first_run_id: u64,
    /// Profiles stored under this acknowledgement.
    pub count: u64,
    /// Framed bytes appended across the batch.
    pub bytes: u64,
    /// Segment the last record landed in.
    pub segment: u64,
}

impl IngestReceipt {
    /// The single run id, for one-profile ingests.
    pub fn run_id(&self) -> u64 {
        self.first_run_id
    }
}

/// Cross-run aggregate of one scalar metric.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricReport {
    /// Runs aggregated.
    pub runs: u64,
    /// Sum over runs, ns.
    pub sum_ns: u64,
    /// Minimum over runs, ns (0 when no runs).
    pub min_ns: u64,
    /// Maximum over runs, ns.
    pub max_ns: u64,
    /// Mean over runs, ns.
    pub mean_ns: f64,
}

impl MetricReport {
    fn from_agg(m: &MetricAgg) -> Self {
        MetricReport {
            runs: m.count,
            sum_ns: m.sum,
            min_ns: m.min().unwrap_or(0),
            max_ns: m.max,
            mean_ns: m.mean(),
        }
    }
}

/// One row of a top-N report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegionRow {
    /// Construct (region) name.
    pub region: String,
    /// Summed-inclusive-time aggregate across runs.
    pub metric: MetricReport,
}

/// `QUERY top` result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopReport {
    /// Benchmark queried.
    pub benchmark: String,
    /// Thread count group queried.
    pub threads: u32,
    /// Runs in the aggregate.
    pub runs: u64,
    /// Rows, hottest first.
    pub regions: Vec<RegionRow>,
}

impl TopReport {
    /// Build from a store aggregate.
    pub fn from_agg(benchmark: &str, threads: u32, agg: &BenchAgg, n: usize) -> Self {
        TopReport {
            benchmark: benchmark.to_string(),
            threads,
            runs: agg.runs,
            regions: agg
                .top_regions(n)
                .into_iter()
                .map(|(name, m)| RegionRow {
                    region: name.to_string(),
                    metric: MetricReport::from_agg(m),
                })
                .collect(),
        }
    }
}

/// `QUERY stats` result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReport {
    /// Benchmark queried.
    pub benchmark: String,
    /// Thread count group queried.
    pub threads: u32,
    /// Runs in the aggregate.
    pub runs: u64,
    /// Total inclusive time across runs.
    pub total_ns: MetricReport,
    /// Distinct constructs seen.
    pub constructs: u64,
    /// Runs whose tree shape disagreed with the aggregate.
    pub tree_mismatches: u64,
}

impl StatsReport {
    /// Build from a store aggregate.
    pub fn from_agg(benchmark: &str, threads: u32, agg: &BenchAgg) -> Self {
        StatsReport {
            benchmark: benchmark.to_string(),
            threads,
            runs: agg.runs,
            total_ns: MetricReport::from_agg(&agg.total_ns),
            constructs: agg.regions.len() as u64,
            tree_mismatches: agg.tree_mismatches,
        }
    }
}

/// One construct flagged by the regression check.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegressFinding {
    /// Construct name.
    pub region: String,
    /// Candidate's inclusive time, ns.
    pub new_ns: u64,
    /// Baseline mean, ns.
    pub mean_ns: f64,
    /// `new / mean`.
    pub ratio: f64,
}

/// `QUERY regress` verdict.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegressReport {
    /// True when any construct exceeded the threshold.
    pub regressed: bool,
    /// Runs the baseline was built from.
    pub baseline_runs: u64,
    /// Relative threshold applied.
    pub threshold: f64,
    /// Flagged constructs, worst first.
    pub findings: Vec<RegressFinding>,
}

impl RegressReport {
    /// Build from a store verdict.
    pub fn from_verdict(v: &Regression) -> Self {
        RegressReport {
            regressed: v.regressed,
            baseline_runs: v.baseline_runs,
            threshold: v.threshold,
            findings: v
                .findings
                .iter()
                .map(|f| RegressFinding {
                    region: f.region.clone(),
                    new_ns: f.new_ns,
                    mean_ns: f.mean_ns,
                    ratio: f.ratio,
                })
                .collect(),
        }
    }
}

/// `QUERY trend` result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrendReport {
    /// Benchmark queried.
    pub benchmark: String,
    /// Thread count group queried.
    pub threads: u32,
    /// Runs in the window (sum over buckets).
    pub runs: u64,
    /// Consecutive ingest-order buckets, oldest first.
    pub buckets: Vec<TrendBucket>,
}

/// Request-latency summary of one (verb, protocol) pair, distilled from
/// the daemon's log2-bucket histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyStat {
    /// Request verb (`ingest`, `query_top`, `stats`, …).
    pub verb: String,
    /// Protocol the requests arrived over (`json` or `bin`).
    pub proto: String,
    /// Requests traced.
    pub count: u64,
    /// Summed handling time, ns.
    pub sum_ns: u64,
    /// Slowest request, ns.
    pub max_ns: u64,
    /// Median upper bound, ns (log2-bucket resolution).
    pub p50_ns: u64,
    /// 99th-percentile upper bound, ns (log2-bucket resolution).
    pub p99_ns: u64,
}

/// `STATS` result: daemon counters plus store shape.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStatsReport {
    /// Service counters since daemon start.
    pub service: ServiceSnapshot,
    /// True when the daemon degraded to read-only after `ENOSPC`.
    pub read_only: bool,
    /// Store shape.
    pub store: StoreStats,
    /// Wall clock (unix epoch ns) when the served store was opened —
    /// the anchor for `since_ns` trend windows.
    pub open_timestamp_ns: u64,
    /// Seconds the daemon has been serving.
    pub uptime_secs: u64,
    /// Per-(verb, protocol) request-latency summaries; only pairs that
    /// served at least one request appear.
    pub latency: Vec<LatencyStat>,
}

/// Render one fleet-dashboard frame from a daemon's `STATS` report — the
/// serving-side companion of [`cube::render_telemetry`], fed by
/// `taskprof-cli watch` from live subscription pushes.
pub fn render_fleet(s: &ServerStatsReport) -> String {
    use cube::format_ns;
    use std::fmt::Write as _;
    let service = &s.service;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== profserve fleet dashboard (up {}s{}) ===",
        s.uptime_secs,
        if s.read_only { ", READ-ONLY" } else { "" }
    );
    let _ = writeln!(
        out,
        "store: {} runs in {} segments ({} bytes)",
        s.store.runs, s.store.segments, s.store.bytes
    );
    let _ = writeln!(
        out,
        "traffic: {} conns  {} ingests ({} bytes)  {} queries  {} errors",
        service.connections, service.ingests, service.ingest_bytes, service.queries, service.errors
    );
    let _ = writeln!(
        out,
        "subscriptions: {} live-attached  {} events pushed  {} shed (lag)",
        service.subscriptions, service.sub_events, service.sub_lagged
    );
    if !s.latency.is_empty() {
        let _ = writeln!(
            out,
            "request latency: {:<14} {:<5} {:>8} {:>10} {:>10} {:>10}",
            "verb", "proto", "count", "p50", "p99", "max"
        );
        for row in &s.latency {
            let _ = writeln!(
                out,
                "                 {:<14} {:<5} {:>8} {:>10} {:>10} {:>10}",
                row.verb,
                row.proto,
                row.count,
                format_ns(row.p50_ns),
                format_ns(row.p99_ns),
                format_ns(row.max_ns)
            );
        }
    }
    out
}

/// One event pushed over a live subscription (see [`Request::Subscribe`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Notification {
    /// Periodic health snapshot (same shape as a `STATS` reply).
    Telemetry {
        /// Server wall clock at snapshot time, unix epoch ns.
        t_ns: u64,
        /// The snapshot.
        stats: ServerStatsReport,
    },
    /// Runs landed in the store.
    Ingest {
        /// Run id of the first profile stored.
        first_run_id: u64,
        /// Profiles stored under the triggering request.
        count: u64,
        /// Framed bytes appended.
        bytes: u64,
        /// Benchmark the runs belong to.
        benchmark: String,
        /// Thread count group.
        threads: u32,
    },
    /// This subscriber fell behind and `dropped` events were shed from
    /// its queue (the stream resumes with fresh events).
    Lagged {
        /// Events dropped since the last successful push.
        dropped: u64,
    },
}

/// One parsed response, protocol-independent.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Negotiation reply: the version/features the server will speak.
    Hello {
        /// Protocol version the server chose.
        version: u32,
        /// Feature bitmask both sides support.
        features: u64,
    },
    /// Ingest (or batch) acknowledgement.
    Ingest(IngestReceipt),
    /// Top-N rows.
    Top(TopReport),
    /// Scalar statistics.
    Stats(StatsReport),
    /// Regression verdict.
    Regress(RegressReport),
    /// Trend buckets.
    Trend(TrendReport),
    /// Server health.
    ServerStats(ServerStatsReport),
    /// Server health as Prometheus text exposition.
    Prometheus(String),
    /// Subscription accepted; unsolicited [`Response::Event`]s follow.
    Subscribed {
        /// Telemetry push period granted, ms.
        interval_ms: u64,
    },
    /// One pushed subscription event.
    Event(Notification),
    /// One page of the replication stream (reply to [`Request::Export`]).
    ExportChunk {
        /// Raw `len|payload|crc` record frames, ascending run id.
        frames: Vec<Vec<u8>>,
        /// Highest run id included (or the request's `after` when the
        /// page is empty) — the follower's next cursor.
        watermark: u64,
        /// True when no further frames existed past `watermark` at the
        /// time of the export.
        done: bool,
    },
    /// Apply acknowledgement (reply to [`Request::Apply`]).
    Applied {
        /// Frames written by this request.
        applied: u64,
        /// Frames skipped as already present (exactly-once replays).
        skipped: u64,
        /// The follower's highest applied run id after this request.
        watermark: u64,
    },
    /// Typed failure.
    Error {
        /// Category.
        kind: ErrorKind,
        /// Human-readable explanation.
        message: String,
    },
}

/// Lowercase hex rendering of raw bytes — how replication frames travel
/// inside JSON strings (JSON cannot carry raw bytes).
pub fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[usize::from(b >> 4)] as char);
        out.push(HEX[usize::from(b & 0x0F)] as char);
    }
    out
}

/// Inverse of [`hex_encode`]; `Err` carries a `bad_request` explanation.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    fn nibble(c: u8) -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("bad hex digit {:?}", c as char)),
        }
    }
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err("odd hex length".to_string());
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

/// `{"ok":false,…}` with a typed error — also used bare by the server
/// for pre-parse failures (overload shedding, oversized lines).
pub fn error_line(kind: ErrorKind, message: &str) -> String {
    Response::Error {
        kind,
        message: message.to_string(),
    }
    .to_json_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn fleet_dashboard_renders_counters_and_latency() {
        let frame = render_fleet(&ServerStatsReport {
            uptime_secs: 42,
            read_only: true,
            store: StoreStats {
                runs: 7,
                ..StoreStats::default()
            },
            service: ServiceSnapshot {
                ingests: 3,
                subscriptions: 2,
                sub_lagged: 1,
                ..ServiceSnapshot::default()
            },
            latency: vec![LatencyStat {
                verb: "ingest".into(),
                proto: "bin".into(),
                count: 3,
                p50_ns: 1_500,
                p99_ns: 9_000,
                max_ns: 12_000,
                ..LatencyStat::default()
            }],
            ..ServerStatsReport::default()
        });
        assert!(frame.contains("up 42s, READ-ONLY"), "{frame}");
        assert!(frame.contains("7 runs"), "{frame}");
        assert!(frame.contains("1 shed (lag)"), "{frame}");
        assert!(frame.contains("ingest"), "{frame}");
        assert!(frame.contains("1.50µs"), "{frame}");
    }

    #[test]
    fn bad_requests_are_rejected_with_reason() {
        assert!(Request::from_json_line("not json").is_err());
        assert!(Request::from_json_line("{}").unwrap_err().contains("cmd"));
        assert!(Request::from_json_line("{\"cmd\":\"NOPE\"}")
            .unwrap_err()
            .contains("NOPE"));
        assert!(
            Request::from_json_line("{\"cmd\":\"INGEST\",\"benchmark\":\"x\"}")
                .unwrap_err()
                .contains("threads")
        );
        assert!(Request::from_json_line(
            "{\"cmd\":\"QUERY\",\"query\":\"nope\",\"benchmark\":\"x\",\"threads\":1}"
        )
        .unwrap_err()
        .contains("nope"));
        assert!(
            Request::from_json_line("{\"cmd\":\"INGEST_BATCH\",\"items\":7}")
                .unwrap_err()
                .contains("items")
        );
        assert!(Request::from_json_line("{\"cmd\":\"APPLY\",\"frames\":7}")
            .unwrap_err()
            .contains("frames"));
        assert!(
            Request::from_json_line("{\"cmd\":\"APPLY\",\"frames\":[\"xy\"]}")
                .unwrap_err()
                .contains("hex")
        );
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        for bytes in [&b""[..], &[0u8][..], &[0x00, 0x7F, 0x80, 0xFF][..]] {
            let s = hex_encode(bytes);
            assert_eq!(hex_decode(&s).expect("decode"), bytes);
        }
        assert_eq!(hex_decode("AbCd").expect("mixed case"), vec![0xAB, 0xCD]);
        assert!(hex_decode("a").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn error_lines_are_typed() {
        let line = error_line(ErrorKind::Overloaded, "permits exhausted");
        let v = crate::json::parse(&line).expect("parse");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let e = v.get("error").expect("error member");
        assert_eq!(e.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(
            ErrorKind::from_tag("bad_request"),
            Some(ErrorKind::BadRequest)
        );
        assert_eq!(ErrorKind::from_tag("???"), None);
    }

    #[test]
    fn binary_record_payloads_rerender_as_text_over_json() {
        // A Record built from an in-memory profile carries the compact
        // binary payload; pushing it through the JSON codec must fall
        // back to the text rendering and still parse as the same profile.
        let par = pomp::registry().register(
            "proto-rerender!parallel",
            pomp::RegionKind::Parallel,
            file!(),
            line!(),
        );
        let mut team = taskprof::TeamReplayer::new(1, par, taskprof::AssignPolicy::Executing);
        team.advance(40);
        let profile = team.finish();
        let r = Record::from_profile("fib", 2, Some(5), &profile);
        assert!(matches!(r.profile, ProfilePayload::Record(_)));
        let line = Request::Ingest(r).to_json_line();
        let back = Request::from_json_line(&line).expect("parse");
        match back {
            Request::Ingest(rec) => {
                assert_eq!(rec.benchmark, "fib");
                assert!(matches!(rec.profile, ProfilePayload::Text(_)));
                let p = rec.profile.decode().expect("decode");
                assert_eq!(p.threads.len(), 1);
                assert_eq!(p.threads[0].main, profile.threads[0].main);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_profile_without_threads_is_refused_in_both_encodings() {
        let empty = Profile::default();
        let record = Record::from_profile("fib", 2, None, &empty).profile;
        let text = ProfilePayload::Text(cube::write_profile(&empty));
        for payload in [record, text] {
            let err = payload.decode().expect_err("no threads, no profile");
            assert!(err.contains("no threads"), "{err}");
        }
    }
}
