//! The protocol surface: one shared, typed request/response model with
//! two interchangeable encodings.
//!
//! * **JSON lines** (this module): one JSON object per line, both
//!   directions — human-readable, `nc`-able, the original protocol.
//! * **TPF1 binary frames** ([`crate::wire`]): length-prefixed CRC-framed
//!   payloads sharing the store's LEB128 codec — the bulk-ingest path.
//!
//! Both codecs encode the same [`Request`] / [`Response`] enums, so the
//! server core and the typed [`crate::Client`] are protocol-agnostic.
//!
//! JSON requests:
//!
//! ```text
//! {"cmd":"HELLO","version":1,"features":0}
//! {"cmd":"INGEST","benchmark":"fib","threads":2,"profile":"taskprof-profile v1\n…"}
//!     optional: "timestamp_ns":N
//! {"cmd":"INGEST_BATCH","items":[{"benchmark":…,"threads":…,"profile":…},…]}
//! {"cmd":"QUERY","query":"top","benchmark":"fib","threads":2,"n":10}
//! {"cmd":"QUERY","query":"stats","benchmark":"fib","threads":2}
//! {"cmd":"QUERY","query":"regress","benchmark":"fib","threads":2,
//!  "profile":"…","threshold":0.2}   optional: "min_runs":N,"min_delta_ns":N
//! {"cmd":"QUERY","query":"trend","benchmark":"fib","threads":2,"buckets":16}
//! {"cmd":"STATS"}                   or: "format":"prometheus"
//! {"cmd":"SUBSCRIBE"}               optional: "interval_ms":N
//! {"cmd":"EXPORT","after":N,"max":N}
//! {"cmd":"APPLY","frames":["<hex>",…]}
//! ```
//!
//! `HELLO` additionally accepts an optional `"auth":"<secret>"` member —
//! required (on both protocols) when the server is configured with a
//! shared secret; unauthenticated connections are limited to `HELLO`.
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
//! `read_only`. Over JSON, profiles travel as the text store format
//! (`cube::write_profile`) inside a JSON string; over TPF1 they travel as
//! the store's binary record payload. [`ProfilePayload`] carries either
//! form and the server decodes whichever arrives.

use crate::json::{Json, ObjWriter};
use profstore::{BenchAgg, MetricAgg, Regression, RunMeta, RunWindow, StoreStats, TrendBucket};
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
    /// Wire tag.
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

    /// Parse a wire tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "overloaded" => ErrorKind::Overloaded,
            "bad_request" => ErrorKind::BadRequest,
            "not_found" => ErrorKind::NotFound,
            "internal" => ErrorKind::Internal,
            "too_large" => ErrorKind::TooLarge,
            "read_only" => ErrorKind::ReadOnly,
            "unauthorized" => ErrorKind::Unauthorized,
            _ => return None,
        })
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

impl ProfilePayload {
    /// Decode to an in-memory [`Profile`]; `Err` carries a `bad_request`
    /// explanation. Both encodings can spell a profile without threads;
    /// no measurement produces one, so it is refused here, at the door.
    pub fn decode(&self) -> Result<Profile, String> {
        let profile = match self {
            ProfilePayload::Text(text) => {
                cube::read_profile(text).map_err(|e| format!("bad profile: {e}"))?
            }
            ProfilePayload::Record(bytes) => profstore::decode_record(bytes)
                .map(|(_, p)| p)
                .map_err(|e| format!("bad profile record: {e}"))?,
        };
        if profile.threads.is_empty() {
            return Err("bad profile: no threads".to_string());
        }
        Ok(profile)
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

/// One profile to ingest: group identity plus the payload. This is the
/// item type of [`Request::Ingest`] and [`Request::IngestBatch`], and the
/// argument to [`crate::Client::ingest_batch`].
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
pub struct RegionRow {
    /// Construct (region) name.
    pub region: String,
    /// Summed-inclusive-time aggregate across runs.
    pub metric: MetricReport,
}

/// `QUERY top` result.
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
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

// ---------------------------------------------------------------------
// JSON codec — requests
// ---------------------------------------------------------------------

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

fn need_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string '{key}'"))
}

/// [`need_str`] for the request side: moves the string out of the parsed
/// tree, so profile text is not copied a second time after unescaping.
fn take_str(v: &mut Json, key: &str) -> Result<String, String> {
    match v.get_mut(key) {
        Some(Json::Str(s)) => Ok(std::mem::take(s)),
        _ => Err(format!("missing or non-string '{key}'")),
    }
}

fn need_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer '{key}'"))
}

fn need_threads(v: &Json) -> Result<u32, String> {
    u32::try_from(need_u64(v, "threads")?).map_err(|_| "threads out of range".to_string())
}

fn window_from_json(v: &Json) -> RunWindow {
    RunWindow {
        last: v.get("last").and_then(Json::as_u64),
        since_ns: v.get("since_ns").and_then(Json::as_u64),
    }
}

fn write_window(w: &mut ObjWriter<'_>, window: &RunWindow) {
    if let Some(last) = window.last {
        w.num("last", last);
    }
    if let Some(since) = window.since_ns {
        w.num("since_ns", since);
    }
}

fn record_from_json(v: &mut Json) -> Result<Record, String> {
    Ok(Record {
        benchmark: take_str(v, "benchmark")?,
        threads: need_threads(v)?,
        timestamp_ns: v.get("timestamp_ns").and_then(Json::as_u64),
        profile: ProfilePayload::Text(take_str(v, "profile")?),
    })
}

fn write_record(w: &mut ObjWriter<'_>, r: &Record) {
    w.str("benchmark", &r.benchmark);
    w.num("threads", u64::from(r.threads));
    if let Some(t) = r.timestamp_ns {
        w.num("timestamp_ns", t);
    }
    w.str("profile", &r.profile.to_text().unwrap_or_default());
}

impl Request {
    /// Parse one JSON request line. `Err` carries a `bad_request`
    /// explanation.
    pub fn from_json_line(line: &str) -> Result<Request, String> {
        let mut v = crate::json::parse(line).map_err(|e| e.to_string())?;
        let cmd = take_str(&mut v, "cmd")?;
        match cmd.as_str() {
            "HELLO" => Ok(Request::Hello {
                version: u32::try_from(need_u64(&v, "version")?)
                    .map_err(|_| "version out of range".to_string())?,
                features: v.get("features").and_then(Json::as_u64).unwrap_or(0),
                auth: take_str(&mut v, "auth").ok(),
            }),
            "INGEST" => Ok(Request::Ingest(record_from_json(&mut v)?)),
            "INGEST_BATCH" => match v.get_mut("items") {
                Some(Json::Arr(items)) => items
                    .iter_mut()
                    .map(record_from_json)
                    .collect::<Result<Vec<_>, _>>()
                    .map(Request::IngestBatch),
                _ => Err("missing or non-array 'items'".to_string()),
            },
            "QUERY" => {
                let query = take_str(&mut v, "query")?;
                let benchmark = take_str(&mut v, "benchmark")?;
                let threads = need_threads(&v)?;
                let window = window_from_json(&v);
                match query.as_str() {
                    "top" => Ok(Request::QueryTop {
                        benchmark,
                        threads,
                        n: need_u64(&v, "n")? as usize,
                        window,
                    }),
                    "stats" => Ok(Request::QueryStats {
                        benchmark,
                        threads,
                        window,
                    }),
                    "regress" => Ok(Request::QueryRegress {
                        benchmark,
                        threads,
                        profile: ProfilePayload::Text(take_str(&mut v, "profile")?),
                        threshold: v.get("threshold").and_then(Json::as_f64),
                        min_runs: v.get("min_runs").and_then(Json::as_u64),
                        min_delta_ns: v.get("min_delta_ns").and_then(Json::as_u64),
                        window,
                    }),
                    "trend" => Ok(Request::QueryTrend {
                        benchmark,
                        threads,
                        buckets: u32::try_from(need_u64(&v, "buckets")?)
                            .map_err(|_| "buckets out of range".to_string())?,
                        window,
                    }),
                    other => Err(format!("unknown query '{other}'")),
                }
            }
            "STATS" => match v.get("format").and_then(Json::as_str) {
                None => Ok(Request::Stats),
                Some("prometheus") => Ok(Request::StatsPrometheus),
                Some(other) => Err(format!("unknown stats format '{other}'")),
            },
            "SUBSCRIBE" => Ok(Request::Subscribe {
                interval_ms: v.get("interval_ms").and_then(Json::as_u64),
            }),
            "EXPORT" => Ok(Request::Export {
                after: need_u64(&v, "after")?,
                max: need_u64(&v, "max")?,
            }),
            "APPLY" => {
                let frames = v
                    .get("frames")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| "missing or non-array 'frames'".to_string())?;
                frames
                    .iter()
                    .map(|f| {
                        f.as_str()
                            .ok_or_else(|| "non-string frame".to_string())
                            .and_then(hex_decode)
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(|frames| Request::Apply { frames })
            }
            other => Err(format!("unknown cmd '{other}'")),
        }
    }

    /// Serialize to one JSON request line (the client side), streamed
    /// into one `String`: the profile text is escaped straight from the
    /// request, never cloned. Binary record payloads are re-rendered as
    /// profile text, since JSON strings cannot carry raw bytes.
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        let mut w = ObjWriter::begin(&mut line);
        match self {
            Request::Hello {
                version,
                features,
                auth,
            } => {
                w.str("cmd", "HELLO");
                w.num("version", u64::from(*version));
                w.num("features", *features);
                if let Some(secret) = auth {
                    w.str("auth", secret);
                }
            }
            Request::Ingest(record) => {
                w.str("cmd", "INGEST");
                write_record(&mut w, record);
            }
            Request::IngestBatch(items) => {
                w.str("cmd", "INGEST_BATCH");
                let out = w.key("items");
                out.push('[');
                for (i, record) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let mut item = ObjWriter::begin(out);
                    write_record(&mut item, record);
                    item.end();
                }
                out.push(']');
            }
            Request::QueryTop {
                benchmark,
                threads,
                n,
                window,
            } => {
                write_query(&mut w, "top", benchmark, *threads);
                w.num("n", *n as u64);
                write_window(&mut w, window);
            }
            Request::QueryStats {
                benchmark,
                threads,
                window,
            } => {
                write_query(&mut w, "stats", benchmark, *threads);
                write_window(&mut w, window);
            }
            Request::QueryRegress {
                benchmark,
                threads,
                profile,
                threshold,
                min_runs,
                min_delta_ns,
                window,
            } => {
                write_query(&mut w, "regress", benchmark, *threads);
                if let Some(t) = threshold {
                    w.value("threshold", &Json::num_f(*t));
                }
                if let Some(m) = min_runs {
                    w.num("min_runs", *m);
                }
                if let Some(d) = min_delta_ns {
                    w.num("min_delta_ns", *d);
                }
                write_window(&mut w, window);
                w.str("profile", &profile.to_text().unwrap_or_default());
            }
            Request::QueryTrend {
                benchmark,
                threads,
                buckets,
                window,
            } => {
                write_query(&mut w, "trend", benchmark, *threads);
                w.num("buckets", u64::from(*buckets));
                write_window(&mut w, window);
            }
            Request::Stats => w.str("cmd", "STATS"),
            Request::StatsPrometheus => {
                w.str("cmd", "STATS");
                w.str("format", "prometheus");
            }
            Request::Subscribe { interval_ms } => {
                w.str("cmd", "SUBSCRIBE");
                if let Some(ms) = interval_ms {
                    w.num("interval_ms", *ms);
                }
            }
            Request::Export { after, max } => {
                w.str("cmd", "EXPORT");
                w.num("after", *after);
                w.num("max", *max);
            }
            Request::Apply { frames } => {
                w.str("cmd", "APPLY");
                w.value(
                    "frames",
                    &Json::Arr(frames.iter().map(|f| Json::str(hex_encode(f))).collect()),
                );
            }
        }
        w.end();
        line
    }
}

/// The members every `QUERY` request opens with.
fn write_query(w: &mut ObjWriter<'_>, query: &str, benchmark: &str, threads: u32) {
    w.str("cmd", "QUERY");
    w.str("query", query);
    w.str("benchmark", benchmark);
    w.num("threads", u64::from(threads));
}

// ---------------------------------------------------------------------
// JSON codec — responses
// ---------------------------------------------------------------------

/// `{"ok":false,…}` with a typed error — also used bare by the server
/// for pre-parse failures (overload shedding, oversized lines).
pub fn error_line(kind: ErrorKind, message: &str) -> String {
    Response::Error {
        kind,
        message: message.to_string(),
    }
    .to_json_line()
}

fn metric_obj(m: &MetricReport) -> Json {
    Json::obj(vec![
        ("runs", Json::num(m.runs)),
        ("sum_ns", Json::num(m.sum_ns)),
        ("min_ns", Json::num(m.min_ns)),
        ("max_ns", Json::num(m.max_ns)),
        ("mean_ns", Json::num_f(m.mean_ns)),
    ])
}

fn metric_from_json(v: &Json) -> Result<MetricReport, String> {
    Ok(MetricReport {
        runs: need_u64(v, "runs")?,
        sum_ns: need_u64(v, "sum_ns")?,
        min_ns: need_u64(v, "min_ns")?,
        max_ns: need_u64(v, "max_ns")?,
        mean_ns: v
            .get("mean_ns")
            .and_then(Json::as_f64)
            .ok_or("missing 'mean_ns'")?,
    })
}

/// The `STATS` body members (`server`, `store`, `latency`) — shared
/// between the `STATS` reply and the `telemetry` subscription event.
fn server_stats_members(h: &ServerStatsReport) -> Vec<(&'static str, Json)> {
    let s = &h.service;
    let latency: Vec<Json> = h
        .latency
        .iter()
        .map(|l| {
            Json::obj(vec![
                ("verb", Json::str(l.verb.clone())),
                ("proto", Json::str(l.proto.clone())),
                ("count", Json::num(l.count)),
                ("sum_ns", Json::num(l.sum_ns)),
                ("max_ns", Json::num(l.max_ns)),
                ("p50_ns", Json::num(l.p50_ns)),
                ("p99_ns", Json::num(l.p99_ns)),
            ])
        })
        .collect();
    vec![
        (
            "server",
            Json::obj(vec![
                ("connections", Json::num(s.connections)),
                ("shed_connections", Json::num(s.shed_connections)),
                ("timeout_connections", Json::num(s.timeout_connections)),
                ("ingests", Json::num(s.ingests)),
                ("ingest_bytes", Json::num(s.ingest_bytes)),
                ("queries", Json::num(s.queries)),
                ("errors", Json::num(s.errors)),
                ("panics", Json::num(s.panics)),
                ("json_requests", Json::num(s.json_requests)),
                ("bin_requests", Json::num(s.bin_requests)),
                ("ingest_batches", Json::num(s.ingest_batches)),
                ("subscriptions", Json::num(s.subscriptions)),
                ("sub_events", Json::num(s.sub_events)),
                ("sub_lagged", Json::num(s.sub_lagged)),
                ("read_only", Json::Bool(h.read_only)),
                ("open_timestamp_ns", Json::num(h.open_timestamp_ns)),
                ("uptime_secs", Json::num(h.uptime_secs)),
            ]),
        ),
        (
            "store",
            Json::obj(vec![
                ("segments", Json::num(h.store.segments)),
                ("runs", Json::num(h.store.runs)),
                ("bytes", Json::num(h.store.bytes)),
                (
                    "recovered_tail_bytes",
                    Json::num(h.store.recovered_tail_bytes),
                ),
                ("compacted_through", Json::num(h.store.compacted_through)),
            ]),
        ),
        ("latency", Json::Arr(latency)),
    ]
}

fn server_stats_from_json(v: &Json) -> Result<ServerStatsReport, String> {
    let s = v.get("server").ok_or("missing 'server'")?;
    let store = v.get("store").ok_or("missing 'store'")?;
    let latency = match v.get("latency").and_then(Json::as_arr) {
        Some(rows) => rows
            .iter()
            .map(|l| {
                Ok(LatencyStat {
                    verb: need_str(l, "verb")?,
                    proto: need_str(l, "proto")?,
                    count: need_u64(l, "count")?,
                    sum_ns: need_u64(l, "sum_ns")?,
                    max_ns: need_u64(l, "max_ns")?,
                    p50_ns: need_u64(l, "p50_ns")?,
                    p99_ns: need_u64(l, "p99_ns")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        None => Vec::new(),
    };
    let opt = |key: &str| s.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(ServerStatsReport {
        service: ServiceSnapshot {
            connections: need_u64(s, "connections")?,
            shed_connections: need_u64(s, "shed_connections")?,
            timeout_connections: need_u64(s, "timeout_connections")?,
            ingests: need_u64(s, "ingests")?,
            ingest_bytes: need_u64(s, "ingest_bytes")?,
            queries: need_u64(s, "queries")?,
            errors: need_u64(s, "errors")?,
            panics: need_u64(s, "panics")?,
            json_requests: opt("json_requests"),
            bin_requests: opt("bin_requests"),
            ingest_batches: opt("ingest_batches"),
            subscriptions: opt("subscriptions"),
            sub_events: opt("sub_events"),
            sub_lagged: opt("sub_lagged"),
        },
        read_only: s.get("read_only").and_then(Json::as_bool).unwrap_or(false),
        store: StoreStats {
            segments: need_u64(store, "segments")?,
            runs: need_u64(store, "runs")?,
            bytes: need_u64(store, "bytes")?,
            recovered_tail_bytes: need_u64(store, "recovered_tail_bytes")?,
            compacted_through: need_u64(store, "compacted_through")?,
        },
        open_timestamp_ns: opt("open_timestamp_ns"),
        uptime_secs: opt("uptime_secs"),
        latency,
    })
}

fn trend_bucket_obj(b: &TrendBucket) -> Json {
    Json::obj(vec![
        ("runs", Json::num(b.runs)),
        ("sum_ns", Json::num(b.sum_ns)),
        ("min_ns", Json::num(b.min_ns)),
        ("max_ns", Json::num(b.max_ns)),
        ("first_timestamp_ns", Json::num(b.first_timestamp_ns)),
        ("last_timestamp_ns", Json::num(b.last_timestamp_ns)),
    ])
}

fn trend_bucket_from_json(v: &Json) -> Result<TrendBucket, String> {
    Ok(TrendBucket {
        runs: need_u64(v, "runs")?,
        sum_ns: need_u64(v, "sum_ns")?,
        min_ns: need_u64(v, "min_ns")?,
        max_ns: need_u64(v, "max_ns")?,
        first_timestamp_ns: need_u64(v, "first_timestamp_ns")?,
        last_timestamp_ns: need_u64(v, "last_timestamp_ns")?,
    })
}

impl Response {
    /// Serialize to one JSON response line (the server side).
    pub fn to_json_line(&self) -> String {
        match self {
            Response::Hello { version, features } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                (
                    "hello",
                    Json::obj(vec![
                        ("version", Json::num(u64::from(*version))),
                        ("features", Json::num(*features)),
                    ]),
                ),
            ])
            .to_string(),
            Response::Ingest(r) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("run_id", Json::num(r.first_run_id)),
                ("count", Json::num(r.count)),
                ("bytes", Json::num(r.bytes)),
                ("segment", Json::num(r.segment)),
            ])
            .to_string(),
            Response::Top(t) => {
                let regions: Vec<Json> = t
                    .regions
                    .iter()
                    .map(|row| {
                        let mut members =
                            vec![("region".to_string(), Json::str(row.region.clone()))];
                        if let Json::Obj(mm) = metric_obj(&row.metric) {
                            members.extend(mm);
                        }
                        Json::Obj(members)
                    })
                    .collect();
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("benchmark", Json::str(t.benchmark.clone())),
                    ("threads", Json::num(u64::from(t.threads))),
                    ("runs", Json::num(t.runs)),
                    ("regions", Json::Arr(regions)),
                ])
                .to_string()
            }
            Response::Stats(s) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("benchmark", Json::str(s.benchmark.clone())),
                ("threads", Json::num(u64::from(s.threads))),
                ("runs", Json::num(s.runs)),
                ("total_ns", metric_obj(&s.total_ns)),
                ("constructs", Json::num(s.constructs)),
                ("tree_mismatches", Json::num(s.tree_mismatches)),
            ])
            .to_string(),
            Response::Regress(r) => {
                let findings: Vec<Json> = r
                    .findings
                    .iter()
                    .map(|f| {
                        Json::obj(vec![
                            ("region", Json::str(f.region.clone())),
                            ("new_ns", Json::num(f.new_ns)),
                            ("mean_ns", Json::num_f(f.mean_ns)),
                            ("ratio", Json::num_f(f.ratio)),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("regressed", Json::Bool(r.regressed)),
                    ("baseline_runs", Json::num(r.baseline_runs)),
                    ("threshold", Json::num_f(r.threshold)),
                    ("findings", Json::Arr(findings)),
                ])
                .to_string()
            }
            Response::Trend(t) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("benchmark", Json::str(t.benchmark.clone())),
                ("threads", Json::num(u64::from(t.threads))),
                ("runs", Json::num(t.runs)),
                (
                    "trend",
                    Json::Arr(t.buckets.iter().map(trend_bucket_obj).collect()),
                ),
            ])
            .to_string(),
            Response::ServerStats(h) => {
                let mut members = vec![("ok", Json::Bool(true))];
                members.extend(server_stats_members(h));
                Json::obj(members).to_string()
            }
            Response::Prometheus(text) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("prometheus", Json::str(text.clone())),
            ])
            .to_string(),
            Response::Subscribed { interval_ms } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("subscribed", Json::Bool(true)),
                ("interval_ms", Json::num(*interval_ms)),
            ])
            .to_string(),
            Response::Event(n) => {
                let mut members = vec![("ok", Json::Bool(true))];
                match n {
                    Notification::Telemetry { t_ns, stats } => {
                        members.push(("event", Json::str("telemetry")));
                        members.push(("t_ns", Json::num(*t_ns)));
                        members.extend(server_stats_members(stats));
                    }
                    Notification::Ingest {
                        first_run_id,
                        count,
                        bytes,
                        benchmark,
                        threads,
                    } => {
                        members.push(("event", Json::str("ingest")));
                        members.push(("run_id", Json::num(*first_run_id)));
                        members.push(("count", Json::num(*count)));
                        members.push(("bytes", Json::num(*bytes)));
                        members.push(("benchmark", Json::str(benchmark.clone())));
                        members.push(("threads", Json::num(u64::from(*threads))));
                    }
                    Notification::Lagged { dropped } => {
                        members.push(("event", Json::str("lagged")));
                        members.push(("dropped", Json::num(*dropped)));
                    }
                }
                Json::obj(members).to_string()
            }
            Response::ExportChunk {
                frames,
                watermark,
                done,
            } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                (
                    "frames",
                    Json::Arr(frames.iter().map(|f| Json::str(hex_encode(f))).collect()),
                ),
                ("watermark", Json::num(*watermark)),
                ("done", Json::Bool(*done)),
            ])
            .to_string(),
            Response::Applied {
                applied,
                skipped,
                watermark,
            } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("applied", Json::num(*applied)),
                ("skipped", Json::num(*skipped)),
                ("watermark", Json::num(*watermark)),
            ])
            .to_string(),
            Response::Error { kind, message } => Json::obj(vec![
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::obj(vec![
                        ("kind", Json::str(kind.tag())),
                        ("message", Json::str(message.clone())),
                    ]),
                ),
            ])
            .to_string(),
        }
    }

    /// Parse one JSON response line back into the typed form (the client
    /// side). The response kind is recovered from its distinguishing
    /// fields, so no out-of-band context is needed.
    pub fn from_json_line(line: &str) -> Result<Response, String> {
        let v = crate::json::parse(line).map_err(|e| e.to_string())?;
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("missing or non-bool 'ok'")?;
        if !ok {
            let e = v.get("error").ok_or("error response without 'error'")?;
            let tag = need_str(e, "kind")?;
            return Ok(Response::Error {
                kind: ErrorKind::from_tag(&tag).ok_or_else(|| format!("unknown kind '{tag}'"))?,
                message: need_str(e, "message")?,
            });
        }
        // Events first: a telemetry event embeds the whole server-stats
        // shape and an ingest event embeds "run_id", so any later check
        // would misclassify them.
        if let Some(event) = v.get("event").and_then(Json::as_str) {
            return match event {
                "telemetry" => Ok(Response::Event(Notification::Telemetry {
                    t_ns: need_u64(&v, "t_ns")?,
                    stats: server_stats_from_json(&v)?,
                })),
                "ingest" => Ok(Response::Event(Notification::Ingest {
                    first_run_id: need_u64(&v, "run_id")?,
                    count: v.get("count").and_then(Json::as_u64).unwrap_or(1),
                    bytes: need_u64(&v, "bytes")?,
                    benchmark: need_str(&v, "benchmark")?,
                    threads: need_threads(&v)?,
                })),
                "lagged" => Ok(Response::Event(Notification::Lagged {
                    dropped: need_u64(&v, "dropped")?,
                })),
                other => Err(format!("unknown event '{other}'")),
            };
        }
        if v.get("subscribed").is_some() {
            return Ok(Response::Subscribed {
                interval_ms: need_u64(&v, "interval_ms")?,
            });
        }
        if let Some(text) = v.get("prometheus").and_then(Json::as_str) {
            return Ok(Response::Prometheus(text.to_string()));
        }
        if let Some(buckets) = v.get("trend").and_then(Json::as_arr) {
            return Ok(Response::Trend(TrendReport {
                benchmark: need_str(&v, "benchmark")?,
                threads: need_threads(&v)?,
                runs: need_u64(&v, "runs")?,
                buckets: buckets
                    .iter()
                    .map(trend_bucket_from_json)
                    .collect::<Result<Vec<_>, String>>()?,
            }));
        }
        if let Some(h) = v.get("hello") {
            return Ok(Response::Hello {
                version: u32::try_from(need_u64(h, "version")?)
                    .map_err(|_| "version out of range".to_string())?,
                features: h.get("features").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        if let Some(frames) = v.get("frames").and_then(Json::as_arr) {
            return Ok(Response::ExportChunk {
                frames: frames
                    .iter()
                    .map(|f| {
                        f.as_str()
                            .ok_or_else(|| "non-string frame".to_string())
                            .and_then(hex_decode)
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                watermark: need_u64(&v, "watermark")?,
                done: v.get("done").and_then(Json::as_bool).unwrap_or(false),
            });
        }
        if v.get("applied").is_some() {
            return Ok(Response::Applied {
                applied: need_u64(&v, "applied")?,
                skipped: need_u64(&v, "skipped")?,
                watermark: need_u64(&v, "watermark")?,
            });
        }
        if v.get("run_id").is_some() {
            return Ok(Response::Ingest(IngestReceipt {
                first_run_id: need_u64(&v, "run_id")?,
                count: v.get("count").and_then(Json::as_u64).unwrap_or(1),
                bytes: need_u64(&v, "bytes")?,
                segment: need_u64(&v, "segment")?,
            }));
        }
        if let Some(regions) = v.get("regions").and_then(Json::as_arr) {
            return Ok(Response::Top(TopReport {
                benchmark: need_str(&v, "benchmark")?,
                threads: need_threads(&v)?,
                runs: need_u64(&v, "runs")?,
                regions: regions
                    .iter()
                    .map(|row| {
                        Ok(RegionRow {
                            region: need_str(row, "region")?,
                            metric: metric_from_json(row)?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            }));
        }
        if v.get("regressed").is_some() {
            let findings = v
                .get("findings")
                .and_then(Json::as_arr)
                .ok_or("missing 'findings'")?;
            return Ok(Response::Regress(RegressReport {
                regressed: v
                    .get("regressed")
                    .and_then(Json::as_bool)
                    .ok_or("non-bool 'regressed'")?,
                baseline_runs: need_u64(&v, "baseline_runs")?,
                threshold: v
                    .get("threshold")
                    .and_then(Json::as_f64)
                    .ok_or("missing 'threshold'")?,
                findings: findings
                    .iter()
                    .map(|f| {
                        Ok(RegressFinding {
                            region: need_str(f, "region")?,
                            new_ns: need_u64(f, "new_ns")?,
                            mean_ns: f
                                .get("mean_ns")
                                .and_then(Json::as_f64)
                                .ok_or("missing 'mean_ns'")?,
                            ratio: f
                                .get("ratio")
                                .and_then(Json::as_f64)
                                .ok_or("missing 'ratio'")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            }));
        }
        if let Some(total) = v.get("total_ns") {
            return Ok(Response::Stats(StatsReport {
                benchmark: need_str(&v, "benchmark")?,
                threads: need_threads(&v)?,
                runs: need_u64(&v, "runs")?,
                total_ns: metric_from_json(total)?,
                constructs: need_u64(&v, "constructs")?,
                tree_mismatches: need_u64(&v, "tree_mismatches")?,
            }));
        }
        if v.get("server").is_some() {
            return Ok(Response::ServerStats(server_stats_from_json(&v)?));
        }
        Err("unrecognized response shape".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_server_stats() -> ServerStatsReport {
        ServerStatsReport {
            service: ServiceSnapshot {
                connections: 2,
                ingests: 7,
                json_requests: 4,
                bin_requests: 3,
                ingest_batches: 1,
                subscriptions: 1,
                sub_events: 9,
                sub_lagged: 2,
                ..ServiceSnapshot::default()
            },
            read_only: false,
            store: StoreStats {
                segments: 1,
                runs: 7,
                bytes: 999,
                recovered_tail_bytes: 0,
                compacted_through: 0,
            },
            open_timestamp_ns: 1_700_000_000_000,
            uptime_secs: 321,
            latency: vec![
                LatencyStat {
                    verb: "ingest".into(),
                    proto: "bin".into(),
                    count: 7,
                    sum_ns: 7_000,
                    max_ns: 2_000,
                    p50_ns: 1_023,
                    p99_ns: 2_000,
                },
                LatencyStat {
                    verb: "stats".into(),
                    proto: "json".into(),
                    count: 1,
                    sum_ns: 400,
                    max_ns: 400,
                    p50_ns: 400,
                    p99_ns: 400,
                },
            ],
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Hello {
                version: 1,
                features: 1,
                auth: None,
            },
            Request::Hello {
                version: 1,
                features: 1,
                auth: Some("s3cret".into()),
            },
            Request::Export { after: 7, max: 512 },
            Request::Apply { frames: Vec::new() },
            Request::Apply {
                frames: vec![vec![0x00, 0xFF, 0x10], vec![0xAB]],
            },
            Request::Ingest(Record::from_text(
                "fib",
                2,
                Some(7),
                "taskprof-profile v1\nthreads 0\n",
            )),
            Request::IngestBatch(vec![
                Record::from_text("fib", 2, Some(1), "taskprof-profile v1\nthreads 0\n"),
                Record::from_text("fib", 2, None, "taskprof-profile v1\nthreads 0\n"),
            ]),
            Request::QueryTop {
                benchmark: "nqueens".into(),
                threads: 4,
                n: 10,
                window: RunWindow::default(),
            },
            Request::QueryTop {
                benchmark: "nqueens".into(),
                threads: 4,
                n: 10,
                window: RunWindow {
                    last: Some(20),
                    since_ns: None,
                },
            },
            Request::QueryStats {
                benchmark: "fib".into(),
                threads: 2,
                window: RunWindow {
                    last: Some(5),
                    since_ns: Some(1_000_000),
                },
            },
            Request::QueryRegress {
                benchmark: "fib".into(),
                threads: 2,
                profile: ProfilePayload::Text("p".into()),
                threshold: Some(0.25),
                min_runs: Some(3),
                min_delta_ns: None,
                window: RunWindow {
                    last: Some(50),
                    since_ns: None,
                },
            },
            Request::QueryTrend {
                benchmark: "fib".into(),
                threads: 2,
                buckets: 16,
                window: RunWindow {
                    last: None,
                    since_ns: Some(42),
                },
            },
            Request::Stats,
            Request::StatsPrometheus,
            Request::Subscribe { interval_ms: None },
            Request::Subscribe {
                interval_ms: Some(250),
            },
        ];
        for r in reqs {
            let line = r.to_json_line();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::from_json_line(&line).expect("parse"), r);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Hello {
                version: 1,
                features: 1,
            },
            Response::Ingest(IngestReceipt {
                first_run_id: 41,
                count: 3,
                bytes: 1234,
                segment: 2,
            }),
            Response::Top(TopReport {
                benchmark: "fib".into(),
                threads: 2,
                runs: 5,
                regions: vec![RegionRow {
                    region: "fib!task".into(),
                    metric: MetricReport {
                        runs: 5,
                        sum_ns: 100,
                        min_ns: 10,
                        max_ns: 30,
                        mean_ns: 20.0,
                    },
                }],
            }),
            Response::Stats(StatsReport {
                benchmark: "fib".into(),
                threads: 2,
                runs: 5,
                total_ns: MetricReport {
                    runs: 5,
                    sum_ns: 500,
                    min_ns: 90,
                    max_ns: 110,
                    mean_ns: 100.0,
                },
                constructs: 3,
                tree_mismatches: 0,
            }),
            Response::Regress(RegressReport {
                regressed: true,
                baseline_runs: 4,
                threshold: 0.25,
                findings: vec![RegressFinding {
                    region: "fib!task".into(),
                    new_ns: 150,
                    mean_ns: 100.0,
                    ratio: 1.5,
                }],
            }),
            Response::Trend(TrendReport {
                benchmark: "fib".into(),
                threads: 2,
                runs: 7,
                buckets: vec![
                    TrendBucket {
                        runs: 4,
                        sum_ns: 400,
                        min_ns: 90,
                        max_ns: 110,
                        first_timestamp_ns: 10,
                        last_timestamp_ns: 13,
                    },
                    TrendBucket {
                        runs: 3,
                        sum_ns: 600,
                        min_ns: 190,
                        max_ns: 210,
                        first_timestamp_ns: 14,
                        last_timestamp_ns: 16,
                    },
                ],
            }),
            Response::ServerStats(sample_server_stats()),
            Response::Prometheus(
                "# HELP profserve_ingests_total Profiles ingested.\n\
                 # TYPE profserve_ingests_total counter\n\
                 profserve_ingests_total 7\n"
                    .into(),
            ),
            Response::Subscribed { interval_ms: 500 },
            Response::Event(Notification::Telemetry {
                t_ns: 123_456,
                stats: sample_server_stats(),
            }),
            Response::Event(Notification::Ingest {
                first_run_id: 41,
                count: 2,
                bytes: 900,
                benchmark: "fib".into(),
                threads: 2,
            }),
            Response::Event(Notification::Lagged { dropped: 17 }),
            Response::ExportChunk {
                frames: vec![vec![1, 2, 3, 254], Vec::new()],
                watermark: 41,
                done: false,
            },
            Response::ExportChunk {
                frames: Vec::new(),
                watermark: 41,
                done: true,
            },
            Response::Applied {
                applied: 12,
                skipped: 3,
                watermark: 41,
            },
            Response::Error {
                kind: ErrorKind::NotFound,
                message: "no such group".into(),
            },
            Response::Error {
                kind: ErrorKind::Unauthorized,
                message: "auth required".into(),
            },
        ];
        for r in resps {
            let line = r.to_json_line();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Response::from_json_line(&line).expect("parse"), r);
        }
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
