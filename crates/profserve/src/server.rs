//! The serving daemon: a poll(2) reactor (see [`crate::reactor`])
//! multiplexing every connection on one thread, with first-byte protocol
//! sniffing (JSON lines vs TPF1 binary frames on the same port), a
//! bounded admission gate, and per-request panic isolation.
//!
//! Backpressure policy: admission never blocks on request work. When
//! `max_connections` connections are live, the next connection is
//! answered immediately with a typed `overloaded` error line and closed,
//! and the shed is counted — mirroring the profiler's overload shedding
//! (degrade loudly, never stall the hot path). Handler panics are caught
//! per request (`catch_unwind`, the PR 1 pattern), answered with a typed
//! `internal` error, and counted; the connection — and the daemon — keep
//! serving.
//!
//! Failure model (PR 6, semantics preserved across the reactor rewrite):
//!
//! * **Slow-loris defense** — every connection carries read/write
//!   deadlines ([`ServeConfig::read_timeout`] / `write_timeout`); a peer
//!   that trickles bytes (or goes silent mid-request) is dropped when the
//!   deadline fires, counted in `timeout_connections`.
//! * **Bounded requests** — the JSON path caps a request line at
//!   [`ServeConfig::max_request_bytes`] (typed `too_large`, then close:
//!   there is no way to resync inside an unterminated line); the binary
//!   path applies the same cap to a frame's length word.
//! * **Graceful shutdown** — after [`ServerHandle::stop`] every
//!   connection finishes (and answers) at most one request it already
//!   received before closing; the deadlines bound how long draining can
//!   take.
//! * **Read-only degradation** — an `ENOSPC` from the store flips the
//!   daemon into read-only mode: further ingests get a typed `read_only`
//!   error, queries keep working, and `STATS` reports `"read_only":true`
//!   so operators see the degradation instead of a crash loop.

use crate::protocol::{
    ErrorKind, IngestReceipt, Notification, Record, RegressReport, Request, Response,
    ServerStatsReport, StatsReport, TopReport, TrendReport, WireProtocol,
};
use crate::trace::{verb_index, ReqProto, RequestLatency};
use crate::wire;
use profstore::{is_enospc, RegressConfig, Repo, RetentionPolicy, StoreError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use taskprof_telemetry::ServiceCounters;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Concurrent-connection cap (the admission gate).
    pub max_connections: usize,
    /// Defaults for `regress` queries that omit tunables.
    pub regress: RegressConfig,
    /// Fold closed segments into the aggregate cache at this interval
    /// (`None` disables background compaction).
    pub compact_interval: Option<Duration>,
    /// Drop a connection whose next request does not arrive within this
    /// deadline (`None` waits forever — the pre-hardening behavior).
    pub read_timeout: Option<Duration>,
    /// Deadline for draining one response back to the peer.
    pub write_timeout: Option<Duration>,
    /// Reject JSON request lines (or binary frame payloads) longer than
    /// this many bytes with a typed `too_large` error (profiles travel
    /// inline, so the cap is generous).
    pub max_request_bytes: usize,
    /// Which wire protocols to accept: [`WireProtocol::Auto`] sniffs
    /// both on the same port; `Json`/`Binary` refuse the other with a
    /// typed `bad_request`.
    pub protocols: WireProtocol,
    /// Default telemetry push period for `SUBSCRIBE` when the client
    /// does not request one (clamped below at the reactor tick).
    pub subscribe_interval: Duration,
    /// Per-subscriber outbound queue cap in bytes. A push that would
    /// grow a subscriber's pending output beyond this is shed (and later
    /// reported with a typed `lagged` notice) so a stalled subscriber
    /// never blocks ingest or other connections.
    pub subscriber_queue_bytes: usize,
    /// Shared secret required from every connection (`None` = open).
    /// When set, a connection may only `HELLO` until it presents the
    /// secret; everything else earns a typed `unauthorized` error.
    /// Compared constant-time, so the reply latency leaks nothing about
    /// how many leading bytes matched.
    pub auth_secret: Option<String>,
    /// Retention policy applied by the background compactor (`None`
    /// keeps everything forever). GC runs on the compaction cadence.
    pub retention: Option<RetentionPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            regress: RegressConfig::default(),
            compact_interval: Some(Duration::from_secs(2)),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            max_request_bytes: 32 << 20,
            protocols: WireProtocol::Auto,
            subscribe_interval: Duration::from_millis(500),
            subscriber_queue_bytes: 256 << 10,
            auth_secret: None,
            retention: None,
        }
    }
}

/// The reactor's poll tick — also the floor on subscription push
/// periods.
pub(crate) const REACTOR_TICK: Duration = Duration::from_millis(50);

pub(crate) struct Shared {
    pub(crate) store: RwLock<Repo>,
    pub(crate) counters: Arc<ServiceCounters>,
    pub(crate) stop: AtomicBool,
    /// Set on the first `ENOSPC` from the store; ingests are refused
    /// (typed `read_only`) until the daemon restarts with free disk.
    pub(crate) read_only: AtomicBool,
    /// Per-(verb, protocol) request-latency histograms.
    pub(crate) latency: RequestLatency,
    /// Wall clock (unix epoch ns) when the store was opened for serving
    /// — the anchor reported in `STATS` for `since_ns` windows.
    pub(crate) open_ns: u64,
    /// Monotonic start instant, for `uptime_secs`.
    pub(crate) started: Instant,
    /// Frames handed out through `EXPORT` since start (leader side).
    pub(crate) exported_frames: AtomicU64,
    /// Frames written through `APPLY` since start (follower side).
    pub(crate) applied_frames: AtomicU64,
    pub(crate) config: ServeConfig,
}

/// Cheap cloneable control handle for a running server.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (use this after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's service counters.
    pub fn counters(&self) -> Arc<ServiceCounters> {
        Arc::clone(&self.shared.counters)
    }

    /// Ask the reactor to exit. Idempotent; returns once the flag is set
    /// (the loop notices via a wake-up connection). Connections drain:
    /// each answers at most one request it already received before
    /// closing.
    pub fn stop(&self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the waiting reactor (or accept loop) with a throwaway
        // connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// True once an `ENOSPC` degraded the daemon to read-only mode.
    pub fn read_only(&self) -> bool {
        self.shared.read_only.load(Ordering::SeqCst)
    }

    /// True once [`ServerHandle::stop`] was called.
    pub fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// One JSONL record of the daemon's request-latency histograms: one
    /// flat object of `u64` members, `"t_ns"` and then, per traced
    /// (verb, protocol) pair, `"<verb>.<proto>.count"`, `.sum_ns`,
    /// `.max_ns` and `.b<i>` for each non-empty bucket `i`. Append these
    /// to the same sink as measurement-path
    /// [`taskprof_telemetry::to_jsonl_line`] records and read them back
    /// with [`taskprof_telemetry::parse_latency_jsonl_line`].
    pub fn latency_jsonl_line(&self, t_ns: u64) -> String {
        taskprof_telemetry::latency_to_jsonl_line(t_ns, &self.shared.latency.jsonl_series())
    }
}

/// The repository daemon. Bind, then [`Server::run`] (foreground) or
/// [`Server::spawn`] (background thread + [`ServerHandle`]).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) over an
    /// already-open repository (a bare [`profstore::ProfileStore`] or a
    /// [`profstore::ShardedStore`] — both convert into [`Repo`]).
    pub fn bind(
        addr: &str,
        store: impl Into<Repo>,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            store: RwLock::new(store.into()),
            counters: ServiceCounters::new(),
            stop: AtomicBool::new(false),
            read_only: AtomicBool::new(false),
            latency: RequestLatency::default(),
            open_ns: now_ns(),
            started: Instant::now(),
            exported_frames: AtomicU64::new(0),
            applied_frames: AtomicU64::new(0),
            config,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle (valid before and during [`Server::run`]).
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            addr: self.local_addr()?,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Serve until [`ServerHandle::stop`]; joins the compactor before
    /// returning.
    pub fn run(self) -> std::io::Result<()> {
        let compactor = self.shared.config.compact_interval.map(|every| {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || {
                // Sleep in small slices so stop stays responsive, but
                // only compact once per full interval. The tick counter
                // is per-server state: a process running several servers
                // (tests) must not skew each other's compaction cadence.
                let slice = every.min(Duration::from_millis(100));
                let per_interval = (every.as_millis() / slice.as_millis().max(1)).max(1) as usize;
                let mut ticks: usize = 0;
                while !shared.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(slice);
                    ticks += 1;
                    if !ticks.is_multiple_of(per_interval) {
                        continue;
                    }
                    if let Ok(mut store) = shared.store.write() {
                        let _ = store.compact();
                        if let Some(policy) = &shared.config.retention {
                            let _ = store.gc(policy);
                        }
                    }
                }
            })
        });

        let result = crate::reactor::run(self.listener, Arc::clone(&self.shared));

        if let Some(compactor) = compactor {
            let _ = compactor.join();
        }
        result
    }

    /// Bind + run on a background thread; the returned handle stops it.
    pub fn spawn(
        addr: &str,
        store: impl Into<Repo>,
        config: ServeConfig,
    ) -> std::io::Result<(ServerHandle, std::thread::JoinHandle<std::io::Result<()>>)> {
        let server = Server::bind(addr, store, config)?;
        let handle = server.handle()?;
        let join = std::thread::spawn(move || server.run());
        Ok((handle, join))
    }
}

// ---------------------------------------------------------------------
// The protocol-agnostic request core
// ---------------------------------------------------------------------

pub(crate) fn now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
    }
}

fn store_error(e: &StoreError) -> Response {
    match e {
        StoreError::NotFound(_) => error(ErrorKind::NotFound, e.to_string()),
        StoreError::BadFrame(_) | StoreError::BadRecord(_) => {
            error(ErrorKind::BadRequest, e.to_string())
        }
        _ => error(ErrorKind::Internal, e.to_string()),
    }
}

/// Constant-time string equality: fold every byte position with XOR so
/// the comparison touches the same bytes whether or not prefixes match,
/// leaking only the configured secret's length.
pub(crate) fn constant_time_eq(configured: &str, presented: &str) -> bool {
    let a = configured.as_bytes();
    let b = presented.as_bytes();
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// Frames-per-page ceiling the `EXPORT` handler enforces regardless of
/// what the client asked for, so one reply never approaches the
/// response size cap.
const EXPORT_MAX_FRAMES: u64 = 4096;

/// Aggregate one group, mapping an empty group to `not_found` — queries
/// against a benchmark/threads pair nobody ingested should say so, not
/// answer with all-zero statistics.
// The Err is the ready-to-send error Response; it exists for one frame
// on the request path, so boxing it buys nothing.
#[allow(clippy::result_large_err)]
fn aggregate_group(
    shared: &Shared,
    benchmark: &str,
    threads: u32,
    window: &profstore::RunWindow,
) -> Result<profstore::BenchAgg, Response> {
    let store = shared.store.read().expect("store lock");
    match store.aggregate_window(benchmark, threads, window) {
        Ok(agg) if agg.runs == 0 => Err(error(
            ErrorKind::NotFound,
            format!("no runs stored for benchmark '{benchmark}' at {threads} threads (in window)"),
        )),
        Ok(agg) => Ok(agg),
        Err(e) => Err(store_error(&e)),
    }
}

/// The full `STATS` report — also pushed verbatim inside `telemetry`
/// subscription events.
pub(crate) fn server_stats_report(shared: &Shared) -> ServerStatsReport {
    let store = shared.store.read().expect("store lock");
    ServerStatsReport {
        service: shared.counters.snapshot(),
        read_only: shared.read_only.load(Ordering::SeqCst),
        store: store.stats(),
        open_timestamp_ns: shared.open_ns,
        uptime_secs: shared.started.elapsed().as_secs(),
        latency: shared.latency.stats(),
    }
}

/// The `STATS prometheus` text: service counters, the request-latency
/// histograms, and store/uptime gauges in one scrape-ready document.
fn stats_prometheus(shared: &Shared) -> String {
    use taskprof_telemetry::export::{prom_header, prom_sample};
    let report = server_stats_report(shared);
    let (per_shard, watermark) = {
        let store = shared.store.read().expect("store lock");
        (store.per_shard_stats(), store.max_run_id())
    };
    let mut text = taskprof_telemetry::service_to_prometheus(&report.service);
    text.push_str(&shared.latency.to_prometheus());
    for (name, kind, help, value) in [
        (
            "profserve_store_runs",
            "gauge",
            "Runs in the store.",
            report.store.runs,
        ),
        (
            "profserve_store_segments",
            "gauge",
            "Segments in the store.",
            report.store.segments,
        ),
        (
            "profserve_store_bytes",
            "gauge",
            "Bytes across the store's segments.",
            report.store.bytes,
        ),
        (
            "profserve_uptime_seconds",
            "gauge",
            "Seconds since the daemon started serving.",
            report.uptime_secs,
        ),
        (
            "profserve_read_only",
            "gauge",
            "1 when degraded to read-only after ENOSPC.",
            u64::from(report.read_only),
        ),
        (
            "profserve_store_max_run_id",
            "gauge",
            "Highest run id indexed (the replication watermark).",
            watermark,
        ),
        (
            "profserve_export_frames_total",
            "counter",
            "Record frames streamed out through EXPORT.",
            shared.exported_frames.load(Ordering::Relaxed),
        ),
        (
            "profserve_apply_frames_total",
            "counter",
            "Record frames written through APPLY.",
            shared.applied_frames.load(Ordering::Relaxed),
        ),
    ] {
        prom_header(&mut text, name, kind, help);
        prom_sample(&mut text, name, None, value);
    }
    // Per-shard shape gauges (one series per shard; a single store is
    // shard 0), so an operator can see imbalance at a glance.
    for (name, help, pick) in [
        (
            "profserve_shard_runs",
            "Runs indexed in one shard.",
            (|s: &profstore::StoreStats| s.runs) as fn(&profstore::StoreStats) -> u64,
        ),
        ("profserve_shard_segments", "Segments in one shard.", |s| {
            s.segments
        }),
        (
            "profserve_shard_bytes",
            "Bytes across one shard's segments.",
            |s| s.bytes,
        ),
    ] {
        prom_header(&mut text, name, "gauge", help);
        for (k, stats) in per_shard.iter().enumerate() {
            prom_sample(
                &mut text,
                name,
                Some(&format!("shard=\"{k}\"")),
                pick(stats),
            );
        }
    }
    text
}

/// Ingest a slice of records under one receipt. Items are stored in
/// order; validation happens up front so a malformed item refuses the
/// whole batch before anything lands, while a mid-batch store failure
/// reports how many records were already durable. Every item is a record
/// body by then — text transcoded, a TPF1 record verified — which is
/// stamped with its run id and appended; no `Profile` is built.
fn ingest_records(shared: &Shared, items: &[Record]) -> Response {
    let mut checked = Vec::with_capacity(items.len());
    for (index, record) in items.iter().enumerate() {
        match record.profile.check() {
            Ok(item) => checked.push(item),
            Err(e) => {
                return error(ErrorKind::BadRequest, format!("item {index}: {e}"));
            }
        }
    }
    if shared.read_only.load(Ordering::SeqCst) {
        return error(
            ErrorKind::ReadOnly,
            "store degraded to read-only after ENOSPC; ingests refused",
        );
    }
    let mut receipt = IngestReceipt::default();
    let mut store = shared.store.write().expect("store lock");
    for (record, item) in items.iter().zip(&checked) {
        let (benchmark, threads) = (&record.benchmark, record.threads);
        let timestamp = record.timestamp_ns.unwrap_or_else(now_ns);
        match store.ingest_record(benchmark, threads, timestamp, item) {
            Ok(r) => {
                shared.counters.add(|c| &c.ingests, 1);
                shared.counters.add(|c| &c.ingest_bytes, r.bytes);
                if receipt.count == 0 {
                    receipt.first_run_id = r.run_id;
                }
                receipt.count += 1;
                receipt.bytes += r.bytes;
                receipt.segment = r.segment;
            }
            Err(StoreError::Io(e)) if is_enospc(&e) => {
                // The disk is full: degrade loudly to read-only rather
                // than answering `internal` forever. Queries keep
                // working off the intact prefix of the log.
                shared.read_only.store(true, Ordering::SeqCst);
                return error(
                    ErrorKind::ReadOnly,
                    format!(
                        "disk full (ENOSPC): store degraded to read-only \
                         ({} of {} batch records stored)",
                        receipt.count,
                        items.len()
                    ),
                );
            }
            Err(e) => return store_error(&e),
        }
    }
    Response::Ingest(receipt)
}

/// Answer one typed request. Protocol codecs sit on either side of this;
/// it neither parses nor serializes.
pub(crate) fn respond(shared: &Shared, request: Request) -> Response {
    match request {
        Request::Hello { features, .. } => Response::Hello {
            // v1 is the only version this build speaks; the feature set
            // is the intersection, so unknown client bits vanish.
            version: wire::WIRE_VERSION,
            features: features & wire::FEATURE_BATCH_INGEST,
        },
        Request::Ingest(record) => ingest_records(shared, std::slice::from_ref(&record)),
        Request::IngestBatch(items) => {
            shared.counters.add(|c| &c.ingest_batches, 1);
            if items.is_empty() {
                return error(ErrorKind::BadRequest, "empty ingest batch");
            }
            ingest_records(shared, &items)
        }
        Request::QueryTop {
            benchmark,
            threads,
            n,
            window,
        } => {
            shared.counters.add(|c| &c.queries, 1);
            match aggregate_group(shared, &benchmark, threads, &window) {
                Ok(agg) => Response::Top(TopReport::from_agg(&benchmark, threads, &agg, n)),
                Err(resp) => resp,
            }
        }
        Request::QueryStats {
            benchmark,
            threads,
            window,
        } => {
            shared.counters.add(|c| &c.queries, 1);
            match aggregate_group(shared, &benchmark, threads, &window) {
                Ok(agg) => Response::Stats(StatsReport::from_agg(&benchmark, threads, &agg)),
                Err(resp) => resp,
            }
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
            shared.counters.add(|c| &c.queries, 1);
            // A non-finite threshold would be echoed in the verdict, and
            // JSON has no spelling for it: refuse it on both wires.
            if threshold.is_some_and(|t| !t.is_finite()) {
                return error(ErrorKind::BadRequest, "threshold must be a finite number");
            }
            let summary = match profile.summary() {
                Ok(s) => s,
                Err(e) => return error(ErrorKind::BadRequest, format!("profile: {e}")),
            };
            let config = RegressConfig {
                threshold: threshold.unwrap_or(shared.config.regress.threshold),
                min_runs: min_runs.unwrap_or(shared.config.regress.min_runs),
                min_delta_ns: min_delta_ns.unwrap_or(shared.config.regress.min_delta_ns),
            };
            match aggregate_group(shared, &benchmark, threads, &window) {
                Ok(agg) => Response::Regress(RegressReport::from_verdict(
                    &agg.check_regression(&summary, &config),
                )),
                Err(resp) => resp,
            }
        }
        Request::QueryTrend {
            benchmark,
            threads,
            buckets,
            window,
        } => {
            shared.counters.add(|c| &c.queries, 1);
            if buckets == 0 {
                return error(ErrorKind::BadRequest, "trend needs at least one bucket");
            }
            let trend = {
                let store = shared.store.read().expect("store lock");
                store.trend(&benchmark, threads, &window, buckets as usize)
            };
            match trend {
                Ok(b) if b.is_empty() => error(
                    ErrorKind::NotFound,
                    format!(
                        "no runs stored for benchmark '{benchmark}' at {threads} threads (in window)"
                    ),
                ),
                Ok(b) => Response::Trend(TrendReport {
                    benchmark,
                    threads,
                    runs: b.iter().map(|x| x.runs).sum(),
                    buckets: b,
                }),
                Err(e) => store_error(&e),
            }
        }
        Request::Stats => {
            shared.counters.add(|c| &c.queries, 1);
            Response::ServerStats(server_stats_report(shared))
        }
        Request::StatsPrometheus => {
            shared.counters.add(|c| &c.queries, 1);
            Response::Prometheus(stats_prometheus(shared))
        }
        // SUBSCRIBE is connection-level: `serve_parsed` intercepts it
        // before dispatch, because the upgrade to push mode is an effect
        // on the connection, not a query of the store.
        Request::Subscribe { .. } => error(
            ErrorKind::BadRequest,
            "SUBSCRIBE is handled by the connection, not dispatched",
        ),
        Request::Export { after, max } => {
            shared.counters.add(|c| &c.queries, 1);
            if max == 0 {
                return error(ErrorKind::BadRequest, "export needs max > 0");
            }
            let page = {
                let store = shared.store.read().expect("store lock");
                store.export_frames(after, max.min(EXPORT_MAX_FRAMES) as usize)
            };
            match page {
                Ok(batch) => {
                    shared
                        .exported_frames
                        .fetch_add(batch.frames.len() as u64, Ordering::Relaxed);
                    Response::ExportChunk {
                        frames: batch.frames,
                        watermark: batch.watermark,
                        done: batch.done,
                    }
                }
                Err(e) => store_error(&e),
            }
        }
        Request::Apply { frames } => {
            if frames.is_empty() {
                // Cursor probe: report the watermark, write nothing.
                let store = shared.store.read().expect("store lock");
                return Response::Applied {
                    applied: 0,
                    skipped: 0,
                    watermark: store.max_run_id(),
                };
            }
            if shared.read_only.load(Ordering::SeqCst) {
                return error(
                    ErrorKind::ReadOnly,
                    "store degraded to read-only after ENOSPC; applies refused",
                );
            }
            let mut store = shared.store.write().expect("store lock");
            let page = store.apply_frames(&frames);
            let applied = page.applied.len() as u64;
            let bytes = page.applied.iter().map(|r| r.bytes).sum();
            shared.counters.add(|c| &c.ingests, applied);
            shared.counters.add(|c| &c.ingest_bytes, bytes);
            shared.applied_frames.fetch_add(applied, Ordering::Relaxed);
            match page.error {
                None => Response::Applied {
                    applied,
                    skipped: page.skipped,
                    watermark: store.max_run_id(),
                },
                Some(StoreError::Io(e)) if is_enospc(&e) => {
                    shared.read_only.store(true, Ordering::SeqCst);
                    error(
                        ErrorKind::ReadOnly,
                        format!(
                            "disk full (ENOSPC): store degraded to read-only \
                             ({applied} of {} frames applied)",
                            frames.len()
                        ),
                    )
                }
                Some(e) => store_error(&e),
            }
        }
    }
}

fn count_errors(shared: &Shared, response: &Response) {
    if matches!(response, Response::Error { .. }) {
        shared.counters.add(|c| &c.errors, 1);
    }
}

/// Connection-level side effects of one served request, for the reactor:
/// the request core answers, the reactor acts.
#[derive(Default)]
pub(crate) struct ServeEffects {
    /// The request was an accepted `SUBSCRIBE`: upgrade the connection
    /// to push mode with this telemetry period.
    pub(crate) subscribed: Option<Duration>,
    /// The request stored runs: fan this notification out to live
    /// subscribers.
    pub(crate) ingested: Option<Notification>,
    /// The request was a `HELLO` carrying the configured shared secret:
    /// mark the connection authenticated for its remaining lifetime.
    pub(crate) authed: bool,
}

/// Enforce the shared-secret gate, if one is configured. Returns the
/// refusal to send, or `None` to let the request through (setting
/// `effects.authed` when a `HELLO` presents the right secret).
fn auth_gate(
    shared: &Shared,
    request: &Request,
    authed: bool,
    effects: &mut ServeEffects,
) -> Option<Response> {
    let secret = shared.config.auth_secret.as_deref()?;
    match request {
        Request::Hello { auth, .. } => match auth.as_deref() {
            Some(presented) if constant_time_eq(secret, presented) => {
                effects.authed = true;
                None
            }
            Some(_) => Some(error(ErrorKind::Unauthorized, "invalid auth secret")),
            // A bare HELLO still negotiates — it just grants nothing.
            None => None,
        },
        _ if authed => None,
        _ => Some(error(
            ErrorKind::Unauthorized,
            "auth required: HELLO with the shared secret first",
        )),
    }
}

/// Dispatch one parsed (or unparsable) request, recording the handling
/// span in the latency grid.
fn serve_parsed(
    shared: &Shared,
    parsed: Result<Request, String>,
    proto: ReqProto,
    authed: bool,
) -> (Response, ServeEffects) {
    let mut effects = ServeEffects::default();
    let response = match parsed {
        Ok(request) => {
            let verb = verb_index(&request);
            let start = Instant::now();
            let response = match auth_gate(shared, &request, authed, &mut effects) {
                Some(refusal) => refusal,
                None => match request {
                    Request::Subscribe { interval_ms } => {
                        // Clamp below at the reactor tick: pushes cannot be
                        // more frequent than the loop that emits them.
                        let ms = interval_ms
                            .unwrap_or(shared.config.subscribe_interval.as_millis() as u64)
                            .max(REACTOR_TICK.as_millis() as u64);
                        shared.counters.add(|c| &c.subscriptions, 1);
                        effects.subscribed = Some(Duration::from_millis(ms));
                        Response::Subscribed { interval_ms: ms }
                    }
                    request => {
                        let group = match &request {
                            Request::Ingest(r) => Some((r.benchmark.clone(), r.threads)),
                            Request::IngestBatch(items) => {
                                items.first().map(|r| (r.benchmark.clone(), r.threads))
                            }
                            _ => None,
                        };
                        let response = respond(shared, request);
                        if let (Some((benchmark, threads)), Response::Ingest(receipt)) =
                            (group, &response)
                        {
                            effects.ingested = Some(Notification::Ingest {
                                first_run_id: receipt.first_run_id,
                                count: receipt.count,
                                bytes: receipt.bytes,
                                benchmark,
                                threads,
                            });
                        }
                        response
                    }
                },
            };
            shared
                .latency
                .record(verb, proto, start.elapsed().as_nanos() as u64);
            response
        }
        Err(reason) => error(ErrorKind::BadRequest, reason),
    };
    count_errors(shared, &response);
    (response, effects)
}

/// Serve one JSON request line as it came off the socket: validate,
/// parse, dispatch, serialize. A line that is not UTF-8 is a
/// `bad_request` like any other unparsable line — it is never repaired
/// and served. Returns the response line (no trailing newline) plus
/// connection-level effects.
pub(crate) fn serve_json_line(
    shared: &Shared,
    line: &[u8],
    authed: bool,
) -> (String, ServeEffects) {
    shared.counters.add(|c| &c.json_requests, 1);
    let parsed = std::str::from_utf8(line)
        .map_err(|_| "request line is not valid UTF-8".to_string())
        .and_then(Request::from_json_line);
    let (response, effects) = serve_parsed(shared, parsed, ReqProto::Json, authed);
    (response.to_json_line(), effects)
}

/// Serve one TPF1 request payload: decode, dispatch. The caller frames
/// the returned response.
pub(crate) fn serve_bin_payload(
    shared: &Shared,
    payload: &[u8],
    authed: bool,
) -> (Response, ServeEffects) {
    shared.counters.add(|c| &c.bin_requests, 1);
    serve_parsed(
        shared,
        wire::decode_request(payload).map_err(|e| e.to_string()),
        ReqProto::Bin,
        authed,
    )
}
