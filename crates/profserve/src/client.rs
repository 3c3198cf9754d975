//! The typed blocking client.
//!
//! One [`Client`] is one connection speaking one negotiated protocol —
//! TPF1 binary frames or JSON lines — behind a protocol-agnostic typed
//! API: requests go in as [`Request`] values (or through the typed
//! convenience methods), results come back as the typed report structs
//! from [`crate::protocol`], and failures are split into transport
//! errors ([`ClientError::Io`]), protocol violations
//! ([`ClientError::Protocol`]), and typed server errors
//! ([`ClientError::Server`]).
//!
//! Protocol selection ([`WireProtocol`]):
//!
//! * `Auto` (the default) — try the TPF1 handshake (magic + `HELLO`);
//!   if the server refuses or the handshake doesn't parse, reconnect
//!   and speak JSON lines. Typed server errors during the handshake
//!   (e.g. `overloaded` shedding) surface as errors, not fallback —
//!   a JSON retry would be shed identically.
//! * `Binary` / `Json` — speak exactly that protocol or fail.
//!
//! The old line-oriented shim surface (`Client::call`, `Client::ingest`)
//! is gone: callers speak the typed [`Request`]/[`Response`] surface or
//! the typed query methods.

use crate::protocol::{
    ErrorKind, IngestReceipt, Notification, ProfilePayload, Record, RegressReport, Request,
    Response, ServerStatsReport, StatsReport, TopReport, TrendReport, WireProtocol,
};
use crate::wire;
use profstore::RunWindow;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Initial size of a binary connection's read buffer.
const READ_CHUNK: usize = 64 << 10;

/// Client-side deadlines. `None` members mean "block forever" (the
/// pre-hardening behavior); [`ClientTimeouts::default`] bounds every
/// phase so a dead or wedged daemon can never hang the caller.
#[derive(Clone, Copy, Debug)]
pub struct ClientTimeouts {
    /// Deadline for establishing the TCP connection.
    pub connect: Option<Duration>,
    /// Deadline for reading one response (line or frame).
    pub read: Option<Duration>,
    /// Deadline for writing one request.
    pub write: Option<Duration>,
}

impl Default for ClientTimeouts {
    fn default() -> Self {
        Self {
            connect: Some(Duration::from_millis(500)),
            read: Some(Duration::from_secs(5)),
            write: Some(Duration::from_secs(5)),
        }
    }
}

impl ClientTimeouts {
    /// No deadlines anywhere (block forever).
    pub fn unbounded() -> Self {
        Self {
            connect: None,
            read: None,
            write: None,
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write).
    Io(std::io::Error),
    /// The server's bytes did not follow the protocol.
    Protocol(String),
    /// The server answered with a typed error.
    Server {
        /// The error category from the wire.
        kind: ErrorKind,
        /// The server's explanation.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { kind, message } => {
                write!(f, "server {}: {message}", kind.tag())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One page of the bulk `EXPORT` stream: raw CRC-framed record frames
/// plus the resume cursor.
#[derive(Clone, Debug)]
pub struct ExportPage {
    /// Whole store frames ([`profstore::frame`]), ascending run id.
    pub frames: Vec<Vec<u8>>,
    /// Highest run id covered by this page — pass as `after` to resume.
    pub watermark: u64,
    /// True when no runs exist beyond `watermark` (the follower has
    /// caught up; poll again later for new ingests).
    pub done: bool,
}

/// Acknowledgement of a bulk `APPLY`: how the follower disposed of the
/// shipped frames and where its cursor now stands.
#[derive(Clone, Copy, Debug)]
pub struct ApplyAck {
    /// Frames written (run ids the follower had not yet seen).
    pub applied: u64,
    /// Frames skipped as already present (`run_id <= watermark`) —
    /// the exactly-once guarantee under retries.
    pub skipped: u64,
    /// The follower's replication cursor after the apply (its highest
    /// indexed run id).
    pub watermark: u64,
}

/// Which protocol a connection settled on.
enum ActiveProto {
    Json,
    Binary {
        /// Feature bits both sides agreed on during `HELLO`.
        features: u64,
    },
}

/// How a binary handshake failed.
enum Handshake {
    /// The server (or the wire) refused TPF1; `Auto` may retry as JSON.
    Refused(ClientError),
    /// A real answer that a JSON retry would reproduce (e.g. shedding);
    /// surface it.
    Fatal(ClientError),
}

/// One connection to a `profserve` daemon. Requests are serialized on
/// the connection; open more clients for concurrency.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// A binary connection's read buffer: `inbound[..filled]` is read and
    /// not yet split into a frame, the rest is room for the next read.
    inbound: Vec<u8>,
    filled: usize,
    proto: ActiveProto,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7979`) with no deadlines (the
    /// original blocking behavior; prefer [`Client::connect_with`] from
    /// anything that must not hang on a dead daemon). Negotiates the
    /// protocol ([`WireProtocol::Auto`]).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Self::connect_with(addr, ClientTimeouts::unbounded())
    }

    /// Connect with explicit deadlines; negotiates the protocol
    /// ([`WireProtocol::Auto`]).
    pub fn connect_with(addr: &str, timeouts: ClientTimeouts) -> Result<Client, ClientError> {
        Self::connect_proto(addr, WireProtocol::Auto, timeouts)
    }

    /// Connect speaking exactly `proto` (`Auto` negotiates: TPF1 first,
    /// JSON lines if the handshake is refused).
    pub fn connect_proto(
        addr: &str,
        proto: WireProtocol,
        timeouts: ClientTimeouts,
    ) -> Result<Client, ClientError> {
        Self::connect_proto_auth(addr, proto, timeouts, None)
    }

    /// Connect and authenticate. When `auth` is `Some`, the shared
    /// secret travels in the `HELLO` — inside the TPF1 handshake on
    /// binary connections, as an explicit `HELLO` line on JSON ones —
    /// so every later request on the connection is authorized. A wrong
    /// secret surfaces as a typed `unauthorized` server error.
    pub fn connect_proto_auth(
        addr: &str,
        proto: WireProtocol,
        timeouts: ClientTimeouts,
        auth: Option<&str>,
    ) -> Result<Client, ClientError> {
        match proto {
            WireProtocol::Json => {
                let stream = Self::connect_stream(addr, timeouts)?;
                let mut client = Self::from_stream(stream, ActiveProto::Json)?;
                if let Some(secret) = auth {
                    client.hello_json(secret)?;
                }
                Ok(client)
            }
            WireProtocol::Binary | WireProtocol::Auto => {
                let stream = Self::connect_stream(addr, timeouts)?;
                match Self::handshake_binary(stream, auth) {
                    Ok(client) => Ok(client),
                    Err(Handshake::Fatal(e)) => Err(e),
                    Err(Handshake::Refused(e)) => {
                        if proto == WireProtocol::Binary {
                            return Err(e);
                        }
                        // Auto: reconnect and speak JSON. The failed
                        // socket is abandoned (the server closes it).
                        let stream = Self::connect_stream(addr, timeouts)?;
                        let mut client = Self::from_stream(stream, ActiveProto::Json)?;
                        if let Some(secret) = auth {
                            client.hello_json(secret)?;
                        }
                        Ok(client)
                    }
                }
            }
        }
    }

    fn connect_stream(addr: &str, timeouts: ClientTimeouts) -> Result<TcpStream, ClientError> {
        let stream = match timeouts.connect {
            Some(deadline) => {
                // `connect_timeout` wants a resolved address; try each
                // resolution until one connects within the deadline.
                let addrs: Vec<_> = addr.to_socket_addrs()?.collect();
                let mut last = None;
                let mut stream = None;
                for a in addrs {
                    match TcpStream::connect_timeout(&a, deadline) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                stream.ok_or_else(|| {
                    last.unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!("address '{addr}' resolved to nothing"),
                        )
                    })
                })?
            }
            None => TcpStream::connect(addr)?,
        };
        // The protocol is strict request/response: Nagle would hold each
        // small request hostage to the peer's delayed ACK.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeouts.read)?;
        stream.set_write_timeout(timeouts.write)?;
        Ok(stream)
    }

    fn from_stream(stream: TcpStream, proto: ActiveProto) -> Result<Client, ClientError> {
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            inbound: Vec::new(),
            filled: 0,
            proto,
        })
    }

    /// Authenticate a JSON connection: send a `HELLO` line carrying the
    /// shared secret and expect the hello acknowledgement back. A wrong
    /// secret answers with a typed `unauthorized` error.
    fn hello_json(&mut self, secret: &str) -> Result<(), ClientError> {
        match self.expect(&Request::Hello {
            version: wire::WIRE_VERSION,
            features: 0,
            auth: Some(secret.to_string()),
        })? {
            Response::Hello { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected HELLO ack, got {other:?}"
            ))),
        }
    }

    /// Send magic + `HELLO`, read the server's verdict.
    fn handshake_binary(stream: TcpStream, auth: Option<&str>) -> Result<Client, Handshake> {
        let mut client = Self::from_stream(stream, ActiveProto::Binary { features: 0 })
            .map_err(Handshake::Refused)?;
        let hello = Request::Hello {
            version: wire::WIRE_VERSION,
            features: wire::FEATURE_BATCH_INGEST,
            auth: auth.map(str::to_string),
        };
        let mut opening = Vec::with_capacity(64);
        opening.extend_from_slice(&wire::WIRE_MAGIC);
        opening.extend_from_slice(&wire::frame(&wire::encode_request(&hello)));
        client
            .writer
            .write_all(&opening)
            .and_then(|()| client.writer.flush())
            .map_err(|e| Handshake::Refused(ClientError::Io(e)))?;
        match client.read_handshake_reply() {
            Ok(Response::Hello { version, features }) => {
                if version != wire::WIRE_VERSION {
                    return Err(Handshake::Refused(ClientError::Protocol(format!(
                        "server speaks TPF version {version}, client speaks {}",
                        wire::WIRE_VERSION
                    ))));
                }
                client.proto = ActiveProto::Binary { features };
                Ok(client)
            }
            // A typed error inside the handshake frame (e.g. a wrong
            // shared secret) is a real answer, not a refusal — a JSON
            // retry would be refused identically.
            Ok(Response::Error { kind, message }) => {
                let e = ClientError::Server { kind, message };
                match kind {
                    ErrorKind::BadRequest => Err(Handshake::Refused(e)),
                    _ => Err(Handshake::Fatal(e)),
                }
            }
            Ok(other) => Err(Handshake::Refused(ClientError::Protocol(format!(
                "expected HELLO, got {other:?}"
            )))),
            // `bad_request` is how a `--proto json` server refuses the
            // magic — fall back. Anything else (shedding, read-only…)
            // is a real answer.
            Err(ClientError::Server { kind, message }) => {
                let e = ClientError::Server { kind, message };
                match kind {
                    ErrorKind::BadRequest => Err(Handshake::Refused(e)),
                    _ => Err(Handshake::Fatal(e)),
                }
            }
            Err(e) => Err(Handshake::Refused(e)),
        }
    }

    /// The protocol this connection negotiated.
    pub fn protocol(&self) -> WireProtocol {
        match self.proto {
            ActiveProto::Json => WireProtocol::Json,
            ActiveProto::Binary { .. } => WireProtocol::Binary,
        }
    }

    /// Feature bits agreed during `HELLO` (0 on JSON connections, which
    /// don't negotiate).
    pub fn features(&self) -> u64 {
        match self.proto {
            ActiveProto::Json => 0,
            ActiveProto::Binary { features } => features,
        }
    }

    // -----------------------------------------------------------------
    // Transport
    // -----------------------------------------------------------------

    fn read_response_json(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "connection closed before response".to_string(),
            ));
        }
        Response::from_json_line(line.trim_end()).map_err(ClientError::Protocol)
    }

    /// Read the reply to the binary opening (magic + `HELLO`). A leading
    /// `{` means the server answered in JSON instead — the shed path
    /// writes its `overloaded` line before sniffing — so parse that line
    /// and surface whatever it says. Only the opening may be sniffed:
    /// once the `HELLO` reply is accepted the server speaks frames only,
    /// and a frame whose length has the low byte 0x7B starts with `{` too.
    fn read_handshake_reply(&mut self) -> Result<Response, ClientError> {
        if self.reader.fill_buf()?.first() == Some(&b'{') {
            return match self.read_response_json()? {
                Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
                other => Err(ClientError::Protocol(format!(
                    "json response on a binary connection: {other:?}"
                ))),
            };
        }
        self.read_response_binary()
    }

    /// Read one binary response frame.
    fn read_response_binary(&mut self) -> Result<Response, ClientError> {
        loop {
            let split = wire::try_frame(&self.inbound[..self.filled], wire::MAX_RESPONSE_BYTES)
                .map_err(|e| ClientError::Protocol(format!("response {e}")))?;
            if let Some((payload, consumed)) = split {
                let response = wire::decode_response(payload);
                self.inbound.copy_within(consumed..self.filled, 0);
                self.filled -= consumed;
                return response.map_err(|e| ClientError::Protocol(e.to_string()));
            }
            if self.filled == self.inbound.len() {
                // Doubling, so a large frame arrives in few reads.
                self.inbound.resize((2 * self.filled).max(READ_CHUNK), 0);
            }
            match self.reader.read(&mut self.inbound[self.filled..]) {
                Ok(0) => {
                    return Err(ClientError::Protocol(
                        "connection closed before response".to_string(),
                    ))
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Send one typed request, read one typed response. Server-side
    /// typed errors come back as `Ok(Response::Error{..})`; the typed
    /// convenience methods convert them to [`ClientError::Server`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.proto {
            ActiveProto::Json => {
                let mut line = request.to_json_line();
                line.push('\n');
                self.writer
                    .write_all(line.as_bytes())
                    .and_then(|()| self.writer.flush())?;
                self.read_response_json()
            }
            ActiveProto::Binary { .. } => {
                let framed = wire::frame(&wire::encode_request(request));
                self.writer
                    .write_all(&framed)
                    .and_then(|()| self.writer.flush())?;
                self.read_response_binary()
            }
        }
    }

    fn expect(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request(request)? {
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            other => Ok(other),
        }
    }

    // -----------------------------------------------------------------
    // Typed API
    // -----------------------------------------------------------------

    /// Upload one profile; see [`Record::from_text`] /
    /// [`Record::from_profile`] for building the argument.
    pub fn ingest_record(&mut self, record: &Record) -> Result<IngestReceipt, ClientError> {
        match self.expect(&Request::Ingest(record.clone()))? {
            Response::Ingest(receipt) => Ok(receipt),
            other => Err(ClientError::Protocol(format!(
                "expected ingest receipt, got {other:?}"
            ))),
        }
    }

    /// Upload many profiles under one acknowledgement — the bulk path.
    /// Records are stored in order; on a typed error nothing after the
    /// count reported in the error message was stored.
    pub fn ingest_batch(&mut self, records: &[Record]) -> Result<IngestReceipt, ClientError> {
        match self.expect(&Request::IngestBatch(records.to_vec()))? {
            Response::Ingest(receipt) => Ok(receipt),
            other => Err(ClientError::Protocol(format!(
                "expected ingest receipt, got {other:?}"
            ))),
        }
    }

    /// Top-N regions by summed inclusive time across all stored runs.
    pub fn query_top(
        &mut self,
        benchmark: &str,
        threads: u32,
        n: usize,
    ) -> Result<TopReport, ClientError> {
        self.query_top_window(benchmark, threads, n, RunWindow::default())
    }

    /// Top-N regions, restricted to the runs selected by `window`.
    pub fn query_top_window(
        &mut self,
        benchmark: &str,
        threads: u32,
        n: usize,
        window: RunWindow,
    ) -> Result<TopReport, ClientError> {
        match self.expect(&Request::QueryTop {
            benchmark: benchmark.to_string(),
            threads,
            n,
            window,
        })? {
            Response::Top(report) => Ok(report),
            other => Err(ClientError::Protocol(format!(
                "expected top report, got {other:?}"
            ))),
        }
    }

    /// Cross-run scalar statistics across all stored runs.
    pub fn query_stats(
        &mut self,
        benchmark: &str,
        threads: u32,
    ) -> Result<StatsReport, ClientError> {
        self.query_stats_window(benchmark, threads, RunWindow::default())
    }

    /// Cross-run scalar statistics, restricted to the runs selected by
    /// `window`.
    pub fn query_stats_window(
        &mut self,
        benchmark: &str,
        threads: u32,
        window: RunWindow,
    ) -> Result<StatsReport, ClientError> {
        match self.expect(&Request::QueryStats {
            benchmark: benchmark.to_string(),
            threads,
            window,
        })? {
            Response::Stats(report) => Ok(report),
            other => Err(ClientError::Protocol(format!(
                "expected stats report, got {other:?}"
            ))),
        }
    }

    /// Regression check of a candidate profile against the stored
    /// baseline. `None` tunables use the server's defaults.
    pub fn query_regress(
        &mut self,
        benchmark: &str,
        threads: u32,
        profile: ProfilePayload,
        threshold: Option<f64>,
        min_runs: Option<u64>,
        min_delta_ns: Option<u64>,
    ) -> Result<RegressReport, ClientError> {
        self.query_regress_window(
            benchmark,
            threads,
            profile,
            threshold,
            min_runs,
            min_delta_ns,
            RunWindow::default(),
        )
    }

    /// Regression check against the baseline formed by the runs `window`
    /// selects — `last N` gates against recent history instead of the
    /// all-time mean.
    #[allow(clippy::too_many_arguments)]
    pub fn query_regress_window(
        &mut self,
        benchmark: &str,
        threads: u32,
        profile: ProfilePayload,
        threshold: Option<f64>,
        min_runs: Option<u64>,
        min_delta_ns: Option<u64>,
        window: RunWindow,
    ) -> Result<RegressReport, ClientError> {
        match self.expect(&Request::QueryRegress {
            benchmark: benchmark.to_string(),
            threads,
            profile,
            threshold,
            min_runs,
            min_delta_ns,
            window,
        })? {
            Response::Regress(report) => Ok(report),
            other => Err(ClientError::Protocol(format!(
                "expected regress report, got {other:?}"
            ))),
        }
    }

    /// Per-window total-time aggregates of one group — the sparkline
    /// query. `window` bounds the runs considered, `buckets` is how many
    /// equal-count slices to split them into (oldest first).
    pub fn query_trend(
        &mut self,
        benchmark: &str,
        threads: u32,
        buckets: u32,
        window: RunWindow,
    ) -> Result<TrendReport, ClientError> {
        match self.expect(&Request::QueryTrend {
            benchmark: benchmark.to_string(),
            threads,
            buckets,
            window,
        })? {
            Response::Trend(report) => Ok(report),
            other => Err(ClientError::Protocol(format!(
                "expected trend report, got {other:?}"
            ))),
        }
    }

    /// Server health: service counters, read-only flag, store shape,
    /// request-latency summaries.
    pub fn server_stats(&mut self) -> Result<ServerStatsReport, ClientError> {
        match self.expect(&Request::Stats)? {
            Response::ServerStats(report) => Ok(report),
            other => Err(ClientError::Protocol(format!(
                "expected server stats, got {other:?}"
            ))),
        }
    }

    /// The `STATS prometheus` scrape document (text exposition format).
    pub fn server_stats_prometheus(&mut self) -> Result<String, ClientError> {
        match self.expect(&Request::StatsPrometheus)? {
            Response::Prometheus(text) => Ok(text),
            other => Err(ClientError::Protocol(format!(
                "expected prometheus text, got {other:?}"
            ))),
        }
    }

    /// Pull one page of raw record frames with run id > `after`, at
    /// most `max` of them (the server additionally caps the page). The
    /// returned watermark is the resume cursor for the next page.
    pub fn export_frames(&mut self, after: u64, max: u64) -> Result<ExportPage, ClientError> {
        match self.expect(&Request::Export { after, max })? {
            Response::ExportChunk {
                frames,
                watermark,
                done,
            } => Ok(ExportPage {
                frames,
                watermark,
                done,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected export chunk, got {other:?}"
            ))),
        }
    }

    /// Ship raw record frames (from [`Client::export_frames`] against a
    /// leader) to this server. Frames whose run id the server already
    /// holds are skipped, making retries after a partition safe.
    pub fn apply_frames(&mut self, frames: &[Vec<u8>]) -> Result<ApplyAck, ClientError> {
        match self.expect(&Request::Apply {
            frames: frames.to_vec(),
        })? {
            Response::Applied {
                applied,
                skipped,
                watermark,
            } => Ok(ApplyAck {
                applied,
                skipped,
                watermark,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected apply ack, got {other:?}"
            ))),
        }
    }

    /// The server's replication cursor (highest indexed run id) — an
    /// empty `APPLY` probes without writing.
    pub fn replication_cursor(&mut self) -> Result<u64, ClientError> {
        Ok(self.apply_frames(&[])?.watermark)
    }

    /// Upgrade this connection to a live subscription. Consumes the
    /// client: after the server acknowledges, the connection carries
    /// pushed [`Notification`] events (periodic telemetry snapshots,
    /// ingest notices, and `lagged` notices if this subscriber falls
    /// behind) and no further requests can be sent on it. Returns the
    /// subscription plus the telemetry interval the server settled on
    /// (the request is clamped to the server's push tick).
    ///
    /// Callers that want to block on events indefinitely should connect
    /// with an unbounded (or interval-sized) read timeout.
    pub fn subscribe(
        mut self,
        interval_ms: Option<u64>,
    ) -> Result<(Subscription, u64), ClientError> {
        match self.expect(&Request::Subscribe { interval_ms })? {
            Response::Subscribed { interval_ms } => {
                Ok((Subscription { client: self }, interval_ms))
            }
            other => Err(ClientError::Protocol(format!(
                "expected subscription ack, got {other:?}"
            ))),
        }
    }
}

/// A live event stream, produced by [`Client::subscribe`]. Each call to
/// [`Subscription::next_event`] blocks (subject to the connection's read
/// timeout) until the server pushes the next [`Notification`].
pub struct Subscription {
    client: Client,
}

impl Subscription {
    /// Block until the next pushed event arrives.
    ///
    /// A read timeout on the underlying connection surfaces as
    /// [`ClientError::Io`] with kind `WouldBlock`/`TimedOut`; the
    /// subscription stays usable afterwards (the push simply had not
    /// arrived yet).
    pub fn next_event(&mut self) -> Result<Notification, ClientError> {
        let response = match self.client.proto {
            ActiveProto::Json => self.client.read_response_json()?,
            ActiveProto::Binary { .. } => self.client.read_response_binary()?,
        };
        match response {
            Response::Event(event) => Ok(event),
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            other => Err(ClientError::Protocol(format!(
                "expected pushed event, got {other:?}"
            ))),
        }
    }

    /// The protocol the underlying connection speaks.
    pub fn protocol(&self) -> WireProtocol {
        self.client.protocol()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A scripted peer: accepts one connection, reads the TPF1 opening,
    /// writes `opening_reply` verbatim, then answers each further request
    /// frame with the next of `replies`, framed.
    fn scripted_daemon(
        opening_reply: Vec<u8>,
        replies: Vec<Response>,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let join = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let read_frame = |stream: &mut TcpStream| {
                let mut head = [0u8; 4];
                stream.read_exact(&mut head).expect("frame length");
                let mut rest = vec![0u8; u32::from_le_bytes(head) as usize + 4];
                stream.read_exact(&mut rest).expect("frame payload and crc");
            };
            let mut magic = [0u8; 4];
            stream.read_exact(&mut magic).expect("magic");
            assert_eq!(magic, wire::WIRE_MAGIC);
            read_frame(&mut stream);
            stream.write_all(&opening_reply).expect("opening reply");
            for reply in &replies {
                read_frame(&mut stream);
                stream
                    .write_all(&wire::frame(&wire::encode_response(reply)))
                    .expect("reply");
            }
        });
        (addr, join)
    }

    fn hello_frame() -> Vec<u8> {
        wire::frame(&wire::encode_response(&Response::Hello {
            version: wire::WIRE_VERSION,
            features: wire::FEATURE_BATCH_INGEST,
        }))
    }

    /// An error reply whose encoded payload is exactly `len` bytes.
    fn reply_of_len(len: usize) -> Response {
        (0..len)
            .map(|n| Response::Error {
                kind: ErrorKind::NotFound,
                message: "m".repeat(n),
            })
            .find(|r| wire::encode_response(r).len() == len)
            .expect("some message length gives the payload length")
    }

    #[test]
    fn frames_starting_with_a_brace_byte_are_frames_after_the_handshake() {
        // Lengths 0x7B and 0x17B both put `{` first on the wire.
        let replies = vec![reply_of_len(0x7B), reply_of_len(0x17B), reply_of_len(0x7C)];
        for reply in &replies[..2] {
            assert_eq!(wire::frame(&wire::encode_response(reply))[0], b'{');
        }
        let (addr, join) = scripted_daemon(hello_frame(), replies.clone());
        let mut client =
            Client::connect_proto(&addr, WireProtocol::Binary, ClientTimeouts::default())
                .expect("handshake");
        for reply in &replies {
            // The third exchange shows the connection survived the first two.
            assert_eq!(&client.request(&Request::Stats).expect("a frame"), reply);
        }
        join.join().expect("scripted daemon");
    }

    #[test]
    fn json_shed_line_in_place_of_the_hello_reply_is_a_server_error() {
        let mut line = crate::protocol::error_line(ErrorKind::Overloaded, "retry later");
        line.push('\n');
        let (addr, join) = scripted_daemon(line.into_bytes(), Vec::new());
        let refused = Client::connect_proto(&addr, WireProtocol::Auto, ClientTimeouts::default());
        assert!(
            matches!(
                refused,
                Err(ClientError::Server {
                    kind: ErrorKind::Overloaded,
                    ..
                })
            ),
            "{:?}",
            refused.err()
        );
        join.join().expect("scripted daemon");
    }
}
