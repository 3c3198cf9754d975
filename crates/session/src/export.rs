//! Resilient auto-export of finished profiles into a profile repository.
//!
//! [`MeasurementSession::finish`](crate::MeasurementSession::finish) hands
//! the merged profile to [`export_profile`], which routes it by
//! [`ExportTarget`]:
//!
//! * **Directory** — append into a local `profstore` segment directory.
//!   The store's own crash-safety (CRC-framed records, scan-and-truncate
//!   recovery) applies; nothing else can go wrong short of the disk.
//! * **Server** — ingest over TCP into a `profserve` daemon. The network
//!   and the daemon can both fail, so this arm is governed by an
//!   [`ExportPolicy`]: every transport phase carries a deadline, transient
//!   failures are retried under bounded exponential backoff with
//!   deterministic (seeded) jitter, and when the daemon stays unreachable
//!   past the budget the profile degrades to a local **spool directory**
//!   instead of being dropped. Spooled profiles are re-delivered by the
//!   next successful export from the same policy (drain-on-next-success)
//!   or explicitly via [`drain_spool`] / `taskprof-cli drain`.
//!
//! The contract `finish()` relies on: the export path never blocks
//! (much) past [`ExportPolicy::deadline`], and with a spool configured it
//! never drops a profile — the worst case is a frame file on local disk.
//!
//! A spool file is one [`profstore::frame`] holding one record, the
//! segment log's record without the segment magic, so a truncated or
//! bit-flipped spool file is detected on drain and quarantined with a
//! `.bad` suffix rather than re-sent or silently skipped.

use profserve::{
    ClientError, ClientTimeouts, ErrorKind, IngestReceipt, ProfilePayload, Record, WireProtocol,
};
use profstore::{decode_meta, encode_record, frame, verify_record, RunMeta, MAX_RECORD_BYTES};
use simsched::SplitMix64;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use taskprof::Profile;

/// Where a finished session's profile is exported on
/// [`MeasurementSession::finish`](crate::MeasurementSession::finish).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExportTarget {
    /// Append directly into a `profstore` segment directory (opened — or
    /// created — on export).
    Directory(PathBuf),
    /// Ingest over TCP into a running `profserve` daemon at this address.
    Server(String),
}

/// Syntactic `host:port` check for the server/directory decision. A
/// plain `SocketAddr` parse is not enough: hostnames (`localhost:7979`)
/// never parse as socket addresses even though [`profserve::Client`]
/// resolves them fine via `ToSocketAddrs` — routing them to a directory
/// would silently create a local store literally named `localhost:7979`.
fn looks_like_host_port(s: &str) -> bool {
    if s.parse::<std::net::SocketAddr>().is_ok() {
        return true;
    }
    if s.contains('/') || s.contains('\\') {
        return false;
    }
    match s.rsplit_once(':') {
        Some((host, port)) => {
            !host.is_empty() && !host.contains(':') && port.parse::<u16>().is_ok()
        }
        None => false,
    }
}

impl From<&str> for ExportTarget {
    /// Anything shaped like `host:port` (socket address or resolvable
    /// hostname, no path separators) exports to a server; anything else
    /// is treated as a store directory. For a directory whose name
    /// happens to look like `host:port`, pick
    /// [`ExportTarget::Directory`] explicitly.
    fn from(s: &str) -> Self {
        if looks_like_host_port(s) {
            ExportTarget::Server(s.to_string())
        } else {
            ExportTarget::Directory(PathBuf::from(s))
        }
    }
}

impl From<PathBuf> for ExportTarget {
    fn from(p: PathBuf) -> Self {
        ExportTarget::Directory(p)
    }
}

impl From<&Path> for ExportTarget {
    fn from(p: &Path) -> Self {
        ExportTarget::Directory(p.to_path_buf())
    }
}

/// Per-attempt TCP connect deadline, clamped to what is left of the
/// export's [`ExportPolicy::deadline`].
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Per-attempt read/write deadline, clamped the same way.
const IO_TIMEOUT: Duration = Duration::from_secs(1);

/// Delivery attempts per export.
const MAX_ATTEMPTS: u32 = 3;

/// Backoff before retry `n` is `BASE_BACKOFF * 2^(n-1)` plus jitter in
/// `[0, BASE_BACKOFF/2)`, capped by the remaining budget.
const BASE_BACKOFF: Duration = Duration::from_millis(50);

/// Seed of the deterministic jitter stream: two exports with the same
/// failure pattern sleep identical durations.
const JITTER_SEED: u64 = 0x7a5c_f00d;

/// Delivery policy for [`ExportTarget::Server`]: the deadline, the
/// optional spool fallback, and how to speak to the daemon.
///
/// The default is tuned for `finish()` on an interactive run: a 2 s
/// total budget (three attempts with 50 ms base backoff fit inside it)
/// and **no** spool (an unreachable daemon surfaces as
/// [`ExportError::Client`] exactly as before). Configure a spool
/// directory with [`SessionBuilder::export_spool`](crate::SessionBuilder::export_spool)
/// to turn failures into durable local frames instead.
#[derive(Clone, Debug)]
pub struct ExportPolicy {
    /// Total wall-clock budget for the export (connects, sends, retries,
    /// backoff sleeps and the drain of earlier spooled frames), and for
    /// [`drain_spool`]. `finish()` never blocks much past this.
    pub deadline: Duration,
    /// Degrade to this spool directory when the daemon stays
    /// unreachable; `None` (default) means a failed export is reported
    /// as an error instead.
    pub spool_dir: Option<PathBuf>,
    /// Protocol to speak to the daemon. The default
    /// ([`WireProtocol::Auto`]) negotiates TPF1 binary frames and falls
    /// back to JSON lines; spooled frames forward their record payloads
    /// without a text re-encode when the connection is binary.
    pub wire_protocol: WireProtocol,
    /// Shared secret presented in the connection `HELLO` when the
    /// daemon requires authentication (`None` for open daemons).
    pub auth: Option<String>,
}

impl Default for ExportPolicy {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(2),
            spool_dir: None,
            wire_protocol: WireProtocol::Auto,
            auth: None,
        }
    }
}

impl ExportPolicy {
    /// Timeouts for one connection made with `remaining` of the budget
    /// left: the connect and read/write constants, each clamped to
    /// `remaining` and to [`deadline`](Self::deadline), and never below
    /// 1 ms (`set_read_timeout` rejects a zero duration).
    pub fn client_timeouts(&self, remaining: Duration) -> ClientTimeouts {
        let left = remaining.min(self.deadline);
        let clamp = |phase: Duration| Some(phase.min(left).max(Duration::from_millis(1)));
        ClientTimeouts {
            connect: clamp(CONNECT_TIMEOUT),
            read: clamp(IO_TIMEOUT),
            write: clamp(IO_TIMEOUT),
        }
    }
}

/// Why an export failed (the measurement itself is unaffected — the
/// profile is still in the report).
#[derive(Debug)]
pub enum ExportError {
    /// Writing into a local store directory failed.
    Store(profstore::StoreError),
    /// Talking to a `profserve` daemon failed (after every configured
    /// attempt, when the target is a server).
    Client(profserve::ClientError),
    /// The daemon was unreachable *and* writing the spool fallback
    /// failed — the profile truly could not be persisted anywhere.
    Spool(std::io::Error),
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::Store(e) => write!(f, "store export: {e}"),
            ExportError::Client(e) => write!(f, "server export: {e}"),
            ExportError::Spool(e) => write!(f, "spool fallback: {e}"),
        }
    }
}

impl std::error::Error for ExportError {}

/// Acknowledgement of one export that persisted the profile somewhere —
/// in the repository (`run_id` is `Some`) or in the local spool
/// (`spooled` is true and `spool_path` names the frame file).
#[derive(Clone, Debug)]
pub struct ExportReceipt {
    /// Run id the repository assigned; `None` when the profile was
    /// spooled instead (the id is assigned on drain).
    pub run_id: Option<u64>,
    /// Persisted size in bytes (encoded record, or spool frame file).
    pub bytes: u64,
    /// Where the profile went.
    pub target: ExportTarget,
    /// Delivery attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// True when the profile degraded to the local spool.
    pub spooled: bool,
    /// The spool frame file, when `spooled`.
    pub spool_path: Option<PathBuf>,
    /// Previously spooled profiles this export drained to the daemon
    /// (drain-on-next-success).
    pub drained: u64,
}

/// Outcome of draining a spool directory via [`drain_spool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Frames delivered to the daemon and deleted locally.
    pub delivered: u64,
    /// Frames quarantined with a `.bad` suffix (corrupt, or refused by
    /// the daemon as malformed).
    pub quarantined: u64,
    /// Frames still spooled (daemon unreachable or read-only).
    pub remaining: u64,
}

#[derive(Clone, Debug)]
pub(crate) struct ExportPlan {
    pub(crate) target: ExportTarget,
    pub(crate) benchmark: String,
    pub(crate) threads: u32,
    pub(crate) policy: ExportPolicy,
}

fn wall_clock_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Only transport failures are worth retrying or spooling over: the
/// daemon was never (successfully) reached. A typed server error or a
/// protocol violation means the daemon *did* answer — retrying would
/// re-send a request the server already rejected.
fn is_transport(e: &ClientError) -> bool {
    matches!(e, ClientError::Io(_))
}

/// One delivery campaign against the daemon: bounded attempts, bounded
/// backoff, everything capped by the policy deadline counted from
/// `start`. Returns the ack and the attempt count, or the last error and
/// the attempt count.
fn deliver_to_server(
    addr: &str,
    record: &Record,
    policy: &ExportPolicy,
    start: Instant,
) -> Result<(IngestReceipt, u32), (ClientError, u32)> {
    let mut jitter = SplitMix64::new(JITTER_SEED);
    let mut attempts = 0u32;
    let mut last_err: Option<ClientError> = None;
    while attempts < MAX_ATTEMPTS {
        let remaining = policy.deadline.saturating_sub(start.elapsed());
        if attempts > 0 && remaining.is_zero() {
            break;
        }
        attempts += 1;
        let result = profserve::Client::connect_proto_auth(
            addr,
            policy.wire_protocol,
            policy.client_timeouts(remaining),
            policy.auth.as_deref(),
        )
        .and_then(|mut client| client.ingest_record(record));
        match result {
            Ok(receipt) => return Ok((receipt, attempts)),
            Err(e) if is_transport(&e) && attempts < MAX_ATTEMPTS => {
                last_err = Some(e);
                let exp = BASE_BACKOFF.saturating_mul(1u32 << (attempts - 1));
                let half = BASE_BACKOFF.as_nanos() as u64 / 2;
                let backoff = exp + Duration::from_nanos(jitter.next_u64() % half);
                let room = policy.deadline.saturating_sub(start.elapsed());
                let sleep = backoff.min(room);
                if !sleep.is_zero() {
                    std::thread::sleep(sleep);
                }
            }
            Err(e) => return Err((e, attempts)),
        }
    }
    let err = last_err.unwrap_or_else(|| {
        ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "export deadline exhausted before any attempt completed",
        ))
    });
    Err((err, attempts))
}

/// Process-wide sequence so two sessions spooling in the same
/// nanosecond still get distinct file names.
fn next_spool_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Write one profile as a CRC-framed record into `dir`, atomically
/// (tmp + rename). Returns the frame path.
///
/// The frame's embedded `run_id` is 0 — the repository assigns the real
/// id when the frame is drained; spooled frames are pre-identity.
pub fn spool_profile(
    dir: &Path,
    benchmark: &str,
    threads: u32,
    timestamp_ns: u64,
    profile: &Profile,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let meta = RunMeta {
        run_id: 0,
        benchmark: benchmark.to_string(),
        threads,
        timestamp_ns,
    };
    let mut bytes = Vec::new();
    frame::encode(&encode_record(&meta, profile), &mut bytes);
    let name = format!(
        "spool-{timestamp_ns:020}-{:08}-{:06}.frame",
        std::process::id(),
        next_spool_seq()
    );
    let final_path = dir.join(&name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp_path, &bytes)?;
    std::fs::rename(&tmp_path, &final_path)?;
    Ok(final_path)
}

/// The record a spool frame file holds, as a `Record` to ingest; `None`
/// unless the file is one [`frame`] whose record [`verify_record`]
/// accepts. The record is verified, never decoded: its payload travels as
/// it was spooled (a binary drain forwards it without re-encoding, a JSON
/// drain renders it as text inside the codec), and no name in it reaches
/// the process-wide region registry.
fn spooled_record(bytes: &[u8]) -> Option<Record> {
    let payload = frame::check(bytes, MAX_RECORD_BYTES).ok()?.payload();
    verify_record(payload).ok()?;
    let meta = decode_meta(payload).ok()?;
    Some(Record {
        benchmark: meta.benchmark,
        threads: meta.threads,
        timestamp_ns: Some(meta.timestamp_ns),
        profile: ProfilePayload::Record(payload.to_vec()),
    })
}

/// Spool frame files in `dir`, oldest first (names sort by timestamp).
fn list_spool_frames(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut frames: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().map(|x| x == "frame").unwrap_or(false)
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.starts_with("spool-"))
                    .unwrap_or(false)
        })
        .collect();
    frames.sort();
    Ok(frames)
}

/// Frames per `INGEST_BATCH` during a drain — enough to amortize the
/// round trip, small enough that one batch is never a huge request.
const DRAIN_BATCH: usize = 32;

fn quarantine_frame(path: &Path, report: &mut DrainReport) {
    let bad = path.with_extension("frame.bad");
    let _ = std::fs::rename(path, &bad);
    report.quarantined += 1;
}

/// How many records of a failed batch the daemon stored before halting.
/// The server's mid-batch `read_only` error reports its durable prefix
/// as `"(N of M batch records stored)"`; anything unparsable counts as
/// zero, which only errs toward re-sending (never toward dropping).
fn stored_prefix_from_message(message: &str) -> u64 {
    message
        .rsplit_once(" batch records stored)")
        .and_then(|(head, _)| head.rsplit_once('('))
        .and_then(|(_, tail)| tail.split_once(" of "))
        .and_then(|(n, _)| n.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

/// Deliver every spooled frame in `dir` to the daemon at `addr`, in
/// batches of [`DRAIN_BATCH`] (one acknowledgement per batch — on a
/// binary connection the frames' record payloads are forwarded without a
/// text re-encode).
///
/// Exactly-once discipline: a frame is deleted only *after* the daemon
/// acks it, so a crash mid-drain re-sends at most the un-acked frames
/// and never loses an acked one. When a batch fails mid-way (`ENOSPC`
/// read-only degradation) the daemon reports its durable prefix and
/// exactly those frames are deleted. A batch the daemon refuses outright
/// is replayed frame by frame to isolate the rejects, which are
/// quarantined with a `.bad` suffix — like corrupt frames (truncation,
/// bit flips, unverifiable records), which never travel at all. A
/// transport failure or a read-only daemon stops the drain with the rest
/// counted as `remaining`.
///
/// [`ExportPolicy::deadline`] bounds the drain: the connection's
/// timeouts are clamped to it, and no batch starts after it has passed;
/// the frames not sent by then count as `remaining`.
pub fn drain_spool(dir: &Path, addr: &str, policy: &ExportPolicy) -> DrainReport {
    drain_spool_since(dir, addr, policy, Instant::now())
}

/// [`drain_spool`] with the deadline counted from `start`, so an export
/// drains within what is left of its own budget.
fn drain_spool_since(dir: &Path, addr: &str, policy: &ExportPolicy, start: Instant) -> DrainReport {
    let mut report = DrainReport::default();
    let frames = match list_spool_frames(dir) {
        Ok(f) => f,
        Err(_) => return report,
    };
    if frames.is_empty() {
        return report;
    }
    let remaining = policy.deadline.saturating_sub(start.elapsed());
    let client = if remaining.is_zero() {
        None
    } else {
        profserve::Client::connect_proto_auth(
            addr,
            policy.wire_protocol,
            policy.client_timeouts(remaining),
            policy.auth.as_deref(),
        )
        .ok()
    };
    let Some(mut client) = client else {
        report.remaining = frames.len() as u64;
        return report;
    };

    // Validate locally first: corrupt frames are quarantined and never
    // put on the wire.
    let mut pending: Vec<(&PathBuf, Record)> = Vec::new();
    for path in &frames {
        let record = std::fs::read(path).ok().and_then(|b| spooled_record(&b));
        match record {
            Some(record) => pending.push((path, record)),
            None => quarantine_frame(path, &mut report),
        }
    }

    let total = pending.len();
    let mut next = 0;
    let mut halted = false;
    while next < total && !halted && start.elapsed() < policy.deadline {
        let end = (next + DRAIN_BATCH).min(total);
        let chunk = &pending[next..end];
        let outcome = if chunk.len() == 1 {
            client.ingest_record(&chunk[0].1)
        } else {
            let records: Vec<Record> = chunk.iter().map(|(_, r)| r.clone()).collect();
            client.ingest_batch(&records)
        };
        match outcome {
            Ok(_) => {
                for (path, _) in chunk {
                    let _ = std::fs::remove_file(path);
                    report.delivered += 1;
                }
                next = end;
            }
            Err(ClientError::Server {
                kind: ErrorKind::ReadOnly,
                message,
            }) => {
                // Mid-batch ENOSPC: the daemon stored a durable prefix
                // before degrading; delete exactly that prefix so acked
                // frames are never re-sent as duplicates.
                let stored = stored_prefix_from_message(&message).min(chunk.len() as u64) as usize;
                for (path, _) in &chunk[..stored] {
                    let _ = std::fs::remove_file(path);
                    report.delivered += 1;
                }
                next += stored;
                halted = true;
            }
            Err(ClientError::Server { .. }) => {
                // The daemon refused the whole batch without storing
                // anything; replay frame by frame to isolate the rejects.
                let mut k = next;
                while k < end {
                    let (path, record) = &pending[k];
                    match client.ingest_record(record) {
                        Ok(_) => {
                            let _ = std::fs::remove_file(path);
                            report.delivered += 1;
                            k += 1;
                        }
                        Err(ClientError::Server {
                            kind: ErrorKind::ReadOnly,
                            ..
                        }) => {
                            halted = true;
                            break;
                        }
                        Err(ClientError::Server { .. }) => {
                            // Refused individually; it will be refused
                            // tomorrow too.
                            quarantine_frame(path, &mut report);
                            k += 1;
                        }
                        Err(_) => {
                            halted = true;
                            break;
                        }
                    }
                }
                next = k;
            }
            Err(_) => {
                // Transport gone: keep the chunk and everything after it
                // for a later drain.
                halted = true;
            }
        }
    }
    report.remaining += (total - next) as u64;
    report
}

pub(crate) fn export_profile(
    plan: &ExportPlan,
    profile: &Profile,
) -> Result<ExportReceipt, ExportError> {
    match &plan.target {
        ExportTarget::Directory(dir) => {
            let mut store = profstore::ProfileStore::open(dir).map_err(ExportError::Store)?;
            let receipt = store
                .ingest(&plan.benchmark, plan.threads, wall_clock_ns(), profile)
                .map_err(ExportError::Store)?;
            Ok(ExportReceipt {
                run_id: Some(receipt.run_id),
                bytes: receipt.bytes,
                target: plan.target.clone(),
                attempts: 1,
                spooled: false,
                spool_path: None,
                drained: 0,
            })
        }
        ExportTarget::Server(addr) => {
            let timestamp_ns = wall_clock_ns();
            // The compact record payload travels either way: a binary
            // connection forwards it verbatim; a JSON fallback re-renders
            // it as text inside the codec.
            let record =
                Record::from_profile(&plan.benchmark, plan.threads, Some(timestamp_ns), profile);
            let start = Instant::now();
            match deliver_to_server(addr, &record, &plan.policy, start) {
                Ok((ack, attempts)) => {
                    let drained = match &plan.policy.spool_dir {
                        Some(dir) if dir.is_dir() => {
                            drain_spool_since(dir, addr, &plan.policy, start).delivered
                        }
                        _ => 0,
                    };
                    Ok(ExportReceipt {
                        run_id: Some(ack.run_id()),
                        bytes: ack.bytes,
                        target: plan.target.clone(),
                        attempts,
                        spooled: false,
                        spool_path: None,
                        drained,
                    })
                }
                Err((err, attempts)) => match &plan.policy.spool_dir {
                    Some(dir) if is_transport(&err) => {
                        let path = spool_profile(
                            dir,
                            &plan.benchmark,
                            plan.threads,
                            timestamp_ns,
                            profile,
                        )
                        .map_err(ExportError::Spool)?;
                        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                        Ok(ExportReceipt {
                            run_id: None,
                            bytes,
                            target: plan.target.clone(),
                            attempts,
                            spooled: true,
                            spool_path: Some(path),
                            drained: 0,
                        })
                    }
                    _ => Err(ExportError::Client(err)),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_thread_profile() -> Profile {
        cube::read_profile(
            "taskprof-profile v1\nthreads 1\nthread 0 max_live 0 arena 1\nmain\n  \
             region parallel \"spool-unit par\" visits 1 sum 5 min 5 max 5 samples 1\nend\n",
        )
        .expect("profile text")
    }

    #[test]
    fn host_port_routing_still_holds() {
        assert!(matches!(
            ExportTarget::from("localhost:7979"),
            ExportTarget::Server(_)
        ));
        assert!(matches!(
            ExportTarget::from("profiles/store"),
            ExportTarget::Directory(_)
        ));
    }

    #[test]
    fn spool_frame_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "taskprof-spool-rt-{}-{}",
            std::process::id(),
            next_spool_seq()
        ));
        let profile = one_thread_profile();
        let path = spool_profile(&dir, "bench", 4, 123, &profile).expect("spool");
        let bytes = std::fs::read(&path).expect("read");
        let record = spooled_record(&bytes).expect("a spooled record");
        let meta = RunMeta {
            run_id: 0,
            benchmark: "bench".to_string(),
            threads: 4,
            timestamp_ns: 123,
        };
        assert_eq!(
            record,
            Record {
                benchmark: meta.benchmark.clone(),
                threads: meta.threads,
                timestamp_ns: Some(meta.timestamp_ns),
                profile: ProfilePayload::Record(encode_record(&meta, &profile)),
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frames_are_detected_not_panicked() {
        assert_eq!(spooled_record(&[]), None);
        assert_eq!(spooled_record(&[1, 0, 0, 0, 9]), None);
        let dir = std::env::temp_dir().join(format!(
            "taskprof-spool-flip-{}-{}",
            std::process::id(),
            next_spool_seq()
        ));
        // A frame without threads is intact but refused, as the daemon
        // would refuse it.
        let empty = spool_profile(&dir, "b", 1, 6, &Profile::default()).expect("spool");
        let bytes = std::fs::read(&empty).expect("read");
        assert!(frame::check(&bytes, MAX_RECORD_BYTES).is_ok());
        assert_eq!(spooled_record(&bytes), None);
        let path = spool_profile(&dir, "b", 1, 7, &one_thread_profile()).expect("spool");
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(spooled_record(&bytes), None, "bit flip must be caught");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn client_timeouts_clamp_to_the_budget_with_a_floor() {
        let ms = Duration::from_millis;
        let policy = ExportPolicy {
            deadline: ms(700),
            ..ExportPolicy::default()
        };
        let timeouts = |remaining| {
            let t = policy.client_timeouts(remaining);
            (t.connect, t.read, t.write)
        };
        // A fresh budget: the connect constant fits, the I/O one is
        // clamped to the deadline.
        assert_eq!(
            timeouts(ms(700)),
            (Some(ms(500)), Some(ms(700)), Some(ms(700)))
        );
        // More than the deadline left is still clamped to it.
        assert_eq!(
            timeouts(Duration::MAX),
            (Some(ms(500)), Some(ms(700)), Some(ms(700)))
        );
        assert_eq!(timeouts(ms(30)), (Some(ms(30)), Some(ms(30)), Some(ms(30))));
        // Nothing left: the 1 ms floor, never a zero timeout.
        assert_eq!(
            timeouts(Duration::ZERO),
            (Some(ms(1)), Some(ms(1)), Some(ms(1)))
        );
        assert_eq!(
            ExportPolicy::default().client_timeouts(Duration::MAX).read,
            Some(Duration::from_secs(1))
        );
    }

    #[test]
    fn drain_sends_nothing_past_its_deadline() {
        let scratch = std::env::temp_dir().join(format!(
            "taskprof-spool-deadline-{}-{}",
            std::process::id(),
            next_spool_seq()
        ));
        let spool = scratch.join("spool");
        spool_profile(&spool, "b", 1, 8, &one_thread_profile()).expect("spool");
        let store = profstore::ProfileStore::open(&scratch.join("store")).expect("store");
        let (handle, join) =
            profserve::Server::spawn("127.0.0.1:0", store, profserve::ServeConfig::default())
                .expect("spawn");
        let addr = handle.addr().to_string();

        let spent = ExportPolicy {
            deadline: Duration::ZERO,
            ..ExportPolicy::default()
        };
        let report = drain_spool(&spool, &addr, &spent);
        assert_eq!((report.delivered, report.remaining), (0, 1));
        let report = drain_spool(&spool, &addr, &ExportPolicy::default());
        assert_eq!((report.delivered, report.remaining), (1, 0));

        handle.stop();
        join.join().expect("join").expect("run");
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn deadline_bounds_the_whole_campaign() {
        // 127.0.0.1:1 refuses instantly; with retries + backoff the
        // campaign must still respect the (tiny) deadline and report a
        // transport error.
        let policy = ExportPolicy {
            deadline: Duration::from_millis(200),
            ..ExportPolicy::default()
        };
        let start = Instant::now();
        let record = Record::from_text("b", 1, Some(0), "");
        let err = deliver_to_server("127.0.0.1:1", &record, &policy, start);
        assert!(err.is_err());
        let (e, attempts) = err.err().unwrap();
        assert!(is_transport(&e), "got {e}");
        assert!(attempts >= 2, "refused connects should be retried");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "campaign overran: {:?}",
            start.elapsed()
        );
    }
}
