//! Single-threaded readiness reactor for the serving daemon.
//!
//! One thread multiplexes the listener and every live connection over a
//! readiness queue — `epoll` on Linux, `poll(2)` on other unix — with
//! nonblocking sockets and a per-connection state machine (inbound
//! buffer, outbound buffer, sniffed protocol, deadline). No external
//! crates: the two syscalls the reactor needs are declared directly
//! against libc, gated to the platforms whose ABI they match.
//!
//! The per-connection state machine implements the semantics the
//! integration tests pin down:
//!
//! * first-byte sniffing — `"TPF1"` magic selects binary frames,
//!   anything else is treated as a JSON line;
//! * overload shedding at `max_connections` with a typed `overloaded`
//!   line (written blocking on the freshly accepted socket, bounded by a
//!   short write timeout, then closed);
//! * slow-loris deadlines — a connection that does not complete a
//!   request before `read_timeout` is dropped without a reply and
//!   counted in `timeout_connections`;
//! * bounded requests — an unterminated JSON line beyond
//!   `max_request_bytes` gets a typed `too_large` reply and the
//!   connection closes; an oversized or corrupt binary frame gets a
//!   typed error frame and the connection closes (a broken frame stream
//!   cannot be resynchronized);
//! * per-request panic isolation — `catch_unwind` around the handler,
//!   typed `internal` reply, `panics` counter;
//! * graceful stop — after [`crate::ServerHandle::stop`] each connection
//!   answers at most one more request and then closes once its output
//!   drains; the reactor exits when the table empties;
//! * live subscriptions — a connection that sends `SUBSCRIBE` flips to
//!   push mode: the reactor delivers periodic `telemetry` snapshots and
//!   fans out an `ingest` notification after every stored run. Pushes
//!   are bounded by `subscriber_queue_bytes`; a subscriber that cannot
//!   drain fast enough has events dropped (never buffered without
//!   bound, never blocking ingest) and receives a typed `lagged` notice
//!   once it catches up.

use crate::protocol::{error_line, ErrorKind, Notification, Response, WireProtocol};
use crate::server::{
    now_ns, serve_bin_payload, serve_json_line, server_stats_report, Shared, REACTOR_TICK,
};
use crate::wire;
use profstore::frame::FrameError;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on one `wait` tick so the loop re-checks the stop flag, the
/// deadlines, and due subscription pushes even when no event arrives.
const TICK: Duration = REACTOR_TICK;

/// Upper bound on bytes pulled off one socket per readiness event, so a
/// single fire-hose peer cannot starve the rest of the table. Readiness
/// is level-triggered in both backends, so the remainder re-reports.
const READ_BUDGET: usize = 1 << 20;

// ---------------------------------------------------------------------
// Readiness backends
// ---------------------------------------------------------------------

/// What a backend reports for one file descriptor.
#[derive(Clone, Copy, Debug, Default)]
struct Readiness {
    readable: bool,
    writable: bool,
    /// Error or hangup; treated as readable so the state machine observes
    /// the EOF/reset through `read()`.
    hangup: bool,
}

/// Minimal readiness-queue interface: registration by raw fd, one-shot
/// nothing — level-triggered semantics in both implementations.
trait Poller {
    fn add(&mut self, fd: RawFd, write_interest: bool) -> std::io::Result<()>;
    fn modify(&mut self, fd: RawFd, write_interest: bool) -> std::io::Result<()>;
    fn remove(&mut self, fd: RawFd) -> std::io::Result<()>;
    /// Blocks up to `timeout`, appending `(fd, readiness)` pairs.
    fn wait(
        &mut self,
        timeout: Duration,
        events: &mut Vec<(RawFd, Readiness)>,
    ) -> std::io::Result<()>;
}

/// `epoll(7)` backend (Linux). The three syscalls are declared directly;
/// the event struct is packed on x86-64 exactly as the kernel ABI
/// requires.
#[cfg(target_os = "linux")]
mod epoll {
    use super::{RawFd, Readiness};
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub(super) struct Epoll {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        pub(super) fn new() -> std::io::Result<Self> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, write_interest: bool) -> std::io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN | if write_interest { EPOLLOUT } else { 0 },
                data: fd as u64,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }

    impl super::Poller for Epoll {
        fn add(&mut self, fd: RawFd, write_interest: bool) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, write_interest)
        }

        fn modify(&mut self, fd: RawFd, write_interest: bool) -> std::io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, write_interest)
        }

        fn remove(&mut self, fd: RawFd) -> std::io::Result<()> {
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        fn wait(
            &mut self,
            timeout: Duration,
            events: &mut Vec<(RawFd, Readiness)>,
        ) -> std::io::Result<()> {
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = std::io::Error::last_os_error();
                if err.kind() == std::io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let bits = ev.events;
                let fd = ev.data as RawFd;
                events.push((
                    fd,
                    Readiness {
                        readable: bits & EPOLLIN != 0,
                        writable: bits & EPOLLOUT != 0,
                        hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                    },
                ));
            }
            Ok(())
        }
    }
}

/// `poll(2)` backend — portable across unix, and exercised by unit tests
/// on Linux too so the fallback cannot bit-rot.
#[cfg_attr(all(target_os = "linux", not(test)), allow(dead_code))]
mod pollfd {
    use super::{RawFd, Readiness};
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        // `nfds_t` is `unsigned long`, which matches `usize` on every
        // supported unix data model (ILP32 and LP64).
        fn poll(fds: *mut PollFd, nfds: usize, timeout_ms: i32) -> i32;
    }

    #[derive(Default)]
    pub(super) struct Poll {
        interest: Vec<(RawFd, bool)>,
        scratch: Vec<PollFd>,
    }

    impl Poll {
        pub(super) fn new() -> std::io::Result<Self> {
            Ok(Poll::default())
        }

        fn position(&self, fd: RawFd) -> Option<usize> {
            self.interest.iter().position(|&(f, _)| f == fd)
        }
    }

    impl super::Poller for Poll {
        fn add(&mut self, fd: RawFd, write_interest: bool) -> std::io::Result<()> {
            if self.position(fd).is_some() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.interest.push((fd, write_interest));
            Ok(())
        }

        fn modify(&mut self, fd: RawFd, write_interest: bool) -> std::io::Result<()> {
            match self.position(fd) {
                Some(i) => {
                    self.interest[i].1 = write_interest;
                    Ok(())
                }
                None => Err(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "fd not registered",
                )),
            }
        }

        fn remove(&mut self, fd: RawFd) -> std::io::Result<()> {
            match self.position(fd) {
                Some(i) => {
                    self.interest.swap_remove(i);
                    Ok(())
                }
                None => Err(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "fd not registered",
                )),
            }
        }

        fn wait(
            &mut self,
            timeout: Duration,
            events: &mut Vec<(RawFd, Readiness)>,
        ) -> std::io::Result<()> {
            self.scratch.clear();
            self.scratch
                .extend(self.interest.iter().map(|&(fd, w)| PollFd {
                    fd,
                    events: POLLIN | if w { POLLOUT } else { 0 },
                    revents: 0,
                }));
            let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            let n = unsafe { poll(self.scratch.as_mut_ptr(), self.scratch.len(), timeout_ms) };
            if n < 0 {
                let err = std::io::Error::last_os_error();
                if err.kind() == std::io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for pfd in &self.scratch {
                if pfd.revents == 0 {
                    continue;
                }
                events.push((
                    pfd.fd,
                    Readiness {
                        readable: pfd.revents & POLLIN != 0,
                        writable: pfd.revents & POLLOUT != 0,
                        hangup: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                    },
                ));
            }
            Ok(())
        }
    }
}

#[cfg(target_os = "linux")]
fn default_poller() -> std::io::Result<impl Poller> {
    epoll::Epoll::new()
}

#[cfg(not(target_os = "linux"))]
fn default_poller() -> std::io::Result<impl Poller> {
    pollfd::Poll::new()
}

// ---------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------

/// Which protocol a connection resolved to (or is still sniffing).
enum Proto {
    /// Awaiting the first bytes.
    Sniff,
    /// JSON lines.
    Json,
    /// TPF1 binary frames.
    Bin,
}

/// Why the current deadline is armed — timing out while *reading* a
/// request is the counted slow-loris case; timing out while draining a
/// reply is a plain write stall and closes silently.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DeadlineKind {
    Read,
    Write,
}

struct Conn {
    stream: TcpStream,
    /// Inbound bytes not yet consumed by the protocol state machine.
    buf: Vec<u8>,
    /// JSON only: length of the prefix of `buf` already searched for a
    /// line terminator without finding one.
    scanned: usize,
    /// Outbound bytes not yet accepted by the kernel.
    out: Vec<u8>,
    out_pos: usize,
    proto: Proto,
    deadline: Option<Instant>,
    deadline_kind: DeadlineKind,
    /// Peer closed its write side; serve what is buffered, then close.
    eof: bool,
    /// Stop was observed: answer at most one more request, then close.
    draining: bool,
    /// Close once `out` drains (fatal protocol error, post-stop reply,
    /// or final reply to an EOF'd peer).
    close_after_flush: bool,
    /// Registered for write readiness (kernel buffer was full).
    want_write: bool,
    /// Connection is finished; reap it after the event is processed.
    dead: bool,
    /// `SUBSCRIBE` accepted: telemetry push period.
    sub_interval: Option<Duration>,
    /// When the next telemetry snapshot is due (subscribers only).
    next_push: Instant,
    /// Events shed since the subscriber last kept up; reported in a
    /// `lagged` notice once the queue drains below the cap.
    sub_dropped: u64,
    /// A `HELLO` on this connection presented the server's shared
    /// secret (always false when no secret is configured — the gate is
    /// then never consulted).
    authed: bool,
}

impl Conn {
    fn new(stream: TcpStream, read_timeout: Option<Duration>) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            scanned: 0,
            out: Vec::new(),
            out_pos: 0,
            proto: Proto::Sniff,
            deadline: read_timeout.map(|t| Instant::now() + t),
            deadline_kind: DeadlineKind::Read,
            eof: false,
            draining: false,
            close_after_flush: false,
            want_write: false,
            dead: false,
            sub_interval: None,
            next_push: Instant::now(),
            sub_dropped: 0,
            authed: false,
        }
    }

    fn arm_read_deadline(&mut self, config_read: Option<Duration>) {
        // Subscribers idle by design: the read deadline is a slow-loris
        // guard for request traffic, not for push-mode connections.
        if self.sub_interval.is_some() {
            self.deadline = None;
            return;
        }
        self.deadline = config_read.map(|t| Instant::now() + t);
        self.deadline_kind = DeadlineKind::Read;
    }

    fn arm_write_deadline(&mut self, config_write: Option<Duration>) {
        self.deadline = config_write.map(|t| Instant::now() + t);
        self.deadline_kind = DeadlineKind::Write;
    }
}

// ---------------------------------------------------------------------
// The reactor proper
// ---------------------------------------------------------------------

/// Run the readiness loop until stop is observed and every connection
/// has drained.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>) -> std::io::Result<()> {
    let poller = default_poller()?;
    run_with(poller, listener, shared)
}

fn run_with<P: Poller>(
    mut poller: P,
    listener: TcpListener,
    shared: Arc<Shared>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let listener_fd = listener.as_raw_fd();
    poller.add(listener_fd, false)?;
    let mut listening = true;

    let mut conns: HashMap<RawFd, Conn> = HashMap::new();
    let mut events: Vec<(RawFd, Readiness)> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];

    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        if stopping {
            if listening {
                let _ = poller.remove(listener_fd);
                listening = false;
            }
            let mut drained: Vec<RawFd> = Vec::new();
            for (&fd, conn) in conns.iter_mut() {
                conn.draining = true;
                if conn.sub_interval.is_some() {
                    // Subscribers have no pending request to answer;
                    // close them as soon as their queue drains.
                    conn.close_after_flush = true;
                    if conn.out_pos >= conn.out.len() {
                        conn.dead = true;
                        drained.push(fd);
                    }
                }
            }
            for fd in drained {
                reap(fd, &mut poller, &mut conns);
            }
            if conns.is_empty() {
                break;
            }
        }

        let timeout = conns
            .values()
            .filter_map(|c| c.deadline)
            .min()
            .map_or(TICK, |d| {
                d.saturating_duration_since(Instant::now()).min(TICK)
            });

        events.clear();
        poller.wait(timeout, &mut events)?;

        for &(fd, readiness) in &events {
            if fd == listener_fd {
                accept_ready(&listener, &mut poller, &mut conns, &shared, stopping);
                continue;
            }
            let Some(conn) = conns.get_mut(&fd) else {
                continue;
            };
            let mut ingests = Vec::new();
            if readiness.writable {
                flush(conn, &mut poller, &shared);
            }
            if (readiness.readable || readiness.hangup) && !conn.dead {
                fill(conn, &mut scratch, shared.config.read_timeout);
                ingests = process(conn, &shared);
                flush(conn, &mut poller, &shared);
            }
            if conn.dead {
                reap(fd, &mut poller, &mut conns);
            }
            for event in &ingests {
                fan_out(&mut conns, &mut poller, &shared, event);
            }
        }

        // Telemetry push sweep: one snapshot is built per due tick and
        // delivered to every subscriber whose period elapsed.
        push_due_telemetry(&mut conns, &mut poller, &shared);

        // Deadline sweep. Draining (post-stop) closures are not
        // slow-loris timeouts — don't count those.
        let now = Instant::now();
        let expired: Vec<RawFd> = conns
            .iter()
            .filter(|(_, c)| c.deadline.is_some_and(|d| d <= now))
            .map(|(&fd, _)| fd)
            .collect();
        for fd in expired {
            let conn = &conns[&fd];
            if conn.deadline_kind == DeadlineKind::Read && !conn.draining {
                shared.counters.add(|c| &c.timeout_connections, 1);
            }
            reap(fd, &mut poller, &mut conns);
        }
    }
    Ok(())
}

fn reap<P: Poller>(fd: RawFd, poller: &mut P, conns: &mut HashMap<RawFd, Conn>) {
    let _ = poller.remove(fd);
    conns.remove(&fd);
}

/// Drain the accept queue. Sheds beyond the connection cap with a typed
/// `overloaded` line — written on the still-blocking accepted socket
/// under a short timeout so a non-reading peer cannot stall the reactor.
fn accept_ready<P: Poller>(
    listener: &TcpListener,
    poller: &mut P,
    conns: &mut HashMap<RawFd, Conn>,
    shared: &Arc<Shared>,
    stopping: bool,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        // Re-check the stop flag per accepted socket: the stop() wake-up
        // connection races the `stopping` snapshot taken at loop top, and
        // must be dropped unanswered — not admitted and counted.
        if stopping || shared.stop.load(Ordering::SeqCst) {
            continue;
        }
        if conns.len() >= shared.config.max_connections {
            shared.counters.add(|c| &c.shed_connections, 1);
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = writeln!(
                stream,
                "{}",
                error_line(
                    ErrorKind::Overloaded,
                    "connection limit reached; retry later"
                )
            );
            continue;
        }
        shared.counters.add(|c| &c.connections, 1);
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let fd = stream.as_raw_fd();
        if poller.add(fd, false).is_err() {
            continue;
        }
        conns.insert(fd, Conn::new(stream, shared.config.read_timeout));
    }
}

/// Pull everything available (up to the per-event budget) into the
/// connection's inbound buffer. Any arriving bytes restart the
/// slow-loris clock — the deadline bounds the *gap* between bytes, same
/// as the per-call read timeout on the old blocking path.
fn fill(conn: &mut Conn, scratch: &mut [u8], read_timeout: Option<Duration>) {
    let mut pulled = 0usize;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&scratch[..n]);
                pulled += n;
                if pulled >= READ_BUDGET {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if pulled > 0 && conn.deadline_kind == DeadlineKind::Read {
        conn.arm_read_deadline(read_timeout);
    }
}

/// Apply connection-level effects of one served request: flip to push
/// mode on an accepted `SUBSCRIBE`, surface an ingest notification for
/// the reactor to fan out.
fn apply_effects(conn: &mut Conn, effects: crate::server::ServeEffects) -> Option<Notification> {
    if let Some(interval) = effects.subscribed {
        conn.sub_interval = Some(interval);
        conn.next_push = Instant::now() + interval;
        // Push-mode connections idle between events by design.
        conn.deadline = None;
    }
    conn.authed |= effects.authed;
    effects.ingested
}

/// Serve one JSON line (raw bytes, terminator cut) through the shared
/// core with panic isolation, appending the reply to `out`. Blank lines
/// are skipped: `None`. The line may borrow the connection's inbound
/// buffer, so the caller applies the returned effects once that borrow
/// has ended.
fn serve_json(
    out: &mut Vec<u8>,
    authed: bool,
    shared: &Arc<Shared>,
    line: &[u8],
) -> Option<crate::server::ServeEffects> {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    if line.trim_ascii().is_empty() {
        return None;
    }
    let (reply, effects) =
        match catch_unwind(AssertUnwindSafe(|| serve_json_line(shared, line, authed))) {
            Ok(pair) => pair,
            Err(_) => {
                shared.counters.add(|c| &c.panics, 1);
                (
                    error_line(ErrorKind::Internal, "request handler panicked (isolated)"),
                    Default::default(),
                )
            }
        };
    out.extend_from_slice(reply.as_bytes());
    out.push(b'\n');
    Some(effects)
}

/// Serve one binary payload like [`serve_json`] serves a line: the reply
/// frame goes to `out`, and the caller applies the returned effects.
fn serve_bin(
    out: &mut Vec<u8>,
    authed: bool,
    shared: &Arc<Shared>,
    payload: &[u8],
) -> crate::server::ServeEffects {
    let (response, effects) = match catch_unwind(AssertUnwindSafe(|| {
        serve_bin_payload(shared, payload, authed)
    })) {
        Ok(pair) => pair,
        Err(_) => {
            shared.counters.add(|c| &c.panics, 1);
            (
                Response::Error {
                    kind: ErrorKind::Internal,
                    message: "request handler panicked (isolated)".into(),
                },
                Default::default(),
            )
        }
    };
    out.extend_from_slice(&wire::frame(&wire::encode_response(&response)));
    effects
}

/// Advance the connection's protocol state machine over whatever is
/// buffered, appending replies to `out`. Returns the ingest
/// notifications produced by the served requests, for fan-out.
fn process(conn: &mut Conn, shared: &Arc<Shared>) -> Vec<Notification> {
    let mut ingests = Vec::new();
    if conn.dead {
        return ingests;
    }
    let mut served = 0usize;
    loop {
        match conn.proto {
            Proto::Sniff => {
                if conn.buf.is_empty() {
                    if conn.eof {
                        conn.dead = conn.out_pos >= conn.out.len();
                        conn.close_after_flush = true;
                    }
                    return ingests;
                }
                if conn.buf[0] == wire::WIRE_MAGIC[0] {
                    if conn.buf.len() < wire::WIRE_MAGIC.len() && !conn.eof {
                        // Could still be the magic; wait for 4 bytes.
                        return ingests;
                    }
                    if conn.buf.starts_with(&wire::WIRE_MAGIC) {
                        if shared.config.protocols == WireProtocol::Json {
                            refuse(
                                conn,
                                "binary protocol disabled on this server (--proto json)",
                            );
                            break;
                        }
                        conn.buf.drain(..wire::WIRE_MAGIC.len());
                        conn.proto = Proto::Bin;
                        continue;
                    }
                }
                if shared.config.protocols == WireProtocol::Binary {
                    refuse(conn, "json protocol disabled on this server (--proto bin)");
                    break;
                }
                conn.proto = Proto::Json;
            }
            Proto::Json => {
                // Only bytes that arrived since the last search can hold
                // the terminator: resume there, not at byte 0.
                let found = conn.buf[conn.scanned..].iter().position(|&b| b == b'\n');
                let Some(newline) = found.map(|i| conn.scanned + i) else {
                    conn.scanned = conn.buf.len();
                    if conn.buf.len() > shared.config.max_request_bytes {
                        shared.counters.add(|c| &c.errors, 1);
                        let reply = error_line(
                            ErrorKind::TooLarge,
                            &format!(
                                "request line exceeds {} bytes; connection closed",
                                shared.config.max_request_bytes
                            ),
                        );
                        conn.out.extend_from_slice(reply.as_bytes());
                        conn.out.push(b'\n');
                        conn.buf.clear();
                        conn.scanned = 0;
                        conn.close_after_flush = true;
                        break;
                    }
                    if conn.eof {
                        // EOF with an unterminated trailer: serve it as
                        // the final request, then close.
                        if let Some(effects) =
                            serve_json(&mut conn.out, conn.authed, shared, &conn.buf)
                        {
                            ingests.extend(apply_effects(conn, effects));
                            served += 1;
                        }
                        conn.buf.clear();
                        conn.scanned = 0;
                        conn.close_after_flush = true;
                        conn.dead = conn.out_pos >= conn.out.len();
                    }
                    break;
                };
                let effects = serve_json(&mut conn.out, conn.authed, shared, &conn.buf[..newline]);
                conn.buf.drain(..=newline);
                conn.scanned = 0;
                let Some(effects) = effects else {
                    continue;
                };
                ingests.extend(apply_effects(conn, effects));
                served += 1;
                // Load the stop flag directly: stop may land between the
                // loop-top `draining` sweep and this event, and the old
                // blocking path closed after at most one post-stop reply.
                if conn.draining || shared.stop.load(Ordering::SeqCst) {
                    conn.close_after_flush = true;
                    break;
                }
            }
            Proto::Bin => {
                match wire::try_frame(&conn.buf, shared.config.max_request_bytes) {
                    Ok(Some((payload, consumed))) => {
                        let effects = serve_bin(&mut conn.out, conn.authed, shared, payload);
                        conn.buf.drain(..consumed);
                        ingests.extend(apply_effects(conn, effects));
                        served += 1;
                        if conn.draining || shared.stop.load(Ordering::SeqCst) {
                            conn.close_after_flush = true;
                            break;
                        }
                    }
                    Ok(None) => {
                        if conn.eof {
                            // Torn trailing frame: nothing to answer.
                            conn.close_after_flush = true;
                            conn.dead = conn.out_pos >= conn.out.len();
                        }
                        break;
                    }
                    Err(e) => {
                        // The frame stream cannot be resynchronized:
                        // reply with a typed error frame and close.
                        shared.counters.add(|c| &c.errors, 1);
                        let kind = match e {
                            FrameError::TooLarge { .. } => ErrorKind::TooLarge,
                            _ => ErrorKind::BadRequest,
                        };
                        let response = Response::Error {
                            kind,
                            message: e.to_string(),
                        };
                        conn.out
                            .extend_from_slice(&wire::frame(&wire::encode_response(&response)));
                        conn.buf.clear();
                        conn.close_after_flush = true;
                        break;
                    }
                }
            }
        }
    }
    if served > 0 && !conn.close_after_flush {
        // A fresh request window: restart the slow-loris clock.
        conn.arm_read_deadline(shared.config.read_timeout);
    }
    ingests
}

// ---------------------------------------------------------------------
// Subscription pushes
// ---------------------------------------------------------------------

/// Encode one subscription event for the connection's protocol.
fn encode_event(event: &Notification, proto: &Proto) -> Vec<u8> {
    let response = Response::Event(event.clone());
    match proto {
        Proto::Bin => wire::frame(&wire::encode_response(&response)),
        // Sniff cannot happen for a subscriber (SUBSCRIBE resolved the
        // protocol); encode as JSON if it somehow does.
        Proto::Json | Proto::Sniff => {
            let mut line = response.to_json_line().into_bytes();
            line.push(b'\n');
            line
        }
    }
}

/// Queue one event on a subscriber, shedding instead of buffering
/// without bound: if the unflushed queue already exceeds
/// `subscriber_queue_bytes` the event is dropped and counted, and the
/// subscriber gets one `lagged` notice when it next keeps up. Events for
/// non-subscribers are ignored.
fn push_event<P: Poller>(
    conn: &mut Conn,
    poller: &mut P,
    shared: &Arc<Shared>,
    event: &Notification,
) {
    if conn.dead || conn.sub_interval.is_none() || conn.close_after_flush {
        return;
    }
    let queued = conn.out.len() - conn.out_pos;
    if queued > shared.config.subscriber_queue_bytes {
        conn.sub_dropped += 1;
        shared.counters.add(|c| &c.sub_lagged, 1);
        return;
    }
    if conn.sub_dropped > 0 {
        let lagged = Notification::Lagged {
            dropped: conn.sub_dropped,
        };
        conn.out
            .extend_from_slice(&encode_event(&lagged, &conn.proto));
        shared.counters.add(|c| &c.sub_events, 1);
        conn.sub_dropped = 0;
    }
    conn.out
        .extend_from_slice(&encode_event(event, &conn.proto));
    shared.counters.add(|c| &c.sub_events, 1);
    flush(conn, poller, shared);
}

/// Deliver one ingest notification to every live subscriber.
fn fan_out<P: Poller>(
    conns: &mut HashMap<RawFd, Conn>,
    poller: &mut P,
    shared: &Arc<Shared>,
    event: &Notification,
) {
    let mut dead: Vec<RawFd> = Vec::new();
    for (&fd, conn) in conns.iter_mut() {
        if conn.sub_interval.is_some() {
            push_event(conn, poller, shared, event);
            if conn.dead {
                dead.push(fd);
            }
        }
    }
    for fd in dead {
        reap(fd, poller, conns);
    }
}

/// Push a telemetry snapshot to every subscriber whose period elapsed.
/// The (store-lock-taking) snapshot is built at most once per sweep, and
/// only when someone is actually due.
fn push_due_telemetry<P: Poller>(
    conns: &mut HashMap<RawFd, Conn>,
    poller: &mut P,
    shared: &Arc<Shared>,
) {
    let now = Instant::now();
    if !conns
        .values()
        .any(|c| c.sub_interval.is_some() && !c.dead && c.next_push <= now)
    {
        return;
    }
    let event = Notification::Telemetry {
        t_ns: now_ns(),
        stats: server_stats_report(shared),
    };
    let mut dead: Vec<RawFd> = Vec::new();
    for (&fd, conn) in conns.iter_mut() {
        let Some(interval) = conn.sub_interval else {
            continue;
        };
        if conn.dead || conn.next_push > now {
            continue;
        }
        push_event(conn, poller, shared, &event);
        conn.next_push = now + interval;
        if conn.dead {
            dead.push(fd);
        }
    }
    for fd in dead {
        reap(fd, poller, conns);
    }
}

/// Write a JSON refusal (readable regardless of what the peer speaks)
/// and close.
fn refuse(conn: &mut Conn, message: &str) {
    let reply = error_line(ErrorKind::BadRequest, message);
    conn.out.extend_from_slice(reply.as_bytes());
    conn.out.push(b'\n');
    conn.buf.clear();
    conn.close_after_flush = true;
}

/// Push buffered output to the kernel; manage write interest and the
/// close-after-flush transition.
fn flush<P: Poller>(conn: &mut Conn, poller: &mut P, shared: &Arc<Shared>) {
    if conn.dead {
        return;
    }
    let fd = conn.stream.as_raw_fd();
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if !conn.want_write {
                    conn.want_write = true;
                    let _ = poller.modify(fd, true);
                }
                conn.arm_write_deadline(shared.config.write_timeout);
                return;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    if conn.want_write {
        conn.want_write = false;
        let _ = poller.modify(fd, false);
    }
    if conn.close_after_flush || conn.eof {
        conn.dead = true;
    } else {
        conn.arm_read_deadline(shared.config.read_timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    /// A `Shared` over a fresh store in a scratch directory.
    fn test_shared(tag: &str) -> (Arc<Shared>, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("taskprof-reactor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = profstore::ProfileStore::open(&dir).expect("store");
        let shared = Arc::new(Shared {
            store: std::sync::RwLock::new(store.into()),
            counters: taskprof_telemetry::ServiceCounters::new(),
            stop: std::sync::atomic::AtomicBool::new(false),
            read_only: std::sync::atomic::AtomicBool::new(false),
            config: crate::ServeConfig::default(),
            latency: crate::trace::RequestLatency::default(),
            open_ns: now_ns(),
            started: Instant::now(),
            exported_frames: std::sync::atomic::AtomicU64::new(0),
            applied_frames: std::sync::atomic::AtomicU64::new(0),
        });
        (shared, dir)
    }

    /// A multi-megabyte line arrives over a thousand readable events.
    /// Each event may search only the bytes it brought: the scan offset
    /// must sit at the end of the buffer after every partial delivery,
    /// so the searched spans add up to the line, each byte once.
    #[test]
    fn newline_search_resumes_where_the_last_event_stopped() {
        let (shared, dir) = test_shared("scan");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut conn = Conn::new(listener.accept().expect("accept").0, None);

        let line = format!(
            "{{\"cmd\":\"STATS\",\"pad\":\"{}\"}}\n",
            "x".repeat(4 << 20)
        );
        let mut searched = 0;
        for chunk in line.as_bytes().chunks(4096) {
            assert!(conn.out.is_empty(), "replied before the line was complete");
            assert_eq!(conn.scanned, conn.buf.len());
            conn.buf.extend_from_slice(chunk);
            searched += conn.buf.len() - conn.scanned;
            process(&mut conn, &shared);
        }
        assert_eq!(searched, line.len());
        assert!(conn.buf.is_empty() && conn.scanned == 0);
        let reply = std::str::from_utf8(&conn.out).expect("utf-8 reply");
        assert!(
            reply.starts_with("{\"ok\":true") && reply.ends_with('\n'),
            "{reply}"
        );
        assert_eq!(reply.matches('\n').count(), 1, "served more than once");
        assert_eq!(shared.counters.snapshot().json_requests, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The poll(2) backend must stay healthy even on Linux, where the
    /// epoll backend normally shadows it — drive a tiny serve loop
    /// through it directly.
    #[test]
    fn pollfd_backend_serves_json_and_binary() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (shared, dir) = test_shared("poll");
        let loop_shared = Arc::clone(&shared);
        let join = std::thread::spawn(move || {
            run_with(pollfd::Poll::new().expect("poll"), listener, loop_shared)
        });

        // JSON line in, JSON line out.
        let mut json = TcpStream::connect(addr).expect("connect");
        json.write_all(b"{\"cmd\":\"STATS\"}\n").expect("write");
        let mut reader = BufReader::new(json.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert!(
            line.contains("\"ok\":true"),
            "stats over poll backend: {line}"
        );

        // Binary frame in, binary frame out.
        let mut bin = TcpStream::connect(addr).expect("connect");
        bin.write_all(&wire::WIRE_MAGIC).expect("magic");
        let hello = wire::encode_request(&crate::protocol::Request::Hello {
            version: wire::WIRE_VERSION,
            features: wire::FEATURE_BATCH_INGEST,
            auth: None,
        });
        bin.write_all(&wire::frame(&hello)).expect("hello");
        let mut head = [0u8; 4];
        bin.read_exact(&mut head).expect("len");
        let len = u32::from_le_bytes(head) as usize;
        let mut rest = vec![0u8; len + 4];
        bin.read_exact(&mut rest).expect("payload");
        let response = wire::decode_response(&rest[..len]).expect("decode");
        assert!(
            matches!(response, Response::Hello { version: 1, .. }),
            "hello over poll backend: {response:?}"
        );

        shared.stop.store(true, Ordering::SeqCst);
        drop(reader);
        drop(json);
        drop(bin);
        let _ = TcpStream::connect(addr);
        join.thread().unpark();
        join.join().expect("join").expect("reactor result");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
