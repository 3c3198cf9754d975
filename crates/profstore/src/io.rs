//! The injectable I/O seam (`StoreIo`) and its deterministic
//! fault-injection implementation (`FaultIo`).
//!
//! Every file operation the repository performs — segment creation,
//! frame appends, truncation, scans, positioned reads through a held
//! [`StoreRead`] handle — goes through a [`StoreIo`] handle. Production
//! uses [`RealIo`], a plain passthrough to `std::fs` (one virtual call
//! per *file operation*, never per byte — the repository's I/O is already
//! microsecond-scale, so the seam is free in practice). Tests swap in [`FaultIo`], which threads a splitmix64-seeded
//! [`FaultPlan`] through the same operations to deterministically inject:
//!
//! * **short writes** — a write persists only a seeded prefix of its
//!   bytes before failing (how a real `ENOSPC` or a crash mid-`write`
//!   manifests on disk);
//! * **`ENOSPC` / `EIO`** — a single operation fails with the matching
//!   `std::io::Error`, everything else proceeds;
//! * **crash-at-point** — mutating operation number *k* tears (seeded
//!   prefix persisted), and every later mutating operation fails, which
//!   models the process dying at exactly that point. Reopening the
//!   directory with [`RealIo`] then exercises the real recovery path
//!   against the exact bytes a crash would have left behind.
//!
//! Only *mutating* operations (`create_new`, `open_rw`, `write_all`,
//! `set_len`, `sync_*`) count as injection points: a crash during a read
//! changes nothing on disk, so such points would be no-ops by
//! construction. The plan is pure state + splitmix64, so a torture run is
//! byte-reproducible from its seed.

use simsched_free_splitmix::SplitMix64;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// `profstore` must stay dependency-light (it sits under the daemon), so
/// it carries its own splitmix64 rather than pulling in `simsched`. Same
/// constants, same sequence — a plan seed produces identical injections
/// whether replayed here or reasoned about from the scheduler crate.
mod simsched_free_splitmix {
    /// Minimal splitmix64 (see `simsched::SplitMix64` for the canonical
    /// documented copy).
    #[derive(Clone, Debug)]
    pub struct SplitMix64 {
        state: u64,
    }

    impl SplitMix64 {
        /// Generator seeded with `seed`.
        pub fn new(seed: u64) -> Self {
            Self { state: seed }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// An open, writable store file behind the seam.
pub trait StoreFile: Send + Sync {
    /// Write the whole buffer (or fail, possibly after a short write).
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()>;
    /// Flush userspace buffers to the OS.
    fn flush(&mut self) -> std::io::Result<()>;
    /// `fdatasync`.
    fn sync_data(&mut self) -> std::io::Result<()>;
    /// `fsync`.
    fn sync_all(&mut self) -> std::io::Result<()>;
    /// Truncate (or extend) to `len` bytes.
    fn set_len(&mut self, len: u64) -> std::io::Result<()>;
    /// Position the write cursor at absolute offset `pos`.
    fn seek_to(&mut self, pos: u64) -> std::io::Result<()>;
}

/// An open, read-only store file behind the seam: what one query reads
/// every frame of a segment through.
pub trait StoreRead {
    /// Replace `buf`'s contents with the `len` bytes at absolute
    /// `offset` — fewer only at end of file. (A vector rather than a
    /// slice to fill, so an implementor whose reads produce owned buffers
    /// hands one over instead of copying it.)
    fn read_at(&self, offset: u64, len: usize, buf: &mut Vec<u8>) -> std::io::Result<()>;
}

/// [`StoreIo::open_read`]'s default: no held handle, every read is a
/// [`StoreIo::read_range`] of the path.
struct PathRead<'a, T: StoreIo + ?Sized> {
    io: &'a T,
    path: PathBuf,
}

impl<T: StoreIo + ?Sized> StoreRead for PathRead<'_, T> {
    fn read_at(&self, offset: u64, len: usize, buf: &mut Vec<u8>) -> std::io::Result<()> {
        *buf = self.io.read_range(&self.path, offset, len)?;
        Ok(())
    }
}

/// The repository's view of a filesystem. One implementor per world:
/// [`RealIo`] (production) and [`FaultIo`] (deterministic fault
/// injection).
pub trait StoreIo: Send + Sync + std::fmt::Debug {
    /// Create a fresh file for writing; fails if it exists.
    fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn StoreFile>>;
    /// Open an existing file for read+write (the recovery path).
    fn open_rw(&self, path: &Path) -> std::io::Result<Box<dyn StoreFile>>;
    /// Read a whole file.
    fn read_all(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Read up to `len` bytes at `offset` (short at EOF).
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>>;
    /// Open an existing file for positioned reads. The store reads
    /// records only through this; the default serves an implementor
    /// written before it existed by turning every read into a
    /// [`StoreIo::read_range`] (which opens the path each time), and an
    /// implementor that can hold a handle overrides it. The path comes by
    /// value because the default keeps it for as long as the reader lives.
    fn open_read(&self, path: PathBuf) -> std::io::Result<Box<dyn StoreRead + '_>> {
        Ok(Box::new(PathRead { io: self, path }))
    }
    /// Length of a file in bytes.
    fn file_len(&self, path: &Path) -> std::io::Result<u64>;
    /// File names (not paths) inside a directory.
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>>;
    /// Create a directory and its parents.
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()>;
    /// Atomically rename `from` over `to` (the GC rewrite commit point).
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Unlink a file (reclaiming a fully-dead segment).
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;
}

// ---------------------------------------------------------------------
// Production passthrough
// ---------------------------------------------------------------------

/// The production implementation: a zero-overhead passthrough to
/// `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl RealIo {
    /// A shareable handle (what [`crate::ProfileStore::open`] uses).
    pub fn handle() -> Arc<dyn StoreIo> {
        Arc::new(RealIo)
    }
}

struct RealFile(File);

impl StoreRead for File {
    fn read_at(&self, offset: u64, len: usize, buf: &mut Vec<u8>) -> std::io::Result<()> {
        buf.resize(len, 0);
        let mut filled = 0;
        while filled < len {
            match FileExt::read_at(self, &mut buf[filled..], offset + filled as u64) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        buf.truncate(filled);
        Ok(())
    }
}

impl StoreFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.0.write_all(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        self.0.sync_data()
    }

    fn sync_all(&mut self) -> std::io::Result<()> {
        self.0.sync_all()
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.0.set_len(len)
    }

    fn seek_to(&mut self, pos: u64) -> std::io::Result<()> {
        self.0.seek(SeekFrom::Start(pos)).map(|_| ())
    }
}

impl StoreIo for RealIo {
    fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn StoreFile>> {
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn open_rw(&self, path: &Path) -> std::io::Result<Box<dyn StoreFile>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn read_all(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let mut out = Vec::new();
        StoreRead::read_at(&File::open(path)?, offset, len, &mut out)?;
        Ok(out)
    }

    fn open_read(&self, path: PathBuf) -> std::io::Result<Box<dyn StoreRead + '_>> {
        Ok(Box::new(File::open(path)?))
    }

    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        Ok(std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect())
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }
}

// ---------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------

/// Which error a planned fault raises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC` — the disk is full.
    Enospc,
    /// `EIO` — the device failed.
    Eio,
}

impl FaultKind {
    fn to_error(self) -> std::io::Error {
        match self {
            // Raw OS codes so the error round-trips `raw_os_error()` the
            // same way a real kernel failure would (Linux values).
            FaultKind::Enospc => std::io::Error::from_raw_os_error(28),
            FaultKind::Eio => std::io::Error::from_raw_os_error(5),
        }
    }
}

/// True when an I/O error is (real or injected) `ENOSPC`.
pub fn is_enospc(e: &std::io::Error) -> bool {
    e.raw_os_error() == Some(28) || e.kind() == std::io::ErrorKind::StorageFull
}

/// What a [`FaultIo`] does with the stream of mutating operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Inject nothing; just count operations (for discovering how many
    /// injection points a workload has).
    Observe,
    /// Mutating operation number `point` (0-based) fails with `kind`;
    /// a write persists a seeded prefix first (short write). Every other
    /// operation succeeds.
    FailOp {
        /// 0-based mutating-operation index to fail.
        point: u64,
        /// The error to raise.
        kind: FaultKind,
    },
    /// Mutating operation number `point` tears (a write persists a
    /// seeded prefix, other mutations do nothing) and *every* mutating
    /// operation from then on fails: the process "died" at that point.
    CrashAt {
        /// 0-based mutating-operation index the crash lands on.
        point: u64,
    },
}

/// A deterministic fault plan: a seed plus a mode. The seed only decides
/// *how much* of a torn write survives; *where* faults land is the
/// explicit `point`, so a torture loop can visit every point in order.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed for the short-write prefix choice.
    pub seed: u64,
    /// The injection mode.
    pub mode: FaultMode,
}

impl FaultPlan {
    /// Count operations, inject nothing.
    pub fn observe() -> Self {
        Self {
            seed: 0,
            mode: FaultMode::Observe,
        }
    }

    /// Crash at mutating operation `point`, tearing prefixes by `seed`.
    pub fn crash_at(seed: u64, point: u64) -> Self {
        Self {
            seed,
            mode: FaultMode::CrashAt { point },
        }
    }

    /// Fail exactly mutating operation `point` with `kind`.
    pub fn fail_at(seed: u64, point: u64, kind: FaultKind) -> Self {
        Self {
            seed,
            mode: FaultMode::FailOp { point, kind },
        }
    }
}

#[derive(Debug)]
struct FaultState {
    plan: Mutex<FaultPlan>,
    ops: AtomicU64,
    crashed: AtomicBool,
    /// Armed error: every mutating op fails with it until disarmed.
    armed: Mutex<Option<FaultKind>>,
}

/// Shared control handle for a [`FaultIo`]: observe the operation count,
/// re-plan between phases, or arm a standing error (e.g. "the disk is
/// full from now on") mid-run.
#[derive(Clone, Debug)]
pub struct FaultHandle {
    state: Arc<FaultState>,
}

impl FaultHandle {
    /// Mutating operations observed so far.
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    /// True once a planned crash point has fired.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    /// Replace the plan (op counter keeps running).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.state.plan.lock().expect("fault plan lock") = plan;
    }

    /// From now on every mutating operation fails with `kind` (writes
    /// still tear a seeded prefix first). Models a persistently full or
    /// broken disk.
    pub fn arm(&self, kind: FaultKind) {
        *self.state.armed.lock().expect("fault arm lock") = Some(kind);
    }

    /// Stop injecting the standing error (the disk "recovered").
    pub fn disarm(&self) {
        *self.state.armed.lock().expect("fault arm lock") = None;
    }
}

/// What the state machine decided for one mutating operation.
enum Verdict {
    Proceed,
    /// Tear: persist `prefix` bytes of a write (0 for non-writes), then
    /// fail with the error.
    Tear(usize, std::io::Error),
}

impl FaultState {
    /// Deterministic prefix length for the torn write at `op`.
    fn torn_prefix(&self, seed: u64, op: u64, buf_len: usize) -> usize {
        let mut rng = SplitMix64::new(seed ^ op.wrapping_mul(0x9E37_79B9));
        (rng.next_u64() % (buf_len as u64 + 1)) as usize
    }

    /// Account one mutating operation of `buf_len` payload bytes and
    /// decide its fate.
    fn mutate(&self, buf_len: usize) -> Verdict {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.crashed.load(Ordering::SeqCst) {
            return Verdict::Tear(
                0,
                std::io::Error::other("simulated crash: process already dead"),
            );
        }
        if let Some(kind) = *self.armed.lock().expect("fault arm lock") {
            let plan = *self.plan.lock().expect("fault plan lock");
            return Verdict::Tear(self.torn_prefix(plan.seed, op, buf_len), kind.to_error());
        }
        let plan = *self.plan.lock().expect("fault plan lock");
        match plan.mode {
            FaultMode::Observe => Verdict::Proceed,
            FaultMode::FailOp { point, kind } if op == point => {
                Verdict::Tear(self.torn_prefix(plan.seed, op, buf_len), kind.to_error())
            }
            FaultMode::FailOp { .. } => Verdict::Proceed,
            FaultMode::CrashAt { point } if op >= point => {
                self.crashed.store(true, Ordering::SeqCst);
                let prefix = if op == point {
                    self.torn_prefix(plan.seed, op, buf_len)
                } else {
                    0
                };
                Verdict::Tear(prefix, std::io::Error::other("simulated crash"))
            }
            FaultMode::CrashAt { .. } => Verdict::Proceed,
        }
    }
}

/// A [`StoreIo`] that forwards to the real filesystem but injects the
/// faults its [`FaultPlan`] dictates. Create one with [`FaultIo::with_plan`],
/// keep the [`FaultHandle`] to steer it.
#[derive(Debug)]
pub struct FaultIo {
    state: Arc<FaultState>,
}

impl FaultIo {
    /// A fault-injecting I/O handle plus its control handle.
    pub fn with_plan(plan: FaultPlan) -> (Arc<dyn StoreIo>, FaultHandle) {
        let state = Arc::new(FaultState {
            plan: Mutex::new(plan),
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            armed: Mutex::new(None),
        });
        let handle = FaultHandle {
            state: Arc::clone(&state),
        };
        (Arc::new(FaultIo { state }), handle)
    }
}

struct FaultFile {
    inner: File,
    state: Arc<FaultState>,
}

impl FaultFile {
    fn gate(&mut self, buf: Option<&[u8]>) -> std::io::Result<()> {
        match self.state.mutate(buf.map_or(0, <[u8]>::len)) {
            Verdict::Proceed => {
                if let Some(buf) = buf {
                    self.inner.write_all(buf)?;
                }
                Ok(())
            }
            Verdict::Tear(prefix, err) => {
                if let Some(buf) = buf {
                    // The torn part really lands on disk: recovery later
                    // sees exactly what a crashed writer left behind.
                    let _ = self.inner.write_all(&buf[..prefix]);
                    let _ = self.inner.flush();
                }
                Err(err)
            }
        }
    }
}

impl StoreFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.gate(Some(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        // Flush is a userspace no-op for `File`; not an injection point.
        self.inner.flush()
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        self.gate(None)?;
        self.inner.sync_data()
    }

    fn sync_all(&mut self) -> std::io::Result<()> {
        self.gate(None)?;
        self.inner.sync_all()
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.gate(None)?;
        self.inner.set_len(len)
    }

    fn seek_to(&mut self, pos: u64) -> std::io::Result<()> {
        // Pure cursor motion: nothing durable changes, not a point.
        self.inner.seek(SeekFrom::Start(pos)).map(|_| ())
    }
}

impl StoreIo for FaultIo {
    fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn StoreFile>> {
        match self.state.mutate(0) {
            Verdict::Proceed => {}
            Verdict::Tear(_, err) => return Err(err),
        }
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        Ok(Box::new(FaultFile {
            inner: file,
            state: Arc::clone(&self.state),
        }))
    }

    fn open_rw(&self, path: &Path) -> std::io::Result<Box<dyn StoreFile>> {
        match self.state.mutate(0) {
            Verdict::Proceed => {}
            Verdict::Tear(_, err) => return Err(err),
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Box::new(FaultFile {
            inner: file,
            state: Arc::clone(&self.state),
        }))
    }

    fn read_all(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealIo.read_all(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        RealIo.read_range(path, offset, len)
    }

    fn open_read(&self, path: PathBuf) -> std::io::Result<Box<dyn StoreRead + '_>> {
        // Reads change nothing on disk: not an injection point.
        RealIo.open_read(path)
    }

    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        RealIo.file_len(path)
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        RealIo.list_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        // Directory creation is idempotent setup, not a torture point.
        RealIo.create_dir_all(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        // A crash before rename(2) returns leaves the old name intact:
        // the fault models that by failing without touching either path.
        match self.state.mutate(0) {
            Verdict::Proceed => {}
            Verdict::Tear(_, err) => return Err(err),
        }
        RealIo.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        // Same model: a crash before unlink(2) leaves the file behind.
        match self.state.mutate(0) {
            Verdict::Proceed => {}
            Verdict::Tear(_, err) => return Err(err),
        }
        RealIo.remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "profstore-io-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("f.bin")
    }

    #[test]
    fn real_io_round_trips() {
        let path = tmpfile("real");
        let io = RealIo;
        let mut f = io.create_new(&path).expect("create");
        f.write_all(b"hello world").expect("write");
        f.flush().expect("flush");
        drop(f);
        assert_eq!(io.read_all(&path).expect("read"), b"hello world");
        assert_eq!(io.read_range(&path, 6, 5).expect("range"), b"world");
        assert_eq!(io.read_range(&path, 6, 64).expect("short"), b"world");
        assert_eq!(io.file_len(&path).expect("len"), 11);
        // One held handle, any number of positioned reads.
        let reader = io.open_read(path.clone()).expect("open_read");
        let mut buf = vec![9u8; 3];
        reader.read_at(6, 5, &mut buf).expect("read_at");
        assert_eq!(buf, b"world");
        reader.read_at(0, 5, &mut buf).expect("read_at");
        assert_eq!(buf, b"hello");
        reader.read_at(6, 64, &mut buf).expect("short at the end");
        assert_eq!(buf, b"world");
        reader.read_at(40, 4, &mut buf).expect("past the end");
        assert!(buf.is_empty());
        assert!(io.open_read(path.with_extension("missing")).is_err());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn crash_point_tears_deterministically() {
        let run = |seed| {
            let path = tmpfile(&format!("crash-{seed}"));
            // Point 1 is the second mutating op: the first write succeeds,
            // the second tears.
            let (io, handle) = FaultIo::with_plan(FaultPlan::crash_at(seed, 1));
            let mut f = io.create_new(&path).expect("create is op 0... no wait");
            // create_new consumed op 0, so the first write is op 1: torn.
            let err = f.write_all(b"0123456789").expect_err("torn write");
            assert!(err.to_string().contains("simulated crash"));
            assert!(handle.crashed());
            // Everything after the crash fails without touching disk.
            assert!(f.write_all(b"more").is_err());
            assert!(f.set_len(0).is_err());
            drop(f);
            let bytes = RealIo.read_all(&path).expect("read");
            assert!(bytes.len() < 10, "torn prefix, got {} bytes", bytes.len());
            let out = bytes.clone();
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
            out
        };
        // Same seed, same torn bytes; different seed may differ.
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn fail_op_is_single_shot_and_typed() {
        let path = tmpfile("enospc");
        let (io, handle) = FaultIo::with_plan(FaultPlan::fail_at(3, 1, FaultKind::Enospc));
        let mut f = io.create_new(&path).expect("create (op 0)");
        let err = f.write_all(b"doomed").expect_err("op 1 fails");
        assert!(is_enospc(&err), "{err}");
        assert!(!handle.crashed());
        // Single shot: the next op proceeds.
        f.set_len(0).expect("op 2 proceeds");
        f.seek_to(0).expect("seek is not gated");
        f.write_all(b"fine").expect("op 3 proceeds");
        drop(f);
        assert_eq!(RealIo.read_all(&path).expect("read"), b"fine");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn armed_error_persists_until_disarmed() {
        let path = tmpfile("armed");
        let (io, handle) = FaultIo::with_plan(FaultPlan::observe());
        let mut f = io.create_new(&path).expect("create");
        f.write_all(b"before").expect("write");
        handle.arm(FaultKind::Eio);
        assert!(f.write_all(b"x").is_err());
        assert!(f.write_all(b"y").is_err());
        handle.disarm();
        f.set_len(6).expect("recovers");
        assert!(handle.ops() >= 4);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
