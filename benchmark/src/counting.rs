//! Exact counters for the traced run: a counting [`StoreIo`] wrapper
//! and a counting global allocator. Both only count while switched on,
//! and the end-to-end run never switches them on.

use profstore::{StoreFile, StoreIo};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Allocation counter
// ---------------------------------------------------------------------

/// Passes every call to the system allocator; counts allocations of the
/// whole process (daemon threads included) while enabled.
pub struct CountingAlloc;

static ALLOC_ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ALLOC_ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ALLOC_ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ALLOC_ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` come from `System`; `new_size` is the
        // caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch allocation counting on or off (off at start).
pub fn count_allocs(on: bool) {
    ALLOC_ON.store(on, Ordering::Relaxed);
}

/// Allocations (alloc, zeroed alloc and realloc calls) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations made while `f` runs, process-wide.
pub fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let out = f();
    (out, allocs() - before)
}

// ---------------------------------------------------------------------
// Store I/O counter
// ---------------------------------------------------------------------

/// Operation counts of one [`CountingIo`].
#[derive(Debug, Default)]
pub struct IoCounts {
    /// Files opened or created (`create_new`, `open_rw`, `read_all`,
    /// `read_range` — the last two open the file they read).
    pub opens: AtomicU64,
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
    pub writes: AtomicU64,
    pub write_bytes: AtomicU64,
    /// `sync_data` + `sync_all`.
    pub fsyncs: AtomicU64,
    /// Everything else (`flush`, `set_len`, `seek_to`, `file_len`,
    /// `list_dir`, `create_dir_all`, `rename`, `remove_file`).
    pub other: AtomicU64,
    /// Wall time spent inside the wrapped calls.
    pub busy_ns: AtomicU64,
}

/// Plain-number copy of [`IoCounts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub opens: u64,
    pub reads: u64,
    pub read_bytes: u64,
    pub writes: u64,
    pub write_bytes: u64,
    pub fsyncs: u64,
    pub other: u64,
    pub busy_ns: u64,
}

impl IoSnapshot {
    /// Counts since `earlier`.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            opens: self.opens - earlier.opens,
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            other: self.other - earlier.other,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    /// Add `other`'s counts to these.
    pub fn add(&mut self, other: &IoSnapshot) {
        self.opens += other.opens;
        self.reads += other.reads;
        self.read_bytes += other.read_bytes;
        self.writes += other.writes;
        self.write_bytes += other.write_bytes;
        self.fsyncs += other.fsyncs;
        self.other += other.other;
        self.busy_ns += other.busy_ns;
    }

    /// The counts that must repeat exactly for a fixed seed (everything
    /// but the time).
    #[cfg(test)]
    pub fn exact(&self) -> [u64; 7] {
        [
            self.opens,
            self.reads,
            self.read_bytes,
            self.writes,
            self.write_bytes,
            self.fsyncs,
            self.other,
        ]
    }
}

impl IoCounts {
    pub fn snapshot(&self) -> IoSnapshot {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoSnapshot {
            opens: get(&self.opens),
            reads: get(&self.reads),
            read_bytes: get(&self.read_bytes),
            writes: get(&self.writes),
            write_bytes: get(&self.write_bytes),
            fsyncs: get(&self.fsyncs),
            other: get(&self.other),
            busy_ns: get(&self.busy_ns),
        }
    }

    fn timed<T>(&self, counter: &AtomicU64, f: impl FnOnce() -> T) -> T {
        counter.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let out = f();
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// A [`StoreIo`] that forwards every call to `inner` and counts it.
#[derive(Debug)]
pub struct CountingIo {
    inner: Arc<dyn StoreIo>,
    counts: Arc<IoCounts>,
}

impl CountingIo {
    /// Wrap `inner`; the second handle reads the counts.
    pub fn wrap(inner: Arc<dyn StoreIo>) -> (Arc<dyn StoreIo>, Arc<IoCounts>) {
        let counts = Arc::new(IoCounts::default());
        let io = Arc::new(CountingIo {
            inner,
            counts: Arc::clone(&counts),
        });
        (io, counts)
    }

    fn file(&self, inner: Box<dyn StoreFile>) -> Box<dyn StoreFile> {
        Box::new(CountingFile {
            inner,
            counts: Arc::clone(&self.counts),
        })
    }
}

struct CountingFile {
    inner: Box<dyn StoreFile>,
    counts: Arc<IoCounts>,
}

impl StoreFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.counts
            .write_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.counts
            .timed(&self.counts.writes, || self.inner.write_all(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.counts.timed(&self.counts.other, || self.inner.flush())
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        self.counts
            .timed(&self.counts.fsyncs, || self.inner.sync_data())
    }

    fn sync_all(&mut self) -> std::io::Result<()> {
        self.counts
            .timed(&self.counts.fsyncs, || self.inner.sync_all())
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.counts
            .timed(&self.counts.other, || self.inner.set_len(len))
    }

    fn seek_to(&mut self, pos: u64) -> std::io::Result<()> {
        self.counts
            .timed(&self.counts.other, || self.inner.seek_to(pos))
    }
}

impl StoreIo for CountingIo {
    fn create_new(&self, path: &Path) -> std::io::Result<Box<dyn StoreFile>> {
        let c = &self.counts;
        c.timed(&c.opens, || self.inner.create_new(path))
            .map(|f| self.file(f))
    }

    fn open_rw(&self, path: &Path) -> std::io::Result<Box<dyn StoreFile>> {
        let c = &self.counts;
        c.timed(&c.opens, || self.inner.open_rw(path))
            .map(|f| self.file(f))
    }

    fn read_all(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let c = &self.counts;
        c.opens.fetch_add(1, Ordering::Relaxed);
        let out = c.timed(&c.reads, || self.inner.read_all(path))?;
        c.read_bytes.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let c = &self.counts;
        c.opens.fetch_add(1, Ordering::Relaxed);
        let out = c.timed(&c.reads, || self.inner.read_range(path, offset, len))?;
        c.read_bytes.fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        let c = &self.counts;
        c.timed(&c.other, || self.inner.file_len(path))
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        let c = &self.counts;
        c.timed(&c.other, || self.inner.list_dir(dir))
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        let c = &self.counts;
        c.timed(&c.other, || self.inner.create_dir_all(dir))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let c = &self.counts;
        c.timed(&c.other, || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        let c = &self.counts;
        c.timed(&c.other, || self.inner.remove_file(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Records the name of every method called on it.
    #[derive(Debug, Default)]
    struct Spy {
        calls: Arc<Mutex<Vec<&'static str>>>,
    }

    struct SpyFile(Arc<Mutex<Vec<&'static str>>>);

    impl SpyFile {
        fn log(&self, name: &'static str) -> std::io::Result<()> {
            self.0.lock().expect("spy lock").push(name);
            Ok(())
        }
    }

    impl StoreFile for SpyFile {
        fn write_all(&mut self, _: &[u8]) -> std::io::Result<()> {
            self.log("write_all")
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.log("flush")
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.log("sync_data")
        }
        fn sync_all(&mut self) -> std::io::Result<()> {
            self.log("sync_all")
        }
        fn set_len(&mut self, _: u64) -> std::io::Result<()> {
            self.log("set_len")
        }
        fn seek_to(&mut self, _: u64) -> std::io::Result<()> {
            self.log("seek_to")
        }
    }

    impl Spy {
        fn log(&self, name: &'static str) {
            self.calls.lock().expect("spy lock").push(name);
        }
    }

    impl StoreIo for Spy {
        fn create_new(&self, _: &Path) -> std::io::Result<Box<dyn StoreFile>> {
            self.log("create_new");
            Ok(Box::new(SpyFile(Arc::clone(&self.calls))))
        }
        fn open_rw(&self, _: &Path) -> std::io::Result<Box<dyn StoreFile>> {
            self.log("open_rw");
            Ok(Box::new(SpyFile(Arc::clone(&self.calls))))
        }
        fn read_all(&self, _: &Path) -> std::io::Result<Vec<u8>> {
            self.log("read_all");
            Ok(vec![0; 5])
        }
        fn read_range(&self, _: &Path, _: u64, len: usize) -> std::io::Result<Vec<u8>> {
            self.log("read_range");
            Ok(vec![0; len])
        }
        fn file_len(&self, _: &Path) -> std::io::Result<u64> {
            self.log("file_len");
            Ok(0)
        }
        fn list_dir(&self, _: &Path) -> std::io::Result<Vec<String>> {
            self.log("list_dir");
            Ok(Vec::new())
        }
        fn create_dir_all(&self, _: &Path) -> std::io::Result<()> {
            self.log("create_dir_all");
            Ok(())
        }
        fn rename(&self, _: &Path, _: &Path) -> std::io::Result<()> {
            self.log("rename");
            Ok(())
        }
        fn remove_file(&self, _: &Path) -> std::io::Result<()> {
            self.log("remove_file");
            Ok(())
        }
    }

    #[test]
    fn wrapper_forwards_every_method_and_counts_it() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let (io, counts) = CountingIo::wrap(Arc::new(Spy {
            calls: Arc::clone(&calls),
        }));
        let p = Path::new("x");
        let mut f = io.create_new(p).unwrap();
        f.write_all(b"abc").unwrap();
        f.flush().unwrap();
        f.sync_data().unwrap();
        f.sync_all().unwrap();
        f.set_len(1).unwrap();
        f.seek_to(0).unwrap();
        let mut g = io.open_rw(p).unwrap();
        g.write_all(b"de").unwrap();
        assert_eq!(io.read_all(p).unwrap().len(), 5);
        assert_eq!(io.read_range(p, 0, 7).unwrap().len(), 7);
        io.file_len(p).unwrap();
        io.list_dir(p).unwrap();
        io.create_dir_all(p).unwrap();
        io.rename(p, p).unwrap();
        io.remove_file(p).unwrap();

        let expected = [
            "create_new",
            "write_all",
            "flush",
            "sync_data",
            "sync_all",
            "set_len",
            "seek_to",
            "open_rw",
            "write_all",
            "read_all",
            "read_range",
            "file_len",
            "list_dir",
            "create_dir_all",
            "rename",
            "remove_file",
        ];
        assert_eq!(*calls.lock().unwrap(), expected);
        let s = counts.snapshot();
        assert_eq!(
            s.exact(),
            [4, 2, 12, 2, 5, 2, 8],
            "opens reads read_bytes writes write_bytes fsyncs other"
        );
    }

    #[test]
    fn allocation_counter_counts_only_while_on() {
        // Other tests allocate concurrently, so only lower bounds hold.
        count_allocs(true);
        let (v, n) = allocs_during(|| vec![1u8; 64]);
        count_allocs(false);
        assert!(n >= 1, "a Vec allocation was not counted");
        drop(v);
    }
}
