//! Segment files: the on-disk unit of the append-only log.
//!
//! Layout:
//!
//! ```text
//! segment := MAGIC (8 bytes) frame*
//! ```
//!
//! Each record is one [`crate::frame`] whose payload starts with the
//! codec version byte (see [`crate::codec`]). Appends go through a
//! [`SegmentWriter`] that flushes the full frame per record, so after a
//! crash the file is a valid prefix plus at most one torn frame.
//! [`SegmentReader::scan`] checks every frame and reports where the valid
//! prefix ends so the store can truncate the tail on open; an opened
//! [`SegmentReader`] reads indexed frames back through the one handle it
//! holds: one positioned read for one frame, or for a run of adjacent
//! frames ([`SegmentReader::read_frames`], an export page), each of
//! which is then checked on its own. A replicated page is appended the
//! same way, each segment's share of it in one write
//! ([`SegmentWriter::append_checked`]).
//!
//! Every file operation goes through a [`StoreIo`] handle so the fault
//! injector ([`crate::FaultIo`]) can tear or fail any of them; production
//! passes [`crate::RealIo`](crate::RealIo).

use crate::codec::MAX_RECORD_BYTES;
use crate::frame::{self, Checked, FrameError};
use crate::io::{parent_dir, StoreFile, StoreIo, StoreRead};
use std::path::{Path, PathBuf};

/// First 8 bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"profseg1";

/// Bytes [`SegmentReader::scan`] reads at a time: a segment's frames
/// stream through one buffer this size (or larger, for a larger frame),
/// so recovery holds no copy of the file.
const SCAN_WINDOW: usize = 1 << 20;

/// Result of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Offset one past the last valid frame (where appends may resume).
    pub valid_len: u64,
    /// The defect that ended the scan early, if the file has a bad tail.
    pub tail_defect: Option<FrameError>,
}

/// One segment file open for reads: holds the handle and the buffer the
/// frames of a query, or of a [`SegmentReader::scan`], are read into.
pub struct SegmentReader<'io> {
    file: Box<dyn StoreRead + 'io>,
    /// The file's bytes from offset `base` on.
    frame: Vec<u8>,
    base: u64,
}

impl<'io> SegmentReader<'io> {
    /// Open the segment at `path` for [`SegmentReader::read_frame`].
    pub fn open(io: &'io dyn StoreIo, path: PathBuf) -> std::io::Result<Self> {
        Ok(Self {
            file: io.open_read(path)?,
            frame: Vec::new(),
            base: 0,
        })
    }

    /// Read the whole frame a store index places at `offset` with
    /// `bytes` framed bytes, in one read. `None` unless the file holds
    /// that many bytes there and they are one [`frame::check`]ed frame of
    /// at most [`MAX_RECORD_BYTES`] payload bytes; the frame is valid
    /// until the next read.
    pub fn read_frame(&mut self, offset: u64, bytes: u64) -> std::io::Result<Option<Checked<'_>>> {
        if bytes > MAX_FRAME_BYTES {
            return Ok(None);
        }
        self.file.read_at(offset, bytes as usize, &mut self.frame)?;
        self.base = offset;
        Ok(frame_at(&self.frame, 0, bytes))
    }

    /// Read the run of adjacent frames a store index places from `offset`
    /// on, with `sizes[i]` framed bytes for frame `i`, in one read. Item
    /// `i` of the result is frame `i` as [`SegmentReader::read_frame`]
    /// would return it; the read stops before the first size past the
    /// record limit, so no buffer is sized by one. The frames are valid
    /// until the next read.
    pub fn read_frames(
        &mut self,
        offset: u64,
        sizes: &[u64],
    ) -> std::io::Result<Vec<Option<Checked<'_>>>> {
        let total: u64 = sizes
            .iter()
            .take_while(|&&bytes| bytes <= MAX_FRAME_BYTES)
            .sum();
        self.file.read_at(offset, total as usize, &mut self.frame)?;
        self.base = offset;
        let mut at = 0u64;
        Ok(sizes
            .iter()
            .map(|&bytes| {
                let frame = frame_at(&self.frame, at, bytes);
                at = at.saturating_add(bytes);
                frame
            })
            .collect())
    }
}

/// Framed bytes of the largest record frame a segment holds.
const MAX_FRAME_BYTES: u64 = (MAX_RECORD_BYTES + frame::OVERHEAD) as u64;

/// The `bytes` bytes of `buf` from `at` on, if `buf` holds them all and
/// they are one [`frame::check`]ed frame of at most [`MAX_RECORD_BYTES`]
/// payload bytes.
fn frame_at(buf: &[u8], at: u64, bytes: u64) -> Option<Checked<'_>> {
    if bytes > MAX_FRAME_BYTES {
        return None;
    }
    let start = usize::try_from(at).ok()?;
    let frame = buf.get(start..start.checked_add(bytes as usize)?)?;
    frame::check(frame, MAX_RECORD_BYTES).ok()
}

impl SegmentReader<'_> {
    /// The buffered bytes from `offset` on, at least `n` of them unless
    /// the file ends first; refilled [`SCAN_WINDOW`] bytes (or `n`, if
    /// more) at a time.
    fn window(&mut self, offset: u64, n: usize) -> std::io::Result<&[u8]> {
        let held = self.base + self.frame.len() as u64;
        if offset < self.base || offset + n as u64 > held {
            self.file
                .read_at(offset, n.max(SCAN_WINDOW), &mut self.frame)?;
            self.base = offset;
        }
        Ok(&self.frame[(offset - self.base) as usize..])
    }

    /// Scan `path`, checking the magic and every record frame, and hand
    /// each valid record's frame offset and payload to `record`, in file
    /// order.
    ///
    /// A file shorter than the magic, or with a wrong magic, is reported
    /// as `valid_len == 0` with a tail defect, letting the caller decide
    /// whether that is recoverable (an empty just-created file) or fatal.
    pub fn scan(
        io: &dyn StoreIo,
        path: &Path,
        mut record: impl FnMut(u64, &[u8]),
    ) -> std::io::Result<SegmentScan> {
        let file_len = io.file_len(path)?;
        let mut file = SegmentReader::open(io, path.to_path_buf())?;
        let magic = SEGMENT_MAGIC.len();
        if file_len < magic as u64 || file.window(0, magic)?[..magic] != SEGMENT_MAGIC[..] {
            return Ok(SegmentScan {
                valid_len: 0,
                tail_defect: Some(FrameError::Torn),
            });
        }
        let mut pos = magic as u64;
        // Bytes the buffer must hold to split the next frame; doubled
        // while a frame is larger than the buffer.
        let mut want = frame::OVERHEAD;
        let tail_defect = loop {
            if pos == file_len {
                break None;
            }
            let buf = file.window(pos, want)?;
            match frame::split(buf, MAX_RECORD_BYTES) {
                Ok(Some(frame)) => {
                    record(pos, frame.payload());
                    pos += frame.bytes().len() as u64;
                    want = frame::OVERHEAD;
                }
                Ok(None) if pos + buf.len() as u64 >= file_len => break Some(FrameError::Torn),
                Ok(None) => want = 2 * buf.len(),
                Err(defect) => break Some(defect),
            }
        };
        Ok(SegmentScan {
            valid_len: pos,
            tail_defect,
        })
    }
}

/// Appender for the active segment.
pub struct SegmentWriter {
    file: Box<dyn StoreFile>,
    len: u64,
    sync: bool,
}

impl SegmentWriter {
    /// Create a fresh segment (fails if `path` exists). With `sync`, its
    /// header and its directory entry are durable when this returns.
    pub fn create(io: &dyn StoreIo, path: &Path, sync: bool) -> std::io::Result<Self> {
        let mut file = io.create_new(path)?;
        file.write_all(SEGMENT_MAGIC)?;
        file.flush()?;
        if sync {
            // The file's bytes, then its name in the directory.
            file.sync_all()?;
            io.sync_dir(parent_dir(path))?;
        }
        Ok(Self {
            file,
            len: SEGMENT_MAGIC.len() as u64,
            sync,
        })
    }

    /// Reopen an existing segment for appends, first truncating it to
    /// `valid_len` (the recovery step that drops a torn tail record).
    ///
    /// A `valid_len` shorter than the magic means the header itself never
    /// made it to disk (a crash between `create_new` and the magic write)
    /// or was destroyed: the file is truncated and the magic rewritten, so
    /// appends resume into a well-formed segment. Without this, every
    /// record appended after recovery would sit behind a bad header and be
    /// discarded wholesale by the next scan.
    pub fn recover(
        io: &dyn StoreIo,
        path: &Path,
        valid_len: u64,
        sync: bool,
    ) -> std::io::Result<Self> {
        let mut file = io.open_rw(path)?;
        let len = if valid_len < SEGMENT_MAGIC.len() as u64 {
            file.set_len(0)?;
            file.seek_to(0)?;
            file.write_all(SEGMENT_MAGIC)?;
            file.flush()?;
            SEGMENT_MAGIC.len() as u64
        } else {
            file.set_len(valid_len)?;
            file.seek_to(valid_len)?;
            valid_len
        };
        if sync {
            file.sync_all()?;
        }
        Ok(Self { file, len, sync })
    }

    /// Append the frame of one record payload; returns the frame's byte
    /// offset.
    ///
    /// On failure the writer repairs itself best-effort: the file is
    /// truncated back to the last good frame and the cursor reseated, so
    /// a transient error (`ENOSPC` while the disk fills, `EIO` on one
    /// sector) leaves a well-formed log and the *next* append can
    /// succeed. If the repair itself fails (the process is "dead" in a
    /// crash simulation, or the device is gone) the partial frame stays
    /// behind as a torn tail — exactly what scan-and-truncate recovery on
    /// the next open handles.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        let mut bytes = Vec::new();
        frame::encode(payload, &mut bytes);
        self.write(&bytes)
    }

    /// [`SegmentWriter::append`] frames already checked, as they are, in
    /// order, with one write (and, with `sync`, one `fdatasync`); returns
    /// the first frame's offset. On failure the repair drops all of them.
    pub fn append_checked(&mut self, frames: &[Checked<'_>]) -> std::io::Result<u64> {
        if let [frame] = frames {
            return self.write(frame.bytes());
        }
        let mut bytes = Vec::with_capacity(frames.iter().map(|f| f.bytes().len()).sum());
        for frame in frames {
            bytes.extend_from_slice(frame.bytes());
        }
        self.write(&bytes)
    }

    /// Write `bytes`, whole frames, at the end of the file.
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<u64> {
        let offset = self.len;
        let result = (|| {
            self.file.write_all(bytes)?;
            self.file.flush()?;
            if self.sync {
                self.file.sync_data()?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek_to(self.len);
            return Err(e);
        }
        self.len += bytes.len() as u64;
        Ok(offset)
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no record has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len <= SEGMENT_MAGIC.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultIo, FaultKind, FaultPlan, RealIo};

    const OVERHEAD: u64 = frame::OVERHEAD as u64;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "profstore-seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// `path`'s scan, and every valid record's offset and payload.
    fn scan_all(io: &dyn StoreIo, path: &Path) -> (SegmentScan, Vec<(u64, Vec<u8>)>) {
        let mut records = Vec::new();
        let scan = SegmentReader::scan(io, path, |offset, payload| {
            records.push((offset, payload.to_vec()))
        });
        (scan.expect("scan"), records)
    }

    /// The payload of the frame indexed at (`offset`, `bytes`), through a
    /// reader opened for this one read.
    fn read(io: &dyn StoreIo, path: &Path, offset: u64, bytes: u64) -> Option<Vec<u8>> {
        let mut reader = SegmentReader::open(io, path.to_path_buf()).expect("open");
        let frame = reader.read_frame(offset, bytes).expect("read_frame")?;
        let whole = frame.bytes().len() as u64 == bytes;
        assert!(whole, "the whole on-disk frame comes back");
        Some(frame.payload().to_vec())
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = tmpdir("rt");
        let path = dir.join("seg-000001.log");
        let io = RealIo;
        let mut w = SegmentWriter::create(&io, &path, false).expect("create");
        let a = w.append(b"first record").expect("append");
        let b = w.append(b"second, longer record payload").expect("append");
        assert!(b > a);
        let (scan, records) = scan_all(&io, &path);
        assert_eq!(scan.tail_defect, None);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].1, b"first record");
        assert_eq!(records[1].1, b"second, longer record payload");
        assert_eq!(scan.valid_len, w.len());
        assert_eq!(
            read(&io, &path, b, 29 + OVERHEAD),
            Some(b"second, longer record payload".to_vec())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("seg-000001.log");
        let io = RealIo;
        let mut w = SegmentWriter::create(&io, &path, false).expect("create");
        w.append(b"kept").expect("append");
        let good_len = w.len();
        w.append(b"lost to the crash").expect("append");
        drop(w);
        // Simulate a crash mid-append: cut the file inside the last frame.
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..full.len() - 5]).expect("write");
        let (scan, records) = scan_all(&io, &path);
        assert_eq!(scan.tail_defect, Some(FrameError::Torn));
        assert_eq!(records.len(), 1);
        assert_eq!(scan.valid_len, good_len);
        // Recovery truncates and appends continue cleanly.
        let mut w = SegmentWriter::recover(&io, &path, scan.valid_len, false).expect("recover");
        w.append(b"after recovery").expect("append");
        let (scan, records) = scan_all(&io, &path);
        assert_eq!(scan.tail_defect, None);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].1, b"after recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_at_zero_rewrites_the_magic_header() {
        let dir = tmpdir("zero");
        let path = dir.join("seg-000001.log");
        let io = RealIo;
        // A crash between create_new and the magic write leaves an empty
        // (or partial-header) file; its scan reports valid_len == 0.
        std::fs::write(&path, b"pro").expect("write partial header");
        let (scan, _) = scan_all(&io, &path);
        assert_eq!(scan.valid_len, 0);
        let mut w = SegmentWriter::recover(&io, &path, scan.valid_len, false).expect("recover");
        let off = w.append(b"post-recovery record").expect("append");
        drop(w);
        // The segment is well-formed again: the magic is back and the
        // appended record survives the next scan instead of being
        // discarded behind a bad header.
        let (scan, records) = scan_all(&io, &path);
        assert_eq!(scan.tail_defect, None);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].1, b"post-recovery record");
        assert_eq!(
            read(&io, &path, off, 20 + OVERHEAD),
            Some(b"post-recovery record".to_vec())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let dir = tmpdir("crc");
        let path = dir.join("seg-000001.log");
        let io = RealIo;
        let mut w = SegmentWriter::create(&io, &path, false).expect("create");
        let off = w.append(b"pristine payload bytes").expect("append");
        drop(w);
        let mut data = std::fs::read(&path).expect("read");
        let idx = off as usize + 4 + 3; // a byte inside the payload
        data[idx] ^= 0x40;
        std::fs::write(&path, &data).expect("write");
        let (scan, records) = scan_all(&io, &path);
        assert_eq!(scan.tail_defect, Some(FrameError::Crc));
        assert!(records.is_empty());
        assert_eq!(read(&io, &path, off, 22 + OVERHEAD), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_repairs_the_tail_and_the_next_append_succeeds() {
        let dir = tmpdir("repair");
        let path = dir.join("seg-000001.log");
        // Ops: 0 create_new, 1 magic write, 2 good append, 3 torn append.
        let (io, _handle) = FaultIo::with_plan(FaultPlan::fail_at(11, 3, FaultKind::Enospc));
        let mut w = SegmentWriter::create(&*io, &path, false).expect("create");
        let a = w.append(b"survives").expect("append");
        let err = w
            .append(b"hits the full disk")
            .expect_err("injected enospc");
        assert!(crate::io::is_enospc(&err), "{err}");
        // The repair truncated the torn prefix: the file is well-formed
        // and the next append lands cleanly at the same offset.
        let b = w.append(b"after the disk recovered").expect("append");
        assert_eq!(w.len(), b + 24 + OVERHEAD);
        drop(w);
        let (scan, records) = scan_all(&RealIo, &path);
        assert_eq!(scan.tail_defect, None, "repair left no torn tail");
        assert_eq!(
            records,
            [
                (a, b"survives".to_vec()),
                (b, b"after the disk recovered".to_vec())
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Frames straddle the scan's window, and one is larger than it.
    #[test]
    fn scan_streams_frames_across_and_beyond_its_window() {
        let dir = tmpdir("window");
        let path = dir.join("seg-000001.log");
        let io = RealIo;
        let mut w = SegmentWriter::create(&io, &path, false).expect("create");
        let sizes = [
            SCAN_WINDOW / 3,
            SCAN_WINDOW / 2,
            2 * SCAN_WINDOW + 5,
            7,
            SCAN_WINDOW - 3,
        ];
        let want: Vec<_> = (0u8..)
            .zip(sizes)
            .map(|(i, len)| (w.append(&vec![i; len]).expect("append"), vec![i; len]))
            .collect();
        let (scan, records) = scan_all(&io, &path);
        assert_eq!(scan.tail_defect, None);
        assert_eq!(scan.valid_len, w.len());
        assert!(
            records == want,
            "the scan returned other frames than were appended"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_refuses_every_frame_that_is_not_the_indexed_one() {
        let dir = tmpdir("refuse");
        let path = dir.join("seg-000001.log");
        let io = RealIo;
        let mut w = SegmentWriter::create(&io, &path, false).expect("create");
        let a = w.append(b"first").expect("append");
        let b = w.append(b"second record").expect("append");
        drop(w);
        let (a_bytes, b_bytes) = (5 + OVERHEAD, 13 + OVERHEAD);
        assert_eq!(read(&io, &path, a, a_bytes), Some(b"first".to_vec()));
        assert_eq!(
            read(&io, &path, b, b_bytes),
            Some(b"second record".to_vec())
        );
        // The length word disagrees with the indexed size (both ways).
        assert_eq!(read(&io, &path, a, a_bytes + 4), None);
        assert_eq!(read(&io, &path, b, b_bytes - 1), None);
        // Too small to be a frame at all.
        assert_eq!(read(&io, &path, a, OVERHEAD - 1), None);
        // A short read at the end of the file.
        assert_eq!(read(&io, &path, b, b_bytes + 1), None);
        assert_eq!(read(&io, &path, b + b_bytes, a_bytes), None);
        // An indexed size past the record limit is refused before any
        // buffer is sized by it.
        let huge = MAX_RECORD_BYTES as u64 + OVERHEAD + 1;
        assert_eq!(read(&io, &path, a, huge), None);
        // A flipped payload bit fails the CRC; the neighbour still reads.
        let mut data = std::fs::read(&path).expect("read");
        data[b as usize + 4 + 2] ^= 0x01;
        std::fs::write(&path, &data).expect("write");
        assert_eq!(read(&io, &path, b, b_bytes), None);
        assert_eq!(read(&io, &path, a, a_bytes), Some(b"first".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_reader_serves_many_frames_and_sees_later_appends() {
        let dir = tmpdir("held");
        let path = dir.join("seg-000001.log");
        let io = RealIo;
        let mut w = SegmentWriter::create(&io, &path, false).expect("create");
        let a = w.append(b"before the open").expect("append");
        let mut reader = SegmentReader::open(&io, path.clone()).expect("open");
        let b = w.append(b"after").expect("append");
        for _ in 0..2 {
            let frame = reader.read_frame(b, 5 + OVERHEAD).expect("read");
            assert_eq!(frame.map(Checked::payload), Some(&b"after"[..]));
            let frame = reader.read_frame(a, 15 + OVERHEAD).expect("read");
            assert_eq!(frame.map(Checked::payload), Some(&b"before the open"[..]));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
