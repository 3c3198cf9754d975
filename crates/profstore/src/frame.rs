//! The frame every profile at rest or in flight travels in:
//!
//! ```text
//! frame := len:u32le  payload[len]  crc32(payload):u32le
//! ```
//!
//! A segment record ([`crate::segment`]), a TPF1 message
//! (`profserve::wire`), a replicated run and a spooled export
//! (`taskprof_session::export`) are all one frame, and this module is the
//! only code that writes or parses it. [`split`] takes one frame off the
//! front of a stream and [`check`] takes bytes that must be exactly one;
//! both check the length word against the caller's cap and the CRC, and
//! hand back a [`Checked`] frame, which a store appends as it is
//! ([`crate::SegmentWriter::append_checked`]).

use crate::crc::crc32;

/// Bytes of framing around a payload: the length word and the CRC word.
pub const OVERHEAD: usize = 8;

/// Why bytes are not a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes end before the frame does.
    Torn,
    /// The length word announces more than the caller's cap.
    TooLarge {
        /// Announced payload length.
        len: usize,
        /// The caller's cap.
        max: usize,
    },
    /// The length word disagrees with the size of a whole frame.
    LengthMismatch {
        /// Announced payload length.
        len: usize,
        /// Payload bytes actually there.
        size: usize,
    },
    /// The CRC word does not match the payload.
    Crc,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn => write!(f, "torn frame"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {max}")
            }
            FrameError::LengthMismatch { len, size } => write!(
                f,
                "frame length word says {len} payload bytes but the frame carries {size}"
            ),
            FrameError::Crc => write!(f, "frame crc mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One whole frame whose length word and CRC have been checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checked<'a>(&'a [u8]);

impl<'a> Checked<'a> {
    /// The frame's bytes, length and CRC words included.
    pub fn bytes(self) -> &'a [u8] {
        self.0
    }

    /// The payload between the length word and the CRC word.
    pub fn payload(self) -> &'a [u8] {
        &self.0[4..self.0.len() - 4]
    }
}

/// Append the frame of `payload` to `out`.
pub fn encode(payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len()).expect("a payload fits its u32 length word");
    out.reserve(payload.len() + OVERHEAD);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// The payload length announced by a frame starting at `bytes`, once its
/// length word is whole.
fn announced(bytes: &[u8], max: usize) -> Result<Option<usize>, FrameError> {
    let Some(word) = bytes.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*word) as usize;
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    Ok(Some(len))
}

/// `frame`, the `len + OVERHEAD` bytes of one frame, if its CRC matches.
fn crc_checked(frame: &[u8]) -> Result<Checked<'_>, FrameError> {
    let (rest, word) = frame.split_at(frame.len() - 4);
    if word != crc32(&rest[4..]).to_le_bytes() {
        return Err(FrameError::Crc);
    }
    Ok(Checked(frame))
}

/// Split one frame off the front of `buf`, a prefix of a byte stream:
/// `Ok(None)` when `buf` ends before the frame does (read more), else the
/// checked frame, whose length is the bytes to consume. A length word
/// above `max_payload` is refused as soon as it is whole.
pub fn split(buf: &[u8], max_payload: usize) -> Result<Option<Checked<'_>>, FrameError> {
    let Some(len) = announced(buf, max_payload)? else {
        return Ok(None);
    };
    match buf.get(..len + OVERHEAD) {
        Some(frame) => crc_checked(frame).map(Some),
        None => Ok(None),
    }
}

/// Check that `frame` is exactly one frame with at most `max_payload`
/// payload bytes.
pub fn check(frame: &[u8], max_payload: usize) -> Result<Checked<'_>, FrameError> {
    let len = announced(frame, max_payload)?.ok_or(FrameError::Torn)?;
    let size = frame.len().checked_sub(OVERHEAD).ok_or(FrameError::Torn)?;
    if size != len {
        return Err(FrameError::LengthMismatch { len, size });
    }
    crc_checked(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode(payload, &mut out);
        out
    }

    #[test]
    fn a_frame_is_its_length_payload_and_crc() {
        let frame = framed(b"123456789");
        assert_eq!(frame.len(), 9 + OVERHEAD);
        assert_eq!(frame[..4], 9u32.to_le_bytes());
        assert_eq!(&frame[4..13], b"123456789");
        assert_eq!(frame[13..], 0xCBF4_3926u32.to_le_bytes());
        let checked = check(&frame, 9).expect("check");
        assert_eq!(
            (checked.bytes(), checked.payload()),
            (&frame[..], &b"123456789"[..])
        );
        assert_eq!(framed(b""), [0, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn split_asks_for_more_until_the_frame_is_whole() {
        let mut stream = framed(b"first");
        stream.extend_from_slice(&framed(b"second"));
        for cut in 0..5 + OVERHEAD {
            assert_eq!(split(&stream[..cut], 64), Ok(None), "cut {cut}");
        }
        let first = split(&stream, 64).expect("split").expect("whole");
        assert_eq!(
            (first.payload(), first.bytes().len()),
            (&b"first"[..], 5 + OVERHEAD)
        );
        let rest = &stream[first.bytes().len()..];
        let second = split(rest, 64).expect("split").expect("whole");
        assert_eq!((second.payload(), second.bytes()), (&b"second"[..], rest));
    }

    #[test]
    fn the_cap_is_checked_as_soon_as_the_length_word_is_whole() {
        let frame = framed(&[7; 100]);
        let too_large = FrameError::TooLarge { len: 100, max: 99 };
        assert_eq!(split(&frame[..4], 99), Err(too_large));
        assert_eq!(check(&frame, 99), Err(too_large));
        assert!(check(&frame, 100).is_ok());
    }

    #[test]
    fn check_wants_exactly_one_frame() {
        let frame = framed(b"payload");
        assert_eq!(check(&frame[..3], 64), Err(FrameError::Torn));
        assert_eq!(
            check(&frame[..frame.len() - 1], 64),
            Err(FrameError::LengthMismatch { len: 7, size: 6 })
        );
        let mut long = frame.clone();
        long.push(0);
        assert_eq!(
            check(&long, 64),
            Err(FrameError::LengthMismatch { len: 7, size: 8 })
        );
        assert_eq!(check(&frame[..OVERHEAD - 1], 64), Err(FrameError::Torn));
        assert_eq!(check(&framed(b"")[..6], 64), Err(FrameError::Torn));
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        let frame = framed(b"a payload worth checking");
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[at] ^= 1 << bit;
                assert!(
                    check(&bad, 1 << 20).is_err(),
                    "flip {at}:{bit} passed check"
                );
                assert!(
                    !matches!(split(&bad, 1 << 20), Ok(Some(f)) if f.bytes() == &bad[..]),
                    "flip {at}:{bit} passed split"
                );
            }
        }
    }
}
