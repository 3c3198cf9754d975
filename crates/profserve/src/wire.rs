//! TPF1 — the compact binary wire protocol.
//!
//! A binary connection opens with the 4-byte magic `"TPF1"` (how the
//! server's first-byte sniffer tells it apart from a JSON line, which
//! always starts with `{`), followed by frames in both directions. A
//! frame is the store's own record frame ([`profstore::frame`]), and its
//! payload is
//!
//! ```text
//! payload := tag:u8  body
//! ```
//!
//! The body reuses the store's LEB128 codec (`profstore::codec`):
//! unsigned varints, length-prefixed UTF-8 strings, and `f64` as 8 raw
//! little-endian bytes.
//! Request tags live below `0x80`, response tags at or above it, so a
//! frame's direction is self-evident in a capture.
//!
//! Negotiation: the client's first frame must be `HELLO{version,features}`;
//! the server answers `HELLO` with the version it will speak and the
//! intersection of feature bits. Unknown feature bits are ignored, which
//! is what makes the mask forward-compatible.
//!
//! Pipelining: a client may write any number of request frames before
//! reading; the server answers strictly in order. `INGEST_BATCH` goes
//! further and amortizes one acknowledgement over a whole batch of
//! records — the bulk path that closes the store-vs-daemon ingest gap.
//!
//! Profiles travel as the store's record payload
//! (`profstore::encode_record`, run id 0 — the store assigns the real
//! one), so a spooled frame can be forwarded byte-for-byte without
//! re-encoding.

use profstore::frame::{self, FrameError};

// The payload codec: derived, like the JSON lines, from the one
// declaration per message in `crate::codec`.
pub use crate::codec::{decode_request, decode_response, encode_request, encode_response};

/// Connection preamble distinguishing TPF1 from JSON lines.
pub const WIRE_MAGIC: [u8; 4] = *b"TPF1";

/// Protocol version this build speaks.
pub const WIRE_VERSION: u32 = 1;

/// Feature bit: the server accepts `INGEST_BATCH`.
pub const FEATURE_BATCH_INGEST: u64 = 1;

/// Default ceiling on a response payload a client will accept.
pub const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// A payload could not be decoded. (A frame that is not one is a
/// [`FrameError`].)
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload structure was truncated, mistyped, or out of range.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// The frame of `payload` ([`frame::encode`]).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame::encode(payload, &mut out);
    out
}

/// Split one frame off the front of `buf` ([`frame::split`]).
///
/// * `Ok(None)` — the buffer holds only a prefix of a frame; read more.
/// * `Ok(Some((payload, consumed)))` — one whole frame; the payload is
///   borrowed from `buf`, and the caller drains `consumed` bytes.
/// * `Err` — the stream is unrecoverable (oversized length word or CRC
///   failure); close the connection after a typed reply.
pub fn try_frame(buf: &[u8], max_payload: usize) -> Result<Option<(&[u8], usize)>, FrameError> {
    Ok(frame::split(buf, max_payload)?.map(|f| (f.payload(), f.bytes().len())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use profstore::RunWindow;

    /// The `INGEST` tag, for hand-built garbage below.
    const TAG_INGEST: u8 = 0x02;

    #[test]
    fn partial_frames_ask_for_more() {
        let framed = frame(&encode_request(&Request::Stats));
        for cut in 0..framed.len() {
            assert_eq!(try_frame(&framed[..cut], 1 << 20).expect("no error"), None);
        }
    }

    #[test]
    fn oversized_length_word_is_rejected() {
        let framed = frame(&[0u8; 100]);
        assert_eq!(
            try_frame(&framed, 10),
            Err(FrameError::TooLarge { len: 100, max: 10 })
        );
    }

    #[test]
    fn payload_corruption_is_detected_by_crc() {
        let mut framed = frame(&encode_request(&Request::QueryStats {
            benchmark: "fib".into(),
            threads: 2,
            window: RunWindow::default(),
        }));
        // Flip one bit in every payload byte position in turn.
        for at in 4..framed.len() - 4 {
            framed[at] ^= 0x10;
            assert_eq!(try_frame(&framed, 1 << 20), Err(FrameError::Crc));
            framed[at] ^= 0x10;
        }
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let reqs = vec![
            Request::Hello {
                version: 1,
                features: FEATURE_BATCH_INGEST,
                auth: Some("hunter2".into()),
            },
            Request::Stats,
            Request::Apply {
                frames: vec![vec![0xDE, 0xAD], vec![], vec![0x00; 32]],
            },
            Request::Export {
                after: 99,
                max: 512,
            },
        ];
        let mut stream = Vec::new();
        for req in &reqs {
            stream.extend_from_slice(&frame(&encode_request(req)));
        }
        let mut decoded = Vec::new();
        let mut pos = 0;
        while let Some((payload, consumed)) = try_frame(&stream[pos..], 1 << 20).expect("frame") {
            decoded.push(decode_request(payload).expect("decode"));
            pos += consumed;
        }
        assert_eq!(pos, stream.len());
        assert_eq!(decoded, reqs);
    }

    #[test]
    fn garbage_payloads_never_decode_as_requests() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x7F]).is_err());
        assert!(decode_request(&[TAG_INGEST, 0xFF, 0xFF]).is_err());
        // Trailing bytes after a valid structure are rejected.
        let mut p = encode_request(&Request::Stats);
        p.push(0);
        assert!(decode_request(&p).is_err());
    }
}
