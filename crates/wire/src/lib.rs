#![warn(missing_docs)]

//! The avdb wire format: length-prefixed binary frames, spoken by the
//! client protocol (client ↔ gateway) and by the inter-site mesh
//! (accelerator ↔ accelerator) alike.
//!
//! Every frame carries the same 16-byte header:
//!
//! ```text
//! offset  size  field     notes
//! ------  ----  --------  ------------------------------------------
//!      0     2  magic     0xAD B1, big-endian
//!      2     1  version   protocol revision (currently 1)
//!      3     1  kind      request 0x01..=0x04, response 0x81..=0x86,
//!                         inter-site mesh 0x41..=0x4A
//!      4     8  req_id    client-chosen correlation id, big-endian
//!                         (0 on mesh frames: the link names the sender)
//!     12     4  len       payload byte count, big-endian, ≤ 1 MiB
//!     16   len  payload   kind-specific binary encoding
//! ```
//!
//! Request ids exist for pipelining: a client may have many requests in
//! flight on one connection, and the gateway answers in *completion*
//! order, echoing each request's id, so responses are matched by id —
//! never by position.
//!
//! The decoder ([`Decoder`], and [`split_frame`] underneath it) is
//! incremental and hostile-input safe: a partial frame yields `Ok(None)`
//! (feed more bytes), and every malformed input class — bad magic,
//! unknown version, oversized length, short or trailing payload bytes,
//! unknown kind — yields a typed [`WireError`] without panicking and
//! without waiting for bytes that will never come (an oversized length is
//! rejected from the header alone). A stream that ends mid-frame is
//! distinguished from a clean end by [`Decoder::finish`].
//!
//! The payload encodings are fixed-layout big-endian integers (variable
//! tails only for strings and `u32`-counted vectors), read through one
//! typed cursor ([`Reader`]). This crate defines the client payloads; the
//! mesh's payloads live with the protocol messages in `avdb-core` and are
//! framed by [`put_frame`] / [`split_frame`].

use bytes::{Buf, BufMut, BytesMut};
use std::fmt;

mod message;
mod payload;

pub use message::{AbortCode, CommitKind, ErrorCode, Request, Response};
pub use payload::Reader;

/// Frame magic, big-endian on the wire.
pub const MAGIC: u16 = 0xADB1;
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 16;
/// Hard payload cap: anything larger is rejected from the header alone.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Typed decode failure. Every malformed-input class maps to exactly one
/// variant; the codec never panics on wire bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first two bytes were not [`MAGIC`] — not an avdb stream, or a
    /// desynchronized one.
    BadMagic {
        /// The bytes actually seen.
        got: u16,
    },
    /// Version byte this implementation does not speak.
    UnsupportedVersion {
        /// The version actually seen.
        got: u8,
    },
    /// Header announced a payload larger than [`MAX_PAYLOAD`].
    FrameTooLarge {
        /// The announced payload length.
        len: u32,
    },
    /// Kind byte outside the request/response range expected by the
    /// caller. Carries the request id so the peer can still be answered.
    UnknownKind {
        /// The kind byte actually seen.
        kind: u8,
        /// The frame's correlation id.
        req_id: u64,
    },
    /// Payload bytes did not match the kind's layout (short, trailing
    /// garbage, or invalid field values).
    BadPayload {
        /// The frame kind whose payload failed to decode.
        kind: u8,
        /// What was wrong.
        detail: &'static str,
    },
    /// The stream ended in the middle of a frame (mid-frame disconnect).
    Truncated {
        /// Bytes left dangling past the last complete frame.
        dangling: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { got } => write!(f, "bad frame magic 0x{got:04X}"),
            WireError::UnsupportedVersion { got } => {
                write!(f, "unsupported protocol version {got}")
            }
            WireError::FrameTooLarge { len } => {
                write!(f, "frame payload {len} exceeds cap {MAX_PAYLOAD}")
            }
            WireError::UnknownKind { kind, req_id } => {
                write!(f, "unknown frame kind 0x{kind:02X} (req {req_id})")
            }
            WireError::BadPayload { kind, detail } => {
                write!(f, "bad payload for kind 0x{kind:02X}: {detail}")
            }
            WireError::Truncated { dangling } => {
                write!(f, "stream ended mid-frame ({dangling} dangling bytes)")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// One complete frame at the front of a buffer, header validated,
/// payload not yet interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The header's kind byte.
    pub kind: u8,
    /// The header's correlation id.
    pub req_id: u64,
    /// The payload bytes.
    pub payload: &'a [u8],
}

impl Frame<'_> {
    /// Bytes the frame spans in the stream, header included.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

/// Finds the frame at the front of `buf`. `Ok(None)` while it is
/// incomplete. The header is validated as soon as its 16 bytes are
/// present, so an oversized or alien frame fails here without waiting
/// for (or buffering) its payload.
pub fn split_frame(buf: &[u8]) -> Result<Option<Frame<'_>>, WireError> {
    let Some(h) = buf.get(..HEADER_LEN) else { return Ok(None) };
    let magic = u16::from_be_bytes([h[0], h[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let version = h[2];
    if version != VERSION {
        return Err(WireError::UnsupportedVersion { got: version });
    }
    let kind = h[3];
    let req_id = u64::from_be_bytes([h[4], h[5], h[6], h[7], h[8], h[9], h[10], h[11]]);
    let len = u32::from_be_bytes([h[12], h[13], h[14], h[15]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge { len });
    }
    Ok(buf.get(HEADER_LEN..HEADER_LEN + len as usize).map(|payload| Frame { kind, req_id, payload }))
}

/// Appends one frame to `out`: the header, then the payload `write`
/// appends, which returns the frame's kind. A payload over
/// [`MAX_PAYLOAD`] is taken back out and reported as
/// [`WireError::FrameTooLarge`], leaving `out` as it was.
pub fn put_frame(
    out: &mut BytesMut,
    req_id: u64,
    write: impl FnOnce(&mut BytesMut) -> u8,
) -> Result<(), WireError> {
    let start = out.len();
    out.reserve(HEADER_LEN);
    out.put_slice(&MAGIC.to_be_bytes());
    out.put_u8(VERSION);
    out.put_u8(0); // kind, known once the payload is written
    out.put_u64(req_id);
    out.put_u32(0); // len, likewise
    let kind = write(out);
    let len = out.len() - start - HEADER_LEN;
    if len > MAX_PAYLOAD as usize {
        out.truncate(start);
        return Err(WireError::FrameTooLarge { len: len.min(u32::MAX as usize) as u32 });
    }
    out[start + 3] = kind;
    out[start + 12..start + HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// Encodes one request frame onto `out`. Every request has a small fixed
/// layout, so none can reach the frame cap.
pub fn encode_request(req_id: u64, req: &Request, out: &mut BytesMut) {
    put_frame(out, req_id, |out| message::encode_request_payload(req, out))
        .expect("a fixed-layout request fits the frame cap");
}

/// Encodes one response frame onto `out`. A response whose payload would
/// exceed [`MAX_PAYLOAD`] (a huge status document or detail string) goes
/// out as [`ErrorCode::Unavailable`] instead, so the peer never receives
/// a frame its decoder must refuse.
pub fn encode_response(req_id: u64, resp: &Response, out: &mut BytesMut) {
    if put_frame(out, req_id, |out| message::encode_response_payload(resp, out)).is_err() {
        let refused = Response::Error {
            code: ErrorCode::Unavailable,
            detail: "response exceeds the frame cap".into(),
        };
        encode_response(req_id, &refused, out);
    }
}

/// Incremental frame decoder: feed bytes as they arrive, pull complete
/// frames out. One decoder per connection per direction.
#[derive(Default, Debug)]
pub struct Decoder {
    buf: BytesMut,
}

impl Decoder {
    /// Empty decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.remaining()
    }

    /// Call at EOF: a clean stream ends exactly on a frame boundary;
    /// anything else is a mid-frame disconnect.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.buf.remaining() {
            0 => Ok(()),
            n => Err(WireError::Truncated { dangling: n }),
        }
    }

    /// Decodes the next complete frame's payload with `decode`. The
    /// frame is consumed whether or not its payload decodes: framing is
    /// intact either way, so the caller may answer and read on.
    fn next_with<T>(
        &mut self,
        decode: fn(u8, u64, &[u8]) -> Result<T, WireError>,
    ) -> Result<Option<(u64, T)>, WireError> {
        let Some(f) = split_frame(&self.buf)? else { return Ok(None) };
        let (req_id, len) = (f.req_id, f.wire_len());
        let decoded = decode(f.kind, f.req_id, f.payload);
        self.buf.advance(len);
        decoded.map(|v| Some((req_id, v)))
    }

    /// Pulls the next complete request frame (gateway side).
    pub fn next_request(&mut self) -> Result<Option<(u64, Request)>, WireError> {
        self.next_with(message::decode_request_payload)
    }

    /// Pulls the next complete response frame (client side).
    pub fn next_response(&mut self) -> Result<Option<(u64, Response)>, WireError> {
        self.next_with(message::decode_response_payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = BytesMut::new();
        encode_request(7, &req, &mut buf);
        let mut dec = Decoder::new();
        dec.extend(&buf);
        let (id, got) = dec.next_request().unwrap().unwrap();
        assert_eq!(id, 7);
        assert_eq!(got, req);
        assert!(dec.next_request().unwrap().is_none());
        dec.finish().unwrap();
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = BytesMut::new();
        encode_response(99, &resp, &mut buf);
        let mut dec = Decoder::new();
        dec.extend(&buf);
        let (id, got) = dec.next_response().unwrap().unwrap();
        assert_eq!(id, 99);
        assert_eq!(got, resp);
        dec.finish().unwrap();
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Update { product: 3, delta: -40 });
        roundtrip_request(Request::Update { product: u32::MAX, delta: i64::MIN });
        roundtrip_request(Request::Read { product: 0 });
        roundtrip_request(Request::Status);
        roundtrip_request(Request::Ping);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Committed {
            txn: u64::MAX,
            kind: CommitKind::Delay,
            completed_at: 12,
            correspondences: 3,
        });
        roundtrip_response(Response::Aborted {
            txn: 5,
            code: AbortCode::InsufficientAv,
            correspondences: 9,
            detail: "short 12".into(),
        });
        roundtrip_response(Response::ReadOk {
            product: 17,
            stock: -1,
            av_defined: true,
            av_available: i64::MAX,
        });
        roundtrip_response(Response::StatusOk { json: "{\"site\":0}".into() });
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Error {
            code: ErrorCode::AdmissionRefused,
            detail: "site full".into(),
        });
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut buf = BytesMut::new();
        for id in 0..10u64 {
            encode_request(id, &Request::Update { product: id as u32, delta: 1 }, &mut buf);
        }
        let mut dec = Decoder::new();
        // Drip-feed one byte at a time: incremental decode must survive
        // arbitrary chunking.
        let mut got = Vec::new();
        for b in buf.iter() {
            dec.extend(&[*b]);
            while let Some((id, req)) = dec.next_request().unwrap() {
                got.push((id, req));
            }
        }
        assert_eq!(got.len(), 10);
        for (i, (id, req)) in got.iter().enumerate() {
            assert_eq!(*id, i as u64);
            assert_eq!(*req, Request::Update { product: i as u32, delta: 1 });
        }
        dec.finish().unwrap();
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut dec = Decoder::new();
        dec.extend(&[0u8; HEADER_LEN]);
        assert_eq!(dec.next_request(), Err(WireError::BadMagic { got: 0 }));
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut buf = BytesMut::new();
        encode_request(1, &Request::Ping, &mut buf);
        buf[2] = 9;
        let mut dec = Decoder::new();
        dec.extend(&buf);
        assert_eq!(dec.next_request(), Err(WireError::UnsupportedVersion { got: 9 }));
    }

    #[test]
    fn oversized_length_rejected_from_header_alone() {
        let mut buf = BytesMut::new();
        put_frame(&mut buf, 1, |_| 0x01).unwrap();
        // Rewrite the length field to an absurd value with no payload
        // following: the decoder must fail now, not wait for 4 GiB.
        let huge = (MAX_PAYLOAD + 1).to_be_bytes();
        buf[12..16].copy_from_slice(&huge);
        let mut dec = Decoder::new();
        dec.extend(&buf);
        assert_eq!(
            dec.next_request(),
            Err(WireError::FrameTooLarge { len: MAX_PAYLOAD + 1 })
        );
    }

    #[test]
    fn unknown_kind_carries_req_id() {
        let mut buf = BytesMut::new();
        put_frame(&mut buf, 42, |_| 0x6F).unwrap();
        let mut dec = Decoder::new();
        dec.extend(&buf);
        assert_eq!(
            dec.next_request(),
            Err(WireError::UnknownKind { kind: 0x6F, req_id: 42 })
        );
    }

    #[test]
    fn short_payload_is_bad_payload() {
        let mut buf = BytesMut::new();
        put_frame(&mut buf, 3, |out| {
            out.put_u32(9); // Update needs 12 bytes; only 4 arrive.
            0x01
        })
        .unwrap();
        let mut dec = Decoder::new();
        dec.extend(&buf);
        assert!(matches!(dec.next_request(), Err(WireError::BadPayload { kind: 0x01, .. })));
    }

    #[test]
    fn oversized_response_goes_out_as_an_error() {
        let mut buf = BytesMut::new();
        let json = "x".repeat(MAX_PAYLOAD as usize + 1);
        encode_response(4, &Response::StatusOk { json }, &mut buf);
        let mut dec = Decoder::new();
        dec.extend(&buf);
        let (id, resp) = dec.next_response().unwrap().unwrap();
        assert_eq!(id, 4);
        assert!(matches!(resp, Response::Error { code: ErrorCode::Unavailable, .. }), "{resp:?}");
        dec.finish().unwrap();
    }

    #[test]
    fn mid_frame_disconnect_is_truncated() {
        let mut buf = BytesMut::new();
        encode_request(1, &Request::Update { product: 1, delta: 2 }, &mut buf);
        let cut = buf.len() - 3;
        let mut dec = Decoder::new();
        dec.extend(&buf[..cut]);
        assert_eq!(dec.next_request(), Ok(None));
        assert_eq!(dec.finish(), Err(WireError::Truncated { dangling: cut }));
    }
}
