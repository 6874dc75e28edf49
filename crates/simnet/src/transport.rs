//! The inter-site frame codec [`crate::TcpMesh`] speaks: one protocol
//! message per `avdb-wire` frame ([`encode_frame`]/[`decode_frame`]) —
//! the client protocol's 16-byte header, typed [`WireError`] and 1 MiB
//! cap, around a fixed-layout binary payload the message type defines
//! through [`MeshCodec`].

use avdb_wire::{put_frame, split_frame, WireError};
use bytes::{Buf, BytesMut};

/// A message type the mesh can put on a socket. The payload layout is the
/// protocol's business; the framing is [`encode_frame`]'s.
pub trait MeshCodec: Sized {
    /// Appends the message's payload to `out` and returns its frame kind.
    fn encode(&self, out: &mut BytesMut) -> u8;

    /// Decodes the payload of a frame of `kind`. Every malformed payload
    /// is a typed error, never a panic.
    fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError>;
}

/// Appends one message as a frame to `buf`. Fails, leaving `buf` as it
/// was, only when the payload exceeds the frame cap.
pub fn encode_frame<M: MeshCodec>(msg: &M, buf: &mut BytesMut) -> Result<(), WireError> {
    put_frame(buf, 0, |out| msg.encode(out))
}

/// Decodes the frame at the front of `bytes`, returning the message and
/// the bytes it spanned; `Ok(None)` while the frame is incomplete.
pub(crate) fn decode_prefix<M: MeshCodec>(bytes: &[u8]) -> Result<Option<(M, usize)>, WireError> {
    let Some(frame) = split_frame(bytes)? else { return Ok(None) };
    Ok(Some((M::decode(frame.kind, frame.payload)?, frame.wire_len())))
}

/// Decodes one frame from `buf` if a complete one is available, consuming
/// its bytes. Returns `Ok(None)` when more bytes are needed. A stream
/// that fails to decode is no longer trustworthy; `buf` is left as it was.
pub fn decode_frame<M: MeshCodec>(buf: &mut BytesMut) -> Result<Option<M>, WireError> {
    let Some((msg, len)) = decode_prefix(buf)? else { return Ok(None) };
    buf.advance(len);
    Ok(Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_wire::Reader;
    use bytes::BufMut;

    #[derive(Debug, PartialEq)]
    struct Wire {
        seq: u64,
        body: String,
    }

    impl MeshCodec for Wire {
        fn encode(&self, out: &mut BytesMut) -> u8 {
            out.put_u64(self.seq);
            out.put_slice(self.body.as_bytes());
            0x41
        }
        fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
            let mut r = Reader::new(kind, payload);
            Ok(Wire { seq: r.u64("seq")?, body: r.rest_utf8()? })
        }
    }

    #[test]
    fn codec_round_trips_multiple_frames() {
        let mut buf = BytesMut::new();
        let a = Wire { seq: 1, body: "hello".into() };
        let b = Wire { seq: 2, body: "world".into() };
        encode_frame(&a, &mut buf).unwrap();
        encode_frame(&b, &mut buf).unwrap();
        let got_a: Wire = decode_frame(&mut buf).unwrap().unwrap();
        let got_b: Wire = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(got_a, a);
        assert_eq!(got_b, b);
        assert!(decode_frame::<Wire>(&mut buf).unwrap().is_none());
        assert!(buf.is_empty());
    }

    #[test]
    fn codec_handles_partial_frames() {
        let mut full = BytesMut::new();
        encode_frame(&Wire { seq: 9, body: "partial".into() }, &mut full).unwrap();
        let mut buf = BytesMut::new();
        for chunk in full.chunks(3) {
            // Before the frame completes, decode returns None.
            let before: Option<Wire> = decode_frame(&mut buf).unwrap();
            if buf.len() + chunk.len() < full.len() {
                assert!(before.is_none());
            }
            buf.extend_from_slice(chunk);
        }
        let decoded: Wire = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(decoded.seq, 9);
    }

    #[test]
    fn codec_rejects_garbage_payload() {
        let mut buf = BytesMut::new();
        encode_frame(&Wire { seq: 3, body: String::new() }, &mut buf).unwrap();
        buf.truncate(buf.len() - 1);
        buf[15] -= 1; // the length field now frames a 7-byte payload
        let err = decode_frame::<Wire>(&mut buf).unwrap_err();
        assert_eq!(err, WireError::BadPayload { kind: 0x41, detail: "seq" });
    }

    #[test]
    fn oversized_message_is_refused_and_leaves_the_buffer_alone() {
        let mut buf = BytesMut::new();
        encode_frame(&Wire { seq: 1, body: "kept".into() }, &mut buf).unwrap();
        let before = buf.clone();
        let huge = Wire { seq: 2, body: "x".repeat(avdb_wire::MAX_PAYLOAD as usize) };
        let err = encode_frame(&huge, &mut buf).unwrap_err();
        assert_eq!(err, WireError::FrameTooLarge { len: avdb_wire::MAX_PAYLOAD + 8 });
        assert_eq!(buf, before);
    }
}
