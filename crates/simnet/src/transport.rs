//! The inter-site frame codec: a length-prefixed JSON frame per
//! protocol message ([`encode_frame`]/[`decode_frame`]), the wire format
//! [`crate::TcpMesh`] speaks between sites.

use avdb_types::AvdbError;
use bytes::{Buf, BufMut, BytesMut};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Encodes one message as a length-prefixed JSON frame into `buf`.
///
/// Frame layout: `u32` big-endian payload length, then the payload. JSON
/// keeps frames human-inspectable in traces; the framing layer is format-
/// agnostic.
pub fn encode_frame<M: Serialize>(msg: &M, buf: &mut BytesMut) -> Result<(), AvdbError> {
    let payload = serde_json::to_vec(msg).map_err(|e| AvdbError::Codec(e.to_string()))?;
    buf.reserve(4 + payload.len());
    buf.put_u32(payload.len() as u32);
    buf.put_slice(&payload);
    Ok(())
}

/// Decodes one frame from `buf` if a complete one is available, consuming
/// its bytes. Returns `Ok(None)` when more bytes are needed.
pub fn decode_frame<M: DeserializeOwned>(buf: &mut BytesMut) -> Result<Option<M>, AvdbError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(4);
    let payload = buf.split_to(len);
    serde_json::from_slice(&payload)
        .map(Some)
        .map_err(|e| AvdbError::Codec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Wire {
        seq: u64,
        body: String,
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
        buf.put_u32(3);
        buf.put_slice(b"{{{");
        let err = decode_frame::<Wire>(&mut buf).unwrap_err();
        assert!(matches!(err, AvdbError::Codec(_)));
    }
}
