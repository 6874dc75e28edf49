//! The inter-site mesh's payload layout: [`TracedMsg`] as fixed-layout
//! big-endian binary, framed by `avdb-wire` through
//! [`avdb_simnet::transport::MeshCodec`].
//!
//! Each [`Msg`] variant is one frame kind (`0x41..=0x4A`, in
//! [`Msg::kind_index`] order). Every payload starts with the trace
//! context, then the variant's fields in declaration order:
//!
//! ```text
//! ctx          u8 tag (0 = none, 1 = some), then trace_id, parent_span,
//!              clock as u64 when present
//! TxnId        u64        ProductId, SiteId   u32
//! Volume, i64  i64        VirtualTime, u64    u64
//! bool         u8 (0 or 1)
//! Vec<T>       u32 count, then the elements
//! Option<T>    u8 tag (0 = none, 1 = some), then T when present
//! ```
//!
//! The decoder checks every tag, bool and count, and that the payload is
//! consumed exactly; a vector count the remaining payload cannot hold is
//! refused before anything is allocated for it.

use crate::protocol::{Msg, PropagateDelta, ReplCheckpoint, TracedMsg};
use avdb_escrow::KnowledgeRow;
use avdb_simnet::transport::MeshCodec;
use avdb_simnet::TraceContext;
use avdb_types::{ProductId, SiteId, TxnId, VirtualTime, Volume};
use avdb_wire::{Reader, WireError};
use bytes::{BufMut, BytesMut};

const K_AV_REQUEST: u8 = 0x41;
const K_AV_GRANT: u8 = 0x42;
const K_AV_PUSH: u8 = 0x43;
const K_AV_PUSH_ACK: u8 = 0x44;
const K_PROPAGATE: u8 = 0x45;
const K_PROPAGATE_ACK: u8 = 0x46;
const K_IMM_PREPARE: u8 = 0x47;
const K_IMM_VOTE: u8 = 0x48;
const K_IMM_DECISION: u8 = 0x49;
const K_IMM_DONE: u8 = 0x4A;

/// Encoded bytes of one [`PropagateDelta`].
const DELTA_LEN: usize = 8 + 4 + 8 + 8 + 1 + 8;
/// Encoded bytes of one [`KnowledgeRow`].
const ROW_LEN: usize = 4 + 4 + 8 + 8 + 8 + 8;

fn put_i64(out: &mut BytesMut, v: i64) {
    out.put_u64(v as u64);
}

fn put_bool(out: &mut BytesMut, v: bool) {
    out.put_u8(u8::from(v));
}

fn put_delta(out: &mut BytesMut, d: &PropagateDelta) {
    out.put_u64(d.txn.0);
    out.put_u32(d.product.0);
    put_i64(out, d.delta.0);
    out.put_u64(d.commit_span);
    put_bool(out, d.retained);
    out.put_u64(d.committed_at.0);
}

fn put_row(out: &mut BytesMut, k: &KnowledgeRow) {
    out.put_u32(k.site.0);
    out.put_u32(k.product.0);
    put_i64(out, k.av.0);
    out.put_u64(k.at.0);
    put_i64(out, k.rate);
    out.put_u64(k.rate_at.0);
}

impl MeshCodec for TracedMsg {
    fn encode(&self, out: &mut BytesMut) -> u8 {
        match &self.ctx {
            None => out.put_u8(0),
            Some(c) => {
                out.put_u8(1);
                out.put_u64(c.trace_id);
                out.put_u64(c.parent_span);
                out.put_u64(c.clock);
            }
        }
        match &self.msg {
            Msg::AvRequest { txn, product, amount, requester_av, requester_rate } => {
                out.put_u64(txn.0);
                out.put_u32(product.0);
                put_i64(out, amount.0);
                put_i64(out, requester_av.0);
                put_i64(out, *requester_rate);
                K_AV_REQUEST
            }
            Msg::AvGrant { txn, product, amount, grantor_av, grantor_rate } => {
                out.put_u64(txn.0);
                out.put_u32(product.0);
                put_i64(out, amount.0);
                put_i64(out, grantor_av.0);
                put_i64(out, *grantor_rate);
                K_AV_GRANT
            }
            Msg::AvPush { product, amount, pusher_av, pusher_rate } => {
                out.put_u32(product.0);
                put_i64(out, amount.0);
                put_i64(out, pusher_av.0);
                put_i64(out, *pusher_rate);
                K_AV_PUSH
            }
            Msg::AvPushAck { product, receiver_av, receiver_rate } => {
                out.put_u32(product.0);
                put_i64(out, receiver_av.0);
                put_i64(out, *receiver_rate);
                K_AV_PUSH_ACK
            }
            Msg::Propagate { offset, covers, coalesced, deltas, checkpoint, knowledge } => {
                out.put_u64(*offset);
                out.put_u64(*covers);
                put_bool(out, *coalesced);
                out.put_u32(deltas.len() as u32);
                deltas.iter().for_each(|d| put_delta(out, d));
                match checkpoint {
                    None => out.put_u8(0),
                    Some(c) => {
                        out.put_u8(1);
                        out.put_u64(c.upto);
                        out.put_u32(c.nets.len() as u32);
                        c.nets.iter().for_each(|n| put_i64(out, *n));
                        out.put_u64(c.as_of.0);
                    }
                }
                out.put_u32(knowledge.len() as u32);
                knowledge.iter().for_each(|k| put_row(out, k));
                K_PROPAGATE
            }
            Msg::PropagateAck { upto } => {
                out.put_u64(*upto);
                K_PROPAGATE_ACK
            }
            Msg::ImmPrepare { txn, product, delta } => {
                out.put_u64(txn.0);
                out.put_u32(product.0);
                put_i64(out, delta.0);
                K_IMM_PREPARE
            }
            Msg::ImmVote { txn, ready } => {
                out.put_u64(txn.0);
                put_bool(out, *ready);
                K_IMM_VOTE
            }
            Msg::ImmDecision { txn, commit, product, delta } => {
                out.put_u64(txn.0);
                put_bool(out, *commit);
                out.put_u32(product.0);
                put_i64(out, delta.0);
                K_IMM_DECISION
            }
            Msg::ImmDone { txn } => {
                out.put_u64(txn.0);
                K_IMM_DONE
            }
        }
    }

    fn decode(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(kind, payload);
        let ctx = match option_tag(&mut r, "ctx")? {
            false => None,
            true => Some(TraceContext {
                trace_id: r.u64("trace_id")?,
                parent_span: r.u64("parent_span")?,
                clock: r.u64("clock")?,
            }),
        };
        let msg = match kind {
            K_AV_REQUEST => Msg::AvRequest {
                txn: txn(&mut r)?,
                product: product(&mut r)?,
                amount: volume(&mut r, "amount")?,
                requester_av: volume(&mut r, "requester_av")?,
                requester_rate: r.i64("requester_rate")?,
            },
            K_AV_GRANT => Msg::AvGrant {
                txn: txn(&mut r)?,
                product: product(&mut r)?,
                amount: volume(&mut r, "amount")?,
                grantor_av: volume(&mut r, "grantor_av")?,
                grantor_rate: r.i64("grantor_rate")?,
            },
            K_AV_PUSH => Msg::AvPush {
                product: product(&mut r)?,
                amount: volume(&mut r, "amount")?,
                pusher_av: volume(&mut r, "pusher_av")?,
                pusher_rate: r.i64("pusher_rate")?,
            },
            K_AV_PUSH_ACK => Msg::AvPushAck {
                product: product(&mut r)?,
                receiver_av: volume(&mut r, "receiver_av")?,
                receiver_rate: r.i64("receiver_rate")?,
            },
            K_PROPAGATE => Msg::Propagate {
                offset: r.u64("offset")?,
                covers: r.u64("covers")?,
                coalesced: r.bool("coalesced")?,
                deltas: vec_of(&mut r, DELTA_LEN, delta)?.into(),
                checkpoint: match option_tag(&mut r, "checkpoint")? {
                    false => None,
                    true => Some(ReplCheckpoint {
                        upto: r.u64("upto")?,
                        nets: vec_of(&mut r, 8, |r| r.i64("net"))?,
                        as_of: VirtualTime(r.u64("as_of")?),
                    }),
                },
                knowledge: vec_of(&mut r, ROW_LEN, row)?,
            },
            K_PROPAGATE_ACK => Msg::PropagateAck { upto: r.u64("upto")? },
            K_IMM_PREPARE => Msg::ImmPrepare {
                txn: txn(&mut r)?,
                product: product(&mut r)?,
                delta: volume(&mut r, "delta")?,
            },
            K_IMM_VOTE => Msg::ImmVote { txn: txn(&mut r)?, ready: r.bool("ready")? },
            K_IMM_DECISION => Msg::ImmDecision {
                txn: txn(&mut r)?,
                commit: r.bool("commit")?,
                product: product(&mut r)?,
                delta: volume(&mut r, "delta")?,
            },
            K_IMM_DONE => Msg::ImmDone { txn: txn(&mut r)? },
            other => return Err(WireError::UnknownKind { kind: other, req_id: 0 }),
        };
        r.done()?;
        Ok(TracedMsg { ctx, msg })
    }
}

fn option_tag(r: &mut Reader<'_>, what: &'static str) -> Result<bool, WireError> {
    match r.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(r.bad("bad option tag")),
    }
}

fn txn(r: &mut Reader<'_>) -> Result<TxnId, WireError> {
    Ok(TxnId(r.u64("txn")?))
}

fn product(r: &mut Reader<'_>) -> Result<ProductId, WireError> {
    Ok(ProductId(r.u32("product")?))
}

fn volume(r: &mut Reader<'_>, what: &'static str) -> Result<Volume, WireError> {
    Ok(Volume(r.i64(what)?))
}

/// A `u32`-counted vector of elements at least `elem_len` bytes each.
fn vec_of<'a, T>(
    r: &mut Reader<'a>,
    elem_len: usize,
    mut elem: impl FnMut(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.count(elem_len)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(elem(r)?);
    }
    Ok(v)
}

fn delta(r: &mut Reader<'_>) -> Result<PropagateDelta, WireError> {
    Ok(PropagateDelta {
        txn: txn(r)?,
        product: product(r)?,
        delta: volume(r, "delta")?,
        commit_span: r.u64("commit_span")?,
        retained: r.bool("retained")?,
        committed_at: VirtualTime(r.u64("committed_at")?),
    })
}

fn row(r: &mut Reader<'_>) -> Result<KnowledgeRow, WireError> {
    Ok(KnowledgeRow {
        site: SiteId(r.u32("site")?),
        product: product(r)?,
        av: volume(r, "av")?,
        at: VirtualTime(r.u64("at")?),
        rate: r.i64("rate")?,
        rate_at: VirtualTime(r.u64("rate_at")?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_simnet::transport::{decode_frame, encode_frame};
    use avdb_wire::{put_frame, MAX_PAYLOAD};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn t() -> TxnId {
        TxnId::new(SiteId(2), 77)
    }

    fn delta(i: u64) -> PropagateDelta {
        PropagateDelta {
            txn: TxnId::new(SiteId(1), i),
            product: ProductId(i as u32 % 3),
            delta: Volume(if i.is_multiple_of(2) { -4 } else { i64::MAX }),
            commit_span: i * 11,
            retained: !i.is_multiple_of(2),
            committed_at: VirtualTime(i * 5),
        }
    }

    fn row(i: u32) -> KnowledgeRow {
        KnowledgeRow {
            site: SiteId(i),
            product: ProductId(i + 1),
            av: Volume(-9 * i as i64),
            at: VirtualTime(8),
            rate: i64::MIN,
            rate_at: VirtualTime(u64::MAX),
        }
    }

    fn propagate(
        deltas: Vec<PropagateDelta>,
        checkpoint: Option<ReplCheckpoint>,
        knowledge: Vec<KnowledgeRow>,
    ) -> Msg {
        Msg::Propagate { offset: 128, covers: 9, coalesced: true, deltas: deltas.into(), checkpoint, knowledge }
    }

    /// Every variant, with each optional part both absent and present
    /// and each vector both empty and full.
    fn every_msg() -> Vec<Msg> {
        let p = ProductId(u32::MAX);
        let ckpt = ReplCheckpoint { upto: 40, nets: vec![5, -2, i64::MIN], as_of: VirtualTime(9) };
        vec![
            Msg::AvRequest { txn: t(), product: p, amount: Volume(6_000), requester_av: Volume(-1), requester_rate: 12 },
            Msg::AvGrant { txn: t(), product: p, amount: Volume(0), grantor_av: Volume(9_000), grantor_rate: -3 },
            Msg::AvPush { product: p, amount: Volume(1), pusher_av: Volume(2), pusher_rate: 3 },
            Msg::AvPushAck { product: p, receiver_av: Volume(4), receiver_rate: i64::MAX },
            propagate(vec![], None, vec![]),
            propagate((0..5).map(delta).collect(), None, vec![]),
            propagate(vec![], Some(ReplCheckpoint { nets: vec![], ..ckpt.clone() }), vec![]),
            propagate((0..3).map(delta).collect(), Some(ckpt), (0..4).map(row).collect()),
            Msg::PropagateAck { upto: u64::MAX },
            Msg::ImmPrepare { txn: t(), product: p, delta: Volume(-5) },
            Msg::ImmVote { txn: t(), ready: true },
            Msg::ImmVote { txn: t(), ready: false },
            Msg::ImmDecision { txn: t(), commit: true, product: p, delta: Volume(-5) },
            Msg::ImmDecision { txn: t(), commit: false, product: p, delta: Volume(0) },
            Msg::ImmDone { txn: t() },
        ]
    }

    fn every_traced() -> Vec<TracedMsg> {
        let ctx = TraceContext::child(u64::MAX, 42, 7);
        every_msg()
            .into_iter()
            .flat_map(|msg| [TracedMsg::plain(msg.clone()), TracedMsg { ctx: Some(ctx), msg }])
            .collect()
    }

    fn encoded(m: &TracedMsg) -> BytesMut {
        let mut buf = BytesMut::new();
        encode_frame(m, &mut buf).unwrap();
        buf
    }

    /// A frame of `kind` around a hand-written payload.
    fn raw(kind: u8, payload: &[u8]) -> BytesMut {
        let mut buf = BytesMut::new();
        put_frame(&mut buf, 0, |out| {
            out.put_slice(payload);
            kind
        })
        .unwrap();
        buf
    }

    /// The payload of `m`'s frame, for editing.
    fn payload_of(m: &Msg) -> (u8, Vec<u8>) {
        let buf = encoded(&TracedMsg::plain(m.clone()));
        (buf[3], buf[avdb_wire::HEADER_LEN..].to_vec())
    }

    fn decode(mut buf: BytesMut) -> Result<Option<TracedMsg>, WireError> {
        decode_frame::<TracedMsg>(&mut buf)
    }

    #[test]
    fn every_variant_round_trips() {
        let mut kinds = std::collections::BTreeSet::new();
        for m in every_traced() {
            let buf = encoded(&m);
            kinds.insert((buf[3], m.msg.kind_index()));
            assert_eq!(decode(buf), Ok(Some(m)));
        }
        let expect: Vec<_> = (0..10).map(|i| (0x41 + i as u8, i)).collect();
        assert_eq!(kinds.into_iter().collect::<Vec<_>>(), expect, "one kind per variant, in order");
    }

    #[test]
    fn layout_is_fixed() {
        // 16-byte header + ctx tag + txn + ready.
        assert_eq!(encoded(&TracedMsg::plain(Msg::ImmVote { txn: t(), ready: true })).len(), 16 + 1 + 9);
        let five = TracedMsg {
            ctx: Some(TraceContext::root(1, 2)),
            msg: propagate((0..5).map(delta).collect(), None, vec![]),
        };
        // header, ctx, offset/covers/coalesced, 5 deltas, no checkpoint, no rows.
        assert_eq!(encoded(&five).len(), 16 + 25 + 17 + (4 + 5 * DELTA_LEN) + 1 + 4);
    }

    #[test]
    fn split_at_every_offset_yields_the_same_frames() {
        let msgs = every_traced();
        let mut stream = BytesMut::new();
        for m in &msgs {
            encode_frame(m, &mut stream).unwrap();
        }
        for cut in 0..=stream.len() {
            let mut buf = BytesMut::new();
            let mut got = Vec::new();
            for part in [&stream[..cut], &stream[cut..]] {
                buf.extend_from_slice(part);
                while let Some(m) = decode_frame::<TracedMsg>(&mut buf).unwrap() {
                    got.push(m);
                }
            }
            assert!(buf.is_empty(), "cut {cut}");
            assert_eq!(got, msgs, "cut {cut}");
        }
    }

    #[test]
    fn header_faults_are_typed() {
        let good = encoded(&TracedMsg::plain(Msg::ImmDone { txn: t() }));
        let mut bad = good.clone();
        bad[0] = 0x7B;
        assert_eq!(decode(bad), Err(WireError::BadMagic { got: 0x7BB1 }));
        let mut bad = good.clone();
        bad[2] = 9;
        assert_eq!(decode(bad), Err(WireError::UnsupportedVersion { got: 9 }));
        // The header alone condemns an oversized frame: nothing waits
        // for (or buffers) the megabyte it announces.
        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        bad.truncate(avdb_wire::HEADER_LEN);
        assert_eq!(decode(bad), Err(WireError::FrameTooLarge { len: MAX_PAYLOAD + 1 }));
        // Unknown kinds: past the mesh range, and a client-protocol kind.
        for kind in [0x4B, 0x01] {
            let mut bad = good.clone();
            bad[3] = kind;
            assert_eq!(decode(bad), Err(WireError::UnknownKind { kind, req_id: 0 }));
        }
    }

    #[test]
    fn payload_faults_are_typed() {
        let bad = |kind, detail| Err(WireError::BadPayload { kind, detail });
        let (kind, mut p) = payload_of(&Msg::ImmDone { txn: t() });
        p.pop();
        assert_eq!(decode(raw(kind, &p)), bad(kind, "txn"), "short payload");
        p.extend([0, 0]);
        assert_eq!(decode(raw(kind, &p)), bad(kind, "trailing payload bytes"));

        let (kind, mut p) = payload_of(&Msg::ImmVote { txn: t(), ready: true });
        *p.last_mut().unwrap() = 2;
        assert_eq!(decode(raw(kind, &p)), bad(kind, "bad bool"));
        p[0] = 2; // ctx tag
        assert_eq!(decode(raw(kind, &p)), bad(kind, "bad option tag"));

        let empty = propagate(vec![], None, vec![]);
        let (kind, mut p) = payload_of(&empty);
        let ckpt_tag = 1 + 8 + 8 + 1 + 4;
        p[ckpt_tag] = 7;
        assert_eq!(decode(raw(kind, &p)), bad(kind, "bad option tag"));
    }

    #[test]
    fn vector_count_beyond_the_payload_fails_before_allocating() {
        // A count of u32::MAX deltas would be a ~170 GB allocation; the
        // count check refuses it from the bytes that remain, which is why
        // the error names the count rather than a short element.
        let (kind, mut p) = payload_of(&propagate(vec![delta(0)], None, vec![]));
        let count = 1 + 8 + 8 + 1;
        p[count..count + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = WireError::BadPayload { kind, detail: "vector length exceeds payload" };
        assert_eq!(decode(raw(kind, &p)), Err(err.clone()));
        // One element more than the bytes that follow hold, too.
        p[count..count + 4].copy_from_slice(&2u32.to_be_bytes());
        assert_eq!(decode(raw(kind, &p)), Err(err));
    }

    #[test]
    fn an_unacked_range_past_the_frame_cap_reaches_the_peer_in_rounds() {
        use crate::replication::{ReplicationState, MAX_FRAME_COVERS};
        let (origin, peer) = (SiteId(0), SiteId(1));
        let total = 2 * MAX_FRAME_COVERS + 100;
        assert!(total as usize * DELTA_LEN > MAX_PAYLOAD as usize, "one frame would overrun the cap");
        let mut sender = ReplicationState::new(origin, 2);
        sender.set_checkpoint_threshold(total as usize);
        (0..total).for_each(|i| sender.record(PropagateDelta { delta: Volume(-1), ..delta(i) }));
        let mut receiver = ReplicationState::new(peer, 2);
        let mut rounds = 0;
        while let Some(f) = sender.take_unacked_frame(peer, false) {
            rounds += 1;
            let (offset, covers, coalesced, deltas) = (f.offset, f.covers, f.coalesced, f.deltas);
            let sent = propagate_frame(offset, covers, coalesced, deltas, f.checkpoint);
            let Ok(Some(TracedMsg { msg: Msg::Propagate { deltas, .. }, .. })) = decode(encoded(&sent))
            else {
                panic!("round {rounds} did not survive the codec");
            };
            let (upto, _) = receiver.apply_frame(origin, offset, covers, coalesced, deltas);
            sender.on_ack(peer, upto);
        }
        assert_eq!(rounds, 3);
        assert_eq!(receiver.applied_from(origin), total);
        assert!(sender.fully_acked());
    }

    fn propagate_frame(
        offset: u64,
        covers: u64,
        coalesced: bool,
        deltas: Arc<[PropagateDelta]>,
        checkpoint: Option<ReplCheckpoint>,
    ) -> TracedMsg {
        TracedMsg::plain(Msg::Propagate { offset, covers, coalesced, deltas, checkpoint, knowledge: vec![] })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        #[test]
        fn mutated_frames_never_panic(
            which in 0usize..30,
            at in any::<usize>(),
            byte in any::<u8>(),
            cut in any::<usize>(),
        ) {
            let msgs = every_traced();
            let mut buf = encoded(&msgs[which % msgs.len()]);
            let at = at % buf.len();
            buf[at] = byte;
            buf.truncate(buf.len() - cut % 4);
            let _ = decode(buf);
        }
    }
}
