//! The trace context piggybacked on every protocol message.
//!
//! A context names the *causal tree* a message belongs to (`trace_id`),
//! the span that caused the send (`parent_span`), and a Lamport clock so
//! cross-site span orderings are reconstructible even under the live
//! transports, where wall clocks are not comparable across threads.

use serde::{Deserialize, Serialize};

/// Causal metadata carried by one protocol message.
///
/// Minted at update submission, merged into the receiver's logical clock
/// on delivery, and re-attached (with a new parent span) to every message
/// the receiver sends on behalf of the same trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TraceContext {
    /// The causal tree this message belongs to. Update traces reuse the
    /// raw transaction id (`TxnId.0`), which is unique per run and
    /// survives persistence; auxiliary traces set [`AUX_TRACE_FLAG`].
    pub trace_id: u64,
    /// Span id of the operation that caused this send (`0` = root).
    pub parent_span: u64,
    /// Lamport clock at the sender when the message was handed over.
    pub clock: u64,
}

impl TraceContext {
    /// A context rooted at `trace_id` with no parent span.
    pub fn root(trace_id: u64, clock: u64) -> Self {
        TraceContext { trace_id, parent_span: 0, clock }
    }

    /// A context for a message sent on behalf of `parent_span`.
    pub fn child(trace_id: u64, parent_span: u64, clock: u64) -> Self {
        TraceContext { trace_id, parent_span, clock }
    }
}

/// High bit marking auxiliary traces — replication batches and autonomous
/// AV pushes, which have no originating transaction. Transaction ids
/// never set this bit (site ids are 32-bit, sequence numbers 40-bit), so
/// auxiliary trace ids can never collide with update trace ids.
pub const AUX_TRACE_FLAG: u64 = 1 << 63;

/// Bits reserved for the per-site sequence number in ids minted by one
/// site — the same split `TxnId` uses.
pub const SEQ_BITS: u32 = 40;

/// Mask of the per-site sequence bits: `id & SEQ_MASK` is the origin
/// sequence of a transaction or auxiliary trace id.
pub const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// Trace id for a site-local auxiliary root (replication flush, AV push):
/// `AUX_TRACE_FLAG | site << 40 | seq`.
pub fn aux_trace_id(site: u32, seq: u64) -> u64 {
    AUX_TRACE_FLAG | ((site as u64) << SEQ_BITS) | (seq & SEQ_MASK)
}

/// `true` when `trace_id` names an auxiliary trace rather than an update.
pub fn is_aux_trace(trace_id: u64) -> bool {
    trace_id & AUX_TRACE_FLAG != 0
}

/// The site that minted auxiliary trace `trace_id` — the only site that
/// may record its root span.
pub fn aux_trace_site(trace_id: u64) -> u32 {
    ((trace_id & !AUX_TRACE_FLAG) >> SEQ_BITS) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aux_ids_never_collide_with_txn_ids() {
        let txn_like = (3u64 << SEQ_BITS) | 17;
        let aux = aux_trace_id(3, 17);
        assert_ne!(txn_like, aux);
        assert!(is_aux_trace(aux));
        assert!(!is_aux_trace(txn_like));
        assert_eq!(aux_trace_site(aux), 3);
        assert_eq!(aux_trace_site(aux_trace_id(u32::MAX >> 9, 5)), u32::MAX >> 9);
    }

    #[test]
    fn context_roundtrips_through_json() {
        let ctx = TraceContext::child(42, 7, 99);
        let json = serde_json::to_string(&ctx).unwrap();
        let back: TraceContext = serde_json::from_str(&json).unwrap();
        assert_eq!(ctx, back);
    }

    #[test]
    fn root_has_no_parent() {
        let ctx = TraceContext::root(5, 1);
        assert_eq!(ctx.parent_span, 0);
    }
}
