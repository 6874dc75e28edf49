//! One connection's protocol rules, with no socket and no thread: the
//! in-flight window and its strikes, which tag answers which request,
//! the typed error for each fault, and the frames encoded but not yet
//! written. Its site's thread owns it and does the I/O.

use crate::{GatewayConfig, Stats};
use avdb_core::Accelerator;
use avdb_types::{AbortReason, ProductId, UpdateKind, UpdateOutcome};
use avdb_wire::{encode_response, AbortCode, CommitKind, ErrorCode, Request, Response, WireError};
use bytes::{Buf, BytesMut};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;

/// Encoded frames are written at once, not at the end of the loop turn,
/// once they are this large.
const MAX_COALESCED_WRITE: usize = 64 * 1024;

/// A correlation tag is the connection id in the high 32 bits and the
/// connection's own update count in the low 32, so the site thread finds
/// the connection from the tag alone.
pub(crate) fn conn_of(tag: u64) -> u64 {
    tag >> 32
}

/// What the site does after the session ruled on a frame.
#[derive(Debug, PartialEq)]
pub(crate) enum Next {
    /// Nothing beyond the reply, if any, already encoded.
    Continue,
    /// Inject the update: its window slot is held under `tag`.
    Inject { tag: u64, product: u32, delta: i64 },
    /// Answer with [`read_response`], run on the site's accelerator.
    Read { req_id: u64, product: u32 },
    /// Answer with the site's `/status` JSON.
    Status { req_id: u64 },
    /// Write what is encoded, then shed the connection.
    Close,
}

pub(crate) struct Session {
    window: usize,
    shed_after: usize,
    /// Frames held unwritten before a write is due (`queue_slack`).
    slack: u64,
    strikes: usize,
    /// Tag → request id of every update in flight.
    in_flight: HashMap<u64, u64>,
    conn: u64,
    seq: u32,
    out: BytesMut,
    frames: u64,
}

impl Session {
    pub(crate) fn new(conn: u64, cfg: &GatewayConfig) -> Session {
        Session {
            window: cfg.max_in_flight,
            shed_after: cfg.shed_after,
            slack: cfg.queue_slack.max(1) as u64,
            strikes: 0,
            in_flight: HashMap::new(),
            conn,
            seq: 0,
            out: BytesMut::new(),
            frames: 0,
        }
    }

    /// Rules on one decoded request. Pipelining past the window earns a
    /// typed `OverWindow` and a strike, and `shed_after` strikes shed the
    /// connection: the deterministic slow-client rule (DESIGN.md §14).
    pub(crate) fn request(&mut self, req_id: u64, req: Request, stats: &Stats) -> Next {
        match req {
            Request::Update { .. } if self.in_flight.len() >= self.window => {
                stats.over_window.fetch_add(1, Relaxed);
                self.strikes += 1;
                if self.strikes >= self.shed_after {
                    let shed = error(ErrorCode::Shed, "persistent in-flight window violation");
                    self.reply(req_id, &shed);
                    return Next::Close;
                }
                let over = error(ErrorCode::OverWindow, format!("window {}", self.window));
                self.reply(req_id, &over);
                Next::Continue
            }
            Request::Update { product, delta } => {
                stats.updates.fetch_add(1, Relaxed);
                let tag = self.conn << 32 | u64::from(self.seq);
                self.seq = self.seq.wrapping_add(1);
                self.in_flight.insert(tag, req_id);
                Next::Inject { tag, product, delta }
            }
            Request::Read { product } => {
                stats.reads.fetch_add(1, Relaxed);
                Next::Read { req_id, product }
            }
            Request::Status => {
                stats.statuses.fetch_add(1, Relaxed);
                Next::Status { req_id }
            }
            Request::Ping => {
                stats.pings.fetch_add(1, Relaxed);
                self.reply(req_id, &Response::Pong);
                Next::Continue
            }
        }
    }

    /// Answers a frame the decoder refused. An unknown kind leaves the
    /// framing intact, so the connection lives; after header-level damage
    /// it can no longer be trusted and is closed.
    pub(crate) fn refused(&mut self, err: WireError, stats: &Stats) -> Next {
        stats.malformed.fetch_add(1, Relaxed);
        match err {
            WireError::UnknownKind { kind, req_id } => {
                let unknown = error(ErrorCode::UnsupportedKind, format!("kind 0x{kind:02X}"));
                self.reply(req_id, &unknown);
                Next::Continue
            }
            err => {
                let code = match err {
                    WireError::UnsupportedVersion { .. } => ErrorCode::UnsupportedVersion,
                    _ => ErrorCode::Malformed,
                };
                self.reply(0, &error(code, err.to_string()));
                Next::Close
            }
        }
    }

    /// Encodes the response to `req_id`.
    pub(crate) fn reply(&mut self, req_id: u64, resp: &Response) {
        encode_response(req_id, resp, &mut self.out);
        self.frames += 1;
    }

    /// Encodes the response to the update `outcome` answers and frees its
    /// window slot; `false` for an untagged outcome or another
    /// connection's.
    pub(crate) fn complete(&mut self, outcome: &UpdateOutcome) -> bool {
        let Some(req_id) = outcome.client().and_then(|tag| self.in_flight.remove(&tag)) else {
            return false;
        };
        self.reply(req_id, &outcome_response(outcome));
        true
    }

    /// Whether the encoded frames must be written now rather than at the
    /// end of the loop turn.
    pub(crate) fn due(&self) -> bool {
        self.frames >= self.slack || self.out.len() >= MAX_COALESCED_WRITE
    }

    /// The bytes encoded and not yet written, and how many frames they
    /// hold or finish.
    pub(crate) fn unwritten(&self) -> (&[u8], u64) {
        (&self.out, self.frames)
    }

    /// Forgets the first `n` unwritten bytes, which a write took. Once
    /// none are left, returns how many frames went out.
    pub(crate) fn wrote(&mut self, n: usize) -> Option<u64> {
        self.out.advance(n);
        (self.out.is_empty()).then(|| std::mem::take(&mut self.frames))
    }
}

pub(crate) fn error(code: ErrorCode, detail: impl Into<String>) -> Response {
    Response::Error { code, detail: detail.into() }
}

/// Answers a Read from the site's accelerator: the product's local
/// stock and AV. Run on the site's thread, between handlers.
pub(crate) fn read_response(acc: &Accelerator, product: u32) -> Response {
    let p = ProductId(product);
    let Ok(stock) = acc.db().stock(p) else {
        return error(ErrorCode::Unavailable, format!("product {product} not readable here"));
    };
    let av_defined = acc.av().is_defined(p);
    let av_available = if av_defined { acc.av().available(p).get() } else { 0 };
    Response::ReadOk { product, stock: stock.get(), av_defined, av_available }
}

/// Maps a core outcome onto the wire.
fn outcome_response(outcome: &UpdateOutcome) -> Response {
    match outcome {
        UpdateOutcome::Committed { txn, kind, completed_at, correspondences, .. } => {
            Response::Committed {
                txn: txn.0,
                kind: match kind {
                    UpdateKind::Delay => CommitKind::Delay,
                    UpdateKind::Immediate => CommitKind::Immediate,
                },
                completed_at: completed_at.ticks(),
                correspondences: *correspondences,
            }
        }
        UpdateOutcome::Aborted { txn, reason, correspondences, .. } => Response::Aborted {
            txn: txn.0,
            code: abort_code(reason),
            correspondences: *correspondences,
            detail: reason.to_string(),
        },
    }
}

fn abort_code(reason: &AbortReason) -> AbortCode {
    use AbortReason as R;
    match reason {
        R::InsufficientAv { .. } => AbortCode::InsufficientAv,
        R::PrepareFailed { .. } => AbortCode::PrepareFailed,
        R::SiteUnavailable { .. } => AbortCode::SiteUnavailable,
        R::NegativeStock => AbortCode::NegativeStock,
        R::UnknownProduct => AbortCode::UnknownProduct,
        R::NotDelayEligible => AbortCode::NotDelayEligible,
        R::RolledBack => AbortCode::RolledBack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::{TxnId, VirtualTime};
    use avdb_wire::{Decoder, MAGIC};

    fn session(window: usize, shed_after: usize) -> (Session, Stats) {
        let cfg = GatewayConfig { max_in_flight: window, shed_after, ..GatewayConfig::default() };
        (Session::new(7, &cfg), Stats::default())
    }

    /// Decodes and forgets what the session has encoded so far, as
    /// (request id, error code or response kind).
    fn written(s: &mut Session) -> Vec<(u64, String)> {
        let mut dec = Decoder::new();
        let (out, frames) = s.unwritten();
        let n = out.len();
        dec.extend(out);
        assert_eq!(s.wrote(n), Some(frames));
        std::iter::from_fn(|| dec.next_response().expect("well-formed"))
            .map(|(id, r)| match r {
                Response::Error { code, .. } => (id, format!("{code:?}")),
                r => (id, format!("{r:?}").split([' ', '{']).next().unwrap_or("").to_string()),
            })
            .collect()
    }

    fn update(s: &mut Session, req_id: u64, stats: &Stats) -> u64 {
        match s.request(req_id, Request::Update { product: 1, delta: -1 }, stats) {
            Next::Inject { tag, .. } => tag,
            other => panic!("{other:?}"),
        }
    }

    fn committed(client: Option<u64>) -> UpdateOutcome {
        let (txn, kind, completed_at) = (TxnId(42), UpdateKind::Delay, VirtualTime(3));
        UpdateOutcome::Committed { txn, kind, completed_at, correspondences: 0, client }
    }

    #[test]
    fn window_strikes_earn_over_window_then_shed() {
        let (mut s, stats) = session(1, 2);
        update(&mut s, 1, &stats);
        let more = || Request::Update { product: 1, delta: -1 };
        assert_eq!(s.request(2, more(), &stats), Next::Continue);
        assert_eq!(s.request(3, more(), &stats), Next::Close);
        assert_eq!(written(&mut s), [(2, "OverWindow".into()), (3, "Shed".into())]);
        let snap = stats.snapshot();
        assert_eq!((snap.updates, snap.over_window), (1, 2));
    }

    #[test]
    fn unknown_kind_is_answered_and_the_connection_kept() {
        let (mut s, stats) = session(4, 4);
        let err = WireError::UnknownKind { kind: 0x7F, req_id: 777 };
        assert_eq!(s.refused(err, &stats), Next::Continue);
        assert_eq!(s.request(778, Request::Ping, &stats), Next::Continue);
        assert_eq!(written(&mut s), [(777, "UnsupportedKind".into()), (778, "Pong".into())]);
    }

    #[test]
    fn a_garbage_header_gets_a_typed_error_and_closes() {
        let mut bad_version = MAGIC.to_be_bytes().to_vec();
        bad_version.extend_from_slice(&[0xEE; 14]);
        for (bytes, want) in
            [(b"GET / HTTP/1.1\r\n\r\n".to_vec(), "Malformed"), (bad_version, "UnsupportedVersion")]
        {
            let (mut s, stats) = session(4, 4);
            let mut dec = Decoder::new();
            dec.extend(&bytes);
            assert_eq!(s.refused(dec.next_request().expect_err("garbage"), &stats), Next::Close);
            assert_eq!(written(&mut s), [(0, want.into())]);
        }
    }

    #[test]
    fn an_outcome_routes_by_tag_to_its_request() {
        let (mut s, stats) = session(2, 1);
        let first = update(&mut s, 10, &stats);
        let second = update(&mut s, 11, &stats);
        assert_eq!((conn_of(first), conn_of(second)), (7, 7));
        assert!(s.complete(&committed(Some(second))));
        assert!(!s.complete(&committed(Some(second))), "answered once");
        // The slot it held is free again.
        update(&mut s, 12, &stats);
        assert!(s.complete(&committed(Some(first))));
        assert_eq!(written(&mut s), [(11, "Committed".into()), (10, "Committed".into())]);
    }

    #[test]
    fn an_untagged_outcome_is_left_to_the_log() {
        let (mut s, stats) = session(2, 1);
        let tag = update(&mut s, 1, &stats);
        assert!(!s.complete(&committed(None)));
        assert!(!s.complete(&committed(Some(tag + (1 << 32)))), "another connection's tag");
        assert_eq!(s.unwritten(), (&[][..], 0));
    }
}
