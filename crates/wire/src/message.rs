//! Kind-specific payload encodings.
//!
//! Fixed-layout big-endian fields; strings ride as raw UTF-8 tails whose
//! length is implied by the frame header, except [`Response::Aborted`]
//! where the detail string follows fixed fields and is the remainder of
//! the payload. Every decoder validates the exact expected length —
//! short *and* trailing bytes are both `BadPayload`.

use crate::{Reader, WireError};
use bytes::{BufMut, BytesMut};

// Request kinds.
const K_UPDATE: u8 = 0x01;
const K_READ: u8 = 0x02;
const K_STATUS: u8 = 0x03;
const K_PING: u8 = 0x04;

// Response kinds.
const K_COMMITTED: u8 = 0x81;
const K_ABORTED: u8 = 0x82;
const K_READ_OK: u8 = 0x83;
const K_STATUS_OK: u8 = 0x84;
const K_PONG: u8 = 0x85;
const K_ERROR: u8 = 0x86;

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Apply a signed stock delta to `product` at the gateway's site.
    Update {
        /// Product id.
        product: u32,
        /// Signed stock change.
        delta: i64,
    },
    /// Read a product's local stock and AV availability.
    Read {
        /// Product id.
        product: u32,
    },
    /// The site's full status snapshot (JSON).
    Status,
    /// Liveness probe.
    Ping,
}

/// Which commit protocol served an update (mirrors the core's
/// `UpdateKind` without depending on it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitKind {
    /// Escrow-covered Delay path.
    Delay,
    /// 2PC Immediate path.
    Immediate,
}

/// Wire-level abort classification (mirrors the core's `AbortReason`
/// discriminants; the human-readable detail rides alongside).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortCode {
    /// Any reason this protocol revision does not classify.
    Other = 0,
    /// Delay path ran out of obtainable AV.
    InsufficientAv = 1,
    /// An Immediate participant voted no.
    PrepareFailed = 2,
    /// An Immediate participant was unreachable.
    SiteUnavailable = 3,
    /// The delta would drive stock negative.
    NegativeStock = 4,
    /// Product not in the catalog.
    UnknownProduct = 5,
    /// Multi-item update touched a non-Delay product.
    NotDelayEligible = 6,
    /// Explicitly rolled back.
    RolledBack = 7,
}

impl AbortCode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => AbortCode::Other,
            1 => AbortCode::InsufficientAv,
            2 => AbortCode::PrepareFailed,
            3 => AbortCode::SiteUnavailable,
            4 => AbortCode::NegativeStock,
            5 => AbortCode::UnknownProduct,
            6 => AbortCode::NotDelayEligible,
            7 => AbortCode::RolledBack,
            _ => return None,
        })
    }
}

/// Typed protocol-level error codes carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame could not be decoded; the connection closes
    /// after this response (framing is no longer trustworthy).
    Malformed = 1,
    /// Frame version not spoken by this gateway.
    UnsupportedVersion = 2,
    /// Well-framed request of a kind this gateway does not serve. The
    /// connection survives (framing is intact).
    UnsupportedKind = 3,
    /// The site's connection cap was reached; retry elsewhere/later.
    AdmissionRefused = 4,
    /// The connection pipelined past its in-flight window.
    OverWindow = 5,
    /// The connection was shed (persistent window violations or an
    /// unwritable socket); no further responses will arrive.
    Shed = 6,
    /// The site could not answer (introspection unavailable).
    Unavailable = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnsupportedKind,
            4 => ErrorCode::AdmissionRefused,
            5 => ErrorCode::OverWindow,
            6 => ErrorCode::Shed,
            7 => ErrorCode::Unavailable,
            _ => return None,
        })
    }
}

/// A gateway response. `req_id` correlation lives in the frame header;
/// these are the payloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The update committed.
    Committed {
        /// Transaction id assigned by the site.
        txn: u64,
        /// Protocol that served it.
        kind: CommitKind,
        /// Site-local completion tick.
        completed_at: u64,
        /// Correspondences the update cost at the origin.
        correspondences: u64,
    },
    /// The update aborted.
    Aborted {
        /// Transaction id assigned by the site.
        txn: u64,
        /// Typed abort class.
        code: AbortCode,
        /// Correspondences spent before giving up.
        correspondences: u64,
        /// Human-readable reason.
        detail: String,
    },
    /// Read result.
    ReadOk {
        /// Product id.
        product: u32,
        /// Local committed stock.
        stock: i64,
        /// Whether an AV (escrow) row is defined at this site.
        av_defined: bool,
        /// Unheld AV immediately available (0 when undefined).
        av_available: i64,
    },
    /// Status snapshot.
    StatusOk {
        /// The site's `/status` JSON document.
        json: String,
    },
    /// Liveness reply.
    Pong,
    /// Typed protocol-level failure.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

pub(crate) fn encode_request_payload(req: &Request, out: &mut BytesMut) -> u8 {
    match req {
        Request::Update { product, delta } => {
            out.put_u32(*product);
            out.put_u64(*delta as u64);
            K_UPDATE
        }
        Request::Read { product } => {
            out.put_u32(*product);
            K_READ
        }
        Request::Status => K_STATUS,
        Request::Ping => K_PING,
    }
}

pub(crate) fn encode_response_payload(resp: &Response, out: &mut BytesMut) -> u8 {
    match resp {
        Response::Committed { txn, kind, completed_at, correspondences } => {
            out.put_u64(*txn);
            out.put_u8(match kind {
                CommitKind::Delay => 0,
                CommitKind::Immediate => 1,
            });
            out.put_u64(*completed_at);
            out.put_u64(*correspondences);
            K_COMMITTED
        }
        Response::Aborted { txn, code, correspondences, detail } => {
            out.put_u64(*txn);
            out.put_u8(*code as u8);
            out.put_u64(*correspondences);
            out.put_slice(detail.as_bytes());
            K_ABORTED
        }
        Response::ReadOk { product, stock, av_defined, av_available } => {
            out.put_u32(*product);
            out.put_u64(*stock as u64);
            out.put_u8(u8::from(*av_defined));
            out.put_u64(*av_available as u64);
            K_READ_OK
        }
        Response::StatusOk { json } => {
            out.put_slice(json.as_bytes());
            K_STATUS_OK
        }
        Response::Pong => K_PONG,
        Response::Error { code, detail } => {
            out.put_u8(*code as u8);
            out.put_slice(detail.as_bytes());
            K_ERROR
        }
    }
}

pub(crate) fn decode_request_payload(
    kind: u8,
    req_id: u64,
    payload: &[u8],
) -> Result<Request, WireError> {
    let mut c = Reader::new(kind, payload);
    let req = match kind {
        K_UPDATE => Request::Update {
            product: c.u32("product")?,
            delta: c.i64("delta")?,
        },
        K_READ => Request::Read { product: c.u32("product")? },
        K_STATUS => Request::Status,
        K_PING => Request::Ping,
        other => return Err(WireError::UnknownKind { kind: other, req_id }),
    };
    c.done()?;
    Ok(req)
}

pub(crate) fn decode_response_payload(
    kind: u8,
    req_id: u64,
    payload: &[u8],
) -> Result<Response, WireError> {
    let mut c = Reader::new(kind, payload);
    let resp = match kind {
        K_COMMITTED => Response::Committed {
            txn: c.u64("txn")?,
            kind: match c.u8("commit kind")? {
                0 => CommitKind::Delay,
                1 => CommitKind::Immediate,
                _ => {
                    return Err(WireError::BadPayload { kind, detail: "bad commit kind" });
                }
            },
            completed_at: c.u64("completed_at")?,
            correspondences: c.u64("correspondences")?,
        },
        K_ABORTED => Response::Aborted {
            txn: c.u64("txn")?,
            code: AbortCode::from_u8(c.u8("abort code")?)
                .ok_or(WireError::BadPayload { kind, detail: "bad abort code" })?,
            correspondences: c.u64("correspondences")?,
            detail: c.rest_utf8()?,
        },
        K_READ_OK => Response::ReadOk {
            product: c.u32("product")?,
            stock: c.i64("stock")?,
            av_defined: c.bool("av_defined")?,
            av_available: c.i64("av_available")?,
        },
        K_STATUS_OK => Response::StatusOk { json: c.rest_utf8()? },
        K_PONG => Response::Pong,
        K_ERROR => Response::Error {
            code: ErrorCode::from_u8(c.u8("error code")?)
                .ok_or(WireError::BadPayload { kind, detail: "bad error code" })?,
            detail: c.rest_utf8()?,
        },
        other => return Err(WireError::UnknownKind { kind: other, req_id }),
    };
    c.done()?;
    Ok(resp)
}
