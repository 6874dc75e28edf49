#![warn(missing_docs)]

//! Conformance oracle for the AV escrow protocol.
//!
//! Both transports in this workspace — the deterministic
//! [`avdb_simnet::Simulator`] and the socketed [`avdb_simnet::TcpMesh`] —
//! run the identical [`avdb_core::Accelerator`] actor. A live harness
//! hands the oracle its actors once [`avdb_simnet::Live::quiesce`] says
//! nothing is in flight. This crate provides the *transport-independent*
//! ground truth both are judged against:
//!
//! * [`SequentialModel`] — a single-site reference database that applies an
//!   update stream with no escrow and no replication, giving the stock a
//!   perfectly serialized system would reach.
//! * [`Observation`] — a bundle of everything a finished run can be asked to
//!   hand over: final per-site stocks, AV-table snapshots, transfer ledgers,
//!   network counters, the message trace (when recorded), and the request
//!   stream that produced it all.
//! * [`check`] — the invariant checker, producing a [`Report`] of every
//!   [`Violation`] found: conservation, convergence, non-negativity,
//!   accounting, ledger sanity, and message-causality (Figs. 3–5 request /
//!   response ordering).
//!
//! The `avdb-check` binary in the root crate sweeps seeds × site counts ×
//! fault schedules through this checker and minimizes any failure it finds.

mod check;
mod model;
mod observe;

pub use check::{check, Report, Violation};
pub use model::SequentialModel;
pub use observe::{Observation, SiteObservation, SubmittedRequest};
