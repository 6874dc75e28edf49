#![warn(missing_docs)]

//! # avdb-core
//!
//! The paper's contribution: the **accelerator** that gives every site
//! autonomous update authority over an integrated distributed database
//! with heterogeneous consistency requirements.
//!
//! Per site (Fig. 2) an accelerator owns the local DB
//! ([`avdb_storage::LocalDb`]) and the AV management table
//! ([`avdb_escrow::AvTable`]) and implements:
//!
//! * the **checking** function — classify an update as *Delay* (AV row
//!   defined) or *Immediate* (no AV row);
//! * **Delay Update** (Figs. 3–4) — commit locally against held AV with
//!   zero communication; on shortage, run the AV-transfer loop
//!   (select peer → request shortage → receive grant → repeat), and if the
//!   round limit exhausts, keep all accumulated AV and abort;
//! * **Immediate Update** (Fig. 5) — primary-copy commit: the requesting
//!   accelerator coordinates lock/ready/decision/done rounds across all
//!   sites and judges completion by the base site's acknowledgement;
//! * **lazy propagation** — committed Delay deltas stream to peers in
//!   configurable batches, acknowledged to keep the paper's
//!   2-messages-per-correspondence accounting exact;
//! * **fail-stop recovery** — on crash the volatile protocol state is
//!   lost, the WAL-backed local DB replays, AV holds of dead transactions
//!   return to availability, and unpropagated committed deltas are
//!   re-derived (modelled by the durable propagation buffer).
//!
//! The accelerator is an [`avdb_simnet::Actor`], so the identical protocol
//! code runs under the deterministic simulator (all experiments) and the
//! live TCP mesh.

pub mod accelerator;
mod codec;
pub mod knowledge;
pub mod persist;
pub mod protocol;
pub mod replication;
pub mod system;

pub use accelerator::{
    Accelerator, AcceleratorStats, StatusAvRow, StatusPeerRow, StatusSnapshot,
    WAL_CHECKPOINT_RECORDS,
};
pub use knowledge::KnowledgeExchange;
pub use persist::AcceleratorSnapshot;
pub use avdb_escrow::KnowledgeRow;
pub use protocol::{Input, Msg, PropagateDelta, ReplCheckpoint, TracedMsg};
pub use replication::{coalesce_deltas, Frame, ReplicationState};
pub use system::{export_from_accelerators, outcome_line, DistributedSystem};
