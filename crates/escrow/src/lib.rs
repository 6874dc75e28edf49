#![warn(missing_docs)]

//! # avdb-escrow
//!
//! Allowable Volume (AV) management — the escrow substrate at the heart of
//! the paper's Delay Update.
//!
//! The AV is "defined on each numeric data in each local DB"; a site may
//! update a datum with no communication as long as its local AV covers the
//! change, and AV migrates between sites on demand. Three properties the
//! paper calls out are enforced here:
//!
//! * **Holds are not exclusive locks** (§3.3): a transaction holds only
//!   the volume it needs; concurrent transactions may consume disjoint
//!   parts of the same product's AV, and rollback returns the held volume
//!   by the opposite-delta rule.
//! * **Conservation**: AV is never created or destroyed by transfers —
//!   only moved — and stock-changing commits adjust AV by exactly the
//!   stock delta, keeping `Σ_sites AV = Σ committed stock` when the system
//!   starts with AV equal to stock.
//! * **Local knowledge only** (§3.4): the *selecting* function ranks peers
//!   by possibly-stale knowledge piggybacked on earlier AV traffic, never
//!   by global state.
//!
//! Modules: [`table`] (per-site AV accounting), [`knowledge`] (stale peer
//! views), [`strategy`] (selecting/deciding functions incl. the SODA '99
//! request-shortage/grant-half rule), [`probe`] (whether a blind shortage
//! round could still cover), [`ledger`] (transfer audit trail).

pub mod knowledge;
pub mod ledger;
pub mod probe;
pub mod strategy;
pub mod table;

pub use knowledge::{KnowledgeRow, PeerKnowledge};
pub use ledger::{TransferLedger, TransferRecord};
pub use probe::{next_probe, Probe, ProbeQuery};
pub use strategy::{
    make_decide, make_select, none_left_to_ask, partition_shortage, partition_shortage_expected,
    AskedSet, DecideStrategy, GrantAll, GrantDoubleShortage,
    GrantHalf, GrantShortage, LeastRecentlyAsked, MostKnownAv, RandomSelect, RoundRobin,
    SelectStrategy,
};
pub use table::{AvEntry, AvSnapshot, AvTable};
