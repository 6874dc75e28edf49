//! User-facing update requests and their outcomes.

use crate::ids::{SiteId, TxnId};
use crate::product::ProductId;
use crate::time::VirtualTime;
use crate::volume::Volume;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How an update was (or must be) processed — the result of the
/// accelerator's *checking* function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UpdateKind {
    /// AV row defined: autonomous local commit, lazy propagation (Fig. 3/4).
    Delay,
    /// No AV row: primary-copy commit across all sites (Fig. 5).
    Immediate,
}

impl fmt::Display for UpdateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateKind::Delay => write!(f, "delay"),
            UpdateKind::Immediate => write!(f, "immediate"),
        }
    }
}

/// A user update submitted to a site's accelerator: "change the stock of
/// `product` by `delta`".
///
/// Positive `delta` models manufacturing/replenishment; negative models a
/// sale or shipment. The accelerator, not the user, decides whether this
/// becomes a Delay or an Immediate update.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateRequest {
    /// Site at which the user submitted the request.
    pub site: SiteId,
    /// Product whose stock is updated.
    pub product: ProductId,
    /// Signed stock change.
    pub delta: Volume,
}

impl UpdateRequest {
    /// Convenience constructor.
    pub fn new(site: SiteId, product: ProductId, delta: Volume) -> Self {
        UpdateRequest { site, product, delta }
    }
}

impl fmt::Display for UpdateRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}: {:+}", self.product, self.site, self.delta.get())
    }
}

/// Reason an update could not be committed.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortReason {
    /// Delay path: local AV plus everything obtainable from peers was still
    /// short of the requested decrement. All accumulated AV was retained
    /// locally (paper §3.3: "Otherwise, all accumulated AV is stored in the
    /// local AV table").
    InsufficientAv {
        /// How much was still missing when the accelerator gave up.
        shortfall: Volume,
    },
    /// Immediate path: a participant could not prepare (e.g. lock conflict).
    PrepareFailed {
        /// The participant that voted no.
        site: SiteId,
    },
    /// Immediate path: a required participant is unreachable / crashed.
    SiteUnavailable {
        /// The unreachable participant.
        site: SiteId,
    },
    /// The stock value would become negative and the engine rejects it.
    NegativeStock,
    /// The product does not exist in the catalog.
    UnknownProduct,
    /// A multi-item Delay transaction referenced a product outside the
    /// Delay (AV-managed) regime.
    NotDelayEligible,
    /// The transaction was explicitly rolled back (fault injection, tests).
    RolledBack,
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::InsufficientAv { shortfall } => {
                write!(f, "insufficient AV (short {shortfall})")
            }
            AbortReason::PrepareFailed { site } => write!(f, "prepare failed at {site}"),
            AbortReason::SiteUnavailable { site } => write!(f, "{site} unavailable"),
            AbortReason::NegativeStock => write!(f, "stock would go negative"),
            AbortReason::UnknownProduct => write!(f, "unknown product"),
            AbortReason::NotDelayEligible => {
                write!(f, "multi-item update touches a non-Delay product")
            }
            AbortReason::RolledBack => write!(f, "rolled back"),
        }
    }
}

/// Completed fate of one [`UpdateRequest`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateOutcome {
    /// The update committed.
    Committed {
        /// Transaction id assigned by the originating accelerator.
        txn: TxnId,
        /// Protocol that was used.
        kind: UpdateKind,
        /// Virtual time at which the originating site considered the update
        /// complete (for Delay updates this is *before* propagation — the
        /// real-time property the retailers require).
        completed_at: VirtualTime,
        /// Number of correspondences this update cost at the origin
        /// (0 for a purely local Delay commit).
        correspondences: u64,
        /// Correlation tag of the client request that triggered the
        /// update (`None` for harness-injected updates). Stamped by the
        /// accelerator so a gateway can route the outcome back to the
        /// submitting connection regardless of completion order.
        client: Option<u64>,
    },
    /// The update aborted.
    Aborted {
        /// Transaction id assigned by the originating accelerator.
        txn: TxnId,
        /// Why it aborted.
        reason: AbortReason,
        /// Correspondences spent before giving up.
        correspondences: u64,
        /// Correlation tag of the client request (see `Committed::client`).
        client: Option<u64>,
    },
}

impl UpdateOutcome {
    /// `true` if the update committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, UpdateOutcome::Committed { .. })
    }

    /// The transaction id regardless of fate.
    pub fn txn(&self) -> TxnId {
        match self {
            UpdateOutcome::Committed { txn, .. } | UpdateOutcome::Aborted { txn, .. } => *txn,
        }
    }

    /// Correspondences charged to this update at its origin.
    pub fn correspondences(&self) -> u64 {
        match self {
            UpdateOutcome::Committed { correspondences, .. }
            | UpdateOutcome::Aborted { correspondences, .. } => *correspondences,
        }
    }

    /// The client correlation tag, if the update entered through a
    /// gateway (`Input::ClientUpdate`).
    pub fn client(&self) -> Option<u64> {
        match self {
            UpdateOutcome::Committed { client, .. }
            | UpdateOutcome::Aborted { client, .. } => *client,
        }
    }

    /// Returns the outcome with its client correlation tag replaced.
    pub fn with_client(mut self, tag: Option<u64>) -> Self {
        match &mut self {
            UpdateOutcome::Committed { client, .. }
            | UpdateOutcome::Aborted { client, .. } => *client = tag,
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn() -> TxnId {
        TxnId::new(SiteId(1), 3)
    }

    #[test]
    fn outcome_accessors() {
        let ok = UpdateOutcome::Committed {
            txn: txn(),
            kind: UpdateKind::Delay,
            completed_at: VirtualTime::ZERO,
            correspondences: 0,
            client: None,
        };
        assert!(ok.is_committed());
        assert_eq!(ok.txn(), txn());
        assert_eq!(ok.correspondences(), 0);

        let bad = UpdateOutcome::Aborted {
            txn: txn(),
            reason: AbortReason::NegativeStock,
            correspondences: 2,
            client: Some(7),
        };
        assert!(!bad.is_committed());
        assert_eq!(bad.correspondences(), 2);
        assert_eq!(ok.client(), None);
        assert_eq!(bad.client(), Some(7));
        assert_eq!(ok.clone().with_client(Some(9)).client(), Some(9));
    }

    #[test]
    fn request_display_shows_sign() {
        let r = UpdateRequest::new(SiteId(1), ProductId(0), Volume(-30));
        assert_eq!(r.to_string(), "product0@site1: -30");
        let r = UpdateRequest::new(SiteId(0), ProductId(2), Volume(12));
        assert_eq!(r.to_string(), "product2@site0: +12");
    }

    #[test]
    fn abort_reason_display() {
        assert_eq!(
            AbortReason::InsufficientAv { shortfall: Volume(4) }.to_string(),
            "insufficient AV (short 4)"
        );
        assert_eq!(
            AbortReason::SiteUnavailable { site: SiteId(2) }.to_string(),
            "site2 unavailable"
        );
    }

    #[test]
    fn serde_round_trip() {
        let o = UpdateOutcome::Aborted {
            txn: txn(),
            reason: AbortReason::PrepareFailed { site: SiteId(0) },
            correspondences: 5,
            client: Some(42),
        };
        let json = serde_json::to_string(&o).unwrap();
        assert_eq!(o, serde_json::from_str(&json).unwrap());
    }
}
