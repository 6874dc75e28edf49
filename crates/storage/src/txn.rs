//! Transaction bookkeeping.
//!
//! Tracks which transactions are active and the deltas they have applied,
//! so that rollback can apply the *opposite* of each delta — the exact
//! recovery rule the paper uses to justify non-exclusive AV holds: "if
//! rollback of transaction occurs, the recovery of operation can be done
//! by updating with opposite of update volume" (§3.3).

use crate::wal::InFlight;
use avdb_types::{AvdbError, ProductId, Result, TxnId, Volume};
use std::collections::HashMap;

/// Lifecycle state of one transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnState {
    /// Begun, may still apply deltas.
    Active,
    /// Prepared (Immediate Update participant voted ready); may only
    /// commit or abort.
    Prepared,
}

#[derive(Clone, Debug)]
struct TxnRecord {
    state: TxnState,
    /// Applied `(product, delta)` pairs in order.
    applied: Vec<(ProductId, Volume)>,
}

/// In-memory transaction table for one site.
#[derive(Debug, Default)]
pub struct TxnManager {
    active: HashMap<TxnId, TxnRecord>,
    committed: u64,
    aborted: u64,
}

impl TxnManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins a transaction; fails if the id is already in flight.
    pub fn begin(&mut self, txn: TxnId) -> Result<()> {
        if self.active.contains_key(&txn) {
            return Err(AvdbError::InvalidTransition {
                detail: format!("{txn} already active"),
            });
        }
        self.active.insert(txn, TxnRecord { state: TxnState::Active, applied: Vec::new() });
        Ok(())
    }

    /// Records a delta applied on behalf of `txn`.
    pub fn record_apply(&mut self, txn: TxnId, product: ProductId, delta: Volume) -> Result<()> {
        let rec = self.active.get_mut(&txn).ok_or(AvdbError::UnknownTxn(txn))?;
        if rec.state != TxnState::Active {
            return Err(AvdbError::InvalidTransition {
                detail: format!("{txn} is prepared; no further writes allowed"),
            });
        }
        rec.applied.push((product, delta));
        Ok(())
    }

    /// Marks `txn` prepared (participant side of Immediate Update).
    pub fn prepare(&mut self, txn: TxnId) -> Result<()> {
        let rec = self.active.get_mut(&txn).ok_or(AvdbError::UnknownTxn(txn))?;
        rec.state = TxnState::Prepared;
        Ok(())
    }

    /// Finishes `txn` as committed, returning its applied deltas (the
    /// caller propagates them and appends the WAL commit record).
    pub fn commit(&mut self, txn: TxnId) -> Result<Vec<(ProductId, Volume)>> {
        let rec = self.active.remove(&txn).ok_or(AvdbError::UnknownTxn(txn))?;
        self.committed += 1;
        Ok(rec.applied)
    }

    /// Finishes `txn` as aborted, returning the *undo list*: opposite
    /// deltas in reverse application order.
    pub fn abort(&mut self, txn: TxnId) -> Result<Vec<(ProductId, Volume)>> {
        let rec = self.active.remove(&txn).ok_or(AvdbError::UnknownTxn(txn))?;
        self.aborted += 1;
        Ok(rec.applied.into_iter().rev().map(|(p, d)| (p, -d)).collect())
    }

    /// Current state of a transaction, if in flight.
    pub fn state(&self, txn: TxnId) -> Option<TxnState> {
        self.active.get(&txn).map(|r| r.state)
    }

    /// Number of in-flight transactions.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Ids of all in-flight transactions (crash recovery enumerates these
    /// to abort them).
    pub fn in_flight_ids(&self) -> Vec<TxnId> {
        self.active.keys().copied().collect()
    }

    /// Every in-flight transaction with the deltas it applied, in id
    /// order (a fuzzy checkpoint records these so replay can undo them).
    pub fn in_flight_applied(&self) -> InFlight {
        let mut txns: Vec<_> = self
            .active
            .iter()
            .map(|(txn, rec)| (*txn, rec.applied.clone()))
            .collect();
        txns.sort_unstable_by_key(|(txn, _)| *txn);
        txns
    }

    /// Lifetime commit count.
    pub fn committed_count(&self) -> u64 {
        self.committed
    }

    /// Lifetime abort count.
    pub fn aborted_count(&self) -> u64 {
        self.aborted
    }

    /// Drops all volatile state (fail-stop crash). Counters survive only
    /// because they are a test/metrics convenience, not protocol state.
    pub fn clear(&mut self) {
        self.active.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::SiteId;

    fn t(n: u64) -> TxnId {
        TxnId::new(SiteId(2), n)
    }

    #[test]
    fn begin_apply_commit_flow() {
        let mut tm = TxnManager::new();
        tm.begin(t(1)).unwrap();
        assert_eq!(tm.state(t(1)), Some(TxnState::Active));
        tm.record_apply(t(1), ProductId(0), Volume(-5)).unwrap();
        tm.record_apply(t(1), ProductId(1), Volume(3)).unwrap();
        let applied = tm.commit(t(1)).unwrap();
        assert_eq!(applied, vec![(ProductId(0), Volume(-5)), (ProductId(1), Volume(3))]);
        assert_eq!(tm.committed_count(), 1);
        assert_eq!(tm.in_flight(), 0);
        assert_eq!(tm.state(t(1)), None);
    }

    #[test]
    fn abort_returns_reversed_opposite_deltas() {
        let mut tm = TxnManager::new();
        tm.begin(t(1)).unwrap();
        tm.record_apply(t(1), ProductId(0), Volume(-5)).unwrap();
        tm.record_apply(t(1), ProductId(1), Volume(3)).unwrap();
        let undo = tm.abort(t(1)).unwrap();
        assert_eq!(undo, vec![(ProductId(1), Volume(-3)), (ProductId(0), Volume(5))]);
        assert_eq!(tm.aborted_count(), 1);
    }

    #[test]
    fn double_begin_rejected() {
        let mut tm = TxnManager::new();
        tm.begin(t(1)).unwrap();
        assert!(matches!(tm.begin(t(1)), Err(AvdbError::InvalidTransition { .. })));
    }

    #[test]
    fn operations_on_unknown_txn_fail() {
        let mut tm = TxnManager::new();
        assert!(matches!(
            tm.record_apply(t(9), ProductId(0), Volume(1)),
            Err(AvdbError::UnknownTxn(_))
        ));
        assert!(matches!(tm.commit(t(9)), Err(AvdbError::UnknownTxn(_))));
        assert!(matches!(tm.abort(t(9)), Err(AvdbError::UnknownTxn(_))));
        assert!(matches!(tm.prepare(t(9)), Err(AvdbError::UnknownTxn(_))));
    }

    #[test]
    fn prepared_blocks_further_writes() {
        let mut tm = TxnManager::new();
        tm.begin(t(1)).unwrap();
        tm.record_apply(t(1), ProductId(0), Volume(1)).unwrap();
        tm.prepare(t(1)).unwrap();
        assert_eq!(tm.state(t(1)), Some(TxnState::Prepared));
        assert!(matches!(
            tm.record_apply(t(1), ProductId(0), Volume(1)),
            Err(AvdbError::InvalidTransition { .. })
        ));
        // Prepared txns can still commit.
        assert_eq!(tm.commit(t(1)).unwrap().len(), 1);
    }

    #[test]
    fn clear_drops_in_flight() {
        let mut tm = TxnManager::new();
        tm.begin(t(1)).unwrap();
        tm.begin(t(2)).unwrap();
        assert_eq!(tm.in_flight(), 2);
        let mut ids = tm.in_flight_ids();
        ids.sort();
        assert_eq!(ids, vec![t(1), t(2)]);
        tm.clear();
        assert_eq!(tm.in_flight(), 0);
    }
}
