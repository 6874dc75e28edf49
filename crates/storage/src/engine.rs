//! [`LocalDb`] — the storage façade each site's accelerator talks to.
//!
//! Semantics:
//!
//! * **Steal policy**: `apply` writes the table immediately (before
//!   commit) and logs redo/undo information; abort rolls back by opposite
//!   deltas, crash recovery replays the WAL and undoes in-flight
//!   transactions. This mirrors the paper's rollback-by-opposite-update
//!   rule and makes recovery a real code path rather than a stub.
//! * **Durability model**: the WAL and the catalog survive a fail-stop
//!   crash; the table, lock table and transaction table are volatile.
//!   [`LocalDb::crash`] wipes the volatile parts; [`LocalDb::recover`]
//!   rebuilds the table from the last checkpoint + log replay.
//! * **Fuzzy checkpoints**: [`LocalDb::checkpoint`] is legal at any
//!   instant, transactions in flight included. Under the steal policy
//!   the snapshot already holds their applies, so the checkpoint also
//!   records each one's applied deltas, and replay undoes them unless a
//!   later commit record says otherwise.

use avdb_types::{
    AvdbError, CatalogEntry, ProductClass, ProductId, Result, TxnId, Volume,
};
use serde::{Deserialize, Serialize};

use crate::locks::{LockManager, LockMode};
use crate::table::{ProductTable, TableSnapshot};
use crate::txn::{TxnManager, TxnState};
use crate::wal::{LogRecord, Wal};
use std::collections::HashMap;

/// What a crash recovery did (surfaced to metrics and tests).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Log records replayed.
    pub replayed_records: usize,
    /// Transactions whose commits were reapplied.
    pub committed_txns: usize,
    /// In-flight transactions rolled back by opposite deltas.
    pub undone_txns: usize,
    /// Whether replay started from a checkpoint snapshot.
    pub from_checkpoint: bool,
}

/// One site's local database.
///
/// ```
/// use avdb_storage::LocalDb;
/// use avdb_types::{CatalogEntry, ProductClass, ProductId, SiteId, TxnId, Volume};
///
/// let catalog = vec![CatalogEntry::new(ProductId(0), ProductClass::Regular, Volume(100))];
/// let mut db = LocalDb::new(&catalog);
///
/// let txn = TxnId::new(SiteId(0), 0);
/// db.begin(txn)?;
/// db.apply(txn, ProductId(0), Volume(-30))?;
/// db.commit(txn)?;
///
/// // A crash loses volatile state; WAL replay restores it.
/// db.crash();
/// db.recover()?;
/// assert_eq!(db.stock(ProductId(0))?, Volume(70));
/// # Ok::<(), avdb_types::AvdbError>(())
/// ```
#[derive(Debug)]
pub struct LocalDb {
    catalog: Vec<CatalogEntry>,
    table: ProductTable,
    wal: Wal,
    locks: LockManager,
    txns: TxnManager,
}

impl LocalDb {
    /// Creates a database initialized from the distributed catalog.
    pub fn new(catalog: &[CatalogEntry]) -> Self {
        LocalDb {
            catalog: catalog.to_vec(),
            table: ProductTable::from_catalog(catalog),
            wal: Wal::new(),
            locks: LockManager::new(),
            txns: TxnManager::new(),
        }
    }

    // ---- reads -----------------------------------------------------------

    /// Current stock of a product.
    pub fn stock(&self, product: ProductId) -> Result<Volume> {
        self.table.stock(product)
    }

    /// Product classification (drives Delay vs Immediate).
    pub fn class(&self, product: ProductId) -> Result<ProductClass> {
        self.table.get(product).map(|r| r.class)
    }

    /// Number of products.
    pub fn n_products(&self) -> usize {
        self.table.len()
    }

    /// Full stock snapshot (replica-convergence checks, checkpoints).
    pub fn snapshot(&self) -> TableSnapshot {
        self.table.snapshot()
    }

    /// Products below a stock threshold (replenishment monitoring).
    pub fn low_stock(&self, threshold: Volume) -> Vec<(ProductId, Volume)> {
        self.table.low_stock(threshold)
    }

    /// The write-ahead log (inspection/tests).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The retained catalog (persistence).
    pub fn catalog(&self) -> &[CatalogEntry] {
        &self.catalog
    }

    /// Replaces the WAL wholesale (persistence open path; callers must
    /// run [`LocalDb::recover`] immediately afterwards).
    pub fn install_wal(&mut self, wal: Wal) {
        self.wal = wal;
    }

    /// Transaction statistics.
    pub fn txn_stats(&self) -> (u64, u64, usize) {
        (
            self.txns.committed_count(),
            self.txns.aborted_count(),
            self.txns.in_flight(),
        )
    }

    // ---- transactional writes --------------------------------------------

    /// Begins a transaction.
    pub fn begin(&mut self, txn: TxnId) -> Result<()> {
        self.txns.begin(txn)?;
        self.wal.append(LogRecord::Begin { txn });
        Ok(())
    }

    /// Applies `delta` to `product` within `txn` (write-ahead logged,
    /// table updated immediately, rejected if stock would go negative).
    pub fn apply(&mut self, txn: TxnId, product: ProductId, delta: Volume) -> Result<Volume> {
        if self.txns.state(txn).is_none() {
            return Err(AvdbError::UnknownTxn(txn));
        }
        // Log before table write (write-ahead rule).
        self.wal.append(LogRecord::Apply { txn, product, delta });
        let new = match self.table.apply_delta(product, delta) {
            Ok(v) => v,
            Err(e) => {
                // The logged apply never took effect; compensate in the log
                // so replay stays faithful.
                self.wal.append(LogRecord::Apply { txn, product, delta: -delta });
                return Err(e);
            }
        };
        self.txns.record_apply(txn, product, delta)?;
        Ok(new)
    }

    /// Applies `delta` within `txn` without the non-negative stock guard.
    ///
    /// Used by AV-covered Delay commits: the Allowable Volume bounds the
    /// *global* committed stock, but this replica may lag behind peers'
    /// increments (AV migrates through its own messages, faster than the
    /// lazily propagated data), so the local value may transiently dip
    /// below zero while the global value never does.
    pub fn apply_unchecked(&mut self, txn: TxnId, product: ProductId, delta: Volume) -> Result<Volume> {
        if self.txns.state(txn).is_none() {
            return Err(AvdbError::UnknownTxn(txn));
        }
        self.wal.append(LogRecord::Apply { txn, product, delta });
        let new = self.table.apply_delta_unchecked(product, delta)?;
        self.txns.record_apply(txn, product, delta)?;
        Ok(new)
    }

    /// Marks `txn` prepared (Immediate Update participant vote).
    pub fn prepare(&mut self, txn: TxnId) -> Result<()> {
        self.txns.prepare(txn)
    }

    /// State of an in-flight transaction.
    pub fn txn_state(&self, txn: TxnId) -> Option<TxnState> {
        self.txns.state(txn)
    }

    /// Commits `txn`, releasing its locks; returns the deltas it applied
    /// (for propagation to peers).
    pub fn commit(&mut self, txn: TxnId) -> Result<Vec<(ProductId, Volume)>> {
        let applied = self.txns.commit(txn)?;
        self.wal.append(LogRecord::Commit { txn });
        self.locks.release_all(txn);
        Ok(applied)
    }

    /// Rolls `txn` back by applying opposite deltas, releasing its locks.
    pub fn rollback(&mut self, txn: TxnId) -> Result<()> {
        let undo = self.txns.abort(txn)?;
        for (product, delta) in undo {
            // Unchecked: unwinding may transiently pass through states the
            // forward path would reject.
            self.table.apply_delta_unchecked(product, delta)?;
        }
        self.wal.append(LogRecord::Abort { txn });
        self.locks.release_all(txn);
        Ok(())
    }

    /// Applies an already-committed remote delta (lazy propagation from a
    /// peer). Logged as one [`LogRecord::Replicated`] under the *origin's*
    /// transaction id so the audit trail lines up across sites.
    ///
    /// Unchecked against negative stock: replica application order can
    /// differ from origin order across products, and per-origin FIFO is
    /// all the paper's Delay Update promises.
    pub fn apply_committed(&mut self, txn: TxnId, product: ProductId, delta: Volume) -> Result<Volume> {
        self.wal.append(LogRecord::Replicated { txn, product, delta });
        self.table.apply_delta_unchecked(product, delta)
    }

    // ---- locks (Immediate Update path) -------------------------------------

    /// Acquires a record lock (no-wait; conflict = error).
    pub fn lock(&mut self, txn: TxnId, product: ProductId, mode: LockMode) -> Result<()> {
        self.locks.acquire(txn, product, mode)
    }

    /// `true` if `product` is locked by anyone.
    pub fn is_locked(&self, product: ProductId) -> bool {
        self.locks.is_locked(product)
    }

    // ---- adaptation ---------------------------------------------------------

    /// Reclassifies a product (regular ↔ non-regular) — runtime adaptation.
    /// Also updates the retained catalog so recovery preserves the new class.
    pub fn reclassify(&mut self, product: ProductId, class: ProductClass) -> Result<()> {
        self.table.reclassify(product, class)?;
        if let Some(e) = self.catalog.get_mut(product.index()) {
            e.class = class;
        }
        Ok(())
    }

    // ---- durability ---------------------------------------------------------

    /// Writes a fuzzy checkpoint record (the table plus every in-flight
    /// transaction's applied deltas) and truncates the log before it.
    pub fn checkpoint(&mut self) {
        self.wal.append(LogRecord::Checkpoint {
            snapshot: self.table.snapshot(),
            in_flight: self.txns.in_flight_applied(),
        });
        self.wal.truncate_to_last_checkpoint();
    }

    /// Simulates a fail-stop crash: volatile state (table contents, locks,
    /// transaction table) is lost; WAL and catalog survive.
    pub fn crash(&mut self) {
        self.table = ProductTable::from_catalog(&self.catalog);
        self.locks.clear();
        self.txns.clear();
    }

    /// Rebuilds the table from checkpoint + WAL replay, rolling back any
    /// transaction without a commit record.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        self.table = ProductTable::from_catalog(&self.catalog);
        self.locks.clear();
        self.txns.clear();

        // Redo every apply; remember per-txn deltas so losers can be
        // undone, starting from those the checkpoint's snapshot holds.
        let mut in_flight: HashMap<TxnId, Vec<(ProductId, Volume)>> = HashMap::new();
        let (ckpt, suffix) = self.wal.replay_suffix();
        if let Some((snap, open)) = ckpt {
            self.table.restore(snap)?;
            in_flight.extend(open.iter().cloned());
            report.from_checkpoint = true;
        }
        let mut committed = 0usize;
        for rec in suffix {
            report.replayed_records += 1;
            match rec {
                LogRecord::Begin { txn } => {
                    in_flight.entry(*txn).or_default();
                }
                LogRecord::Apply { txn, product, delta } => {
                    self.table.apply_delta_unchecked(*product, *delta)?;
                    in_flight.entry(*txn).or_default().push((*product, *delta));
                }
                LogRecord::Commit { txn } => {
                    in_flight.remove(txn);
                    committed += 1;
                }
                LogRecord::Replicated { product, delta, .. } => {
                    self.table.apply_delta_unchecked(*product, *delta)?;
                    committed += 1;
                }
                LogRecord::Abort { txn } => {
                    if let Some(applied) = in_flight.remove(txn) {
                        for (product, delta) in applied.into_iter().rev() {
                            self.table.apply_delta_unchecked(product, -delta)?;
                        }
                    }
                }
                LogRecord::Checkpoint { .. } => {
                    return Err(AvdbError::Corruption(
                        "checkpoint inside replay suffix".into(),
                    ))
                }
            }
        }
        report.committed_txns = committed;
        // Undo losers (in-flight at crash time) and log their aborts.
        let mut losers: Vec<_> = in_flight.into_iter().collect();
        losers.sort_by_key(|(txn, _)| *txn); // deterministic undo order
        report.undone_txns = losers.len();
        for (txn, applied) in losers {
            for (product, delta) in applied.into_iter().rev() {
                self.table.apply_delta_unchecked(product, -delta)?;
            }
            self.wal.append(LogRecord::Abort { txn });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::SiteId;

    fn catalog() -> Vec<CatalogEntry> {
        vec![
            CatalogEntry::new(ProductId(0), ProductClass::Regular, Volume(100)),
            CatalogEntry::new(ProductId(1), ProductClass::Regular, Volume(50)),
            CatalogEntry::new(ProductId(2), ProductClass::NonRegular, Volume(10)),
        ]
    }

    fn db() -> LocalDb {
        LocalDb::new(&catalog())
    }

    fn t(n: u64) -> TxnId {
        TxnId::new(SiteId(1), n)
    }

    #[test]
    fn begin_apply_commit_updates_stock() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        assert_eq!(db.apply(t(1), ProductId(0), Volume(-30)).unwrap(), Volume(70));
        let deltas = db.commit(t(1)).unwrap();
        assert_eq!(deltas, vec![(ProductId(0), Volume(-30))]);
        assert_eq!(db.stock(ProductId(0)).unwrap(), Volume(70));
        assert_eq!(db.txn_stats(), (1, 0, 0));
    }

    #[test]
    fn rollback_restores_stock() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-30)).unwrap();
        db.apply(t(1), ProductId(1), Volume(5)).unwrap();
        db.rollback(t(1)).unwrap();
        assert_eq!(db.stock(ProductId(0)).unwrap(), Volume(100));
        assert_eq!(db.stock(ProductId(1)).unwrap(), Volume(50));
        assert_eq!(db.txn_stats(), (0, 1, 0));
    }

    #[test]
    fn apply_rejects_negative_stock_and_compensates_log() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        let err = db.apply(t(1), ProductId(2), Volume(-11)).unwrap_err();
        assert!(matches!(err, AvdbError::NegativeStock { .. }));
        assert_eq!(db.stock(ProductId(2)).unwrap(), Volume(10));
        // The txn can still proceed and commit cleanly.
        db.apply(t(1), ProductId(2), Volume(-10)).unwrap();
        db.commit(t(1)).unwrap();
        assert_eq!(db.stock(ProductId(2)).unwrap(), Volume(0));
        // And a crash+recover of that log reproduces the same state.
        db.crash();
        db.recover().unwrap();
        assert_eq!(db.stock(ProductId(2)).unwrap(), Volume(0));
    }

    #[test]
    fn apply_unchecked_allows_transient_negative_and_replays() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        assert_eq!(
            db.apply_unchecked(t(1), ProductId(2), Volume(-15)).unwrap(),
            Volume(-5)
        );
        db.commit(t(1)).unwrap();
        assert_eq!(db.stock(ProductId(2)).unwrap(), Volume(-5));
        db.crash();
        db.recover().unwrap();
        assert_eq!(db.stock(ProductId(2)).unwrap(), Volume(-5));
        // Rollback path also works through the unchecked variant.
        db.begin(t(2)).unwrap();
        db.apply_unchecked(t(2), ProductId(2), Volume(-100)).unwrap();
        db.rollback(t(2)).unwrap();
        assert_eq!(db.stock(ProductId(2)).unwrap(), Volume(-5));
        assert!(matches!(
            db.apply_unchecked(t(9), ProductId(2), Volume(1)),
            Err(AvdbError::UnknownTxn(_))
        ));
    }

    #[test]
    fn apply_requires_begin() {
        let mut db = db();
        assert!(matches!(
            db.apply(t(9), ProductId(0), Volume(-1)),
            Err(AvdbError::UnknownTxn(_))
        ));
    }

    #[test]
    fn apply_committed_logs_one_replicated_record() {
        let mut db = db();
        let remote = TxnId::new(SiteId(2), 77);
        db.apply_committed(remote, ProductId(0), Volume(-20)).unwrap();
        assert_eq!(db.stock(ProductId(0)).unwrap(), Volume(80));
        assert_eq!(
            db.wal().records(),
            [LogRecord::Replicated { txn: remote, product: ProductId(0), delta: Volume(-20) }]
        );
        assert_eq!(db.txn_stats(), (0, 0, 0), "no local transaction opened");
    }

    #[test]
    fn recovery_replays_replicated_deltas_among_local_txns() {
        let mut db = db();
        let remote = |n| TxnId::new(SiteId(2), n);
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-30)).unwrap();
        db.apply_committed(remote(1), ProductId(0), Volume(-5)).unwrap();
        db.commit(t(1)).unwrap();
        db.apply_committed(remote(2), ProductId(1), Volume(12)).unwrap();
        // In flight at crash time, with a replicated delta landing inside it.
        db.begin(t(2)).unwrap();
        db.apply(t(2), ProductId(1), Volume(-10)).unwrap();
        db.apply_committed(remote(3), ProductId(1), Volume(-3)).unwrap();
        db.apply_unchecked(t(2), ProductId(2), Volume(-4)).unwrap();
        db.crash();
        let report = db.recover().unwrap();
        assert_eq!(db.stock(ProductId(0)).unwrap(), Volume(65));
        assert_eq!(db.stock(ProductId(1)).unwrap(), Volume(59), "loser undone, remote kept");
        assert_eq!(db.stock(ProductId(2)).unwrap(), Volume(10));
        assert_eq!(report.committed_txns, 4, "one local commit + three replicated deltas");
        assert_eq!(report.undone_txns, 1);
        assert_eq!(report.replayed_records, 9);
    }

    #[test]
    fn old_mini_txn_logs_replay_to_the_same_table() {
        let remote = TxnId::new(SiteId(2), 77);
        let mut old = Wal::new();
        old.append(LogRecord::Begin { txn: remote });
        old.append(LogRecord::Apply { txn: remote, product: ProductId(0), delta: Volume(-20) });
        old.append(LogRecord::Commit { txn: remote });
        let mut replayed = db();
        replayed.install_wal(old);
        let report = replayed.recover().unwrap();
        let mut current = db();
        current.apply_committed(remote, ProductId(0), Volume(-20)).unwrap();
        assert_eq!(replayed.snapshot(), current.snapshot());
        assert_eq!(replayed.stock(ProductId(0)).unwrap(), Volume(80));
        assert_eq!(report.committed_txns, 1);
    }

    #[test]
    fn crash_loses_uncommitted_recovery_undoes_them() {
        let mut db = db();
        // Committed txn.
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-30)).unwrap();
        db.commit(t(1)).unwrap();
        // In-flight txn at crash time.
        db.begin(t(2)).unwrap();
        db.apply(t(2), ProductId(1), Volume(-10)).unwrap();
        db.crash();
        // Volatile table reset to catalog values until recovery runs.
        assert_eq!(db.stock(ProductId(0)).unwrap(), Volume(100));
        let report = db.recover().unwrap();
        assert_eq!(db.stock(ProductId(0)).unwrap(), Volume(70), "committed redo");
        assert_eq!(db.stock(ProductId(1)).unwrap(), Volume(50), "in-flight undone");
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.undone_txns, 1);
        assert!(!report.from_checkpoint);
        assert!(report.replayed_records >= 4);
    }

    #[test]
    fn recovery_from_checkpoint_replays_only_suffix() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-30)).unwrap();
        db.commit(t(1)).unwrap();
        db.checkpoint();
        db.begin(t(2)).unwrap();
        db.apply(t(2), ProductId(0), Volume(-5)).unwrap();
        db.commit(t(2)).unwrap();
        db.crash();
        let report = db.recover().unwrap();
        assert!(report.from_checkpoint);
        assert_eq!(report.committed_txns, 1, "only the post-checkpoint txn replays");
        assert_eq!(db.stock(ProductId(0)).unwrap(), Volume(65));
    }

    #[test]
    fn checkpoint_mid_txn_then_crash_undoes_the_loser() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-30)).unwrap();
        db.checkpoint();
        db.crash();
        let report = db.recover().unwrap();
        assert_eq!(
            db.stock(ProductId(0)).unwrap(),
            Volume(100),
            "uncommitted apply undone"
        );
        assert_eq!(report.undone_txns, 1);
        assert_eq!(report.committed_txns, 0);
        // The loser's abort is logged, so a second recovery agrees.
        db.crash();
        db.recover().unwrap();
        assert_eq!(db.stock(ProductId(0)).unwrap(), Volume(100));
    }

    #[test]
    fn checkpoint_mid_txn_then_commit_then_crash_keeps_it() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-30)).unwrap();
        db.checkpoint();
        db.apply(t(1), ProductId(1), Volume(-5)).unwrap();
        db.commit(t(1)).unwrap();
        // A second txn spans a checkpoint and rolls back.
        db.begin(t(2)).unwrap();
        db.apply(t(2), ProductId(1), Volume(-7)).unwrap();
        db.checkpoint();
        db.rollback(t(2)).unwrap();
        db.crash();
        let report = db.recover().unwrap();
        assert_eq!(db.stock(ProductId(0)).unwrap(), Volume(70));
        assert_eq!(db.stock(ProductId(1)).unwrap(), Volume(45));
        assert_eq!(report.undone_txns, 0);
    }

    #[test]
    fn checkpoint_anywhere_but_first_is_corruption() {
        let mut db = db();
        let mut wal = Wal::new();
        wal.append(LogRecord::Begin { txn: t(1) });
        wal.append(LogRecord::Checkpoint {
            snapshot: db.snapshot(),
            in_flight: vec![],
        });
        db.install_wal(wal);
        assert!(matches!(db.recover(), Err(AvdbError::Corruption(_))));
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-10)).unwrap();
        db.commit(t(1)).unwrap();
        db.crash();
        db.recover().unwrap();
        let snap1 = db.snapshot();
        db.crash();
        db.recover().unwrap();
        assert_eq!(db.snapshot(), snap1);
    }

    #[test]
    fn locks_block_conflicting_writers_and_die_with_crash() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        db.lock(t(1), ProductId(2), LockMode::Exclusive).unwrap();
        assert!(db.is_locked(ProductId(2)));
        let err = db.lock(t(2), ProductId(2), LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, AvdbError::LockConflict { .. }));
        db.crash();
        assert!(!db.is_locked(ProductId(2)));
    }

    #[test]
    fn commit_releases_locks() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        db.lock(t(1), ProductId(2), LockMode::Exclusive).unwrap();
        db.apply(t(1), ProductId(2), Volume(-1)).unwrap();
        db.commit(t(1)).unwrap();
        assert!(!db.is_locked(ProductId(2)));
    }

    #[test]
    fn rollback_releases_locks() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        db.lock(t(1), ProductId(0), LockMode::Exclusive).unwrap();
        db.rollback(t(1)).unwrap();
        assert!(!db.is_locked(ProductId(0)));
    }

    #[test]
    fn reclassification_survives_recovery() {
        let mut db = db();
        db.reclassify(ProductId(0), ProductClass::NonRegular).unwrap();
        db.crash();
        db.recover().unwrap();
        assert_eq!(db.class(ProductId(0)).unwrap(), ProductClass::NonRegular);
    }

    #[test]
    fn prepared_state_visible() {
        let mut db = db();
        db.begin(t(1)).unwrap();
        db.prepare(t(1)).unwrap();
        assert_eq!(db.txn_state(t(1)), Some(TxnState::Prepared));
        assert_eq!(db.txn_state(t(2)), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use avdb_types::SiteId;
    use proptest::prelude::*;

    /// Random mixes of committed and rolled-back transactions must leave
    /// the table identical to a naive model that only applies committed
    /// deltas — and crash+recover must reproduce exactly the same state.
    #[derive(Clone, Debug)]
    enum Op {
        /// `ckpt`: a checkpoint lands between the apply and the finish.
        Txn {
            product: u8,
            delta: i32,
            commit: bool,
            ckpt: bool,
        },
        Checkpoint,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            9 => (0u8..4, -40i32..40, any::<bool>(), any::<bool>()).prop_map(
                |(product, delta, commit, ckpt)| Op::Txn { product, delta, commit, ckpt }
            ),
            1 => Just(Op::Checkpoint),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_recovery_matches_live_state(ops in prop::collection::vec(op_strategy(), 1..60)) {
            let catalog: Vec<CatalogEntry> = (0..4)
                .map(|i| CatalogEntry::new(ProductId(i), ProductClass::Regular, Volume(1000)))
                .collect();
            let mut db = LocalDb::new(&catalog);
            let mut model = vec![Volume(1000); 4];
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Txn { product, delta, commit, ckpt } => {
                        let txn = TxnId::new(SiteId(0), i as u64);
                        let p = ProductId(*product as u32);
                        let d = Volume(*delta as i64);
                        db.begin(txn).unwrap();
                        let applied = db.apply(txn, p, d).is_ok();
                        if *ckpt {
                            db.checkpoint();
                        }
                        if *commit {
                            db.commit(txn).unwrap();
                            if applied {
                                model[p.index()] += d;
                            }
                        } else {
                            db.rollback(txn).unwrap();
                        }
                    }
                    Op::Checkpoint => db.checkpoint(),
                }
            }
            let live: Vec<Volume> = (0..4).map(|i| db.stock(ProductId(i)).unwrap()).collect();
            prop_assert_eq!(&live, &model, "live state matches committed-only model");
            db.crash();
            db.recover().unwrap();
            let recovered: Vec<Volume> = (0..4).map(|i| db.stock(ProductId(i)).unwrap()).collect();
            prop_assert_eq!(&recovered, &model, "recovered state matches model");
        }
    }
}
