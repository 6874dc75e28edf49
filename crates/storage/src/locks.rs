//! Record-level lock manager.
//!
//! Used only by the Immediate Update path: "it locks the data at the local
//! DB and it also sends the lock request to the other accelerators
//! simultaneously" (paper §3.3, Fig. 5). Delay Updates deliberately take
//! no locks — AV holds are non-exclusive by construction.
//!
//! The manager is fail-fast: a conflicting acquisition returns
//! [`AvdbError::LockConflict`] immediately and the coordinator aborts the
//! Immediate Update (a no-wait scheme, which is both simple and
//! deadlock-free — important because a distributed waits-for graph would
//! be a whole extra protocol the paper never describes). Re-entrant
//! acquisition by the holder is a no-op, so coordinator-is-participant
//! works naturally. Shared mode is supported for read transactions.

use avdb_types::{AvdbError, ProductId, Result, TxnId};
use std::collections::HashMap;

/// Lock compatibility mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Multiple holders allowed; conflicts with `Exclusive`.
    Shared,
    /// Single holder; conflicts with everything else.
    Exclusive,
}

#[derive(Debug)]
enum Held {
    Shared(Vec<TxnId>),
    Exclusive(TxnId),
}

/// Per-record no-wait lock table. One site's database owns it and only
/// that site's thread touches it.
#[derive(Debug, Default)]
pub struct LockManager {
    held: HashMap<ProductId, Held>,
}

impl LockManager {
    /// Empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire `product` in `mode` for `txn`.
    ///
    /// Fail-fast: conflicts return [`AvdbError::LockConflict`] with the
    /// current holder. Acquiring a lock already held by `txn` succeeds
    /// (shared→exclusive upgrades succeed only when `txn` is the sole
    /// shared holder).
    pub fn acquire(&mut self, txn: TxnId, product: ProductId, mode: LockMode) -> Result<()> {
        match self.held.get_mut(&product) {
            None => {
                self.held.insert(
                    product,
                    match mode {
                        LockMode::Shared => Held::Shared(vec![txn]),
                        LockMode::Exclusive => Held::Exclusive(txn),
                    },
                );
                Ok(())
            }
            Some(Held::Exclusive(holder)) => {
                if *holder == txn {
                    Ok(()) // re-entrant; exclusive already covers shared
                } else {
                    Err(AvdbError::LockConflict { product, holder: *holder })
                }
            }
            Some(Held::Shared(holders)) => match mode {
                LockMode::Shared => {
                    if !holders.contains(&txn) {
                        holders.push(txn);
                    }
                    Ok(())
                }
                LockMode::Exclusive => {
                    if holders.as_slice() == [txn] {
                        self.held.insert(product, Held::Exclusive(txn));
                        Ok(())
                    } else {
                        let other = *holders.iter().find(|h| **h != txn).expect(
                            "shared holder list with a conflict must contain another txn",
                        );
                        Err(AvdbError::LockConflict { product, holder: other })
                    }
                }
            },
        }
    }

    /// Releases `txn`'s lock on `product` (no-op if not held by `txn`).
    pub fn release(&mut self, txn: TxnId, product: ProductId) {
        match self.held.get_mut(&product) {
            Some(Held::Exclusive(holder)) if *holder == txn => {
                self.held.remove(&product);
            }
            Some(Held::Shared(holders)) => {
                holders.retain(|h| *h != txn);
                if holders.is_empty() {
                    self.held.remove(&product);
                }
            }
            _ => {}
        }
    }

    /// Releases every lock `txn` holds (commit/abort cleanup).
    pub fn release_all(&mut self, txn: TxnId) {
        self.held.retain(|_, held| match held {
            Held::Exclusive(holder) => *holder != txn,
            Held::Shared(holders) => {
                holders.retain(|h| *h != txn);
                !holders.is_empty()
            }
        });
    }

    /// Clears the whole table — crash recovery: locks are volatile state
    /// and do not survive a fail-stop restart.
    pub fn clear(&mut self) {
        self.held.clear();
    }

    /// Current exclusive holder of `product`, if any.
    pub fn exclusive_holder(&self, product: ProductId) -> Option<TxnId> {
        match self.held.get(&product) {
            Some(Held::Exclusive(t)) => Some(*t),
            _ => None,
        }
    }

    /// `true` if any lock on `product` is held.
    pub fn is_locked(&self, product: ProductId) -> bool {
        self.held.contains_key(&product)
    }

    /// Number of locked records (test hook).
    pub fn locked_count(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use avdb_types::SiteId;
    use proptest::prelude::*;

    /// Reference model with the same no-wait rules, written apart from
    /// the table.
    #[derive(Default)]
    struct FlatLocks {
        held: HashMap<ProductId, Held>,
    }

    impl FlatLocks {
        fn acquire(&mut self, txn: TxnId, product: ProductId, mode: LockMode) -> Result<()> {
            match self.held.get_mut(&product) {
                None => {
                    self.held.insert(
                        product,
                        match mode {
                            LockMode::Shared => Held::Shared(vec![txn]),
                            LockMode::Exclusive => Held::Exclusive(txn),
                        },
                    );
                    Ok(())
                }
                Some(Held::Exclusive(holder)) => {
                    if *holder == txn {
                        Ok(())
                    } else {
                        Err(AvdbError::LockConflict { product, holder: *holder })
                    }
                }
                Some(Held::Shared(holders)) => match mode {
                    LockMode::Shared => {
                        if !holders.contains(&txn) {
                            holders.push(txn);
                        }
                        Ok(())
                    }
                    LockMode::Exclusive => {
                        if holders.as_slice() == [txn] {
                            self.held.insert(product, Held::Exclusive(txn));
                            Ok(())
                        } else {
                            let other =
                                *holders.iter().find(|h| **h != txn).expect("other holder");
                            Err(AvdbError::LockConflict { product, holder: other })
                        }
                    }
                },
            }
        }
        fn release(&mut self, txn: TxnId, product: ProductId) {
            match self.held.get_mut(&product) {
                Some(Held::Exclusive(holder)) if *holder == txn => {
                    self.held.remove(&product);
                }
                Some(Held::Shared(holders)) => {
                    holders.retain(|h| *h != txn);
                    if holders.is_empty() {
                        self.held.remove(&product);
                    }
                }
                _ => {}
            }
        }
        fn release_all(&mut self, txn: TxnId) {
            self.held.retain(|_, held| match held {
                Held::Exclusive(holder) => *holder != txn,
                Held::Shared(holders) => {
                    holders.retain(|h| *h != txn);
                    !holders.is_empty()
                }
            });
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Acquire(u64, u32, bool),
        Release(u64, u32),
        ReleaseAll(u64),
    }

    fn ops() -> impl Strategy<Value = Op> {
        prop_oneof![
            5 => (0u64..6, 0u32..40, any::<bool>())
                .prop_map(|(t, p, x)| Op::Acquire(t, p, x)),
            3 => (0u64..6, 0u32..40).prop_map(|(t, p)| Op::Release(t, p)),
            1 => (0u64..6).prop_map(Op::ReleaseAll),
        ]
    }

    proptest! {
        /// Random acquire/release/release_all interleavings: the table
        /// and the reference model return identical results and agree on
        /// every observable (holder, locked state, total lock count).
        #[test]
        fn prop_sharded_equivalent_to_flat(seq in prop::collection::vec(ops(), 0..120)) {
            let mut table = LockManager::new();
            let mut flat = FlatLocks::default();
            let t = |n: u64| TxnId::new(SiteId(0), n);
            for op in seq {
                match op {
                    Op::Acquire(n, p, exclusive) => {
                        let mode =
                            if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                        let a = table.acquire(t(n), ProductId(p), mode);
                        let b = flat.acquire(t(n), ProductId(p), mode);
                        prop_assert_eq!(a, b);
                    }
                    Op::Release(n, p) => {
                        table.release(t(n), ProductId(p));
                        flat.release(t(n), ProductId(p));
                    }
                    Op::ReleaseAll(n) => {
                        table.release_all(t(n));
                        flat.release_all(t(n));
                    }
                }
                for p in 0..40u32 {
                    prop_assert_eq!(
                        table.is_locked(ProductId(p)),
                        flat.held.contains_key(&ProductId(p))
                    );
                    let flat_excl = match flat.held.get(&ProductId(p)) {
                        Some(Held::Exclusive(t)) => Some(*t),
                        _ => None,
                    };
                    prop_assert_eq!(table.exclusive_holder(ProductId(p)), flat_excl);
                }
                prop_assert_eq!(table.locked_count(), flat.held.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::SiteId;

    fn t(n: u64) -> TxnId {
        TxnId::new(SiteId(0), n)
    }
    const P: ProductId = ProductId(0);

    #[test]
    fn exclusive_conflicts_fail_fast() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), P, LockMode::Exclusive).unwrap();
        let err = lm.acquire(t(2), P, LockMode::Exclusive).unwrap_err();
        assert_eq!(err, AvdbError::LockConflict { product: P, holder: t(1) });
        let err = lm.acquire(t(2), P, LockMode::Shared).unwrap_err();
        assert!(matches!(err, AvdbError::LockConflict { .. }));
    }

    #[test]
    fn reentrant_acquire_succeeds() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), P, LockMode::Exclusive).unwrap();
        lm.acquire(t(1), P, LockMode::Exclusive).unwrap();
        lm.acquire(t(1), P, LockMode::Shared).unwrap();
        assert_eq!(lm.exclusive_holder(P), Some(t(1)));
    }

    #[test]
    fn shared_locks_coexist_and_block_exclusive() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), P, LockMode::Shared).unwrap();
        lm.acquire(t(2), P, LockMode::Shared).unwrap();
        assert!(lm.is_locked(P));
        let err = lm.acquire(t(3), P, LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, AvdbError::LockConflict { .. }));
        // An existing shared holder can't upgrade while others hold it.
        assert!(lm.acquire(t(1), P, LockMode::Exclusive).is_err());
    }

    #[test]
    fn sole_shared_holder_upgrades() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), P, LockMode::Shared).unwrap();
        lm.acquire(t(1), P, LockMode::Exclusive).unwrap();
        assert_eq!(lm.exclusive_holder(P), Some(t(1)));
    }

    #[test]
    fn release_frees_record() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), P, LockMode::Exclusive).unwrap();
        lm.release(t(1), P);
        assert!(!lm.is_locked(P));
        lm.acquire(t(2), P, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn release_by_non_holder_is_noop() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), P, LockMode::Exclusive).unwrap();
        lm.release(t(2), P);
        assert_eq!(lm.exclusive_holder(P), Some(t(1)));
    }

    #[test]
    fn shared_release_keeps_other_holders() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), P, LockMode::Shared).unwrap();
        lm.acquire(t(2), P, LockMode::Shared).unwrap();
        lm.release(t(1), P);
        assert!(lm.is_locked(P));
        lm.release(t(2), P);
        assert!(!lm.is_locked(P));
    }

    #[test]
    fn release_all_spans_products() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), ProductId(0), LockMode::Exclusive).unwrap();
        lm.acquire(t(1), ProductId(1), LockMode::Shared).unwrap();
        lm.acquire(t(2), ProductId(1), LockMode::Shared).unwrap();
        lm.acquire(t(2), ProductId(2), LockMode::Exclusive).unwrap();
        lm.release_all(t(1));
        assert!(!lm.is_locked(ProductId(0)));
        assert!(lm.is_locked(ProductId(1)), "t2 still shares product1");
        assert!(lm.is_locked(ProductId(2)));
        assert_eq!(lm.locked_count(), 2);
    }

    #[test]
    fn clear_models_crash() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), P, LockMode::Exclusive).unwrap();
        lm.clear();
        assert_eq!(lm.locked_count(), 0);
        lm.acquire(t(2), P, LockMode::Exclusive).unwrap();
    }
}
