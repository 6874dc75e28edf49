//! Whole-site persistence: everything an accelerator needs to restart
//! from disk under the same identity.
//!
//! Builds on [`avdb_storage::persist`] (catalog + WAL) and adds the
//! accelerator's own durable state — the AV table, the replication log
//! and cursors, the transaction-id high-water mark (ids must never
//! reuse across restarts) and the Immediate decisions this site already
//! executed as a participant (a retransmitted one must not apply twice). Volatile negotiation state is deliberately
//! not stored; a reopened site starts idle, exactly like a recovered one.
//!
//! Layout, on top of the storage files:
//!
//! ```text
//! <dir>/catalog.json       — Vec<CatalogEntry>      (storage)
//! <dir>/wal.jsonl          — one LogRecord per line (storage)
//! <dir>/accelerator.json   — AV + replication + txn seq + finished 2PC
//! ```

use crate::accelerator::Accelerator;
use crate::replication::ReplicationSnapshot;
use avdb_escrow::AvSnapshot;
use avdb_storage::{LocalDb, RecoveryReport};
use avdb_types::{AvdbError, Result, SiteId, SystemConfig, TxnId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// File name of the accelerator-state snapshot.
pub const ACCELERATOR_FILE: &str = "accelerator.json";

/// The accelerator's durable state beyond the local DB.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AcceleratorSnapshot {
    /// This site's id.
    pub site: u32,
    /// AV totals per product.
    pub av: AvSnapshot,
    /// Replication log + cursors.
    pub replication: ReplicationSnapshot,
    /// Next transaction sequence (monotone across restarts).
    pub next_seq: u64,
    /// Immediate txns whose decision this site executed as participant.
    pub imm_finished: BTreeSet<TxnId>,
}

impl Accelerator {
    /// Persists the site's full durable state into `dir`.
    pub fn persist_to_dir(&self, dir: &Path) -> Result<()> {
        self.db().persist_to_dir(dir)?;
        let snap = AcceleratorSnapshot {
            site: self.site().0,
            av: self.av().snapshot(),
            replication: self.replication_snapshot(),
            next_seq: self.next_seq(),
            imm_finished: self.imm_finished.clone(),
        };
        let json =
            serde_json::to_string_pretty(&snap).map_err(|e| AvdbError::Codec(e.to_string()))?;
        fs::write(dir.join(ACCELERATOR_FILE), json)
            .map_err(|e| AvdbError::Corruption(format!("write accelerator state: {e}")))?;
        Ok(())
    }

    /// Reopens a site from a directory written by
    /// [`Accelerator::persist_to_dir`]. The WAL replays (in-flight
    /// transactions roll back), AV holds fold back into availability, and
    /// the site comes up idle under its old identity, ready to rejoin the
    /// system. Returns the accelerator and the storage recovery report.
    pub fn open_from_dir(dir: &Path, cfg: &SystemConfig) -> Result<(Accelerator, RecoveryReport)> {
        let (db, report) = LocalDb::open_from_dir(dir)?;
        let raw = fs::read_to_string(dir.join(ACCELERATOR_FILE))
            .map_err(|e| AvdbError::Corruption(format!("read accelerator state: {e}")))?;
        let snap: AcceleratorSnapshot =
            serde_json::from_str(&raw).map_err(|e| AvdbError::Codec(e.to_string()))?;
        if snap.av.rows.len() != db.n_products() {
            return Err(AvdbError::Corruption(format!(
                "AV snapshot has {} rows, DB has {} products",
                snap.av.rows.len(),
                db.n_products()
            )));
        }
        let repl = &snap.replication;
        let origins = repl.applied_from.keys().chain(repl.applied_nets.keys());
        if let Some(s) = origins.copied().find(|&s| s as usize >= cfg.n_sites) {
            return Err(AvdbError::Corruption(format!(
                "replication snapshot names origin s{s} in a {}-site cluster",
                cfg.n_sites
            )));
        }
        Ok((Accelerator::from_parts(SiteId(snap.site), cfg, db, &snap), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DistributedSystem;
    use avdb_types::{ProductId, UpdateRequest, VirtualTime, Volume};

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("avdb-acc-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> SystemConfig {
        SystemConfig::builder()
            .sites(3)
            .regular_products(2, Volume(300))
            .seed(9)
            .build()
            .unwrap()
    }

    #[test]
    fn site_restarts_from_disk_with_full_state() {
        let cfg = config();
        let mut sys = DistributedSystem::new(cfg.clone());
        // Work that exercises AV transfers, replication, and commits.
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), ProductId(0), Volume(-150)));
        sys.submit_at(VirtualTime(5), UpdateRequest::new(SiteId(1), ProductId(1), Volume(-40)));
        sys.submit_at(VirtualTime(9), UpdateRequest::new(SiteId(0), ProductId(0), Volume(60)));
        sys.run_until_quiescent();
        sys.flush_all();
        sys.run_until_quiescent();

        let dir = tempdir("restart");
        let original = sys.accelerator(SiteId(1));
        original.persist_to_dir(&dir).unwrap();

        let (reopened, report) = Accelerator::open_from_dir(&dir, &cfg).unwrap();
        assert_eq!(report.undone_txns, 0);
        assert_eq!(reopened.site(), SiteId(1));
        // Stock, AV and replication cursors all survive.
        for p in 0..2u32 {
            let product = ProductId(p);
            assert_eq!(
                reopened.db().stock(product).unwrap(),
                original.db().stock(product).unwrap()
            );
            assert_eq!(
                reopened.av().available(product),
                original.av().available(product)
            );
        }
        assert!(reopened.is_idle());
        assert!(reopened.fully_propagated(), "acked cursors survive");
        // Fresh txn ids continue above the old high-water mark.
        assert!(reopened.next_seq() >= original.next_seq());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_replica_cursor_outside_the_cluster_is_rejected() {
        let cfg = config();
        let sys = DistributedSystem::new(cfg.clone());
        let dir = tempdir("stray-origin");
        sys.accelerator(SiteId(0)).persist_to_dir(&dir).unwrap();
        let path = dir.join(ACCELERATOR_FILE);
        let mut snap: AcceleratorSnapshot =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        snap.replication.applied_from.insert(u32::MAX, 3);
        fs::write(&path, serde_json::to_string(&snap).unwrap()).unwrap();
        let err = Accelerator::open_from_dir(&dir, &cfg).err().expect("rejected");
        assert!(matches!(err, AvdbError::Corruption(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_site_rejoins_and_keeps_conservation() {
        // Persist a site mid-history, rebuild the whole system with the
        // reopened actor in place, and keep working.
        let cfg = config();
        let mut sys = DistributedSystem::new(cfg.clone());
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(2), ProductId(0), Volume(-80)));
        sys.run_until_quiescent();
        sys.flush_all();
        sys.run_until_quiescent();

        let dir = tempdir("rejoin");
        for site in SiteId::all(3) {
            sys.accelerator(site)
                .persist_to_dir(&dir.join(format!("site{}", site.0)))
                .unwrap();
        }
        // "Datacenter move": reopen all three and rebuild the system.
        let actors: Vec<Accelerator> = SiteId::all(3)
            .map(|s| {
                Accelerator::open_from_dir(&dir.join(format!("site{}", s.0)), &cfg)
                    .unwrap()
                    .0
            })
            .collect();
        let mut sys2 = DistributedSystem::from_actors(cfg.clone(), actors);
        sys2.submit_at(VirtualTime(1), UpdateRequest::new(SiteId(1), ProductId(0), Volume(-50)));
        sys2.run_until_quiescent();
        sys2.flush_all();
        sys2.run_until_quiescent();
        sys2.check_convergence().unwrap();
        sys2.check_av_conservation(ProductId(0)).unwrap();
        assert_eq!(sys2.stock(SiteId(0), ProductId(0)), Volume(300 - 80 - 50));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_participant_does_not_reapply_a_finished_decision() {
        use crate::protocol::{Msg, TracedMsg};
        use avdb_simnet::{Actor, Ctx, DetRng};
        let cfg = SystemConfig::builder().sites(3).non_regular_products(1, Volume(500)).build().unwrap();
        let (p, txn) = (ProductId(0), TxnId::new(SiteId(0), 4));
        let decision = Msg::ImmDecision { txn, commit: true, product: p, delta: Volume(-3) };
        // Handles one message from the coordinator; returns the sends.
        let deliver = |acc: &mut Accelerator, msg: &Msg| {
            let mut rng = DetRng::new(1);
            let mut ctx = Ctx::new(SiteId(1), VirtualTime(5), &mut rng);
            acc.on_message(&mut ctx, SiteId(0), TracedMsg::plain(msg.clone()));
            ctx.pending_sends()
        };
        let mut participant = Accelerator::new(SiteId(1), &cfg);
        deliver(&mut participant, &Msg::ImmPrepare { txn, product: p, delta: Volume(-3) });
        assert_eq!(deliver(&mut participant, &decision), 1, "imm-done");
        assert_eq!(participant.db().stock(p).unwrap(), Volume(497));

        let dir = tempdir("finished");
        participant.persist_to_dir(&dir).unwrap();
        let (mut reopened, _) = Accelerator::open_from_dir(&dir, &cfg).unwrap();
        // The coordinator never saw the imm-done and retransmits.
        assert_eq!(deliver(&mut reopened, &decision), 1, "still acknowledged");
        assert_eq!(reopened.db().stock(p).unwrap(), Volume(497), "applied twice");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_catalog_rejected() {
        let cfg = config();
        let sys = DistributedSystem::new(cfg.clone());
        let dir = tempdir("mismatch");
        sys.accelerator(SiteId(0)).persist_to_dir(&dir).unwrap();
        // Corrupt the AV snapshot row count.
        let path = dir.join(ACCELERATOR_FILE);
        let raw = fs::read_to_string(&path).unwrap();
        let mut snap: AcceleratorSnapshot = serde_json::from_str(&raw).unwrap();
        snap.av.rows.pop();
        fs::write(&path, serde_json::to_string(&snap).unwrap()).unwrap();
        match Accelerator::open_from_dir(&dir, &cfg) {
            Err(AvdbError::Corruption(_)) => {}
            Err(other) => panic!("expected corruption error, got {other}"),
            Ok(_) => panic!("mismatched snapshot must be rejected"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
