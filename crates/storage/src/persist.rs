//! Disk persistence for a site's durable state.
//!
//! The simulation models durability in memory; this module makes it real:
//! a [`crate::LocalDb`]'s durable parts — the catalog and the write-ahead
//! log — serialize to a directory as human-inspectable JSON(-lines)
//! files, and a database opened from that directory recovers through the
//! exact same WAL-replay path a crash uses. The volatile parts (table,
//! locks, transaction table) are deliberately *not* stored: recovery
//! rebuilds them, which keeps the on-disk format minimal and the recovery
//! code honest.
//!
//! Layout:
//!
//! ```text
//! <dir>/catalog.json   — Vec<CatalogEntry>
//! <dir>/wal.jsonl      — one LogRecord per line
//! ```

use crate::engine::{LocalDb, RecoveryReport};
use crate::wal::Wal;
use avdb_types::{AvdbError, CatalogEntry, Result};
use std::fs;
use std::path::Path;

/// File name of the serialized catalog.
pub const CATALOG_FILE: &str = "catalog.json";
/// File name of the serialized write-ahead log.
pub const WAL_FILE: &str = "wal.jsonl";

fn io_err(context: &str, e: std::io::Error) -> AvdbError {
    AvdbError::Corruption(format!("{context}: {e}"))
}

impl LocalDb {
    /// Persists the durable state (catalog + WAL) into `dir`, creating it
    /// if needed. Existing files are overwritten atomically enough for
    /// the reproduction's purposes (write to `.tmp`, then rename).
    pub fn persist_to_dir(&self, dir: &Path) -> Result<()> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", e))?;
        let catalog_json = serde_json::to_string_pretty(self.catalog())
            .map_err(|e| AvdbError::Codec(e.to_string()))?;
        let wal_lines = self.wal().to_json_lines()?;
        for (name, content) in [(CATALOG_FILE, catalog_json), (WAL_FILE, wal_lines)] {
            let tmp = dir.join(format!("{name}.tmp"));
            let final_path = dir.join(name);
            fs::write(&tmp, content).map_err(|e| io_err("write", e))?;
            fs::rename(&tmp, &final_path).map_err(|e| io_err("rename", e))?;
        }
        Ok(())
    }

    /// Opens a database from a directory written by
    /// [`LocalDb::persist_to_dir`], replaying the WAL to rebuild the
    /// table. Returns the database and what recovery did.
    pub fn open_from_dir(dir: &Path) -> Result<(LocalDb, RecoveryReport)> {
        let catalog_raw = fs::read_to_string(dir.join(CATALOG_FILE))
            .map_err(|e| io_err("read catalog", e))?;
        let catalog: Vec<CatalogEntry> = serde_json::from_str(&catalog_raw)
            .map_err(|e| AvdbError::Codec(format!("catalog: {e}")))?;
        let wal_raw =
            fs::read_to_string(dir.join(WAL_FILE)).map_err(|e| io_err("read wal", e))?;
        let wal = Wal::from_json_lines(&wal_raw)?;
        let mut db = LocalDb::new(&catalog);
        db.install_wal(wal);
        let report = db.recover()?;
        Ok((db, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::{ProductClass, ProductId, SiteId, TxnId, Volume};

    fn catalog() -> Vec<CatalogEntry> {
        vec![
            CatalogEntry::new(ProductId(0), ProductClass::Regular, Volume(100)),
            CatalogEntry::new(ProductId(1), ProductClass::NonRegular, Volume(10)),
        ]
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "avdb-persist-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn t(n: u64) -> TxnId {
        TxnId::new(SiteId(0), n)
    }

    #[test]
    fn persist_and_open_round_trips_state() {
        let dir = tempdir("roundtrip");
        let mut db = LocalDb::new(&catalog());
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-30)).unwrap();
        db.commit(t(1)).unwrap();
        // An in-flight transaction at persist time must be rolled back by
        // the open-time recovery.
        db.begin(t(2)).unwrap();
        db.apply(t(2), ProductId(1), Volume(-4)).unwrap();
        db.persist_to_dir(&dir).unwrap();

        let (reopened, report) = LocalDb::open_from_dir(&dir).unwrap();
        assert_eq!(reopened.stock(ProductId(0)).unwrap(), Volume(70));
        assert_eq!(reopened.stock(ProductId(1)).unwrap(), Volume(10), "loser undone");
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.undone_txns, 1);
        assert_eq!(reopened.class(ProductId(1)).unwrap(), ProductClass::NonRegular);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_after_checkpoint_keeps_only_suffix() {
        let dir = tempdir("checkpoint");
        let mut db = LocalDb::new(&catalog());
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-10)).unwrap();
        db.commit(t(1)).unwrap();
        db.checkpoint();
        db.begin(t(2)).unwrap();
        db.apply(t(2), ProductId(0), Volume(-5)).unwrap();
        db.commit(t(2)).unwrap();
        db.persist_to_dir(&dir).unwrap();

        let (reopened, report) = LocalDb::open_from_dir(&dir).unwrap();
        assert!(report.from_checkpoint);
        assert_eq!(report.committed_txns, 1, "pre-checkpoint history truncated");
        assert_eq!(reopened.stock(ProductId(0)).unwrap(), Volume(85));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replicated_deltas_and_checkpoint_persist_and_reopen() {
        let dir = tempdir("replicated");
        let remote = |n| TxnId::new(SiteId(3), n);
        let mut db = LocalDb::new(&catalog());
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-10)).unwrap();
        db.commit(t(1)).unwrap();
        db.apply_committed(remote(1), ProductId(0), Volume(-4)).unwrap();
        db.checkpoint();
        db.apply_committed(remote(2), ProductId(1), Volume(-15)).unwrap();
        db.apply_committed(remote(3), ProductId(0), Volume(6)).unwrap();
        db.persist_to_dir(&dir).unwrap();
        let wal = fs::read_to_string(dir.join(WAL_FILE)).unwrap();
        assert_eq!(wal.lines().count(), 3, "checkpoint + one record per replicated delta");
        assert_eq!(wal.matches("\"Replicated\"").count(), 2);

        let (reopened, report) = LocalDb::open_from_dir(&dir).unwrap();
        assert!(report.from_checkpoint);
        assert_eq!(report.committed_txns, 2);
        assert_eq!(reopened.snapshot(), db.snapshot());
        assert_eq!(reopened.stock(ProductId(0)).unwrap(), Volume(92));
        assert_eq!(reopened.stock(ProductId(1)).unwrap(), Volume(-5), "remote deltas are unchecked");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_persist_overwrites() {
        let dir = tempdir("overwrite");
        let mut db = LocalDb::new(&catalog());
        db.persist_to_dir(&dir).unwrap();
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-1)).unwrap();
        db.commit(t(1)).unwrap();
        db.persist_to_dir(&dir).unwrap();
        let (reopened, _) = LocalDb::open_from_dir(&dir).unwrap();
        assert_eq!(reopened.stock(ProductId(0)).unwrap(), Volume(99));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_dir_fails_cleanly() {
        let err = LocalDb::open_from_dir(Path::new("/nonexistent/avdb-xyz")).unwrap_err();
        assert!(matches!(err, AvdbError::Corruption(_)));
    }

    #[test]
    fn open_corrupt_wal_fails_cleanly() {
        let dir = tempdir("corrupt");
        let db = LocalDb::new(&catalog());
        db.persist_to_dir(&dir).unwrap();
        fs::write(dir.join(WAL_FILE), "this is not a log record\n").unwrap();
        let err = LocalDb::open_from_dir(&dir).unwrap_err();
        assert!(matches!(err, AvdbError::Codec(_)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn files_are_human_inspectable() {
        let dir = tempdir("inspect");
        let mut db = LocalDb::new(&catalog());
        db.begin(t(1)).unwrap();
        db.apply(t(1), ProductId(0), Volume(-2)).unwrap();
        db.commit(t(1)).unwrap();
        db.persist_to_dir(&dir).unwrap();
        let wal = fs::read_to_string(dir.join(WAL_FILE)).unwrap();
        assert!(wal.contains("\"Begin\""));
        assert!(wal.contains("\"Commit\""));
        let cat = fs::read_to_string(dir.join(CATALOG_FILE)).unwrap();
        assert!(cat.contains("product-0"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
