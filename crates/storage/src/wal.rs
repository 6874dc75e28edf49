//! Write-ahead log.
//!
//! Append-only sequence of [`LogRecord`]s. In this reproduction the "disk"
//! is process memory — the simulator models fail-stop crashes as loss of
//! *volatile* protocol state, with the WAL surviving — but the format is
//! JSON-lines serializable so runs can be dumped and inspected, and replay
//! is the real thing: [`crate::LocalDb::recover`] rebuilds the table
//! strictly from checkpoint + log.

use avdb_types::{AvdbError, ProductId, Result, TxnId, Volume};
use serde::{Deserialize, Serialize};

use crate::table::TableSnapshot;

/// One durable log entry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// Transaction began.
    Begin {
        /// Transaction id.
        txn: TxnId,
    },
    /// Transaction applied `delta` to `product` (redo information; undo is
    /// the opposite delta, per the paper's rollback rule).
    Apply {
        /// Transaction id.
        txn: TxnId,
        /// Product updated.
        product: ProductId,
        /// Signed stock change.
        delta: Volume,
    },
    /// Transaction committed.
    Commit {
        /// Transaction id.
        txn: TxnId,
    },
    /// Transaction aborted (its applies must be undone on replay).
    Abort {
        /// Transaction id.
        txn: TxnId,
    },
    /// A remote transaction's already-committed delta, applied here by
    /// lazy propagation: one record in place of Begin + Apply + Commit.
    Replicated {
        /// The origin's transaction id.
        txn: TxnId,
        /// Product updated.
        product: ProductId,
        /// Signed stock change.
        delta: Volume,
    },
    /// Checkpoint: full stock snapshot; replay starts at the last one.
    Checkpoint {
        /// Stock levels at checkpoint time.
        snapshot: TableSnapshot,
    },
}

impl LogRecord {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Apply { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Replicated { txn, .. } => Some(*txn),
            LogRecord::Checkpoint { .. } => None,
        }
    }
}

/// Append-only write-ahead log.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Wal {
    records: Vec<LogRecord>,
}

impl Wal {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn append(&mut self, rec: LogRecord) {
        self.records.push(rec);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in append order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Records at or after the last checkpoint (what replay actually
    /// reads), together with that checkpoint's snapshot if one exists.
    pub fn replay_suffix(&self) -> (Option<&TableSnapshot>, &[LogRecord]) {
        let mut start = 0;
        let mut snap = None;
        for (i, rec) in self.records.iter().enumerate() {
            if let LogRecord::Checkpoint { snapshot } = rec {
                snap = Some(snapshot);
                start = i + 1;
            }
        }
        (snap, &self.records[start..])
    }

    /// Drops all records before the last checkpoint (log truncation).
    pub fn truncate_to_last_checkpoint(&mut self) {
        let mut start = None;
        for (i, rec) in self.records.iter().enumerate() {
            if matches!(rec, LogRecord::Checkpoint { .. }) {
                start = Some(i);
            }
        }
        if let Some(i) = start {
            self.records.drain(..i);
        }
    }

    /// Serializes to JSON lines (one record per line) for inspection.
    pub fn to_json_lines(&self) -> Result<String> {
        let mut out = String::new();
        for rec in &self.records {
            out.push_str(
                &serde_json::to_string(rec).map_err(|e| AvdbError::Codec(e.to_string()))?,
            );
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses a JSON-lines dump back into a log.
    ///
    /// A final line that fails to parse *and* is missing its terminating
    /// newline is treated as a record truncated by a crash mid-write: it
    /// is discarded and recovery proceeds from the last complete record.
    /// An unparsable line anywhere else (or a newline-terminated one) is
    /// real corruption and rejected.
    pub fn from_json_lines(s: &str) -> Result<Self> {
        let mut wal = Wal::new();
        let lines: Vec<(usize, &str)> = s
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .collect();
        let unterminated_tail = !s.is_empty() && !s.ends_with('\n');
        for (pos, (i, line)) in lines.iter().enumerate() {
            match serde_json::from_str::<LogRecord>(line) {
                Ok(rec) => wal.append(rec),
                Err(_) if pos + 1 == lines.len() && unterminated_tail => break,
                Err(e) => return Err(AvdbError::Codec(format!("line {}: {e}", i + 1))),
            }
        }
        Ok(wal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::SiteId;

    fn txn(n: u64) -> TxnId {
        TxnId::new(SiteId(1), n)
    }

    fn sample() -> Wal {
        let mut w = Wal::new();
        w.append(LogRecord::Begin { txn: txn(1) });
        w.append(LogRecord::Apply { txn: txn(1), product: ProductId(0), delta: Volume(-5) });
        w.append(LogRecord::Commit { txn: txn(1) });
        w
    }

    #[test]
    fn append_preserves_order() {
        let w = sample();
        assert_eq!(w.len(), 3);
        assert!(matches!(w.records()[0], LogRecord::Begin { .. }));
        assert!(matches!(w.records()[2], LogRecord::Commit { .. }));
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::Begin { txn: txn(4) }.txn(), Some(txn(4)));
        assert_eq!(
            LogRecord::Replicated { txn: txn(5), product: ProductId(0), delta: Volume(1) }.txn(),
            Some(txn(5))
        );
        assert_eq!(
            LogRecord::Checkpoint { snapshot: TableSnapshot { stocks: vec![] } }.txn(),
            None
        );
    }

    #[test]
    fn replay_suffix_without_checkpoint_is_whole_log() {
        let w = sample();
        let (snap, suffix) = w.replay_suffix();
        assert!(snap.is_none());
        assert_eq!(suffix.len(), 3);
    }

    #[test]
    fn replay_suffix_starts_after_last_checkpoint() {
        let mut w = sample();
        w.append(LogRecord::Checkpoint {
            snapshot: TableSnapshot { stocks: vec![Volume(95)] },
        });
        w.append(LogRecord::Begin { txn: txn(2) });
        let (snap, suffix) = w.replay_suffix();
        assert_eq!(snap.unwrap().stocks, vec![Volume(95)]);
        assert_eq!(suffix.len(), 1);
        assert!(matches!(suffix[0], LogRecord::Begin { .. }));
    }

    #[test]
    fn truncation_keeps_checkpoint_and_suffix() {
        let mut w = sample();
        w.append(LogRecord::Checkpoint {
            snapshot: TableSnapshot { stocks: vec![Volume(95)] },
        });
        w.append(LogRecord::Begin { txn: txn(2) });
        w.truncate_to_last_checkpoint();
        assert_eq!(w.len(), 2);
        assert!(matches!(w.records()[0], LogRecord::Checkpoint { .. }));
        // Truncation with no checkpoint is a no-op.
        let mut plain = sample();
        plain.truncate_to_last_checkpoint();
        assert_eq!(plain.len(), 3);
    }

    #[test]
    fn json_lines_round_trip() {
        let mut w = sample();
        w.append(LogRecord::Abort { txn: txn(2) });
        w.append(LogRecord::Replicated {
            txn: TxnId::new(SiteId(3), 9),
            product: ProductId(1),
            delta: Volume(-7),
        });
        w.append(LogRecord::Checkpoint {
            snapshot: TableSnapshot { stocks: vec![Volume(1), Volume(2)] },
        });
        let dump = w.to_json_lines().unwrap();
        assert_eq!(dump.lines().count(), 6);
        assert!(dump.contains("\"Replicated\""));
        let back = Wal::from_json_lines(&dump).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn json_lines_rejects_garbage() {
        let err = Wal::from_json_lines("not json\n").unwrap_err();
        assert!(matches!(err, AvdbError::Codec(_)));
        // Blank lines are tolerated.
        let ok = Wal::from_json_lines("\n\n").unwrap();
        assert!(ok.is_empty());
    }
}
