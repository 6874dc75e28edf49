//! Incremental peer-knowledge exchange.
//!
//! The paper spreads peer-AV knowledge "at the necessary communication
//! for AV management" (§4) — piggybacked, never queried. A site learns a
//! peer's figure first-hand from the AV traffic it exchanges with that
//! peer (`AvRequest`, `AvGrant`, `AvPush`, `AvPushAck`); the digest that
//! rides every `Propagate` frame passes those first-hand beliefs on to
//! the other peers. Two rules keep a digest as small as the news in it:
//!
//! - **First-hand only.** Rows merged from a peer's digest update the
//!   belief table but are never re-shipped. In a full mesh the observer
//!   ships its own row to every peer in the same fan-out round, so a
//!   relay needs at least one more hop, arrives later, and merges as a
//!   no-op.
//! - **Delta.** A per-peer *version watermark* over the table's monotone
//!   edit counter ships only the cells that changed since the last digest
//!   to that peer. A fan-out round encodes one digest per peer at the
//!   same watermark, so the round scans the table once and filters that
//!   scan per peer.
//!
//! Applying digests incrementally is observably identical to shipping
//! every first-hand cell on every frame (pinned in
//! `tests/scale_hotpath.rs`), so the staleness gauges and the
//! *selecting* function see byte-identical inputs.

use avdb_escrow::{KnowledgeRow, PeerKnowledge};
use avdb_types::{ProductId, SiteId, VirtualTime, Volume};

/// The knowledge-exchange state machine of one accelerator: the belief
/// table plus the per-peer digest watermarks and the round's scan.
#[derive(Debug, Default)]
pub struct KnowledgeExchange {
    /// What this site believes about its peers' AV holdings.
    know: PeerKnowledge,
    /// Per-peer table version as of the last digest encoded for that
    /// peer (index = site id). Rows at or below the watermark are known
    /// to have been shipped already and are skipped by the next digest.
    sent_version: Vec<u64>,
    /// The last table scan: every first-hand cell changed since
    /// `scan_key.0`, read at table version `scan_key.1`. The table
    /// version bumps on every write that changes what a scan reports,
    /// merges that unmark a first-hand cell included, so a scan is reused
    /// only while it is still exact.
    scan: Vec<KnowledgeRow>,
    scan_key: Option<(u64, u64)>,
}

impl KnowledgeExchange {
    /// Empty exchange state for a system of `n_sites`.
    pub fn new(n_sites: usize) -> Self {
        KnowledgeExchange {
            know: PeerKnowledge::new(),
            sent_version: vec![0; n_sites],
            scan: Vec::new(),
            scan_key: None,
        }
    }

    /// The underlying belief table (selecting-function input, tests).
    pub fn table(&self) -> &PeerKnowledge {
        &self.know
    }

    /// Seeds the boot-time AV split (shared knowledge; never digested).
    pub fn seed(&mut self, product: ProductId, split: &[Volume]) {
        self.know.seed(product, split);
    }

    /// Records a fresher first-hand AV observation (see
    /// [`PeerKnowledge::update`]).
    pub fn update(&mut self, peer: SiteId, product: ProductId, av: Volume, at: VirtualTime) {
        self.know.update(peer, product, av, at);
    }

    /// Records a fresher first-hand consumption-rate observation.
    pub fn update_rate(&mut self, peer: SiteId, product: ProductId, rate: i64, at: VirtualTime) {
        self.know.update_rate(peer, product, rate, at);
    }

    /// Encodes the delta digest to piggyback on the next frame to
    /// `peer`: every first-hand belief cell that changed since the last
    /// digest encoded for that peer, minus rows about the receiver (it
    /// knows its own holdings better than any belief) and about this
    /// sender (its holdings live in its AV table; the belief table only
    /// holds their boot seed). Advances the peer's watermark to the
    /// current table version.
    pub fn encode_digest_for(&mut self, me: SiteId, peer: SiteId) -> Vec<KnowledgeRow> {
        if self.sent_version.len() <= peer.index() {
            self.sent_version.resize(peer.index() + 1, 0);
        }
        let since = self.sent_version[peer.index()];
        let latest = self.know.version();
        self.sent_version[peer.index()] = latest;
        if since == latest {
            return Vec::new();
        }
        if self.scan_key != Some((since, latest)) {
            self.scan.clear();
            self.know.changed_since(since, &mut self.scan);
            self.scan_key = Some((since, latest));
        }
        self.scan
            .iter()
            .filter(|d| d.site != peer && d.site != me)
            .copied()
            .collect()
    }

    /// Applies an incoming digest. Rows merge under the standard
    /// freshness rule ([`PeerKnowledge::merge`]), so stale rows never
    /// clobber a fresher direct observation; rows about this site are
    /// ignored (local truth lives in the AV table, not here). Merged
    /// rows are second-hand: they never ride this site's own digests,
    /// and one that overwrites a first-hand cell takes it out of them.
    pub fn apply_digest(&mut self, me: SiteId, rows: &[KnowledgeRow]) {
        for r in rows.iter().filter(|r| r.site != me) {
            self.know.merge(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: ProductId = ProductId(0);

    fn row(site: u32, av: i64, at: u64) -> KnowledgeRow {
        KnowledgeRow {
            site: SiteId(site),
            product: P,
            av: Volume(av),
            at: VirtualTime(at),
            rate: 0,
            rate_at: VirtualTime::ZERO,
        }
    }

    #[test]
    fn digest_ships_only_rows_changed_since_last_exchange() {
        let me = SiteId(0);
        let mut x = KnowledgeExchange::new(4);
        x.update(SiteId(2), P, Volume(10), VirtualTime(5));
        x.update(SiteId(3), P, Volume(7), VirtualTime(5));
        let first = x.encode_digest_for(me, SiteId(1));
        assert_eq!(first.len(), 2, "both changed rows ship");
        // Nothing changed since: the next digest to the same peer is empty.
        assert!(x.encode_digest_for(me, SiteId(1)).is_empty());
        // A different peer still gets the full backlog (minus its own row).
        let to2 = x.encode_digest_for(me, SiteId(2));
        assert_eq!(to2.len(), 1);
        assert_eq!(to2[0].site, SiteId(3));
        // One more change: only that row ships next time.
        x.update(SiteId(3), P, Volume(6), VirtualTime(9));
        let second = x.encode_digest_for(me, SiteId(1));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].av, Volume(6));
    }

    #[test]
    fn digest_skips_receiver_and_sender_rows() {
        let me = SiteId(0);
        let mut x = KnowledgeExchange::new(3);
        x.update(SiteId(1), P, Volume(4), VirtualTime(1));
        x.update(SiteId(2), P, Volume(5), VirtualTime(1));
        let rows = x.encode_digest_for(me, SiteId(1));
        assert_eq!(rows.len(), 1, "receiver's own row is dropped");
        assert_eq!(rows[0].site, SiteId(2));
    }

    #[test]
    fn apply_merges_under_freshness_and_ignores_self_rows() {
        let me = SiteId(1);
        let mut x = KnowledgeExchange::new(3);
        x.update(SiteId(2), P, Volume(50), VirtualTime(20));
        let rows = vec![
            // Stale gossip about site 2: must not clobber the fresher cell.
            row(2, 1, 3),
            // A row about this site itself: ignored.
            row(me.0, 99, 99),
            // Fresh news about site 0, with a rate.
            KnowledgeRow {
                rate: 3,
                rate_at: VirtualTime(9),
                ..row(0, 8, 9)
            },
        ];
        x.apply_digest(me, &rows);
        assert_eq!(x.table().known(SiteId(2), P), Volume(50));
        assert_eq!(x.table().known(me, P), Volume::ZERO);
        assert_eq!(x.table().known(SiteId(0), P), Volume(8));
        assert_eq!(x.table().known_rate(SiteId(0), P), 3);
    }

    #[test]
    fn merged_third_party_row_is_never_relayed() {
        // A tells B about C. B's table takes the row, but B's digests —
        // back to A, or on to a fourth site D — never carry it.
        let (a_id, b_id, c_id, d_id) = (SiteId(0), SiteId(1), SiteId(2), SiteId(3));
        let mut a = KnowledgeExchange::new(4);
        let mut b = KnowledgeExchange::new(4);
        a.update(c_id, P, Volume(10), VirtualTime(5));
        let d1 = a.encode_digest_for(a_id, b_id);
        assert_eq!(d1.len(), 1);
        b.apply_digest(b_id, &d1);
        assert_eq!(b.table().known(c_id, P), Volume(10));
        assert_eq!(b.table().staleness(c_id, P, VirtualTime(8)), Some(3));
        assert!(b.encode_digest_for(b_id, a_id).is_empty());
        assert!(b.encode_digest_for(b_id, d_id).is_empty());
    }

    #[test]
    fn merge_over_first_hand_cell_takes_it_out_of_the_digest() {
        let (me, c) = (SiteId(1), SiteId(2));
        let mut x = KnowledgeExchange::new(4);
        x.update(c, P, Volume(10), VirtualTime(5));
        // A fresher row about C arrives before the next frame: the cell's
        // value is now second-hand, and no digest ships it.
        x.apply_digest(me, &[row(c.0, 6, 9)]);
        assert_eq!(x.table().known(c, P), Volume(6));
        assert!(x.encode_digest_for(me, SiteId(0)).is_empty());
        // A fresher first-hand observation puts the cell back.
        x.update(c, P, Volume(4), VirtualTime(12));
        let rows = x.encode_digest_for(me, SiteId(3));
        assert_eq!(rows, vec![row(c.0, 4, 12)]);
    }

    #[test]
    fn one_scan_serves_a_round_until_a_merge_changes_it() {
        let me = SiteId(0);
        let mut x = KnowledgeExchange::new(5);
        x.update(SiteId(2), P, Volume(10), VirtualTime(5));
        x.update(SiteId(3), P, Volume(7), VirtualTime(5));
        // Peers 1 and 4 sit at the same watermark, so peer 1's scan would
        // serve peer 4 too.
        assert_eq!(
            x.encode_digest_for(me, SiteId(1)),
            vec![row(2, 10, 5), row(3, 7, 5)]
        );
        // A merge that unmarks site 3's cell moves no watermark, but the
        // scan taken before it must not be reused.
        x.apply_digest(me, &[row(3, 1, 9)]);
        assert_eq!(x.encode_digest_for(me, SiteId(4)), vec![row(2, 10, 5)]);
    }
}
