//! Stale peer-AV knowledge for the *selecting* function.
//!
//! "The requested site is selected according to the amount of AV the site
//! keeps, which information is collected at the necessary communication
//! for AV management and may not be current data" (paper §4). This module
//! is exactly that: a per-site cache of what each peer last reported
//! holding, refreshed only as a side effect of AV traffic — never by
//! dedicated queries, which would cost the correspondences the mechanism
//! exists to avoid.
//!
//! A belief is *first-hand* when this site's own AV traffic produced it
//! ([`PeerKnowledge::update`], [`PeerKnowledge::update_rate`]) and
//! *second-hand* when it was merged from a peer's digest
//! ([`PeerKnowledge::merge`]). Only first-hand cells are offered to
//! digests ([`PeerKnowledge::changed_since`]): in a full mesh the
//! observer ships its own row to every peer itself, so a relay is always
//! a later, no-op copy.

use avdb_types::{ProductId, SiteId, VirtualTime, Volume};
use serde::{Deserialize, Serialize};

/// What one site believes about its peers' AV holdings.
///
/// Stored densely — one row per peer, one cell per product — because the
/// *selecting* function reads `known()` once per candidate peer on every
/// shortage, and site/product id spaces are small and contiguous. The
/// rows grow on demand, so sparse test configurations stay cheap.
#[derive(Clone, Debug, Default)]
pub struct PeerKnowledge {
    /// `rows[peer][product] → (last reported available AV, when)`.
    rows: Vec<Vec<Option<(Volume, VirtualTime)>>>,
    /// `rates[peer][product] → (last reported consumption EWMA in
    /// volume-per-kilotick, when)`. Piggybacked on the same AV traffic as
    /// the AV cells. No selection reads them yet; they stay as the input
    /// a demand-sized grant would need.
    rates: Vec<Vec<Option<(i64, VirtualTime)>>>,
    /// Monotone edit version: bumps on every accepted write that changes
    /// what [`PeerKnowledge::changed_since`] reports — a first-hand write
    /// that changes a cell's contents, or a merge that takes a first-hand
    /// cell out of the digests. No-op writes (same value, same stamp) and
    /// merges over second-hand cells do not bump.
    version: u64,
    /// `modified[peer][product]` → the version at which the cell (AV or
    /// rate) last took a first-hand value. Zero means the current value
    /// is not first-hand: seeded (shared boot knowledge every site already
    /// holds), merged from a digest, or never observed. Digests skip those.
    modified: Vec<Vec<u64>>,
    /// Transposed mirror of the AV cells for the *selecting* function:
    /// `av_by_product[product][peer]` → believed AV (zero = never
    /// observed). The peer-major rows answer "what do I know about peer
    /// X", but the shortage scan asks "who holds the most of product P"
    /// across every peer — product-major keeps that scan on one
    /// contiguous cache line instead of a pointer chase per peer.
    av_by_product: Vec<Vec<Volume>>,
}

/// One belief row: the sender's first-hand belief about `site`'s
/// holdings of `product`, with the observation stamps the receiver needs
/// to merge it under the standard freshness rule. Surfaced by
/// [`PeerKnowledge::changed_since`], shipped as a row of the digest that
/// rides every replication frame, and handed to [`PeerKnowledge::merge`]
/// on arrival — so a digest row can never regress a fresher local view,
/// and a merged row is never re-shipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnowledgeRow {
    /// Site the belief is about.
    pub site: SiteId,
    /// Product the belief is about.
    pub product: ProductId,
    /// Believed available AV.
    pub av: Volume,
    /// When the AV belief was observed.
    pub at: VirtualTime,
    /// Believed consumption-rate EWMA (zero if never observed).
    pub rate: i64,
    /// When the rate belief was observed (`ZERO` if never).
    pub rate_at: VirtualTime,
}

impl PeerKnowledge {
    /// Empty knowledge (everything unknown).
    pub fn new() -> Self {
        Self::default()
    }

    fn cell(&self, peer: SiteId, product: ProductId) -> Option<(Volume, VirtualTime)> {
        self.rows
            .get(peer.index())
            .and_then(|row| row.get(product.index()))
            .copied()
            .flatten()
    }

    fn cell_mut(&mut self, peer: SiteId, product: ProductId) -> &mut Option<(Volume, VirtualTime)> {
        if self.rows.len() <= peer.index() {
            self.rows.resize(peer.index() + 1, Vec::new());
        }
        let row = &mut self.rows[peer.index()];
        if row.len() <= product.index() {
            row.resize(product.index() + 1, None);
        }
        &mut row[product.index()]
    }

    /// Keeps the product-major AV mirror in lockstep with an accepted
    /// write to `rows[peer][product]`.
    fn mirror(&mut self, peer: SiteId, product: ProductId, av: Volume) {
        if self.av_by_product.len() <= product.index() {
            self.av_by_product.resize(product.index() + 1, Vec::new());
        }
        let row = &mut self.av_by_product[product.index()];
        if row.len() <= peer.index() {
            row.resize(peer.index() + 1, Volume::ZERO);
        }
        row[peer.index()] = av;
    }

    /// Seeds knowledge from the initial AV allocation, which every site
    /// learns when the base DB distributes the catalog (§3.2).
    pub fn seed(&mut self, product: ProductId, split: &[Volume]) {
        for (i, &av) in split.iter().enumerate() {
            *self.cell_mut(SiteId(i as u32), product) = Some((av, VirtualTime::ZERO));
            self.mirror(SiteId(i as u32), product, av);
        }
    }

    /// Records a fresher first-hand observation of `peer`'s AV for
    /// `product`. Observations older than what we already know are
    /// ignored; equal timestamps take the newer report (last writer
    /// wins). A report identical to the current cell is a no-op (it
    /// carries no new information, so it must not mark the cell as
    /// changed).
    pub fn update(&mut self, peer: SiteId, product: ProductId, av: Volume, at: VirtualTime) {
        if self.write_av(peer, product, av, at) {
            self.touch(peer, product);
        }
    }

    /// Applies the freshness rule to the AV cell; `true` if it changed.
    fn write_av(&mut self, peer: SiteId, product: ProductId, av: Volume, at: VirtualTime) -> bool {
        let cell = self.cell_mut(peer, product);
        match *cell {
            Some((_, prev_at)) if prev_at > at => return false,
            Some((prev_av, prev_at)) if prev_av == av && prev_at == at => return false,
            _ => *cell = Some((av, at)),
        }
        self.mirror(peer, product, av);
        true
    }

    /// Merges a second-hand belief from a peer's digest under the same
    /// freshness rule as [`PeerKnowledge::update`] and
    /// [`PeerKnowledge::update_rate`] (a zero rate stamped `ZERO` means
    /// "no rate belief" and leaves the rate cell alone). An accepted
    /// merge never marks the cell for this site's own digests, and one
    /// that overwrites a first-hand cell takes it out of them.
    pub fn merge(&mut self, d: &KnowledgeRow) {
        let mut accepted = self.write_av(d.site, d.product, d.av, d.at);
        if d.rate != 0 || d.rate_at != VirtualTime::ZERO {
            accepted |= self.write_rate(d.site, d.product, d.rate, d.rate_at);
        }
        if !accepted {
            return;
        }
        let Some(ver) = self
            .modified
            .get_mut(d.site.index())
            .and_then(|row| row.get_mut(d.product.index()))
        else {
            return;
        };
        if *ver != 0 {
            *ver = 0;
            self.version += 1;
        }
    }

    /// Marks a cell as first-hand at a fresh version.
    fn touch(&mut self, peer: SiteId, product: ProductId) {
        self.version += 1;
        if self.modified.len() <= peer.index() {
            self.modified.resize(peer.index() + 1, Vec::new());
        }
        let row = &mut self.modified[peer.index()];
        if row.len() <= product.index() {
            row.resize(product.index() + 1, 0);
        }
        row[product.index()] = self.version;
    }

    /// Current edit version — the watermark to pass back to
    /// [`PeerKnowledge::changed_since`] later for "everything that
    /// changed since now".
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Appends every first-hand cell whose contents changed after `since`
    /// to `out` (in ascending site, product order — deterministic) and
    /// returns the current version. `since == 0` yields every cell whose
    /// current value is first-hand — the dense exchange a delta digest
    /// must stay equivalent to. Seeded and merged cells never appear:
    /// seeding is symmetric boot knowledge (shipping it would make the
    /// first digest O(sites × products) for no information gain), and a
    /// merged row already reached every peer from its observer.
    pub fn changed_since(&self, since: u64, out: &mut Vec<KnowledgeRow>) -> u64 {
        for (s, row) in self.modified.iter().enumerate() {
            for (p, &ver) in row.iter().enumerate() {
                if ver <= since {
                    continue;
                }
                let site = SiteId(s as u32);
                let product = ProductId(p as u32);
                // A cell can be marked by a rate-only write while the AV
                // side was never observed; emitting a fabricated AV would
                // corrupt the receiver's `known_at`, so such cells wait
                // for their first real AV observation.
                let Some((av, at)) = self.cell(site, product) else {
                    continue;
                };
                let (rate, rate_at) = self
                    .rates
                    .get(s)
                    .and_then(|row| row.get(p))
                    .copied()
                    .flatten()
                    .unwrap_or((0, VirtualTime::ZERO));
                out.push(KnowledgeRow { site, product, av, at, rate, rate_at });
            }
        }
        self.version
    }

    /// Last known AV of `peer` for `product` (zero if never observed —
    /// a pessimistic default that deprioritizes unknown peers).
    pub fn known(&self, peer: SiteId, product: ProductId) -> Volume {
        self.cell(peer, product).map(|(v, _)| v).unwrap_or(Volume::ZERO)
    }

    /// Believed AV of every peer for `product`, indexed by site id (may
    /// be shorter than the site count; missing entries mean "never
    /// observed"). This is [`PeerKnowledge::known`] transposed for the
    /// selecting function, whose per-shortage scan over all peers is the
    /// hottest read in the system.
    pub fn known_row(&self, product: ProductId) -> &[Volume] {
        self.av_by_product.get(product.index()).map_or(&[], Vec::as_slice)
    }

    /// When `peer`'s AV for `product` was last observed.
    pub fn known_at(&self, peer: SiteId, product: ProductId) -> Option<VirtualTime> {
        self.cell(peer, product).map(|(_, t)| t)
    }

    /// Ticks elapsed at `now` since `peer`'s AV for `product` was last
    /// refreshed — the *selecting* function's input staleness, the
    /// quantity the paper accepts "may not be current data". `None` if
    /// the peer was never observed at all.
    pub fn staleness(&self, peer: SiteId, product: ProductId, now: VirtualTime) -> Option<u64> {
        self.known_at(peer, product).map(|t| now.since(t))
    }

    /// The freshest observation timestamp across all products for `peer`
    /// (`None` if nothing was ever observed). Status snapshots report this
    /// as the peer's knowledge age.
    pub fn freshest(&self, peer: SiteId) -> Option<VirtualTime> {
        self.rows
            .get(peer.index())?
            .iter()
            .filter_map(|cell| cell.map(|(_, t)| t))
            .max()
    }

    /// Records a fresher first-hand observation of `peer`'s
    /// consumption-rate EWMA for `product` (volume per kilotick). Same
    /// freshness rule as [`PeerKnowledge::update`].
    pub fn update_rate(&mut self, peer: SiteId, product: ProductId, rate: i64, at: VirtualTime) {
        if self.write_rate(peer, product, rate, at) {
            self.touch(peer, product);
        }
    }

    /// Applies the freshness rule to the rate cell; `true` if it changed.
    fn write_rate(&mut self, peer: SiteId, product: ProductId, rate: i64, at: VirtualTime) -> bool {
        if self.rates.len() <= peer.index() {
            self.rates.resize(peer.index() + 1, Vec::new());
        }
        let row = &mut self.rates[peer.index()];
        if row.len() <= product.index() {
            row.resize(product.index() + 1, None);
        }
        let cell = &mut row[product.index()];
        match *cell {
            Some((_, prev_at)) if prev_at > at => false,
            Some((prev_rate, prev_at)) if prev_rate == rate && prev_at == at => false,
            _ => {
                *cell = Some((rate, at));
                true
            }
        }
    }

    /// Last known consumption rate of `peer` for `product` in volume per
    /// kilotick (zero if never observed).
    pub fn known_rate(&self, peer: SiteId, product: ProductId) -> i64 {
        self.rates
            .get(peer.index())
            .and_then(|row| row.get(product.index()))
            .copied()
            .flatten()
            .map(|(r, _)| r)
            .unwrap_or(0)
    }

    /// Peers ranked by descending believed AV for `product`, excluding
    /// `me` and anything in `exclude`. Ties break by ascending site id so
    /// ranking is deterministic.
    pub fn ranked_peers(
        &self,
        me: SiteId,
        n_sites: usize,
        product: ProductId,
        exclude: &[SiteId],
    ) -> Vec<SiteId> {
        let mut peers = Vec::new();
        self.ranked_peers_into(me, n_sites, product, exclude, &mut peers);
        peers
    }

    /// Allocation-free form of [`PeerKnowledge::ranked_peers`]: clears and
    /// fills a caller-owned scratch buffer. The shortage path ranks peers
    /// on every AV round, so the accelerator reuses one buffer per site
    /// instead of allocating a fresh `Vec` per call.
    pub fn ranked_peers_into(
        &self,
        me: SiteId,
        n_sites: usize,
        product: ProductId,
        exclude: &[SiteId],
        out: &mut Vec<SiteId>,
    ) {
        out.clear();
        out.extend(SiteId::all(n_sites).filter(|s| *s != me && !exclude.contains(s)));
        out.sort_by(|a, b| {
            self.known(*b, product)
                .cmp(&self.known(*a, product))
                .then(a.cmp(b))
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The original sparse-map implementation, kept as the reference
    /// model the dense table must stay observably equivalent to.
    #[derive(Default)]
    struct MapKnowledge {
        view: HashMap<(SiteId, ProductId), (Volume, VirtualTime)>,
    }

    impl MapKnowledge {
        fn seed(&mut self, product: ProductId, split: &[Volume]) {
            for (i, &av) in split.iter().enumerate() {
                self.view.insert((SiteId(i as u32), product), (av, VirtualTime::ZERO));
            }
        }
        fn update(&mut self, peer: SiteId, product: ProductId, av: Volume, at: VirtualTime) {
            match self.view.get(&(peer, product)) {
                Some(&(_, prev_at)) if prev_at > at => {}
                _ => {
                    self.view.insert((peer, product), (av, at));
                }
            }
        }
        fn known(&self, peer: SiteId, product: ProductId) -> Volume {
            self.view.get(&(peer, product)).map(|&(v, _)| v).unwrap_or(Volume::ZERO)
        }
        fn known_at(&self, peer: SiteId, product: ProductId) -> Option<VirtualTime> {
            self.view.get(&(peer, product)).map(|&(_, t)| t)
        }
    }

    /// One step of a random op interleaving over both implementations.
    #[derive(Clone, Debug)]
    enum Op {
        Seed(u32, Vec<i64>),
        Update(u32, u32, i64, u64),
    }

    fn ops() -> impl Strategy<Value = Op> {
        prop_oneof![
            1 => (0u32..6, prop::collection::vec(0i64..500, 1..6))
                .prop_map(|(p, split)| Op::Seed(p, split)),
            4 => (0u32..8, 0u32..6, 0i64..1000, 0u64..64)
                .prop_map(|(s, p, v, t)| Op::Update(s, p, v, t)),
        ]
    }

    proptest! {
        /// Random interleavings of seeds and (possibly stale) updates:
        /// the dense Vec-indexed table and the sparse map answer every
        /// observable query — `known`, `known_at`, `ranked_peers` — the
        /// same way at every step.
        #[test]
        fn prop_dense_equivalent_to_map(seq in prop::collection::vec(ops(), 0..80)) {
            let mut dense = PeerKnowledge::new();
            let mut map = MapKnowledge::default();
            for op in seq {
                match op {
                    Op::Seed(p, split) => {
                        let split: Vec<Volume> = split.into_iter().map(Volume).collect();
                        dense.seed(ProductId(p), &split);
                        map.seed(ProductId(p), &split);
                    }
                    Op::Update(s, p, v, t) => {
                        dense.update(SiteId(s), ProductId(p), Volume(v), VirtualTime(t));
                        map.update(SiteId(s), ProductId(p), Volume(v), VirtualTime(t));
                    }
                }
                for s in 0..8u32 {
                    for p in 0..6u32 {
                        prop_assert_eq!(
                            dense.known(SiteId(s), ProductId(p)),
                            map.known(SiteId(s), ProductId(p))
                        );
                        prop_assert_eq!(
                            dense.known_at(SiteId(s), ProductId(p)),
                            map.known_at(SiteId(s), ProductId(p))
                        );
                    }
                }
                for p in 0..6u32 {
                    let ranked = dense.ranked_peers(SiteId(0), 8, ProductId(p), &[]);
                    // The map model has no ranked_peers of its own; the
                    // ranking contract is checked against its `known`.
                    for w in ranked.windows(2) {
                        prop_assert!(
                            map.known(w[0], ProductId(p)) >= map.known(w[1], ProductId(p))
                        );
                    }
                    prop_assert_eq!(ranked.len(), 7);
                }
            }
        }
    }

    proptest! {
        /// For any observation history, the ranking is a permutation of
        /// the non-excluded peers, sorted by believed AV descending.
        #[test]
        fn prop_ranking_is_sorted_permutation(
            n_sites in 2usize..8,
            me in 0u32..8,
            obs in prop::collection::vec((0u32..8, 0i64..1000, 0u64..100), 0..40),
            excluded in prop::collection::vec(0u32..8, 0..3),
        ) {
            let me = SiteId(me % n_sites as u32);
            let mut k = PeerKnowledge::new();
            for (peer, av, at) in obs {
                k.update(SiteId(peer % n_sites as u32), ProductId(0), Volume(av), VirtualTime(at));
            }
            let exclude: Vec<SiteId> =
                excluded.iter().map(|e| SiteId(e % n_sites as u32)).collect();
            let ranked = k.ranked_peers(me, n_sites, ProductId(0), &exclude);
            // No self, no excluded, no duplicates.
            prop_assert!(!ranked.contains(&me));
            for e in &exclude {
                prop_assert!(!ranked.contains(e));
            }
            let mut dedup = ranked.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), ranked.len());
            // Sorted by believed AV, descending.
            for w in ranked.windows(2) {
                prop_assert!(
                    k.known(w[0], ProductId(0)) >= k.known(w[1], ProductId(0))
                );
            }
            // Complete: every eligible peer appears.
            let eligible = SiteId::all(n_sites)
                .filter(|s| *s != me && !exclude.contains(s))
                .count();
            prop_assert_eq!(ranked.len(), eligible);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: ProductId = ProductId(0);

    #[test]
    fn unknown_defaults_to_zero() {
        let k = PeerKnowledge::new();
        assert_eq!(k.known(SiteId(1), P), Volume::ZERO);
        assert_eq!(k.known_at(SiteId(1), P), None);
    }

    #[test]
    fn seed_populates_all_sites() {
        let mut k = PeerKnowledge::new();
        k.seed(P, &[Volume(40), Volume(20), Volume(40)]);
        assert_eq!(k.known(SiteId(0), P), Volume(40));
        assert_eq!(k.known(SiteId(1), P), Volume(20));
        assert_eq!(k.known_at(SiteId(2), P), Some(VirtualTime::ZERO));
    }

    #[test]
    fn update_keeps_freshest() {
        let mut k = PeerKnowledge::new();
        k.update(SiteId(1), P, Volume(10), VirtualTime(5));
        k.update(SiteId(1), P, Volume(7), VirtualTime(9));
        assert_eq!(k.known(SiteId(1), P), Volume(7));
        // An out-of-order older report does not regress the view.
        k.update(SiteId(1), P, Volume(99), VirtualTime(2));
        assert_eq!(k.known(SiteId(1), P), Volume(7));
        // Equal timestamps take the newer report (last writer wins).
        k.update(SiteId(1), P, Volume(3), VirtualTime(9));
        assert_eq!(k.known(SiteId(1), P), Volume(3));
    }

    #[test]
    fn staleness_measures_ticks_since_refresh() {
        let mut k = PeerKnowledge::new();
        assert_eq!(k.staleness(SiteId(1), P, VirtualTime(10)), None);
        assert_eq!(k.freshest(SiteId(1)), None);
        k.update(SiteId(1), P, Volume(10), VirtualTime(5));
        k.update(SiteId(1), ProductId(1), Volume(4), VirtualTime(8));
        assert_eq!(k.staleness(SiteId(1), P, VirtualTime(12)), Some(7));
        // Saturating: a "future" observation reads as zero staleness.
        assert_eq!(k.staleness(SiteId(1), P, VirtualTime(3)), Some(0));
        assert_eq!(k.freshest(SiteId(1)), Some(VirtualTime(8)));
    }

    #[test]
    fn ranking_orders_by_believed_av() {
        let mut k = PeerKnowledge::new();
        k.seed(P, &[Volume(40), Volume(20), Volume(40)]);
        // From site 1's perspective: sites 0 and 2 both at 40; tie breaks
        // to the lower id.
        assert_eq!(
            k.ranked_peers(SiteId(1), 3, P, &[]),
            vec![SiteId(0), SiteId(2)]
        );
        // After observing site 0 drained, site 2 ranks first.
        k.update(SiteId(0), P, Volume(1), VirtualTime(4));
        assert_eq!(
            k.ranked_peers(SiteId(1), 3, P, &[]),
            vec![SiteId(2), SiteId(0)]
        );
    }

    #[test]
    fn ranking_excludes_requested_sites() {
        let mut k = PeerKnowledge::new();
        k.seed(P, &[Volume(40), Volume(20), Volume(40)]);
        assert_eq!(
            k.ranked_peers(SiteId(1), 3, P, &[SiteId(0)]),
            vec![SiteId(2)]
        );
        assert!(k
            .ranked_peers(SiteId(1), 3, P, &[SiteId(0), SiteId(2)])
            .is_empty());
    }

    #[test]
    fn ranking_never_contains_self() {
        let k = PeerKnowledge::new();
        let ranked = k.ranked_peers(SiteId(2), 4, P, &[]);
        assert!(!ranked.contains(&SiteId(2)));
        assert_eq!(ranked.len(), 3);
    }

    #[test]
    fn ranked_peers_into_reuses_scratch() {
        let mut k = PeerKnowledge::new();
        k.seed(P, &[Volume(40), Volume(20), Volume(40)]);
        let mut scratch = vec![SiteId(9); 7];
        k.ranked_peers_into(SiteId(1), 3, P, &[], &mut scratch);
        assert_eq!(scratch, k.ranked_peers(SiteId(1), 3, P, &[]));
        // Same buffer, different query: stale contents must not leak.
        k.ranked_peers_into(SiteId(1), 3, P, &[SiteId(0)], &mut scratch);
        assert_eq!(scratch, vec![SiteId(2)]);
    }

    #[test]
    fn version_bumps_only_on_real_changes() {
        let mut k = PeerKnowledge::new();
        assert_eq!(k.version(), 0);
        k.seed(P, &[Volume(40), Volume(20)]);
        assert_eq!(k.version(), 0, "seeds are shared boot knowledge");
        k.update(SiteId(1), P, Volume(7), VirtualTime(5));
        assert_eq!(k.version(), 1);
        // Stale and identical reports carry no new information.
        k.update(SiteId(1), P, Volume(9), VirtualTime(2));
        k.update(SiteId(1), P, Volume(7), VirtualTime(5));
        assert_eq!(k.version(), 1);
        k.update_rate(SiteId(1), P, 30, VirtualTime(6));
        assert_eq!(k.version(), 2);
        k.update_rate(SiteId(1), P, 30, VirtualTime(6));
        assert_eq!(k.version(), 2);
    }

    #[test]
    fn changed_since_is_a_delta_over_the_watermark() {
        let mut k = PeerKnowledge::new();
        k.seed(P, &[Volume(40), Volume(20), Volume(10)]);
        k.update(SiteId(1), P, Volume(7), VirtualTime(5));
        let mut out = Vec::new();
        let v1 = k.changed_since(0, &mut out);
        assert_eq!(out.len(), 1, "seeded-only cells never ship");
        assert_eq!(out[0].site, SiteId(1));
        assert_eq!((out[0].av, out[0].at), (Volume(7), VirtualTime(5)));
        // Nothing changed since the watermark: empty digest.
        out.clear();
        assert_eq!(k.changed_since(v1, &mut out), v1);
        assert!(out.is_empty());
        // Rate-only change re-surfaces the cell with both beliefs.
        k.update_rate(SiteId(1), P, 250, VirtualTime(8));
        out.clear();
        let v2 = k.changed_since(v1, &mut out);
        assert!(v2 > v1);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].rate, out[0].rate_at), (250, VirtualTime(8)));
        assert_eq!(out[0].av, Volume(7), "carries the AV belief too");
    }

    #[test]
    fn merged_beliefs_are_second_hand() {
        let row = |site, av, at| KnowledgeRow {
            site: SiteId(site),
            product: P,
            av: Volume(av),
            at: VirtualTime(at),
            rate: 0,
            rate_at: VirtualTime::ZERO,
        };
        let digest = |k: &PeerKnowledge| {
            let mut out = Vec::new();
            k.changed_since(0, &mut out);
            out
        };
        let mut k = PeerKnowledge::new();
        k.merge(&row(2, 10, 5));
        assert_eq!(k.known(SiteId(2), P), Volume(10));
        assert_eq!(
            k.version(),
            0,
            "a merge into an unmarked cell changes no digest"
        );
        assert!(digest(&k).is_empty());
        // A fresher merge over a first-hand cell takes it out of digests.
        k.update(SiteId(1), P, Volume(4), VirtualTime(6));
        k.merge(&row(1, 3, 9));
        assert_eq!(k.known(SiteId(1), P), Volume(3));
        assert_eq!(k.version(), 2, "unmarking changes what digests report");
        assert!(digest(&k).is_empty());
        // Stale and identical merges leave a first-hand cell first-hand...
        k.update(SiteId(1), P, Volume(2), VirtualTime(12));
        k.merge(&row(1, 9, 10));
        k.merge(&row(1, 2, 12));
        assert_eq!(digest(&k).len(), 1);
        // ...but a fresher rate from a digest makes the cell second-hand.
        k.merge(&KnowledgeRow {
            rate: 7,
            rate_at: VirtualTime(13),
            ..row(1, 2, 12)
        });
        assert_eq!(k.known_rate(SiteId(1), P), 7);
        assert!(digest(&k).is_empty());
    }

    #[test]
    fn applying_deltas_incrementally_equals_dense_exchange() {
        // A seeded source mutates over time; one receiver merges the
        // incremental digests (each cut at the previous watermark), the
        // other merges a full dense digest every round. Every observable
        // — known, known_at, known_rate — must agree at every round.
        let mut src = PeerKnowledge::new();
        for p in 0..3u32 {
            src.seed(ProductId(p), &[Volume(50), Volume(30), Volume(20), Volume(10)]);
        }
        let mut incremental = PeerKnowledge::new();
        let mut dense = PeerKnowledge::new();
        let mut watermark = 0u64;
        let updates: &[(u32, u32, i64, u64)] = &[
            (0, 0, 44, 3),
            (1, 2, 9, 4),
            (0, 0, 41, 7),
            (3, 1, 88, 7),
            (2, 2, 5, 9),
            (0, 0, 41, 7), // identical: must not reappear in any digest
        ];
        let mut out = Vec::new();
        for chunk in updates.chunks(2) {
            for &(s, p, v, t) in chunk {
                src.update(SiteId(s), ProductId(p), Volume(v), VirtualTime(t));
                src.update_rate(SiteId(s), ProductId(p), v / 2, VirtualTime(t));
            }
            out.clear();
            watermark = src.changed_since(watermark, &mut out);
            for d in &out {
                incremental.update(d.site, d.product, d.av, d.at);
                incremental.update_rate(d.site, d.product, d.rate, d.rate_at);
            }
            out.clear();
            src.changed_since(0, &mut out);
            for d in &out {
                dense.update(d.site, d.product, d.av, d.at);
                dense.update_rate(d.site, d.product, d.rate, d.rate_at);
            }
            for s in 0..4u32 {
                for p in 0..3u32 {
                    let (s, p) = (SiteId(s), ProductId(p));
                    assert_eq!(incremental.known(s, p), dense.known(s, p));
                    assert_eq!(incremental.known_at(s, p), dense.known_at(s, p));
                    assert_eq!(incremental.known_rate(s, p), dense.known_rate(s, p));
                }
            }
        }
    }

    #[test]
    fn rate_knowledge_keeps_freshest() {
        let mut k = PeerKnowledge::new();
        assert_eq!(k.known_rate(SiteId(1), P), 0);
        k.update_rate(SiteId(1), P, 250, VirtualTime(5));
        assert_eq!(k.known_rate(SiteId(1), P), 250);
        // Stale report ignored, like the AV cells.
        k.update_rate(SiteId(1), P, 900, VirtualTime(2));
        assert_eq!(k.known_rate(SiteId(1), P), 250);
        k.update_rate(SiteId(1), P, 100, VirtualTime(9));
        assert_eq!(k.known_rate(SiteId(1), P), 100);
        // Rate cells are independent of AV cells.
        assert_eq!(k.known(SiteId(1), P), Volume::ZERO);
    }
}
