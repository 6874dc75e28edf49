//! Selecting and deciding strategies for AV transfers.
//!
//! The paper's accelerator has a *selecting* function (whom to ask for AV)
//! and a *deciding* function (how much to request / how much to grant).
//! §3.4 stresses that a site's strategy uses local information only, and
//! §4 fixes the simulated strategies to: select the peer believed to hold
//! the most AV; request exactly the shortage; grant half of what the
//! grantor keeps — the online electronic-money distribution rule of
//! Kawazoe, Shibuya & Tokuyama (SODA '99). The ablation experiments
//! (DESIGN.md A1/A2) swap in the alternatives implemented here.

use crate::knowledge::PeerKnowledge;
use avdb_simnet::DetRng;
use avdb_types::{
    DecideStrategyKind, ProductId, SelectStrategyKind, SiteId, VirtualTime, Volume,
};
use std::collections::HashMap;

/// Whom to ask for AV next.
pub trait SelectStrategy: Send + std::fmt::Debug {
    /// Picks the next peer to request AV from, or `None` when every
    /// eligible peer has been asked this round.
    ///
    /// The wide signature is deliberate: a strategy may use any subset of
    /// the site's local information (topology, stale knowledge, attempt
    /// history, clock, randomness) and nothing else — the paper's
    /// "local information only" rule made into an interface.
    #[allow(clippy::too_many_arguments)]
    fn select(
        &mut self,
        me: SiteId,
        n_sites: usize,
        product: ProductId,
        knowledge: &PeerKnowledge,
        already_asked: &[SiteId],
        now: VirtualTime,
        rng: &mut DetRng,
    ) -> Option<SiteId>;

    /// Picks up to `k` distinct peers for a parallel shortage fan-out,
    /// appending each pick to `already_asked` (the caller's per-update
    /// attempt history — exactly what the serial loop would have done one
    /// round trip at a time) and collecting them into `out`.
    ///
    /// The default implementation iterates [`SelectStrategy::select`], so
    /// every strategy fans out in its own order (MostKnownAv yields the
    /// top-k believed holders, RoundRobin the next k in rotation, …).
    /// Returns fewer than `k` peers when the eligible set runs dry.
    #[allow(clippy::too_many_arguments)]
    fn select_many(
        &mut self,
        me: SiteId,
        n_sites: usize,
        product: ProductId,
        knowledge: &PeerKnowledge,
        already_asked: &mut Vec<SiteId>,
        now: VirtualTime,
        rng: &mut DetRng,
        k: usize,
        out: &mut Vec<SiteId>,
    ) {
        out.clear();
        for _ in 0..k {
            match self.select(me, n_sites, product, knowledge, already_asked, now, rng) {
                Some(peer) => {
                    already_asked.push(peer);
                    out.push(peer);
                }
                None => break,
            }
        }
    }
}

/// Splits `shortage` into `k` per-peer request shares that sum exactly to
/// the shortage: an even split with the remainder spread one unit at a
/// time over the first peers. Written against `i64` directly so
/// `Volume::MAX`-scale shortages cannot overflow (`k` is a small fan-out
/// width).
pub fn partition_shortage(shortage: Volume, k: usize, out: &mut Vec<Volume>) {
    out.clear();
    if k == 0 {
        return;
    }
    let total = shortage.get().max(0);
    let k_i = k as i64;
    let each = total / k_i;
    let rem = total - each * k_i;
    for i in 0..k_i {
        out.push(Volume(each + i64::from(i < rem)));
    }
}

/// Splits a shortage across fan-out peers in proportion to what each is
/// *expected to yield* (`expected[i]`, typically half the believed AV
/// under a GrantHalf grantor): greedy in order, so a peer believed able
/// to cover the whole shortage is asked for all of it instead of an
/// even k-th. Any residue beliefs cannot cover is spread evenly (the
/// beliefs may be stale-low), and every share is floored at 1 so no
/// peer is asked for nothing.
pub fn partition_shortage_expected(
    shortage: Volume,
    expected: &[Volume],
    out: &mut Vec<Volume>,
) {
    out.clear();
    if expected.is_empty() {
        return;
    }
    let mut remaining = shortage.get().max(0);
    for e in expected {
        let take = remaining.min(e.get().max(0));
        out.push(Volume(take));
        remaining -= take;
    }
    if remaining > 0 {
        let k_i = out.len() as i64;
        let each = remaining / k_i;
        let mut extra = remaining - each * k_i;
        for s in out.iter_mut() {
            *s += Volume(each + i64::from(extra > 0));
            extra -= i64::from(extra > 0);
        }
    }
    for s in out.iter_mut() {
        if !s.is_positive() {
            *s = Volume(1);
        }
    }
}

/// How much AV to request and to grant.
pub trait DecideStrategy: Send + std::fmt::Debug {
    /// Volume to request given the current shortage (paper: the shortage
    /// itself).
    fn request_amount(&self, shortage: Volume) -> Volume;

    /// Volume a grantor releases given what it has available and what was
    /// requested. Must return a value in `0..=held`.
    fn grant_amount(&self, held: Volume, requested: Volume) -> Volume;
}

// ---------------------------------------------------------------------------
// selecting strategies
// ---------------------------------------------------------------------------

/// The peers one shortage round has asked, as a bitset: membership is a
/// shift and a mask, where `asked.contains` scans the whole list.
#[derive(Clone, Debug, Default)]
pub struct AskedSet(Vec<u64>);

impl AskedSet {
    /// The set of `asked`.
    pub fn of(asked: &[SiteId]) -> Self {
        let mut set = AskedSet::default();
        asked.iter().for_each(|&s| set.insert(s));
        set
    }

    /// Adds `s`.
    pub fn insert(&mut self, s: SiteId) {
        let word = s.index() / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (s.index() % 64);
    }

    /// Whether `s` was asked.
    pub fn contains(&self, s: SiteId) -> bool {
        self.0.get(s.index() / 64).is_some_and(|w| w >> (s.index() % 64) & 1 == 1)
    }
}

/// Whether a shortage round has nobody left worth asking: every peer but
/// `me` was `asked` already or is believed `dry`.
pub fn none_left_to_ask(
    me: SiteId,
    n_sites: usize,
    asked: &[SiteId],
    dry: impl Fn(SiteId) -> bool,
) -> bool {
    let asked = AskedSet::of(asked);
    SiteId::all(n_sites).all(|s| s == me || asked.contains(s) || dry(s))
}

/// Paper strategy: peer with the highest believed AV (stale knowledge).
#[derive(Debug, Default, Clone)]
pub struct MostKnownAv;

impl MostKnownAv {
    /// The unasked peer `row` believes richest. A direct max scan instead
    /// of ranking every peer: the shortage path calls this once per AV
    /// round, and only the top candidate is needed. Ascending-id
    /// iteration with a strict `>` keeps the ranked_peers tie-break
    /// (lowest id wins) without allocating, and the product-major mirror
    /// keeps the scan on contiguous memory.
    fn richest(me: SiteId, n_sites: usize, row: &[Volume], asked: &AskedSet) -> Option<SiteId> {
        let mut best: Option<(SiteId, Volume)> = None;
        for s in SiteId::all(n_sites) {
            if s == me || asked.contains(s) {
                continue;
            }
            let av = row.get(s.index()).copied().unwrap_or(Volume::ZERO);
            match best {
                Some((_, best_av)) if best_av >= av => {}
                _ => best = Some((s, av)),
            }
        }
        best.map(|(s, _)| s)
    }
}

impl SelectStrategy for MostKnownAv {
    fn select(
        &mut self,
        me: SiteId,
        n_sites: usize,
        product: ProductId,
        knowledge: &PeerKnowledge,
        already_asked: &[SiteId],
        _now: VirtualTime,
        _rng: &mut DetRng,
    ) -> Option<SiteId> {
        let asked = AskedSet::of(already_asked);
        Self::richest(me, n_sites, knowledge.known_row(product), &asked)
    }

    /// The top `k` believed holders, each scan skipping the earlier picks
    /// through one bitset built once per burst.
    fn select_many(
        &mut self,
        me: SiteId,
        n_sites: usize,
        product: ProductId,
        knowledge: &PeerKnowledge,
        already_asked: &mut Vec<SiteId>,
        _now: VirtualTime,
        _rng: &mut DetRng,
        k: usize,
        out: &mut Vec<SiteId>,
    ) {
        out.clear();
        let (row, mut asked) = (knowledge.known_row(product), AskedSet::of(already_asked));
        for _ in 0..k {
            let Some(peer) = Self::richest(me, n_sites, row, &asked) else { break };
            asked.insert(peer);
            already_asked.push(peer);
            out.push(peer);
        }
    }
}

/// Cycles through peers in id order, remembering where it left off
/// per product.
#[derive(Debug, Default, Clone)]
pub struct RoundRobin {
    next: HashMap<ProductId, u32>,
}

impl SelectStrategy for RoundRobin {
    fn select(
        &mut self,
        me: SiteId,
        n_sites: usize,
        product: ProductId,
        _knowledge: &PeerKnowledge,
        already_asked: &[SiteId],
        _now: VirtualTime,
        _rng: &mut DetRng,
    ) -> Option<SiteId> {
        let start = *self.next.entry(product).or_insert(0);
        for k in 0..n_sites as u32 {
            let candidate = SiteId((start + k) % n_sites as u32);
            if candidate != me && !already_asked.contains(&candidate) {
                self.next.insert(product, (candidate.0 + 1) % n_sites as u32);
                return Some(candidate);
            }
        }
        None
    }
}

/// Uniformly random eligible peer.
#[derive(Debug, Default, Clone)]
pub struct RandomSelect;

impl SelectStrategy for RandomSelect {
    fn select(
        &mut self,
        me: SiteId,
        n_sites: usize,
        _product: ProductId,
        _knowledge: &PeerKnowledge,
        already_asked: &[SiteId],
        _now: VirtualTime,
        rng: &mut DetRng,
    ) -> Option<SiteId> {
        let eligible: Vec<SiteId> = SiteId::all(n_sites)
            .filter(|s| *s != me && !already_asked.contains(s))
            .collect();
        if eligible.is_empty() {
            None
        } else {
            Some(*rng.choose(&eligible))
        }
    }
}

/// The peer asked longest ago (never-asked peers first, by id).
#[derive(Debug, Default, Clone)]
pub struct LeastRecentlyAsked {
    last_asked: HashMap<SiteId, VirtualTime>,
}

impl SelectStrategy for LeastRecentlyAsked {
    fn select(
        &mut self,
        me: SiteId,
        n_sites: usize,
        _product: ProductId,
        _knowledge: &PeerKnowledge,
        already_asked: &[SiteId],
        now: VirtualTime,
        _rng: &mut DetRng,
    ) -> Option<SiteId> {
        let pick = SiteId::all(n_sites)
            .filter(|s| *s != me && !already_asked.contains(s))
            .min_by_key(|s| (self.last_asked.get(s).copied(), *s))?;
        self.last_asked.insert(pick, now);
        Some(pick)
    }
}

// ---------------------------------------------------------------------------
// deciding strategies
// ---------------------------------------------------------------------------

/// Paper strategy: request the shortage; grant half of what is held
/// (rounded up so a final unit can still circulate).
#[derive(Debug, Default, Clone)]
pub struct GrantHalf;

impl DecideStrategy for GrantHalf {
    fn request_amount(&self, shortage: Volume) -> Volume {
        shortage
    }
    fn grant_amount(&self, held: Volume, _requested: Volume) -> Volume {
        held.half_up().clamp_non_negative()
    }
}

/// Grantor releases everything it has.
#[derive(Debug, Default, Clone)]
pub struct GrantAll;

impl DecideStrategy for GrantAll {
    fn request_amount(&self, shortage: Volume) -> Volume {
        shortage
    }
    fn grant_amount(&self, held: Volume, _requested: Volume) -> Volume {
        held.clamp_non_negative()
    }
}

/// Grantor releases exactly the requested shortage (or all it has).
#[derive(Debug, Default, Clone)]
pub struct GrantShortage;

impl DecideStrategy for GrantShortage {
    fn request_amount(&self, shortage: Volume) -> Volume {
        shortage
    }
    fn grant_amount(&self, held: Volume, requested: Volume) -> Volume {
        requested.min(held).clamp_non_negative()
    }
}

/// Grantor releases `min(held, 2 × shortage)` — smooths future demand by
/// pre-positioning slack at the requester.
#[derive(Debug, Default, Clone)]
pub struct GrantDoubleShortage;

impl DecideStrategy for GrantDoubleShortage {
    fn request_amount(&self, shortage: Volume) -> Volume {
        shortage
    }
    fn grant_amount(&self, held: Volume, requested: Volume) -> Volume {
        (requested + requested).min(held).clamp_non_negative()
    }
}

// ---------------------------------------------------------------------------
// factories
// ---------------------------------------------------------------------------

/// Instantiates a selection strategy from its config kind.
pub fn make_select(kind: SelectStrategyKind) -> Box<dyn SelectStrategy> {
    match kind {
        SelectStrategyKind::MostKnownAv => Box::new(MostKnownAv),
        SelectStrategyKind::RoundRobin => Box::new(RoundRobin::default()),
        SelectStrategyKind::Random => Box::new(RandomSelect),
        SelectStrategyKind::LeastRecentlyAsked => Box::new(LeastRecentlyAsked::default()),
    }
}

/// Instantiates a deciding strategy from its config kind.
pub fn make_decide(kind: DecideStrategyKind) -> Box<dyn DecideStrategy> {
    match kind {
        DecideStrategyKind::GrantHalf => Box::new(GrantHalf),
        DecideStrategyKind::GrantAll => Box::new(GrantAll),
        DecideStrategyKind::GrantShortage => Box::new(GrantShortage),
        DecideStrategyKind::GrantDoubleShortage => Box::new(GrantDoubleShortage),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: ProductId = ProductId(0);

    fn knowledge() -> PeerKnowledge {
        let mut k = PeerKnowledge::new();
        k.seed(P, &[Volume(40), Volume(20), Volume(40)]);
        k
    }

    fn rng() -> DetRng {
        DetRng::new(1)
    }

    #[test]
    fn most_known_av_picks_richest_then_next() {
        let mut s = MostKnownAv;
        let k = knowledge();
        let mut r = rng();
        let first = s
            .select(SiteId(1), 3, P, &k, &[], VirtualTime::ZERO, &mut r)
            .unwrap();
        assert_eq!(first, SiteId(0), "ties break to lower id");
        let second = s
            .select(SiteId(1), 3, P, &k, &[first], VirtualTime::ZERO, &mut r)
            .unwrap();
        assert_eq!(second, SiteId(2));
        assert!(s
            .select(SiteId(1), 3, P, &k, &[SiteId(0), SiteId(2)], VirtualTime::ZERO, &mut r)
            .is_none());
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = RoundRobin::default();
        let k = knowledge();
        let mut r = rng();
        let a = s.select(SiteId(0), 3, P, &k, &[], VirtualTime::ZERO, &mut r).unwrap();
        let b = s.select(SiteId(0), 3, P, &k, &[], VirtualTime::ZERO, &mut r).unwrap();
        let c = s.select(SiteId(0), 3, P, &k, &[], VirtualTime::ZERO, &mut r).unwrap();
        assert_eq!((a, b, c), (SiteId(1), SiteId(2), SiteId(1)));
    }

    #[test]
    fn random_select_is_deterministic_per_seed_and_respects_exclusions() {
        let k = knowledge();
        let pick = |seed| {
            let mut s = RandomSelect;
            let mut r = DetRng::new(seed);
            s.select(SiteId(1), 3, P, &k, &[], VirtualTime::ZERO, &mut r)
        };
        assert_eq!(pick(5), pick(5));
        let mut s = RandomSelect;
        let mut r = rng();
        for _ in 0..20 {
            let got = s
                .select(SiteId(1), 3, P, &k, &[SiteId(0)], VirtualTime::ZERO, &mut r)
                .unwrap();
            assert_eq!(got, SiteId(2));
        }
        assert!(s
            .select(SiteId(1), 3, P, &k, &[SiteId(0), SiteId(2)], VirtualTime::ZERO, &mut r)
            .is_none());
    }

    #[test]
    fn least_recently_asked_prefers_stalest() {
        let mut s = LeastRecentlyAsked::default();
        let k = knowledge();
        let mut r = rng();
        let a = s.select(SiteId(0), 3, P, &k, &[], VirtualTime(1), &mut r).unwrap();
        assert_eq!(a, SiteId(1), "never-asked peers first by id");
        let b = s.select(SiteId(0), 3, P, &k, &[], VirtualTime(2), &mut r).unwrap();
        assert_eq!(b, SiteId(2));
        let c = s.select(SiteId(0), 3, P, &k, &[], VirtualTime(3), &mut r).unwrap();
        assert_eq!(c, SiteId(1), "oldest ask comes around again");
    }

    #[test]
    fn grant_half_gives_half_rounded_up() {
        let d = GrantHalf;
        assert_eq!(d.request_amount(Volume(10)), Volume(10));
        assert_eq!(d.grant_amount(Volume(40), Volume(10)), Volume(20));
        assert_eq!(d.grant_amount(Volume(1), Volume(10)), Volume(1));
        assert_eq!(d.grant_amount(Volume(0), Volume(10)), Volume(0));
    }

    #[test]
    fn grant_all_empties_grantor() {
        let d = GrantAll;
        assert_eq!(d.grant_amount(Volume(37), Volume(1)), Volume(37));
        assert_eq!(d.grant_amount(Volume(0), Volume(1)), Volume(0));
    }

    #[test]
    fn grant_shortage_caps_at_request_and_holdings() {
        let d = GrantShortage;
        assert_eq!(d.grant_amount(Volume(40), Volume(10)), Volume(10));
        assert_eq!(d.grant_amount(Volume(4), Volume(10)), Volume(4));
    }

    #[test]
    fn grant_double_shortage() {
        let d = GrantDoubleShortage;
        assert_eq!(d.grant_amount(Volume(40), Volume(10)), Volume(20));
        assert_eq!(d.grant_amount(Volume(15), Volume(10)), Volume(15));
    }

    #[test]
    fn grants_never_exceed_holdings() {
        let strategies: Vec<Box<dyn DecideStrategy>> = vec![
            Box::new(GrantHalf),
            Box::new(GrantAll),
            Box::new(GrantShortage),
            Box::new(GrantDoubleShortage),
        ];
        for d in &strategies {
            for held in 0..50i64 {
                for req in 0..50i64 {
                    let g = d.grant_amount(Volume(held), Volume(req));
                    assert!(g >= Volume::ZERO, "{d:?} granted negative");
                    assert!(g <= Volume(held), "{d:?} over-granted");
                }
            }
        }
    }

    #[test]
    fn select_many_yields_topk_in_rank_order() {
        let mut s = MostKnownAv;
        let k = knowledge();
        let mut r = rng();
        let mut asked = Vec::new();
        let mut out = Vec::new();
        s.select_many(SiteId(1), 3, P, &k, &mut asked, VirtualTime::ZERO, &mut r, 5, &mut out);
        assert_eq!(out, vec![SiteId(0), SiteId(2)], "runs dry below k");
        assert_eq!(asked, out, "fan-out charges the attempt history");
        // A second burst with the same history finds nobody left.
        s.select_many(SiteId(1), 3, P, &k, &mut asked, VirtualTime::ZERO, &mut r, 2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn select_many_respects_prior_asks() {
        let mut s = MostKnownAv;
        let k = knowledge();
        let mut r = rng();
        let mut asked = vec![SiteId(0)];
        let mut out = Vec::new();
        s.select_many(SiteId(1), 3, P, &k, &mut asked, VirtualTime::ZERO, &mut r, 2, &mut out);
        assert_eq!(out, vec![SiteId(2)]);
        assert_eq!(asked, vec![SiteId(0), SiteId(2)]);
    }

    #[test]
    fn most_known_av_matches_ranked_peers_head() {
        // The allocation-free scan must agree with the ranking it replaced.
        let mut k = PeerKnowledge::new();
        k.seed(P, &[Volume(40), Volume(20), Volume(40), Volume(7)]);
        k.update(SiteId(3), P, Volume(40), VirtualTime(2));
        let mut s = MostKnownAv;
        let mut r = rng();
        let mut asked: Vec<SiteId> = Vec::new();
        for _ in 0..4 {
            let ranked = k.ranked_peers(SiteId(1), 4, P, &asked);
            let got = s.select(SiteId(1), 4, P, &k, &asked, VirtualTime::ZERO, &mut r);
            assert_eq!(got, ranked.first().copied());
            match got {
                Some(p) => asked.push(p),
                None => break,
            }
        }
    }

    #[test]
    fn partition_shortage_sums_exactly() {
        let mut out = Vec::new();
        partition_shortage(Volume(10), 3, &mut out);
        assert_eq!(out, vec![Volume(4), Volume(3), Volume(3)]);
        partition_shortage(Volume(2), 4, &mut out);
        assert_eq!(out, vec![Volume(1), Volume(1), Volume(0), Volume(0)]);
        partition_shortage(Volume(9), 1, &mut out);
        assert_eq!(out, vec![Volume(9)]);
        partition_shortage(Volume(5), 0, &mut out);
        assert!(out.is_empty());
        // i64 edge: MAX splits without overflow and still sums exactly.
        partition_shortage(Volume::MAX, 3, &mut out);
        assert_eq!(out.iter().map(|v| v.get()).sum::<i64>(), i64::MAX);
        assert!(out.iter().all(|v| !v.is_negative()));
        // Negative shortages never produce negative requests.
        partition_shortage(Volume(-5), 2, &mut out);
        assert_eq!(out, vec![Volume::ZERO, Volume::ZERO]);
    }

    #[test]
    fn partition_shortage_expected_is_greedy_with_even_residue() {
        let mut out = Vec::new();
        // First peer is believed able to cover everything: asked for all.
        partition_shortage_expected(Volume(10), &[Volume(20), Volume(5)], &mut out);
        assert_eq!(out, vec![Volume(10), Volume(1)]);
        // Beliefs cover exactly: greedy prefix shares.
        partition_shortage_expected(Volume(10), &[Volume(6), Volume(4)], &mut out);
        assert_eq!(out, vec![Volume(6), Volume(4)]);
        // Beliefs fall short by 4: residue spread evenly on top.
        partition_shortage_expected(Volume(10), &[Volume(3), Volume(3)], &mut out);
        assert_eq!(out, vec![Volume(5), Volume(5)]);
        // No beliefs at all: pure even split, floored at 1.
        partition_shortage_expected(Volume(3), &[Volume(0), Volume(0)], &mut out);
        assert_eq!(out, vec![Volume(2), Volume(1)]);
        partition_shortage_expected(Volume(5), &[], &mut out);
        assert!(out.is_empty());
        // i64 edges: MAX shortage against MAX beliefs never overflows and
        // every share stays positive.
        partition_shortage_expected(Volume::MAX, &[Volume::MAX, Volume::MAX], &mut out);
        assert_eq!(out, vec![Volume::MAX, Volume(1)]);
        partition_shortage_expected(Volume::MAX, &[Volume(0), Volume(0)], &mut out);
        assert_eq!(out.iter().map(|v| v.get()).sum::<i64>(), i64::MAX);
        assert!(out.iter().all(|v| v.is_positive()));
        // Negative beliefs are clamped, negative shortages yield floors.
        partition_shortage_expected(Volume(-5), &[Volume(-3), Volume(9)], &mut out);
        assert_eq!(out, vec![Volume(1), Volume(1)]);
    }

    #[test]
    fn factories_produce_matching_kinds() {
        // Smoke check: every kind instantiates and behaves distinctively.
        let mut r = rng();
        let k = knowledge();
        for kind in [
            SelectStrategyKind::MostKnownAv,
            SelectStrategyKind::RoundRobin,
            SelectStrategyKind::Random,
            SelectStrategyKind::LeastRecentlyAsked,
        ] {
            let mut s = make_select(kind);
            assert!(s
                .select(SiteId(1), 3, P, &k, &[], VirtualTime::ZERO, &mut r)
                .is_some());
        }
        assert_eq!(
            make_decide(DecideStrategyKind::GrantHalf).grant_amount(Volume(10), Volume(3)),
            Volume(5)
        );
        assert_eq!(
            make_decide(DecideStrategyKind::GrantAll).grant_amount(Volume(10), Volume(3)),
            Volume(10)
        );
        assert_eq!(
            make_decide(DecideStrategyKind::GrantShortage).grant_amount(Volume(10), Volume(3)),
            Volume(3)
        );
        assert_eq!(
            make_decide(DecideStrategyKind::GrantDoubleShortage)
                .grant_amount(Volume(10), Volume(3)),
            Volume(6)
        );
    }

    /// The selecting scan as it read before the bitset: `contains` on
    /// the attempt list for every peer.
    fn richest_by_contains(me: SiteId, n: usize, row: &[Volume], asked: &[SiteId]) -> Option<SiteId> {
        let mut best: Option<(SiteId, Volume)> = None;
        for s in SiteId::all(n) {
            if s == me || asked.contains(&s) {
                continue;
            }
            let av = row.get(s.index()).copied().unwrap_or(Volume::ZERO);
            match best {
                Some((_, best_av)) if best_av >= av => {}
                _ => best = Some((s, av)),
            }
        }
        best.map(|(s, _)| s)
    }

    proptest::proptest! {
        /// For any beliefs, attempt history and burst width, the bitset
        /// picks what the `contains` scan picked, in the same order, and
        /// judges a round blind exactly when it did.
        #[test]
        fn prop_bitset_picks_and_blindness_match_contains(
            n_sites in 2usize..80,
            me in 0u32..80,
            avs in proptest::collection::vec(-3i64..40, 0..80),
            asked in proptest::collection::vec(0u32..80, 0..12),
            k in 0usize..6,
        ) {
            let me = SiteId(me % n_sites as u32);
            let mut knowledge = PeerKnowledge::new();
            let seeded: Vec<Volume> = avs.iter().take(n_sites).map(|&v| Volume(v)).collect();
            knowledge.seed(P, &seeded);
            let row = knowledge.known_row(P);
            let mut asked: Vec<SiteId> = asked.iter().map(|a| SiteId(a % n_sites as u32)).collect();
            let mut want = Vec::new();
            let mut model = asked.clone();
            for _ in 0..k {
                let Some(p) = richest_by_contains(me, n_sites, row, &model) else { break };
                model.push(p);
                want.push(p);
            }
            let (mut got, mut r) = (Vec::new(), rng());
            let single = MostKnownAv.select(me, n_sites, P, &knowledge, &asked, VirtualTime::ZERO, &mut r);
            proptest::prop_assert_eq!(single, richest_by_contains(me, n_sites, row, &asked));
            MostKnownAv.select_many(me, n_sites, P, &knowledge, &mut asked, VirtualTime::ZERO, &mut r, k, &mut got);
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(&asked, &model);
            let dry = |s: SiteId| !knowledge.known(s, P).is_positive();
            let by_contains = SiteId::all(n_sites).all(|s| s == me || asked.contains(&s) || dry(s));
            proptest::prop_assert_eq!(none_left_to_ask(me, n_sites, &asked, dry), by_contains);
        }
    }
}
