//! Whether a shortage round is worth sending.
//!
//! The paper's shortage loop asks peers "until covered, else abort".
//! When every peer left to ask is believed to hold nothing, each round is
//! a *blind probe*, and at scale a drained product turns one short update
//! into a sweep of the whole cluster that ends in the same abort. The
//! Coordination Avoidance test decides instead: a message is worth
//! sending only if its reply could change the outcome. The replica's
//! committed stock bounds the AV held anywhere (Σ AV = Σ stock), so
//! `stock − own AV` spread over the unasked peers is what an average one
//! of them could grant. When the deciding strategy would not hand that
//! average peer the shortage, the item gets one blind probe (whose reply
//! refreshes the beliefs either way) and then aborts.

use crate::strategy::DecideStrategy;
use avdb_types::Volume;

/// What the shortage loop should do with the round it is about to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Send the round.
    Ask,
    /// Give up: no reply is expected to cover the shortage.
    Abort,
}

/// Local facts the blind-probe rule reads; no clock, RNG or I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeQuery {
    /// AV still missing for the current item.
    pub shortage: Volume,
    /// The local replica's committed stock of the product.
    pub replica_stock: Volume,
    /// This site's own AV for the product, holds included.
    pub own_av: Volume,
    /// Peers not yet asked for this item (this round's picks included).
    pub unasked_peers: usize,
    /// No peer not yet asked is believed to hold any AV.
    pub picks_all_dry: bool,
    /// Blind rounds already sent for this item.
    pub blind_probes_used: u32,
}

/// The blind-probe rule: believed holders are always asked, and so is
/// the first blind probe; after it, a blind round goes out only while an
/// average unasked peer is expected to grant the whole shortage.
pub fn next_probe(q: &ProbeQuery, decide: &dyn DecideStrategy) -> Probe {
    if !q.picks_all_dry || q.blind_probes_used == 0 {
        return Probe::Ask;
    }
    if q.unasked_peers == 0 {
        return Probe::Abort;
    }
    let unasked = i64::try_from(q.unasked_peers).unwrap_or(i64::MAX);
    let elsewhere = q
        .replica_stock
        .saturating_sub(q.own_av)
        .clamp_non_negative();
    let average = Volume(elsewhere.get() / unasked);
    if decide.grant_amount(average, q.shortage) >= q.shortage {
        Probe::Ask
    } else {
        Probe::Abort
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{GrantAll, GrantHalf, GrantShortage};

    /// A blind round 10 short, after the item's one blind probe.
    fn q(replica_stock: i64, own_av: i64, unasked_peers: usize) -> ProbeQuery {
        ProbeQuery {
            shortage: Volume(10),
            replica_stock: Volume(replica_stock),
            own_av: Volume(own_av),
            unasked_peers,
            picks_all_dry: true,
            blind_probes_used: 1,
        }
    }

    #[test]
    fn plentiful_stock_keeps_sweeping() {
        // 31 peers × 20 expected each: GrantHalf yields 10 = the shortage.
        assert_eq!(next_probe(&q(620, 0, 31), &GrantHalf), Probe::Ask);
        assert_eq!(
            next_probe(
                &ProbeQuery {
                    blind_probes_used: 7,
                    ..q(620, 0, 31)
                },
                &GrantHalf
            ),
            Probe::Ask
        );
    }

    #[test]
    fn thin_stock_gets_exactly_one_blind_probe() {
        let first = ProbeQuery {
            blind_probes_used: 0,
            ..q(40, 5, 31)
        };
        assert_eq!(next_probe(&first, &GrantHalf), Probe::Ask);
        assert_eq!(next_probe(&q(40, 5, 31), &GrantHalf), Probe::Abort);
        let third = ProbeQuery {
            blind_probes_used: 3,
            ..q(40, 5, 31)
        };
        assert_eq!(next_probe(&third, &GrantHalf), Probe::Abort);
    }

    #[test]
    fn a_believed_holder_is_never_skipped() {
        let holder = ProbeQuery {
            picks_all_dry: false,
            blind_probes_used: 9,
            ..q(0, 0, 1)
        };
        for d in [&GrantHalf as &dyn DecideStrategy, &GrantAll, &GrantShortage] {
            assert_eq!(next_probe(&holder, d), Probe::Ask, "{d:?}");
        }
    }

    #[test]
    fn each_strategy_crosses_its_own_threshold() {
        // 4 unasked peers; the average is (stock − own) / 4. GrantHalf
        // grants ⌈avg/2⌉, so it needs avg ≥ 19 for a shortage of 10.
        assert_eq!(next_probe(&q(76, 0, 4), &GrantHalf), Probe::Ask);
        assert_eq!(next_probe(&q(75, 0, 4), &GrantHalf), Probe::Abort);
        // GrantAll and GrantShortage hand over avg (capped): need avg ≥ 10.
        for d in [&GrantAll as &dyn DecideStrategy, &GrantShortage] {
            assert_eq!(next_probe(&q(40, 0, 4), d), Probe::Ask, "{d:?}");
            assert_eq!(next_probe(&q(39, 0, 4), d), Probe::Abort, "{d:?}");
        }
    }

    #[test]
    fn one_peer_left_gets_the_whole_remainder() {
        assert_eq!(next_probe(&q(29, 10, 1), &GrantHalf), Probe::Ask); // ⌈19/2⌉ = 10
        assert_eq!(next_probe(&q(28, 10, 1), &GrantHalf), Probe::Abort); // 18/2 = 9
        assert_eq!(next_probe(&q(20, 10, 1), &GrantAll), Probe::Ask);
        assert_eq!(next_probe(&q(19, 10, 1), &GrantAll), Probe::Abort);
        // Nobody left: nothing can cover.
        assert_eq!(next_probe(&q(1_000, 0, 0), &GrantAll), Probe::Abort);
    }

    #[test]
    fn replica_stock_below_own_av_means_nothing_elsewhere() {
        // A lagging replica can read below this site's AV (increments
        // elsewhere already minted AV that migrated here).
        assert_eq!(next_probe(&q(5, 50, 3), &GrantAll), Probe::Abort);
        let first = ProbeQuery {
            blind_probes_used: 0,
            ..q(5, 50, 3)
        };
        assert_eq!(next_probe(&first, &GrantAll), Probe::Ask);
    }

    #[test]
    fn extreme_volumes_do_not_overflow() {
        let big = i64::MAX / 8;
        let edge = |stock, own, shortage| ProbeQuery {
            shortage: Volume(shortage),
            ..q(stock, own, 1)
        };
        for d in [&GrantHalf as &dyn DecideStrategy, &GrantAll, &GrantShortage] {
            assert_eq!(next_probe(&edge(big, 0, big / 2), d), Probe::Ask, "{d:?}");
            assert_eq!(next_probe(&edge(big, -big, big), d), Probe::Ask, "{d:?}");
            assert_eq!(next_probe(&edge(-big, big, 1), d), Probe::Abort, "{d:?}");
            assert_eq!(next_probe(&edge(big, big, 1), d), Probe::Abort, "{d:?}");
        }
        // Saturating: MAX stock against a negative own AV still spreads.
        let huge = ProbeQuery {
            unasked_peers: usize::MAX,
            ..edge(i64::MAX, -1, 1)
        };
        assert_eq!(next_probe(&huge, &GrantAll), Probe::Ask);
    }
}
