//! Message-budget regression tests: the paper's headline cost claims,
//! pinned down as exact counter equalities sourced from the telemetry
//! registry so any protocol change that silently spends more
//! correspondences fails here.
//!
//! - A Delay Update fully covered by local AV costs **zero** synchronous
//!   peer messages (§4: "the update is executed without communication").
//! - An Immediate Update costs **exactly one** lock/ready/commit round:
//!   `n-1` each of prepare, vote, decision, and done — `2(n-1)`
//!   correspondences, never more.
//! - Lazy propagation is acknowledged once per `ACK_EVERY` (16) applied
//!   entries per link, not once per frame, and one settling flush
//!   confirms every tail.

mod common;

use avdb::prelude::*;
use avdb::types::AvAllocation;
use common::{assert_oracle_sim, Submissions};

/// Every synchronous (non-propagation) message kind the protocol owns.
const SYNC_KINDS: [&str; 8] = [
    "av-request",
    "av-grant",
    "av-push",
    "av-push-ack",
    "imm-prepare",
    "imm-vote",
    "imm-decision",
    "imm-done",
];

/// One lock/ready/commit round of the Immediate protocol.
const IMM_ROUND: [&str; 4] = ["imm-prepare", "imm-vote", "imm-decision", "imm-done"];

#[test]
fn covered_delay_update_sends_zero_synchronous_messages() {
    for n in [3usize, 5, 7] {
        let cfg = SystemConfig::builder()
            .sites(n)
            .regular_products(1, Volume(300 * n as i64))
            .av_allocation(AvAllocation::Uniform)
            .seed(1)
            .build()
            .unwrap();
        let mut sys = DistributedSystem::new(cfg);
        let mut subs = Submissions::new();
        // Uniform allocation hands every site 300; a −50 is fully covered.
        subs.submit_at(
            &mut sys,
            VirtualTime(5),
            UpdateRequest::new(SiteId(1), ProductId(0), Volume(-50)),
        );
        sys.run_until_quiescent();

        // Budget from the network substrate and from the per-site
        // registries independently: not one synchronous message.
        let merged = sys.merged_registry();
        for kind in SYNC_KINDS {
            assert_eq!(sys.counters().by_kind(kind), 0, "{n} sites: network carried {kind}");
            assert_eq!(
                merged.counter(&format!("msg.sent.{kind}")),
                0,
                "{n} sites: some site sent {kind}"
            );
        }
        assert_eq!(merged.counter("delay.commit.local"), 1, "{n} sites: local commit");
        assert_eq!(merged.counter("delay.commit.remote"), 0);
        assert_eq!(merged.counter("delay.abort.insufficient-av"), 0);

        let outcomes = sys.drain_outcomes();
        match &outcomes[0].2 {
            UpdateOutcome::Committed { correspondences, .. } => {
                assert_eq!(*correspondences, 0, "{n} sites: covered commit is free")
            }
            other => panic!("{n} sites: expected covered commit, got {other:?}"),
        }

        // After settling, asynchronous propagation must be the *only*
        // traffic the entire run generated.
        sys.settle().expect("anti-entropy converges");
        for (kind, count) in &sys.counters().snapshot().by_kind {
            assert!(
                kind == "propagate" || kind == "propagate-ack",
                "{n} sites: unexpected {count} {kind} messages"
            );
        }
        assert_oracle_sim(&sys, subs, outcomes, "covered-delay-budget");
    }
}

#[test]
fn immediate_update_costs_exactly_one_round() {
    for n in [3usize, 5, 7] {
        let cfg = SystemConfig::builder()
            .sites(n)
            .regular_products(1, Volume(600))
            .non_regular_products(1, Volume(600))
            .seed(1)
            .build()
            .unwrap();
        let mut sys = DistributedSystem::new(cfg);
        let mut subs = Submissions::new();
        // Non-base coordinator, so completion is judged by the base
        // site's Done message — the full paper flow.
        subs.submit_at(
            &mut sys,
            VirtualTime(3),
            UpdateRequest::new(SiteId(1), ProductId(1), Volume(-10)),
        );
        sys.run_until_quiescent();

        let peers = (n - 1) as u64;
        for kind in IMM_ROUND {
            assert_eq!(sys.counters().by_kind(kind), peers, "{n} sites: {kind} count");
        }
        assert_eq!(
            sys.counters().total_messages(),
            4 * peers,
            "{n} sites: exactly one lock/ready/commit round, nothing else"
        );
        let merged = sys.merged_registry();
        assert_eq!(merged.counter("imm.commit"), 1);
        assert_eq!(merged.counter("imm.abort"), 0);

        let outcomes = sys.drain_outcomes();
        match &outcomes[0].2 {
            UpdateOutcome::Committed { correspondences, .. } => {
                assert_eq!(*correspondences, 2 * peers, "{n} sites: 2(n-1) correspondences")
            }
            other => panic!("{n} sites: expected immediate commit, got {other:?}"),
        }
        sys.settle().expect("anti-entropy converges");
        assert_oracle_sim(&sys, subs, outcomes, "immediate-budget");
    }
}

#[test]
fn immediate_update_from_base_is_still_one_round() {
    // When the coordinator *is* the base site, completion is immediate
    // at decision time — but the participants still send their Done, so
    // the wire cost is identical: no short-circuit hides messages.
    let n = 5usize;
    let cfg = SystemConfig::builder()
        .sites(n)
        .regular_products(1, Volume(600))
        .non_regular_products(1, Volume(600))
        .seed(1)
        .build()
        .unwrap();
    let mut sys = DistributedSystem::new(cfg);
    let mut subs = Submissions::new();
    subs.submit_at(
        &mut sys,
        VirtualTime(3),
        UpdateRequest::new(SiteId(0), ProductId(1), Volume(-10)),
    );
    sys.run_until_quiescent();

    let peers = (n - 1) as u64;
    for kind in IMM_ROUND {
        assert_eq!(sys.counters().by_kind(kind), peers, "base coordinator: {kind} count");
    }
    assert_eq!(sys.counters().total_messages(), 4 * peers);
    assert_eq!(sys.merged_registry().counter("imm.commit"), 1);

    let outcomes = sys.drain_outcomes();
    assert!(outcomes[0].2.is_committed());
    sys.settle().expect("anti-entropy converges");
    assert_oracle_sim(&sys, subs, outcomes, "immediate-budget-base");
}

#[test]
fn steady_propagation_acks_every_sixteen_entries_and_settle_confirms_the_tail() {
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(1, Volume(900))
        .av_allocation(AvAllocation::Uniform)
        .propagation_batch(4)
        .seed(1)
        .build()
        .unwrap();
    let mut sys = DistributedSystem::new(cfg);
    let mut subs = Submissions::new();
    // Fifty covered decrements at site 1, one per tick: twelve frames of
    // four to each peer, and a two-entry tail still filling a batch.
    for t in 0..50 {
        subs.submit_at(
            &mut sys,
            VirtualTime(t),
            UpdateRequest::new(SiteId(1), ProductId(0), Volume(-1)),
        );
    }
    sys.run_until_quiescent();
    assert_eq!(sys.counters().by_kind("propagate"), 24, "twelve frames per peer");
    // Each peer acks at 16, 32 and 48 applied entries.
    assert_eq!(sys.counters().by_kind("propagate-ack"), 6);
    let origin = sys.accelerator(SiteId(1));
    assert_eq!(origin.registry().gauge("repl.queue.depth"), 2, "the unsent tail");
    assert!(!origin.fully_propagated());

    let outcomes = sys.drain_outcomes();
    sys.settle().expect("one flush converges");
    // The flush sends the tail to each peer, and each acks it at once.
    assert_eq!(sys.counters().by_kind("propagate"), 26);
    assert_eq!(sys.counters().by_kind("propagate-ack"), 8);
    for site in SiteId::all(3) {
        let acc = sys.accelerator(site);
        assert!(acc.fully_propagated(), "{site}: every peer confirmed the whole log");
        assert_eq!(acc.registry().gauge("repl.queue.depth"), 0, "{site}");
        assert_eq!(sys.stock(site, ProductId(0)), Volume(850), "{site}");
    }
    assert_oracle_sim(&sys, subs, outcomes, "sparse-acks");
}
