//! Adversarial fault schedules against the proposed system: repeated
//! crashes, partitions, and crash-during-commit races. After every storm
//! the run settles and the shared conformance oracle verifies the full
//! invariant set — convergence, AV conservation, escrow safety, outcome
//! accounting.

mod common;

use avdb::prelude::*;
use avdb::simnet::{FaultCtl, LinkFilter, NetEvent, NetHook};
use avdb::telemetry::SpanRecord;
use avdb::types::TxnId;
use common::{assert_oracle_sim, Submissions};

fn system(seed: u64) -> DistributedSystem {
    DistributedSystem::new(
        SystemConfig::builder()
            .sites(3)
            .regular_products(3, Volume(600))
            .non_regular_products(1, Volume(100))
            .seed(seed)
            .build()
            .unwrap(),
    )
}

/// Settles anti-entropy and spot-checks the two classic invariants; the
/// oracle re-verifies both (and more) at each test's end.
fn settle_and_check(sys: &mut DistributedSystem) {
    sys.settle().expect("anti-entropy converges");
    sys.check_convergence().expect("replicas converge after anti-entropy");
    for p in 0..3u32 {
        if let Err((e, a)) = sys.check_av_conservation(ProductId(p)) {
            panic!("product{p}: expected AV {e}, got {a}");
        }
    }
}

#[test]
fn crash_storm_every_site_twice() {
    let mut sys = system(21);
    let mut subs = Submissions::new();
    let mut t = 0u64;
    for round in 0..2u64 {
        for victim in 0..3u32 {
            // Load before, during and after each outage.
            for i in 0..12u64 {
                let site = SiteId((i % 3) as u32);
                let delta = if site == SiteId::BASE { Volume(9) } else { Volume(-6) };
                subs.submit_at(
                    &mut sys,
                    VirtualTime(t + i * 5),
                    UpdateRequest::new(site, ProductId((i % 3) as u32), delta),
                );
            }
            sys.crash_at(VirtualTime(t + 20), SiteId(victim));
            sys.recover_at(VirtualTime(t + 45), SiteId(victim));
            t += 80 + round;
        }
    }
    settle_and_check(&mut sys);
    let recoveries: u64 = SiteId::all(3)
        .map(|s| sys.accelerator(s).stats().recoveries)
        .sum();
    assert_eq!(recoveries, 6);
    let outcomes = sys.drain_outcomes();
    assert_oracle_sim(&sys, subs, outcomes, "crash-storm");
}

#[test]
fn partition_isolates_then_heals() {
    let mut sys = system(22);
    let mut subs = Submissions::new();
    // Partition retailers away from the maker.
    sys.set_partition(LinkFilter::partition(vec![
        vec![SiteId(0)],
        vec![SiteId(1), SiteId(2)],
    ]));
    // Delay updates inside each island keep working from local AV.
    subs.submit_at(&mut sys, VirtualTime(0), UpdateRequest::new(SiteId(1), ProductId(0), Volume(-50)));
    subs.submit_at(&mut sys, VirtualTime(0), UpdateRequest::new(SiteId(0), ProductId(1), Volume(40)));
    // An Immediate update cannot reach the other island → timeout abort.
    subs.submit_at(&mut sys, VirtualTime(1), UpdateRequest::new(SiteId(2), ProductId(3), Volume(-5)));
    sys.run_until_quiescent();
    let mut outcomes = sys.drain_outcomes();
    let delay_commits = outcomes
        .iter()
        .filter(|(_, _, o)| matches!(o, UpdateOutcome::Committed { kind: UpdateKind::Delay, .. }))
        .count();
    assert_eq!(delay_commits, 2, "autonomy survives the partition");
    let imm_aborts = outcomes.iter().filter(|(_, _, o)| !o.is_committed()).count();
    assert_eq!(imm_aborts, 1, "Immediate needs all sites");

    // Retailer 1 can still pull AV from retailer 2 inside the island.
    let t = sys.now().after(1);
    subs.submit_at(&mut sys, t, UpdateRequest::new(SiteId(1), ProductId(0), Volume(-90)));
    sys.run_until_quiescent();
    let island = sys.drain_outcomes();
    assert!(island[0].2.is_committed(), "intra-island AV transfer works");
    outcomes.extend(island);

    // Heal; everything reconciles.
    sys.heal_partition();
    settle_and_check(&mut sys);
    // And Immediate works again.
    let t = sys.now().after(1);
    subs.submit_at(&mut sys, t, UpdateRequest::new(SiteId(2), ProductId(3), Volume(-5)));
    sys.run_until_quiescent();
    let healed = sys.drain_outcomes();
    assert!(healed[0].2.is_committed());
    outcomes.extend(healed);
    assert_oracle_sim(&sys, subs, outcomes, "partition-heal");
}

#[test]
fn crash_between_prepare_and_decision_releases_locks() {
    let mut sys = system(23);
    let mut subs = Submissions::new();
    // Coordinator (site 1) will crash right after sending prepares: with
    // 1-tick latency, prepares arrive at t=11; crash the coordinator at
    // t=11 so votes return to a dead site.
    subs.submit_at(&mut sys, VirtualTime(10), UpdateRequest::new(SiteId(1), ProductId(3), Volume(-5)));
    sys.crash_at(VirtualTime(11), SiteId(1));
    sys.recover_at(VirtualTime(2_000), SiteId(1));
    sys.run_until_quiescent();
    // Participants must have timed out (presumed abort) and released the
    // record; no outcome was ever emitted for the orphaned txn.
    let mut outcomes = sys.drain_outcomes();
    assert!(outcomes.is_empty(), "orphaned immediate update yields no outcome");
    assert!(sys.all_idle(), "no site left holding protocol state");
    for site in SiteId::all(3) {
        assert_eq!(sys.stock(site, ProductId(3)), Volume(100), "no partial effect");
    }
    // The system remains fully usable afterwards.
    let t = sys.now().after(5);
    subs.submit_at(&mut sys, t, UpdateRequest::new(SiteId(2), ProductId(3), Volume(-5)));
    sys.run_until_quiescent();
    let retry = sys.drain_outcomes();
    assert!(retry[0].2.is_committed());
    outcomes.extend(retry);
    settle_and_check(&mut sys);
    // The oracle's accounting closes over the wiped-in-flight txn:
    // outcomes + wiped == injected.
    assert_oracle_sim(&sys, subs, outcomes, "crash-mid-2pc");
}

#[test]
fn crash_during_av_negotiation_keeps_conservation() {
    let mut sys = system(24);
    let mut subs = Submissions::new();
    // Drain site 1's own AV share (200), forcing the next decrement to
    // negotiate with peers; crash the *grantor* mid-negotiation.
    subs.submit_at(&mut sys, VirtualTime(0), UpdateRequest::new(SiteId(1), ProductId(0), Volume(-200)));
    sys.run_until_quiescent();
    let mut outcomes = sys.drain_outcomes();
    // This one needs a grant from site 0 or 2; both crash right as the
    // request lands (t=21). The request dies with them.
    subs.submit_at(&mut sys, VirtualTime(20), UpdateRequest::new(SiteId(1), ProductId(0), Volume(-50)));
    sys.crash_at(VirtualTime(21), SiteId(0));
    sys.crash_at(VirtualTime(21), SiteId(2));
    sys.recover_at(VirtualTime(400), SiteId(0));
    sys.recover_at(VirtualTime(400), SiteId(2));
    sys.run_until_quiescent();
    let second = sys.drain_outcomes();
    // The update either aborted (both grants lost) or committed (one
    // grant squeaked through before the crash tick) — both are legal;
    // what must NOT happen is AV vanishing.
    assert_eq!(second.len(), 1);
    outcomes.extend(second);
    settle_and_check(&mut sys);
    assert_oracle_sim(&sys, subs, outcomes, "crash-mid-negotiation");
}

#[test]
fn conventional_center_crash_vs_proposal_maker_crash() {
    use avdb::baseline::CentralizedSystem;
    // Identical load, identical crash of site 0 — compare survivors.
    // (The maker stays down for good, so replicas legitimately diverge;
    // this is a comparator experiment, not an oracle subject.)
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(2, Volume(500))
        .seed(25)
        .build()
        .unwrap();
    let schedule: Vec<(VirtualTime, UpdateRequest)> = (0..30u64)
        .map(|i| {
            let site = SiteId(1 + (i % 2) as u32);
            (
                VirtualTime(i * 4),
                UpdateRequest::new(site, ProductId((i % 2) as u32), Volume(-5)),
            )
        })
        .collect();

    let mut prop = DistributedSystem::new(cfg.clone());
    prop.crash_at(VirtualTime(0), SiteId(0));
    for (at, req) in &schedule {
        prop.submit_at(*at, *req);
    }
    prop.run_until_quiescent();
    let prop_committed = prop
        .drain_outcomes()
        .iter()
        .filter(|(_, _, o)| o.is_committed())
        .count();

    let mut conv = CentralizedSystem::new(cfg);
    conv.crash_at(VirtualTime(0), SiteId(0));
    for (at, req) in &schedule {
        conv.submit_at(*at, *req);
    }
    conv.run_until_quiescent();
    let conv_committed = conv
        .drain_outcomes()
        .iter()
        .filter(|(_, _, o)| o.is_committed())
        .count();

    assert_eq!(prop_committed, 30, "retailers are autonomous");
    assert_eq!(conv_committed, 0, "the center was everything");
}

#[test]
fn anti_entropy_heals_partition_loss_without_manual_flushes() {
    // With the periodic anti-entropy timer enabled, propagation lost to a
    // partition repairs itself — no harness-driven flush_all.
    let mut sys = DistributedSystem::new(
        SystemConfig::builder()
            .sites(3)
            .regular_products(2, Volume(600))
            .anti_entropy_interval(200)
            .seed(31)
            .build()
            .unwrap(),
    );
    let mut subs = Submissions::new();
    sys.set_partition(LinkFilter::partition(vec![
        vec![SiteId(0)],
        vec![SiteId(1), SiteId(2)],
    ]));
    subs.submit_at(&mut sys, VirtualTime(0), UpdateRequest::new(SiteId(1), ProductId(0), Volume(-50)));
    subs.submit_at(&mut sys, VirtualTime(0), UpdateRequest::new(SiteId(0), ProductId(1), Volume(40)));
    sys.run_until(VirtualTime(100));
    // Propagation across the cut was dropped.
    assert_ne!(sys.stock(SiteId(0), ProductId(0)), sys.stock(SiteId(1), ProductId(0)));
    sys.heal_partition();
    // Let a couple of anti-entropy rounds fire. No flush_all here!
    sys.run_until(VirtualTime(700));
    sys.check_convergence().expect("anti-entropy alone must converge the replicas");
    sys.run_until_quiescent();
    let outcomes = sys.drain_outcomes();
    assert_oracle_sim(&sys, subs, outcomes, "anti-entropy-heal");
}

#[test]
fn anti_entropy_system_still_quiesces() {
    // The heartbeat must stop once every peer is caught up, or
    // run_until_quiescent would spin forever.
    let mut sys = DistributedSystem::new(
        SystemConfig::builder()
            .sites(3)
            .regular_products(1, Volume(300))
            .anti_entropy_interval(50)
            .seed(32)
            .build()
            .unwrap(),
    );
    let mut subs = Submissions::new();
    subs.submit_at(&mut sys, VirtualTime(0), UpdateRequest::new(SiteId(1), ProductId(0), Volume(-10)));
    sys.run_until_quiescent(); // terminates ⇔ the heartbeat self-stops
    sys.check_convergence().unwrap();
    let outcomes = sys.drain_outcomes();
    assert!(outcomes[0].2.is_committed());
    assert_oracle_sim(&sys, subs, outcomes, "anti-entropy-quiesce");
}

/// Drops chosen messages: every `kind` message `from → to` is lost, up to
/// `budget` of them. The link is severed on the send and healed at the
/// next event, so only the matched message dies.
struct DropMsgs {
    kind: &'static str,
    from: SiteId,
    to: SiteId,
    budget: usize,
    severed: bool,
}

impl NetHook for DropMsgs {
    fn on_event(&mut self, ev: &NetEvent, ctl: &mut FaultCtl<'_>) {
        if std::mem::take(&mut self.severed) {
            ctl.heal_link(self.from, self.to);
        }
        if let NetEvent::Send { from, to, kind } = *ev {
            if self.budget > 0 && kind == self.kind && from == self.from && to == self.to {
                self.budget -= 1;
                self.severed = true;
                ctl.sever_link(from, to);
            }
        }
    }
}

fn counter(sys: &DistributedSystem, site: SiteId, name: &str) -> u64 {
    sys.accelerator(site).registry().snapshot().counters.get(name).copied().unwrap_or(0)
}

#[test]
fn lost_commit_decision_is_resent_until_acknowledged() {
    let mut sys = system(24);
    let mut subs = Submissions::new();
    // Site 1 coordinates; the first decision it sends site 2 is lost.
    sys.set_net_hook(Box::new(DropMsgs {
        kind: "imm-decision",
        from: SiteId(1),
        to: SiteId(2),
        budget: 1,
        severed: false,
    }));
    subs.submit_at(&mut sys, VirtualTime(10), UpdateRequest::new(SiteId(1), ProductId(3), Volume(-5)));
    sys.run_until_quiescent();
    let outcomes = sys.drain_outcomes();
    assert!(outcomes[0].2.is_committed(), "all voted ready: {:?}", outcomes[0].2);
    assert!(counter(&sys, SiteId(1), "imm.decision-retransmits") >= 1, "the decision was resent");
    assert_eq!(sys.stock(SiteId(2), ProductId(3)), Volume(95), "site 2 applied the write");
    assert!(sys.all_idle(), "the resend stopped once site 2 acknowledged");
    settle_and_check(&mut sys);
    assert_oracle_sim(&sys, subs, outcomes, "lost-commit-decision");
}

/// Site 1 decides two Immediate commits whose base Done never arrives,
/// crashes before reporting them, and recovers. Returns the drained
/// outcomes and site 1's spans.
fn rereport_after_crash() -> (Vec<(VirtualTime, SiteId, UpdateOutcome)>, Vec<SpanRecord>) {
    let mut sys = DistributedSystem::new(
        SystemConfig::builder()
            .sites(3)
            .regular_products(1, Volume(600))
            .non_regular_products(2, Volume(100))
            .seed(25)
            .build()
            .unwrap(),
    );
    let mut subs = Submissions::new();
    sys.set_net_hook(Box::new(DropMsgs {
        kind: "imm-done",
        from: SiteId::BASE,
        to: SiteId(1),
        budget: usize::MAX,
        severed: false,
    }));
    subs.submit_at(&mut sys, VirtualTime(10), UpdateRequest::new(SiteId(1), ProductId(1), Volume(-5)));
    subs.submit_at(&mut sys, VirtualTime(10), UpdateRequest::new(SiteId(1), ProductId(2), Volume(-7)));
    // Both commits are decided within a few ticks; the completion
    // timeout (256 ticks) has not fired when the coordinator goes down.
    sys.crash_at(VirtualTime(60), SiteId(1));
    sys.recover_at(VirtualTime(120), SiteId(1));
    sys.run_until_quiescent();
    let outcomes = sys.drain_outcomes();
    assert_eq!(counter(&sys, SiteId(1), "imm.rereported"), 2);
    sys.settle().expect("anti-entropy converges");
    sys.check_convergence().expect("replicas converge");
    assert_oracle_sim(&sys, subs, outcomes.clone(), "rereport-after-crash");
    (outcomes, sys.accelerator(SiteId(1)).spans().records().to_vec())
}

#[test]
fn decided_commits_are_rereported_in_txn_order_after_a_crash() {
    let (outcomes, spans) = rereport_after_crash();
    let txns: Vec<TxnId> = outcomes.iter().map(|(_, _, o)| o.txn()).collect();
    assert_eq!(txns, vec![TxnId::new(SiteId(1), 0), TxnId::new(SiteId(1), 1)]);
    assert!(outcomes.iter().all(|(at, _, o)| o.is_committed() && *at == VirtualTime(120)));
    for _ in 0..8 {
        assert_eq!(rereport_after_crash(), (outcomes.clone(), spans.clone()), "run repeats exactly");
    }
}
