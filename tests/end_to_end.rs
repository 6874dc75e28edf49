//! Cross-crate integration: the full proposed system driven through the
//! facade crate's public API, with final states verified by the shared
//! conformance oracle.

mod common;

use avdb::bench::run::{run_checked, Outcomes};
use avdb::oracle::Observation;
use avdb::prelude::*;
use avdb::types::{AvAllocation, LatencyModel, ProductClass};
use avdb::workload::{UpdateStream, WorkloadSpec};
use common::{assert_oracle_sim, Submissions};

fn paper_system(seed: u64) -> DistributedSystem {
    DistributedSystem::new(avdb::bench::paper::paper_config(seed))
}

/// Runs `schedule` on `sys` through the oracle-checked harness and
/// returns the outcomes; panics on a violation.
fn checked(sys: &mut DistributedSystem, schedule: &[(VirtualTime, UpdateRequest)]) -> Outcomes {
    run_checked(sys, schedule, DistributedSystem::run_until_quiescent)
        .outcomes()
        .unwrap_or_else(|(_, e)| panic!("{e}"))
}

#[test]
fn paper_workload_converges_and_conserves() {
    let mut sys = paper_system(42);
    let spec = WorkloadSpec::paper(1_200, 42);
    let schedule: Vec<_> = UpdateStream::new(spec, &sys.config().catalog.clone()).collect();
    let outcomes = checked(&mut sys, &schedule);
    sys.check_convergence().expect("replicas converge");
    for p in 0..sys.config().n_products() {
        sys.check_av_conservation(ProductId(p as u32))
            .unwrap_or_else(|(e, a)| panic!("product{p}: expected AV {e}, actual {a}"));
    }
    assert_eq!(outcomes.len(), 1_200, "every update resolves");
    // Network pairing: every message is half of a correspondence.
    assert_eq!(sys.counters().total_messages() % 2, 0);
    // At quiescence every replication queue has drained: the depth gauge
    // reads zero and no per-product divergence remains anywhere.
    for site in SiteId::all(sys.config().n_sites) {
        let reg = sys.accelerator(site).registry();
        assert_eq!(reg.gauge("repl.queue.depth"), 0, "{site} still retains deltas");
        let status = sys.status(site);
        assert_eq!(status.repl_queue_depth, 0, "{site} status disagrees with gauge");
        for row in &status.av {
            assert_eq!(row.divergence, 0, "{site} product {} still diverged", row.product);
        }
    }
}

#[test]
fn delay_commits_are_instant_at_origin() {
    let mut sys = paper_system(7);
    let mut subs = Submissions::new();
    let product = ProductId(0);
    subs.submit_at(&mut sys, VirtualTime(5), UpdateRequest::new(SiteId(1), product, Volume(-50)));
    sys.run_until_quiescent();
    let outcomes = sys.drain_outcomes();
    match &outcomes[0].2 {
        UpdateOutcome::Committed { completed_at, correspondences: 0, .. } => {
            assert_eq!(*completed_at, VirtualTime(5), "zero-latency local commit");
        }
        other => panic!("expected free local commit, got {other:?}"),
    }
    sys.settle().expect("anti-entropy converges");
    assert_oracle_sim(&sys, subs, outcomes, "instant-local-commit");
}

#[test]
fn global_stock_never_oversold_with_av_bounds() {
    // Hammer one product with decrements far beyond stock: commits must
    // stop exactly when system-wide AV (== stock) runs out.
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(1, Volume(100))
        .seed(3)
        .build()
        .unwrap();
    let mut sys = DistributedSystem::new(cfg);
    let schedule: Vec<_> = (0..40u64)
        .map(|i| {
            let site = SiteId(1 + (i % 2) as u32);
            (VirtualTime(i * 3), UpdateRequest::new(site, ProductId(0), Volume(-7)))
        })
        .collect();
    let outcomes = checked(&mut sys, &schedule);
    let committed = outcomes.iter().filter(|(_, _, o)| o.is_committed()).count();
    // 100 / 7 = 14 commits fit; the rest abort on insufficient AV.
    assert_eq!(committed, 14);
    let final_stock = sys.stock(SiteId::BASE, ProductId(0));
    assert_eq!(final_stock, Volume(100 - 14 * 7));
    assert!(final_stock >= Volume::ZERO, "escrow safety");
}

#[test]
fn jittered_latency_still_deterministic_and_convergent() {
    let run = |seed: u64| {
        let cfg = SystemConfig::builder()
            .sites(4)
            .regular_products(5, Volume(400))
            .latency(LatencyModel::Jittered { base: 1, spread: 9 })
            .seed(seed)
            .build()
            .unwrap();
        let mut sys = DistributedSystem::new(cfg);
        let spec = WorkloadSpec {
            n_sites: 4,
            ..WorkloadSpec::paper(400, seed)
        };
        let schedule: Vec<_> = UpdateStream::new(spec, &sys.config().catalog.clone()).collect();
        checked(&mut sys, &schedule);
        (
            sys.counters().snapshot(),
            (0..5).map(|p| sys.stock(SiteId(0), ProductId(p))).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(99), run(99), "same seed, same everything");
    assert_ne!(run(99).0, run(100).0, "different seed, different traffic");
}

#[test]
fn reclassification_mid_stream_is_seamless() {
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(1, Volume(300))
        .non_regular_products(1, Volume(300))
        .seed(5)
        .build()
        .unwrap();
    let mut sys = DistributedSystem::new(cfg);
    let mut subs = Submissions::new();
    let reg = ProductId(0);
    let nonreg = ProductId(1);

    // Phase 1: both products see traffic under their initial regimes.
    for i in 0..20u64 {
        subs.submit_at(
            &mut sys,
            VirtualTime(i * 10),
            UpdateRequest::new(SiteId(1), reg, Volume(-3)),
        );
        subs.submit_at(
            &mut sys,
            VirtualTime(i * 10 + 5),
            UpdateRequest::new(SiteId(2), nonreg, Volume(-3)),
        );
    }
    sys.run_until_quiescent();
    let phase1 = sys.drain_outcomes();
    let imm1 = phase1
        .iter()
        .filter(|(_, _, o)| matches!(o, UpdateOutcome::Committed { kind: UpdateKind::Immediate, .. }))
        .count();
    assert_eq!(imm1, 20, "non-regular goes Immediate");

    // Phase 2: swap both regimes at runtime.
    let nonreg_stock = sys.stock(SiteId::BASE, nonreg);
    sys.reclassify_all(nonreg, ProductClass::Regular, nonreg_stock);
    sys.reclassify_all(reg, ProductClass::NonRegular, Volume::ZERO);
    sys.run_until_quiescent();
    for i in 0..20u64 {
        let t = sys.now().after(i * 10 + 1);
        subs.submit_at(&mut sys, t, UpdateRequest::new(SiteId(1), reg, Volume(-3)));
        subs.submit_at(&mut sys, t.after(5), UpdateRequest::new(SiteId(2), nonreg, Volume(-3)));
    }
    sys.run_until_quiescent();
    let phase2 = sys.drain_outcomes();
    let delay2 = phase2
        .iter()
        .filter(|(_, _, o)| matches!(o, UpdateOutcome::Committed { kind: UpdateKind::Delay, .. }))
        .count();
    let imm2 = phase2
        .iter()
        .filter(|(_, _, o)| matches!(o, UpdateOutcome::Committed { kind: UpdateKind::Immediate, .. }))
        .count();
    assert!(delay2 >= 20, "reclassified product now takes the Delay path");
    assert!(imm2 >= 19, "the other direction too (lock races may abort one)");
    sys.settle().expect("anti-entropy converges");
    sys.check_convergence().unwrap();
    // AV pools were redefined mid-run, so the oracle skips the checks
    // anchored to the initial allocation but keeps the rest.
    let mut outcomes = phase1;
    outcomes.extend(phase2);
    let obs = Observation::from_system(&sys, subs.take(), outcomes).with_reclassification();
    avdb::oracle::check(&obs).assert_ok("reclassification");
}

#[test]
fn weighted_fig1_allocation_behaves_like_the_paper_example() {
    // Fig. 1: AV 40/20/40 of 100 total; site 1 updates −30, which exceeds
    // its 20 AV → it fetches from a peer and commits.
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(1, Volume(100))
        .av_weights(vec![400, 200, 400])
        .seed(1)
        .build()
        .unwrap();
    let mut sys = DistributedSystem::new(cfg);
    let mut subs = Submissions::new();
    assert_eq!(sys.av_available(SiteId(1), ProductId(0)), Volume(20));
    subs.submit_at(&mut sys, VirtualTime(0), UpdateRequest::new(SiteId(1), ProductId(0), Volume(-30)));
    sys.run_until_quiescent();
    let outcomes = sys.drain_outcomes();
    match &outcomes[0].2 {
        UpdateOutcome::Committed { correspondences, .. } => {
            assert!(*correspondences >= 1, "needed at least one AV fetch")
        }
        other => panic!("expected commit, got {other:?}"),
    }
    assert_eq!(sys.stock(SiteId(1), ProductId(0)), Volume(70), "data updated to 70 (Fig. 1)");
    sys.settle().expect("anti-entropy converges");
    sys.check_av_conservation(ProductId(0)).unwrap();
    assert_eq!(sys.av_system_total(ProductId(0)), Volume(70));
    assert_oracle_sim(&sys, subs, outcomes, "fig1-weighted");
}

#[test]
fn all_at_base_and_checkpoint_interplay() {
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(2, Volume(500))
        .av_allocation(AvAllocation::AllAtBase)
        .seed(8)
        .build()
        .unwrap();
    let mut sys = DistributedSystem::new(cfg);
    let schedule: Vec<_> = (0..30u64)
        .map(|i| {
            let site = SiteId(1 + (i % 2) as u32);
            let req = UpdateRequest::new(site, ProductId((i % 2) as u32), Volume(-10));
            (VirtualTime(i * 7), req)
        })
        .collect();
    let outcomes = run_checked(&mut sys, &schedule, |sys| {
        sys.run_until(VirtualTime(100));
        sys.checkpoint_all();
        sys.run_until_quiescent();
        // Crash + recover every site in turn; state must survive.
        for s in 0..3u32 {
            let t = sys.now();
            sys.crash_at(t.after(1), SiteId(s));
            sys.recover_at(t.after(2), SiteId(s));
            sys.run_until_quiescent();
        }
    })
    .outcomes()
    .unwrap_or_else(|(_, e)| panic!("all-at-base-checkpoint: {e}"));
    let committed = outcomes.iter().filter(|(_, _, o)| o.is_committed()).count();
    assert_eq!(committed, 30, "plenty of AV at base for every decrement");
}
