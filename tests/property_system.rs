//! System-level property tests: random workloads, random topologies,
//! random crash schedules — the core invariants must hold for all of
//! them.
//!
//! These run whole simulations per case, so case counts are kept modest;
//! they still explore far more interleavings than any hand-written test.

use avdb::prelude::*;
use avdb::types::request::AbortReason;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct RandomUpdate {
    site: u32,
    product: u32,
    delta: i64,
    gap: u64,
}

fn update_strategy(n_sites: u32, n_products: u32) -> impl Strategy<Value = RandomUpdate> {
    (0..n_sites, 0..n_products, -60i64..60, 0u64..12).prop_map(
        |(site, product, delta, gap)| RandomUpdate {
            site,
            product,
            delta: if delta == 0 { 1 } else { delta },
            gap,
        },
    )
}

#[derive(Clone, Debug)]
struct CrashPlan {
    victim: u32,
    crash_frac: f64,
    outage_frac: f64,
}

fn crash_strategy(n_sites: u32) -> impl Strategy<Value = Option<CrashPlan>> {
    prop_oneof![
        2 => Just(None),
        3 => (0..n_sites, 0.1f64..0.6, 0.1f64..0.3)
            .prop_map(|(victim, crash_frac, outage_frac)| Some(CrashPlan {
                victim,
                crash_frac,
                outage_frac,
            })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any workload and any single crash/recovery, after quiescence +
    /// anti-entropy: (1) replicas converge, (2) AV is conserved,
    /// (3) converged stock never goes negative, (4) every update at a
    /// live site resolves exactly once.
    #[test]
    fn prop_invariants_under_random_load_and_crashes(
        n_sites in 2u32..6,
        n_products in 1u32..4,
        seed in 0u64..1_000,
        updates in prop::collection::vec(update_strategy(6, 4), 1..80),
        crash in crash_strategy(6),
    ) {
        let cfg = SystemConfig::builder()
            .sites(n_sites as usize)
            .regular_products(n_products as usize, Volume(150))
            .seed(seed)
            .build()
            .unwrap();
        let mut sys = DistributedSystem::new(cfg);
        let mut t = 0u64;
        let mut injected = 0u64;
        for u in &updates {
            t += u.gap;
            let site = SiteId(u.site % n_sites);
            let product = ProductId(u.product % n_products);
            sys.submit_at(VirtualTime(t), UpdateRequest::new(site, product, Volume(u.delta)));
            injected += 1;
        }
        if let Some(plan) = &crash {
            let victim = SiteId(plan.victim % n_sites);
            let crash_at = (t as f64 * plan.crash_frac) as u64;
            let recover_at = crash_at + ((t as f64 * plan.outage_frac) as u64).max(1);
            sys.crash_at(VirtualTime(crash_at), victim);
            sys.recover_at(VirtualTime(recover_at), victim);
        }
        sys.run_until_quiescent();
        sys.flush_all();
        sys.run_until_quiescent();
        sys.flush_all();
        sys.run_until_quiescent();

        // (1) convergence
        prop_assert!(sys.check_convergence().is_ok(), "{:?}", sys.check_convergence());
        // (2) AV conservation per product
        for p in 0..n_products {
            let product = ProductId(p);
            if let Err((e, a)) = sys.check_av_conservation(product) {
                return Err(TestCaseError::fail(format!(
                    "conservation of {product}: expected {e}, actual {a}"
                )));
            }
            // (3) escrow safety on the converged value (initial AV ==
            // initial stock, so committed stock can never go negative).
            prop_assert!(sys.stock(SiteId::BASE, product) >= Volume::ZERO);
        }
        // (4) exactly one outcome per update, except those lost to the
        // fail-stop model: inputs at a dead site, and negotiations whose
        // origin crashed mid-flight.
        let outcomes = sys.drain_outcomes();
        let wiped: u64 = (0..n_sites)
            .map(|s| sys.accelerator(SiteId(s)).stats().wiped_in_flight)
            .sum();
        prop_assert_eq!(
            outcomes.len() as u64 + sys.lost_inputs() + wiped,
            injected,
            "outcomes + lost + wiped must cover all injected updates"
        );
        let mut txns: Vec<_> = outcomes.iter().map(|(_, _, o)| o.txn()).collect();
        txns.sort();
        txns.dedup();
        prop_assert_eq!(txns.len(), outcomes.len(), "no duplicate outcomes");
        // All protocol state drained.
        prop_assert!(sys.all_idle());
    }

    /// Aborted updates must leave no trace: a workload of doomed
    /// decrements (larger than system AV) leaves stock and AV exactly at
    /// their initial values.
    #[test]
    fn prop_aborts_are_traceless(
        seed in 0u64..1_000,
        n in 1usize..20,
    ) {
        let cfg = SystemConfig::builder()
            .sites(3)
            .regular_products(1, Volume(50))
            .seed(seed)
            .build()
            .unwrap();
        let mut sys = DistributedSystem::new(cfg);
        for i in 0..n {
            let site = SiteId(1 + (i % 2) as u32);
            // 51 > system AV of 50 → must abort.
            sys.submit_at(
                VirtualTime((i * 7) as u64),
                UpdateRequest::new(site, ProductId(0), Volume(-51)),
            );
        }
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        prop_assert_eq!(outcomes.len(), n);
        for (_, _, o) in &outcomes {
            match o {
                UpdateOutcome::Aborted { reason: AbortReason::InsufficientAv { .. }, .. } => {}
                other => return Err(TestCaseError::fail(format!("expected AV abort: {other:?}"))),
            }
        }
        sys.flush_all();
        sys.run_until_quiescent();
        prop_assert!(sys.check_convergence().is_ok());
        prop_assert_eq!(sys.stock(SiteId::BASE, ProductId(0)), Volume(50));
        prop_assert_eq!(sys.av_system_total(ProductId(0)), Volume(50));
    }

    /// The proposal never loses to the conventional baseline on pure
    /// Delay workloads, for any seed.
    #[test]
    fn prop_proposal_wins_on_delay_workloads(seed in 0u64..500) {
        use avdb::bench::paper::{paper_scenario, run_conventional, run_proposal};
        let (cfg, spec) = paper_scenario(240, seed);
        let p = run_proposal(&cfg, &spec);
        let c = run_conventional(&cfg, &spec);
        prop_assert!(
            p.metrics.total_correspondences() < c.metrics.total_correspondences(),
            "seed {seed}: proposal {} vs conventional {}",
            p.metrics.total_correspondences(),
            c.metrics.total_correspondences()
        );
    }
}
