//! Staleness-instrument tests: the per-datum divergence gauges, the
//! AV-knowledge staleness gauges, and the time-to-convergence histogram
//! must be exact, deterministic functions of the (seeded) run — and the
//! divergence gauges must always return to zero once replicas converge.

mod common;

use avdb::prelude::*;
use proptest::prelude::*;

fn three_sites(seed: u64) -> DistributedSystem {
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(1, Volume(90))
        .seed(seed)
        .build()
        .unwrap();
    DistributedSystem::new(cfg)
}

const P0: ProductId = ProductId(0);

/// A local Delay commit leaves its unacked delta visible as divergence at
/// the origin, and the gauge returns to zero exactly when the acks land.
/// One entry is below `ACK_EVERY`, so the replicas apply it on arrival
/// but ack only the flush that follows. The convergence histogram at
/// each peer records the apply lag in ticks.
#[test]
fn divergence_gauge_pins_exact_values() {
    let mut sys = three_sites(11);
    // Covered by site 1's local AV share (30): commits at t=0, propagates.
    sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), P0, Volume(-20)));
    sys.run_until(VirtualTime(0));
    // Committed locally, acks not yet back: 20 units un-replicated.
    let origin = sys.accelerator(SiteId(1)).registry();
    assert_eq!(origin.gauge("repl.divergence.p0"), -20);
    assert_eq!(origin.gauge("repl.queue.depth"), 1);
    assert_eq!(sys.status(SiteId(1)).av[0].divergence, -20);

    sys.run_until_quiescent();
    // Applied everywhere but not yet confirmed: still 20 units unacked.
    let origin = sys.accelerator(SiteId(1)).registry();
    assert_eq!(origin.gauge("repl.divergence.p0"), -20);
    assert_eq!(origin.gauge("repl.queue.depth"), 1);
    for peer in [SiteId(0), SiteId(2)] {
        assert_eq!(sys.stock(peer, P0), Volume(70), "{peer} applied on arrival");
    }

    sys.flush_all();
    sys.run_until_quiescent();
    // Acks landed: the origin knows every replica has the delta.
    let origin = sys.accelerator(SiteId(1)).registry();
    assert_eq!(origin.gauge("repl.divergence.p0"), 0);
    assert_eq!(origin.gauge("repl.queue.depth"), 0);
    // Each peer applied the delta one latency tick after the commit.
    for peer in [SiteId(0), SiteId(2)] {
        let snap = sys.accelerator(peer).registry().snapshot();
        let h = snap.histograms.get("repl.convergence.ticks").expect("peer applied a delta");
        assert_eq!((h.count, h.sum, h.max), (1, 1, 1), "{peer} apply lag");
    }
    sys.drain_outcomes();
}

/// An AV shortage forces `selecting` to consult PeerKnowledge; the
/// staleness gauge records how old each consulted figure was, in ticks,
/// at the moment it was used.
#[test]
fn knowledge_staleness_gauge_pins_exact_values() {
    let mut sys = three_sites(11);
    // Site 1 holds 30 AV but needs 50: asks site 0 (tie → lower id) using
    // a figure last refreshed at t=0, then asks site 2 two ticks later
    // (request out t=10, grant back t=12).
    sys.submit_at(VirtualTime(10), UpdateRequest::new(SiteId(1), P0, Volume(-50)));
    sys.run_until_quiescent();
    let outcomes = sys.drain_outcomes();
    assert!(outcomes[0].2.is_committed());
    let reg = sys.accelerator(SiteId(1)).registry();
    assert_eq!(reg.gauge("knowledge.staleness.s0"), 10, "site 0's figure dated from t=0");
    assert_eq!(reg.gauge("knowledge.staleness.s2"), 12, "site 2 consulted after one round trip");
    let snap = reg.snapshot();
    let h = snap.histograms.get("select.staleness.ticks").expect("two selections ran");
    assert_eq!(h.count, 2);
    assert_eq!(h.sum, 22);
}

/// One faulted (lossy) run's staleness/convergence instruments, rendered
/// to bytes. Two runs with the same seed must agree byte-for-byte — the
/// determinism contract for the whole introspection plane.
fn lossy_run_fingerprint(seed: u64) -> String {
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(2, Volume(600))
        .drop_probability(0.05)
        .seed(seed)
        .build()
        .unwrap();
    let mut sys = DistributedSystem::new(cfg);
    for i in 0..80u64 {
        let site = SiteId((i % 3) as u32);
        let delta = if site == SiteId::BASE { Volume(9) } else { Volume(-6) };
        sys.submit_at(VirtualTime(i * 3), UpdateRequest::new(site, ProductId((i % 2) as u32), delta));
    }
    sys.run_until_quiescent();
    sys.settle().expect("anti-entropy converges");
    sys.check_convergence().expect("anti-entropy repairs the losses");
    sys.drain_outcomes();
    let mut out = String::new();
    for site in SiteId::all(3) {
        out.push_str(&sys.metrics_text(site));
        out.push_str(&serde_json::to_string(&sys.status(site)).unwrap());
    }
    out.push_str(&sys.flight_dump("fingerprint").to_json());
    out
}

#[test]
fn lossy_run_stats_are_byte_identical_across_same_seed_runs() {
    let a = lossy_run_fingerprint(404);
    let b = lossy_run_fingerprint(404);
    assert_eq!(a, b, "same seed ⇒ identical instruments, statuses, and flight dumps");
    // And the instruments actually fired: losses forced retransmissions,
    // so at least one site observed a convergence lag above the minimum.
    assert!(a.contains("avdb_repl_convergence_ticks_count"));
    assert_ne!(a, lossy_run_fingerprint(405), "different seed ⇒ different stats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whenever the run converges (which settling guarantees here), every
    /// divergence gauge at every site reads zero: no retained delta means
    /// no datum differs from its replicas.
    #[test]
    fn prop_divergence_zero_at_convergence(
        seed in 0u64..500,
        n_updates in 1usize..60,
        drop_pct in 0u32..8,
    ) {
        let cfg = SystemConfig::builder()
            .sites(3)
            .regular_products(2, Volume(400))
            .drop_probability(f64::from(drop_pct) / 100.0)
            .seed(seed)
            .build()
            .unwrap();
        let mut sys = DistributedSystem::new(cfg);
        for i in 0..n_updates as u64 {
            let site = SiteId((i % 3) as u32);
            let delta = if site == SiteId::BASE { Volume(11) } else { Volume(-7) };
            sys.submit_at(VirtualTime(i * 2), UpdateRequest::new(site, ProductId((i % 2) as u32), delta));
        }
        sys.run_until_quiescent();
        // Settle until stocks converge AND every ack has landed: a dropped
        // ack leaves the origin retaining (and re-sending) a delta its
        // peers already applied, which the gauge conservatively counts as
        // divergence until the retransmission round confirms it.
        for _ in 0..200 {
            sys.flush_all();
            sys.run_until_quiescent();
            let drained = SiteId::all(3)
                .all(|s| sys.accelerator(s).registry().gauge("repl.queue.depth") == 0);
            if drained && sys.check_convergence().is_ok() {
                break;
            }
        }
        prop_assert!(sys.check_convergence().is_ok(), "settling converges under mild loss");
        for site in SiteId::all(3) {
            let status = sys.status(site);
            prop_assert_eq!(status.repl_queue_depth, 0);
            for row in &status.av {
                prop_assert_eq!(row.divergence, 0, "site {} product {}", site.0, row.product);
            }
            let reg = sys.accelerator(site).registry();
            for p in 0..2 {
                prop_assert_eq!(reg.gauge(&format!("repl.divergence.p{p}")), 0);
            }
        }
    }
}
