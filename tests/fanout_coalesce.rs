//! System-level properties of the shortage-path fast lane: coalesced
//! replication must converge to the same replicated state as the
//! uncoalesced path on the same seed, parallel AV fan-out (with
//! over-grant return and grant timeouts) must conserve the system-wide
//! AV per product — clean and under message loss — and the blind-probe
//! rule must abort only where no reply could cover.

mod common;

use avdb::bench::{run_checked, run_scenario, BenchReport};
use avdb::prelude::*;
use avdb::simnet::DetRng;
use avdb::types::AvAllocation;
use common::{assert_oracle_sim, Submissions};

/// A seeded shortage-heavy schedule: mostly retailer decrements spread
/// over every site, plus maker increments at the base to keep stock
/// above the escrow floor.
fn schedule(seed: u64, n_sites: usize, n_products: u32, n: usize) -> Vec<(VirtualTime, UpdateRequest)> {
    let mut rng = DetRng::new(seed).derive(0xFA57);
    (0..n)
        .map(|i| {
            let site = SiteId(rng.gen_range(n_sites as u64) as u32);
            let product = ProductId(rng.gen_range(n_products as u64) as u32);
            let delta = if site == SiteId::BASE && rng.gen_f64() < 0.5 {
                Volume(rng.gen_i64_inclusive(4, 12))
            } else {
                Volume(-rng.gen_i64_inclusive(1, 9))
            };
            (VirtualTime(i as u64 * 6), UpdateRequest::new(site, product, delta))
        })
        .collect()
}

fn run(cfg: SystemConfig, sched: &[(VirtualTime, UpdateRequest)]) -> DistributedSystem {
    let mut sys = DistributedSystem::new(cfg);
    run_checked(&mut sys, sched, DistributedSystem::run_until_quiescent)
        .outcomes()
        .unwrap_or_else(|(_, e)| panic!("fast-lane run conforms: {e}"));
    sys
}

/// Final replicated state of a settled system: stock at every site plus
/// the system-wide AV total, per product.
fn state_matrix(sys: &DistributedSystem, n_sites: usize, n_products: u32) -> Vec<Vec<i64>> {
    (0..n_products)
        .map(|p| {
            let mut row: Vec<i64> = SiteId::all(n_sites)
                .map(|s| sys.stock(s, ProductId(p)).0)
                .collect();
            row.push(sys.av_system_total(ProductId(p)).0);
            row
        })
        .collect()
}

#[test]
fn coalesced_propagation_converges_to_the_uncoalesced_state() {
    const SITES: usize = 4;
    const PRODUCTS: u32 = 3;
    for seed in 0..10u64 {
        let cfg = |coalesce: bool| {
            SystemConfig::builder()
                .sites(SITES)
                .regular_products(PRODUCTS as usize, Volume(400))
                .propagation_batch(4)
                .coalesce_propagation(coalesce)
                .seed(seed)
                .build()
                .unwrap()
        };
        let sched = schedule(seed, SITES, PRODUCTS, 60);
        let plain = run(cfg(false), &sched);
        let coalesced = run(cfg(true), &sched);
        assert_eq!(
            state_matrix(&plain, SITES, PRODUCTS),
            state_matrix(&coalesced, SITES, PRODUCTS),
            "seed {seed}: coalesced frames must replicate the same state"
        );
        coalesced.check_convergence().expect("coalesced replicas converge");
        let frames = |sys: &DistributedSystem| {
            sys.merged_registry().counters.get("repl.coalesce.frames").copied().unwrap_or(0)
        };
        assert_eq!(frames(&plain), 0, "seed {seed}: the knob off folds nothing");
        assert!(frames(&coalesced) > 0, "seed {seed}: the knob on folds frames");
    }
}

#[test]
fn fanout_conserves_system_av_on_clean_links() {
    const SITES: usize = 5;
    const PRODUCTS: u32 = 2;
    for seed in 0..20u64 {
        // All AV starts at the base, so every remote decrement opens a
        // shortage and the fan-out burst path carries the run.
        let cfg = SystemConfig::builder()
            .sites(SITES)
            .regular_products(PRODUCTS as usize, Volume(60 * SITES as i64))
            .av_allocation(AvAllocation::AllAtBase)
            .shortage_fanout(3)
            .seed(seed)
            .build()
            .unwrap();
        let sys = run(cfg, &schedule(seed, SITES, PRODUCTS, 50));
        for p in 0..PRODUCTS {
            if let Err((expected, actual)) = sys.check_av_conservation(ProductId(p)) {
                panic!("seed {seed} product{p}: expected AV {expected}, got {actual}");
            }
        }
    }
}

#[test]
fn fanout_never_mints_av_under_loss_and_pushes() {
    const SITES: usize = 4;
    const PRODUCTS: u32 = 2;
    for seed in 0..20u64 {
        let cfg = SystemConfig::builder()
            .sites(SITES)
            .regular_products(PRODUCTS as usize, Volume(50 * SITES as i64))
            .av_allocation(AvAllocation::AllAtBase)
            .shortage_fanout(4)
            .proactive_push(true)
            .coalesce_propagation(true)
            .propagation_batch(3)
            .drop_probability(0.05)
            .seed(seed)
            .build()
            .unwrap();
        // A dropped grant or proactive push destroys in-flight AV (the
        // sender withdrew, the receiver never saw it) — the protocol's
        // documented loss semantics. What must NEVER happen, no matter
        // how grants, timeouts, stragglers, and pushes interleave, is AV
        // creation: the system total may only fall below the conserved
        // amount, never rise above it. (The oracle inside `run` applies
        // the same rule.)
        let sys = run(cfg, &schedule(seed, SITES, PRODUCTS, 50));
        let pushes: u64 = SiteId::all(SITES)
            .map(|s| sys.accelerator(s).stats().av_pushes_sent)
            .sum();
        assert!(
            pushes > 0,
            "seed {seed}: no AV push, so the push path went untested"
        );
        for p in 0..PRODUCTS {
            if let Err((expected, actual)) = sys.check_av_conservation(ProductId(p)) {
                assert!(
                    actual <= expected,
                    "seed {seed} product{p}: loss minted AV: expected {expected}, got {actual}"
                );
            }
        }
    }
}

#[test]
fn fanout_bursts_a_shortage_across_believed_holders() {
    // Uniform split: every peer is believed to hold 40, so a shortage of
    // 60 needs more than one peer's expected half-grant.
    let bursts = |fanout: usize| {
        let cfg = SystemConfig::builder()
            .sites(4)
            .regular_products(1, Volume(160))
            .shortage_fanout(fanout)
            .build()
            .unwrap();
        let req = UpdateRequest::new(SiteId(1), ProductId(0), Volume(-100));
        let sys = run(cfg, &[(VirtualTime(0), req)]);
        sys.merged_registry().counters.get("delay.fanout.bursts").copied().unwrap_or(0)
    };
    assert_eq!(bursts(0), 0, "the serial path asks one peer at a time");
    assert_eq!(bursts(2), 1, "fan-out 2 asks two believed holders at once");
}

/// Submits `reqs` one tick apart from now, runs to quiescence, settles,
/// and returns the outcomes in arrival order.
fn phase(
    sys: &mut DistributedSystem,
    subs: &mut Submissions,
    reqs: &[UpdateRequest],
) -> Vec<(VirtualTime, SiteId, UpdateOutcome)> {
    let start = sys.now().0 + 1;
    for (i, req) in reqs.iter().enumerate() {
        subs.submit_at(sys, VirtualTime(start + i as u64), *req);
    }
    sys.run_until_quiescent();
    sys.settle().expect("anti-entropy converges");
    sys.drain_outcomes()
}

#[test]
fn short_retailer_commits_from_a_restock_after_the_cell_went_dry() {
    // The blind-probe rule aborts a shortage once replicated stock says
    // no unasked peer can cover it — so a restock landing after every
    // belief went to zero must still be found: a thin restock at the
    // maker by the one blind probe (ties break to the lowest id, the
    // base), a large one anywhere by the sweep the stock estimate keeps.
    const SITES: usize = 8;
    const P: ProductId = ProductId(0);
    for (maker, restock) in [(SiteId::BASE, 12), (SiteId(6), 200)] {
        let cfg = SystemConfig::builder()
            .sites(SITES)
            .regular_products(1, Volume(10 * SITES as i64))
            .seed(3)
            .build()
            .unwrap();
        let mut sys = DistributedSystem::new(cfg);
        let mut subs = Submissions::new();
        let mut outcomes = Vec::new();
        // Every site spends its own share, then every retailer comes back
        // short twice: the cell is dry and every belief about it is zero.
        let drain: Vec<_> =
            SiteId::all(SITES).map(|s| UpdateRequest::new(s, P, Volume(-10))).collect();
        outcomes.extend(phase(&mut sys, &mut subs, &drain));
        let short: Vec<_> = SiteId::all(SITES)
            .skip(1)
            .chain(SiteId::all(SITES).skip(1))
            .map(|s| UpdateRequest::new(s, P, Volume(-3)))
            .collect();
        let dry = phase(&mut sys, &mut subs, &short);
        assert_eq!(dry.len(), short.len(), "every short update resolves");
        assert!(dry.iter().all(|(_, _, o)| !o.is_committed()), "nothing left to commit");
        outcomes.extend(dry);
        assert!(
            sys.merged_registry().counter("delay.abort.no-cover") > 0,
            "the dry cell must exercise the blind-probe abort"
        );
        outcomes.extend(phase(&mut sys, &mut subs, &[UpdateRequest::new(maker, P, Volume(restock))]));
        let after = phase(&mut sys, &mut subs, &[UpdateRequest::new(SiteId(5), P, Volume(-6))]);
        assert!(
            after.len() == 1 && after[0].2.is_committed(),
            "restock of {restock} at s{}: the short retailer must commit, got {after:?}",
            maker.0
        );
        outcomes.extend(after);
        assert_oracle_sim(&sys, subs, outcomes, "restock after a dry cell conforms");
    }
}

#[test]
fn blind_probe_rule_conserves_av_in_a_drained_32_site_cell() {
    // The scale regime the rule was built for: 32 sites, stock drains,
    // most shortages end in the blind-probe abort. Every abort must hand
    // back what it gathered — exact conservation on clean links, and no
    // minted AV when grants are lost.
    const SITES: usize = 32;
    const PRODUCTS: u32 = 2;
    for seed in 0..4u64 {
        for drop_probability in [0.0, 0.05] {
            let cfg = SystemConfig::builder()
                .sites(SITES)
                .regular_products(PRODUCTS as usize, Volume(10 * SITES as i64))
                .shortage_fanout(if seed % 2 == 0 { 0 } else { 2 })
                .propagation_batch(4)
                .drop_probability(drop_probability)
                .seed(seed)
                .build()
                .unwrap();
            let sys = run(cfg, &schedule(seed, SITES, PRODUCTS, 400));
            assert!(
                sys.merged_registry().counter("delay.abort.no-cover") > 0,
                "seed {seed}: the drained cell must exercise the blind-probe abort"
            );
            for p in 0..PRODUCTS {
                if let Err((expected, actual)) = sys.check_av_conservation(ProductId(p)) {
                    assert!(
                        drop_probability > 0.0 && actual <= expected,
                        "seed {seed} drop {drop_probability} product{p}: \
                         expected AV {expected}, got {actual}"
                    );
                }
            }
        }
    }
}

#[test]
fn three_site_cells_are_byte_identical_to_the_committed_baseline() {
    // At E1/E2 scale the blind-probe rule must be inert: every 3-site
    // cell of the committed CI matrix replays to the same stats.
    let baseline = BenchReport::from_json(include_str!("../results/BENCH_baseline.json"))
        .expect("committed baseline parses");
    let cells: Vec<_> = baseline.scenarios.iter().filter(|s| s.spec.sites == 3).collect();
    assert!(!cells.is_empty(), "baseline carries 3-site cells");
    for cell in cells {
        let art = run_scenario(&cell.spec).unwrap_or_else(|e| panic!("{}: {e}", cell.label));
        assert_eq!(art.result.stats, cell.stats, "{}: stats moved", cell.label);
    }
}

#[test]
fn fanout_handles_extreme_volumes_without_overflow() {
    // i64-edge shortage shares: a huge decrement against a huge stock
    // forces partition_shortage and grant accounting through values far
    // beyond any realistic workload.
    let big = i64::MAX / 8;
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(1, Volume(big))
        .av_allocation(AvAllocation::AllAtBase)
        .shortage_fanout(2)
        .seed(7)
        .build()
        .unwrap();
    // A remote site asks for nearly half the system AV in one update.
    let sys = run(
        cfg,
        &[
            (VirtualTime(0), UpdateRequest::new(SiteId(1), ProductId(0), Volume(-(big / 2)))),
            (VirtualTime(10), UpdateRequest::new(SiteId(2), ProductId(0), Volume(-(big / 4)))),
        ],
    );
    if let Err((expected, actual)) = sys.check_av_conservation(ProductId(0)) {
        panic!("expected AV {expected}, got {actual}");
    }
}
