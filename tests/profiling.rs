//! Profiler + adaptive-sampling acceptance: a seeded lossy bench cell
//! yields a byte-identical, additive `PhaseProfile` across runs, and
//! head-based sampling is deterministic while retroactive promotion keeps
//! the full span tree of every aborted and shortage-path update.

mod common;

use avdb::bench::{run_checked, run_scenario, FaultProfile, ScenarioSpec};
use avdb::core::AcceleratorStats;
use avdb::prelude::*;
use avdb::simnet::DetRng;
use avdb::telemetry::analyze::verify;
use avdb::telemetry::RunExport;
use avdb::types::AvAllocation;
use std::collections::{BTreeMap, BTreeSet};

/// A scarce-AV config: small escrow volumes force the shortage path (AV
/// negotiation, `transfer` spans) and some insufficient-AV aborts.
const SITES: usize = 4;
const REQUESTS: usize = 80;

fn config(seed: u64, sample_rate: Option<f64>) -> SystemConfig {
    let mut b = SystemConfig::builder()
        .sites(SITES)
        .regular_products(2, Volume(60))
        .non_regular_products(1, Volume(30))
        .seed(seed);
    if let Some(rate) = sample_rate {
        b = b.trace_sample_rate(rate);
    }
    b.build().unwrap()
}

fn schedule(cfg: &SystemConfig) -> Vec<(VirtualTime, UpdateRequest)> {
    let mut rng = DetRng::new(cfg.seed).derive(0x9F01);
    (0..REQUESTS)
        .map(|i| {
            let site = SiteId(rng.gen_range(SITES as u64) as u32);
            let product = ProductId(rng.gen_range(3) as u32);
            let req = UpdateRequest::new(site, product, Volume(-rng.gen_i64_inclusive(1, 8)));
            (VirtualTime(i as u64 * 5), req)
        })
        .collect()
}

/// Traces whose retained tree contains more than the bare root span.
fn fully_retained(export: &RunExport) -> BTreeSet<u64> {
    common::trace_shapes(export)
        .into_iter()
        .filter(|(_, names)| names.len() > 1)
        .map(|(t, _)| t)
        .collect()
}

#[test]
fn s7_lossy_profile_is_byte_identical_and_additive() {
    let mut spec = ScenarioSpec::base();
    spec.sites = 7;
    spec.fault = FaultProfile::Loss;
    spec.updates = 200;

    let a = run_scenario(&spec).expect("lossy cell runs clean");
    let b = run_scenario(&spec).expect("lossy cell runs clean");
    let pa = a.export.profile.clone().expect("profile attached to export");
    let pb = b.export.profile.clone().expect("profile attached to export");
    assert!(!pa.is_empty(), "lossy cell produced an empty profile");

    // Determinism: the whole profile — histograms, exemplars, link waits —
    // is byte-identical across two runs of the same seeded cell.
    assert_eq!(
        serde_json::to_string(&pa).unwrap(),
        serde_json::to_string(&pb).unwrap(),
        "profile differs between two runs of the same seeded cell"
    );

    // Additivity: critical-path self-times telescope to commit latency.
    // The acceptance bar is 1%; the construction makes it exact.
    assert!(
        pa.total_self_ticks.abs_diff(pa.total_commit_ticks) * 100 <= pa.total_commit_ticks,
        "self-time sum {} strays >1% from commit latency sum {}",
        pa.total_self_ticks,
        pa.total_commit_ticks
    );

    // The registry projection reaches /status and RunExport consumers.
    let reg = a.export.registry("profile").expect("profile registry scope");
    assert_eq!(reg.counter("profile.traces"), pa.traces);
}

#[test]
fn sampling_is_deterministic_and_promotion_keeps_aborts_and_shortages() {
    let seed = 77;
    let full_cfg = config(seed, None);
    let timed = schedule(&full_cfg);
    let full = common::export_sim(&full_cfg, &timed);

    // Reference sets from the full-rate run: every aborted txn, and every
    // txn that went down the shortage path (has a `transfer` span).
    let full_shapes = common::trace_shapes(&full);
    let aborted: BTreeSet<u64> =
        full.outcomes.iter().filter(|o| !o.committed).map(|o| o.txn).collect();
    let shortage: BTreeSet<u64> = full_shapes
        .iter()
        .filter(|(_, names)| names.iter().any(|n| n == "transfer"))
        .map(|(t, _)| *t)
        .collect();
    assert!(!aborted.is_empty(), "scarce-AV schedule produced no aborts — test is vacuous");
    assert!(!shortage.is_empty(), "scarce-AV schedule hit no shortage path — test is vacuous");

    let sampled_cfg = config(seed, Some(0.05));
    let run1 = common::export_sim(&sampled_cfg, &timed);
    let run2 = common::export_sim(&sampled_cfg, &timed);

    // Determinism: same seed + rate ⇒ byte-identical retained span set.
    assert_eq!(
        serde_json::to_string(&run1.spans).unwrap(),
        serde_json::to_string(&run2.spans).unwrap(),
        "retained spans differ between two identical sampled runs"
    );

    // Sampling actually sheds spans, and the span-tree oracle stays clean
    // (every committed update still has a rooted, orphan-free tree).
    assert!(
        run1.spans.len() < full.spans.len(),
        "sampling at 0.05 retained as many spans ({}) as full tracing ({})",
        run1.spans.len(),
        full.spans.len()
    );
    let report = verify(&run1);
    assert!(report.is_ok(), "sampled run fails the span oracle: {report}");

    // Promotion: every aborted and shortage-path update keeps its FULL
    // span tree — same causal shape as the untraced-rate-1.0 run.
    let sampled_shapes = common::trace_shapes(&run1);
    for txn in aborted.iter().chain(shortage.iter()) {
        assert_eq!(
            sampled_shapes.get(txn),
            full_shapes.get(txn),
            "trace {txn:#x} (aborted/shortage) lost spans under sampling"
        );
    }

    // The profile only folds fully-retained committed paths, so it stays
    // meaningful (no bare-root dilution) even at a 5% head rate.
    let profile = run1.profile.as_ref().expect("sampled run still exports a profile");
    let retained = fully_retained(&run1);
    assert!(
        profile.traces <= retained.len() as u64,
        "profile folded more traces ({}) than have full trees ({})",
        profile.traces,
        retained.len()
    );
}

#[test]
fn sampled_trace_id_set_is_seed_stable_across_processes() {
    // The keep/drop decision hashes (config seed, trace id) only — no
    // per-run state — so the *set* of head-sampled ids is a pure function
    // of the config. Recompute it two ways and compare.
    let cfg = config(9, Some(0.10));
    let timed = schedule(&cfg);
    let export = common::export_sim(&cfg, &timed);
    let committed: BTreeSet<u64> =
        export.outcomes.iter().filter(|o| o.committed).map(|o| o.txn).collect();
    let sampler = avdb::telemetry::TraceSampler::for_rate(cfg.seed, cfg.trace_sample_rate);
    let retained = fully_retained(&export);
    // Every committed head-sampled txn must have kept its full tree.
    let missing: Vec<u64> = committed
        .iter()
        .filter(|t| sampler.sampled(**t) && !retained.contains(t))
        .copied()
        .collect();
    assert!(missing.is_empty(), "head-sampled committed traces lost spans: {missing:x?}");
}

#[test]
fn sampled_aux_roots_live_only_at_their_origin() {
    // Replication frames and AV pushes run under auxiliary traces whose
    // origin skips the root when the sampler drops the trace. A receiver
    // must then record nothing under that context, not a root of its own
    // (the oracle's `StrayAuxRoot`).
    const SITES: usize = 8;
    let cfg = SystemConfig::builder()
        .sites(SITES)
        .regular_products(2, Volume(40 * SITES as i64))
        .av_allocation(AvAllocation::AllAtBase)
        .proactive_push(true)
        .propagation_batch(2)
        .trace_sample_rate(0.05)
        .seed(11)
        .build()
        .unwrap();
    let mut rng = DetRng::new(cfg.seed).derive(0xA0C5);
    let mut sys = DistributedSystem::new(cfg);
    let schedule: Vec<_> = (0..240u64)
        .map(|i| {
            let site = SiteId(rng.gen_range(SITES as u64) as u32);
            let product = ProductId(rng.gen_range(2) as u32);
            // Every sixth update restocks at the base: an increment is what
            // lets the AV-rich base push surplus to its believed-poorest peer.
            let req = if i % 6 == 0 {
                UpdateRequest::new(SiteId::BASE, product, Volume(8))
            } else {
                UpdateRequest::new(site, product, Volume(-1))
            };
            (VirtualTime(i * 5), req)
        })
        .collect();
    run_checked(&mut sys, &schedule, DistributedSystem::run_until_quiescent)
        .outcomes()
        .unwrap_or_else(|(_, e)| panic!("sampled 8-site cell with proactive pushes: {e}"));
    let stats = |f: fn(&AcceleratorStats) -> u64| -> u64 {
        SiteId::all(SITES).map(|s| f(sys.accelerator(s).stats())).sum()
    };
    assert!(stats(|s| s.av_pushes_sent) > 0, "no AV push: the push path is untested");
    assert!(stats(|s| s.propagation_batches_sent) > 0, "no replication frame");
}

#[test]
fn slo_counters_cover_every_outcome() {
    // Every outcome lands on exactly one lane, so the per-lane totals must
    // sum to committed + aborted across all sites.
    let mut map: BTreeMap<String, u64> = BTreeMap::new();
    let cfg = config(5, None);
    let timed = schedule(&cfg);
    let export = common::export_sim(&cfg, &timed);
    for reg in export.registries.iter().filter(|r| r.scope.starts_with("site")) {
        for key in ["slo.imm.total", "slo.delay.total", "update.committed", "update.aborted"] {
            *map.entry(key.to_string()).or_default() += reg.snapshot.counter(key);
        }
    }
    assert_eq!(
        map["slo.imm.total"] + map["slo.delay.total"],
        map["update.committed"] + map["update.aborted"],
        "SLO lane totals disagree with outcome counters: {map:?}"
    );
    assert!(map["slo.delay.total"] > 0, "no Delay-lane outcomes in a scarce-AV run");
}
