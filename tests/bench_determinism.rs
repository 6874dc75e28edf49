//! Determinism suite for the benchmark harness: the same spec (same
//! seed, same matrix cell) must produce a byte-identical
//! [`BenchReport::to_json`] across repeated runs. This is what lets a
//! committed `BENCH_baseline.json` act as a cross-machine regression
//! gate: any diff in the report is a behavior change, not noise.

use avdb::bench::{run_scenario, BenchReport, FaultProfile, ScenarioSpec, TransportKind};

/// Runs one scenario and returns its report JSON.
fn det_json(spec: &ScenarioSpec) -> String {
    let art = run_scenario(spec).unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
    BenchReport { label: "determinism".to_string(), scenarios: vec![art.result] }
        .to_json()
}

#[test]
fn sim_report_is_byte_identical_across_runs() {
    let mut spec = ScenarioSpec::base();
    spec.sites = 5;
    spec.updates = 200;
    spec.zipf_milli = 900;
    spec.seed = 11;
    let first = det_json(&spec);
    assert!(first.contains("commits_per_mtick"), "sim stats present");
    assert_eq!(first, det_json(&spec), "same seed, same spec, same bytes");
}

#[test]
fn sim_report_under_message_loss_is_byte_identical() {
    // Faults are drawn from the seeded simulator RNG, so even a lossy
    // run replays exactly.
    let mut spec = ScenarioSpec::base();
    spec.updates = 150;
    spec.fault = FaultProfile::Loss;
    spec.seed = 7;
    assert_eq!(det_json(&spec), det_json(&spec));
}

#[test]
fn distinct_seeds_actually_change_the_report() {
    // Guard against the trap of a "deterministic" report that is
    // insensitive to the run: different seeds must diverge.
    let mut a = ScenarioSpec::base();
    a.updates = 200;
    a.zipf_milli = 900;
    a.seed = 11;
    let mut b = a.clone();
    b.seed = 12;
    assert_ne!(det_json(&a), det_json(&b));
}

#[test]
fn threads_closed_loop_protocol_stats_are_byte_identical() {
    // On a live transport wall-clock numbers differ run to run, but the
    // closed loop (one update in flight) makes the *protocol* counters
    // scheduling-independent — as long as the workload stays clear of
    // AV shortages, whose grant timeouts race real time. Plentiful
    // stock keeps every Delay Update locally covered.
    let mut spec = ScenarioSpec::base();
    spec.transport = TransportKind::Threads;
    spec.updates = 24;
    spec.initial_stock = 200_000;
    spec.retailer_pct = 1;
    spec.seed = 5;
    let first = det_json(&spec);
    assert!(!first.contains("commits_per_mtick"), "no sim stats on a live run");
    assert_eq!(first, det_json(&spec), "closed-loop live stats replay exactly");
}
