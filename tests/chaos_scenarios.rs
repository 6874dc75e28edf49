//! End-to-end checks of the chaos scenario library: every named scenario
//! runs oracle-clean, replays bit-identically from its seed, and —
//! for the targeted nemeses — demonstrably strikes mid-protocol while
//! the run still converges with AV strictly conserved.

use avdb::bench::{run_scenario, ScenarioSpec};
use avdb::chaos::{run_case, ChaosCase, Scenario};

fn case(scenario: Scenario, seed: u64) -> ChaosCase {
    ChaosCase { scenario, n_sites: 3, updates: 40, seed }
}

/// A small bench cell running `scenario` on the simulator. Kill-the-granter
/// needs grant traffic to strike, so that cell pools all AV at the base
/// site — the same shape `chaos::ChaosCase` uses.
fn bench_spec(scenario: Scenario) -> ScenarioSpec {
    let mut spec = ScenarioSpec::base();
    spec.updates = 60;
    spec.scenario = Some(scenario.name().to_string());
    if scenario == Scenario::KillTheGranter {
        spec.allocation = avdb::types::AvAllocation::AllAtBase;
    }
    spec
}

#[test]
fn every_scenario_runs_oracle_clean() {
    for scenario in Scenario::ALL {
        for seed in [1, 9] {
            let verdict = run_case(&case(scenario, seed), 40);
            assert!(
                verdict.report.is_ok(),
                "{scenario} seed {seed} violated the oracle:\n{}",
                verdict.report
            );
        }
    }
}

#[test]
fn every_scenario_is_deterministic_per_seed() {
    // Same seed + same scenario ⇒ byte-identical report JSON and
    // the same oracle verdict, across two fully independent runs.
    for scenario in Scenario::ALL {
        let spec = bench_spec(scenario);
        let a = run_scenario(&spec).unwrap_or_else(|e| panic!("{scenario} run A: {e}"));
        let b = run_scenario(&spec).unwrap_or_else(|e| panic!("{scenario} run B: {e}"));
        let report_a = avdb::bench::BenchReport {
            label: "det".into(),
            scenarios: vec![a.result],
        };
        let report_b = avdb::bench::BenchReport {
            label: "det".into(),
            scenarios: vec![b.result],
        };
        assert_eq!(
            report_a.to_json(),
            report_b.to_json(),
            "{scenario} must replay bit-identically from its seed"
        );
    }
}

#[test]
fn chaos_runner_is_deterministic_per_seed() {
    // The avdb-check sweep path too: identical verdict, counters, and
    // nemesis strikes across two runs of the same case.
    for scenario in Scenario::ALL {
        let a = run_case(&case(scenario, 3), 40);
        let b = run_case(&case(scenario, 3), 40);
        assert_eq!(a.report.is_ok(), b.report.is_ok(), "{scenario} verdict must replay");
        assert_eq!(a.fired, b.fired, "{scenario} strike count must replay");
        assert_eq!(a.committed, b.committed, "{scenario} commit count must replay");
        assert_eq!(
            a.observation.network, b.observation.network,
            "{scenario} network counters must replay"
        );
    }
}

#[test]
fn targeted_nemeses_fire_mid_protocol_and_conserve_av() {
    for scenario in [Scenario::KillTheGranter, Scenario::KillTheCoordinator] {
        let verdict = run_case(&case(scenario, 3), 40);
        // The nemesis-coverage gate: a refactor that silently stops the
        // trigger fails here rather than passing vacuously.
        assert!(verdict.fired > 0, "{scenario} never fired — vacuous run");
        assert!(
            verdict.chaos_registry.counter(&format!("chaos.nemesis.fired.{scenario}")) > 0,
            "{scenario} per-nemesis counter missing"
        );
        assert!(
            verdict.report.is_ok(),
            "{scenario} violated the oracle:\n{}",
            verdict.report
        );
        // Kill nemeses crash sites (messages park, nothing is dropped),
        // so the oracle's AV-conservation check ran in strict mode.
        assert_eq!(
            verdict.observation.network.dropped_messages, 0,
            "{scenario} must not drop messages — conservation stays strict"
        );
        assert!(verdict.committed > 0, "{scenario} runs must still make progress");
    }
}

#[test]
fn targeted_bench_cells_refuse_vacuous_runs() {
    // Under uniform allocation every site already holds enough AV, no
    // shortage arises, and no av-grant ever flows — the nemesis has
    // nothing to strike. The bench must fail the cell rather than
    // publish adversary-free numbers under an adversarial label.
    let mut spec = bench_spec(Scenario::KillTheGranter);
    spec.allocation = avdb::types::AvAllocation::Uniform;
    match run_scenario(&spec) {
        Err(e) => assert!(e.contains("never fired"), "unexpected error: {e}"),
        Ok(arts) => panic!(
            "expected the vacuous cell to fail, got ok ({} committed)",
            arts.result.stats.committed
        ),
    }
}

#[test]
fn coordinator_crash_after_decision_still_reports_the_commit() {
    // Found by the first `--scenario all` sweep: at 5 sites, seed 8, a
    // rolling restart takes the coordinator down in the window between
    // deciding an Immediate commit (durable, distributed, executed at
    // every site) and reporting the outcome. The commit must be
    // re-reported at recovery, or the oracle sees a phantom write —
    // replicas converge on a value the committed outcomes can't explain.
    let case =
        ChaosCase { scenario: Scenario::RollingRestart, n_sites: 5, updates: 40, seed: 8 };
    let verdict = run_case(&case, 18);
    assert!(
        verdict.report.is_ok(),
        "decided-but-unreported commit was lost again:\n{}",
        verdict.report
    );
    assert!(verdict.committed > 0);
}

#[test]
fn scenario_labels_are_stable_and_distinct() {
    let mut labels = std::collections::BTreeSet::new();
    for scenario in Scenario::ALL {
        let label = bench_spec(scenario).label();
        assert!(
            label.ends_with(&format!("-sc{scenario}")),
            "scenario label suffix missing: {label}"
        );
        labels.insert(label);
    }
    assert_eq!(labels.len(), Scenario::ALL.len());
    assert!(
        !ScenarioSpec::base().label().contains("-sc"),
        "plain cells keep their pre-chaos labels"
    );
}
