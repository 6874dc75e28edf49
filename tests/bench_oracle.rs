//! Every benchmark matrix cell runs under the conformance oracle:
//! [`run_scenario`] replays the full invariant suite (AV conservation,
//! replica convergence, outcome/filesystem correspondence accounting)
//! over the settled run and returns `Err` on any violation. This suite
//! pins that contract across fault profiles and transports — in
//! particular that a *faulted* benchmarked run still passes every
//! invariant, so BENCH numbers are never read off a corrupted run.

use avdb::bench::{run_scenario, FaultProfile, ScenarioSpec, TransportKind};

#[test]
fn sim_cells_pass_oracle_under_every_fault_profile() {
    for fault in
        [FaultProfile::Clean, FaultProfile::Loss, FaultProfile::Crash, FaultProfile::Partition]
    {
        for sites in [3usize, 5] {
            let mut spec = ScenarioSpec::base();
            spec.sites = sites;
            spec.updates = 120;
            spec.fault = fault;
            spec.seed = 3;
            let art =
                run_scenario(&spec).unwrap_or_else(|e| panic!("{} failed: {e}", spec.label()));
            assert!(
                art.result.stats.committed > 0,
                "{}: benchmark measured nothing",
                spec.label()
            );
            let resolved = art.result.stats.committed + art.result.stats.aborted;
            if fault == FaultProfile::Crash {
                // Fail-stop: updates in flight at the crashed site (and
                // inputs submitted to it while down) are wiped and
                // resolve to no outcome.
                assert!(resolved <= art.result.stats.submitted, "{}", spec.label());
            } else {
                assert_eq!(
                    resolved,
                    art.result.stats.submitted,
                    "{}: every update resolves",
                    spec.label()
                );
            }
        }
    }
}

#[test]
fn skewed_and_shortage_heavy_cells_pass_oracle() {
    // High zipf skew + scarce stock drives the AV-transfer machinery
    // hard; the oracle must still sign off on the settled state.
    let mut spec = ScenarioSpec::base();
    spec.sites = 7;
    spec.updates = 150;
    spec.initial_stock = 4_000;
    spec.zipf_milli = 1_200;
    spec.seed = 9;
    let art = run_scenario(&spec).unwrap_or_else(|e| panic!("{} failed: {e}", spec.label()));
    let stats = &art.result.stats;
    assert!(
        stats.delay_commit_remote + stats.delay_abort_insufficient > 0,
        "{}: cell was meant to exercise AV shortages",
        spec.label()
    );
}

#[test]
fn live_transport_cells_pass_oracle() {
    let mut spec = ScenarioSpec::base();
    spec.transport = TransportKind::Tcp;
    spec.updates = 40;
    spec.seed = 2;
    let art = run_scenario(&spec).unwrap_or_else(|e| panic!("{} failed: {e}", spec.label()));
    assert!(art.result.stats.committed > 0, "{}: nothing committed", spec.label());
}

#[test]
fn live_transports_reject_fault_profiles() {
    // Fault injection is a simulator capability; asking a live cell for
    // it must fail loudly instead of silently benching a clean run.
    let mut spec = ScenarioSpec::base();
    spec.transport = TransportKind::Tcp;
    spec.fault = FaultProfile::Crash;
    assert!(run_scenario(&spec).is_err());
}
