//! Executes one [`ScenarioSpec`] end to end: build the system, feed the
//! schedule, inject the fault, settle, run the conformance oracle, and
//! distill the telemetry export into a [`ScenarioResult`].
//!
//! Every run — benchmark or not — is oracle-checked. A scenario that
//! violates a protocol invariant returns `Err` instead of numbers, so
//! the perf trajectory can never be bought with correctness.

use crate::matrix::{FaultProfile, ScenarioSpec, TransportKind};
use crate::report::{compute_stats, ScenarioResult};
use avdb_core::{Accelerator, DistributedSystem, Input};
use avdb_oracle::{check, Observation, SubmittedRequest};
use avdb_simnet::{LinkFilter, Live, LiveRunner, TcpMesh};
use avdb_telemetry::RunExport;
use avdb_types::{SiteId, SystemConfig, VirtualTime};
use std::time::{Duration, Instant};

/// A finished scenario: the distilled result plus the raw export for
/// callers that want to drill further (tests, avdb-trace style reports).
pub struct RunArtifacts {
    /// Deterministic stats, ready for a [`crate::report::BenchReport`].
    pub result: ScenarioResult,
    /// The run's full telemetry export.
    pub export: RunExport,
}

/// Runs one scenario to completion. `Err` means the scenario could not
/// run (bad config, unsupported transport/fault combination, timeout) or
/// failed the conformance oracle.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<RunArtifacts, String> {
    run_scenario_with_flight_dir(spec, None)
}

/// [`run_scenario`] with a post-mortem hook: when a sim scenario fails
/// (no convergence, oracle violation), the cluster's flight-recorder
/// dump is written as JSON into `flight_dir` before the error returns —
/// CI jobs upload the directory as a failure artifact.
pub fn run_scenario_with_flight_dir(
    spec: &ScenarioSpec,
    flight_dir: Option<&std::path::Path>,
) -> Result<RunArtifacts, String> {
    match spec.transport {
        TransportKind::Sim => run_sim(spec, flight_dir),
        TransportKind::Threads | TransportKind::Tcp => run_live(spec),
    }
}

fn finish(spec: &ScenarioSpec, export: RunExport) -> RunArtifacts {
    let stats = compute_stats(spec, &export);
    let result = ScenarioResult { label: spec.label(), spec: spec.clone(), stats };
    RunArtifacts { result, export }
}

// ---- simulator ---------------------------------------------------------

/// Writes the cluster flight dump for a failed scenario, best effort.
fn dump_flight(
    sys: &DistributedSystem,
    dir: Option<&std::path::Path>,
    label: &str,
    reason: &str,
) {
    let Some(dir) = dir else { return };
    let _ = std::fs::create_dir_all(dir);
    let dump = sys.flight_dump(reason);
    if let Ok(text) = serde_json::to_string_pretty(&dump) {
        let _ = std::fs::write(dir.join(format!("{label}-{reason}.json")), text);
    }
}

fn run_sim(spec: &ScenarioSpec, flight_dir: Option<&std::path::Path>) -> Result<RunArtifacts, String> {
    let cfg = spec.config()?;
    let chaos = spec.chaos_scenario().map_err(|e| format!("{}: {e}", spec.label()))?;
    let schedule = spec.schedule();

    let mut sys = DistributedSystem::new(cfg);
    // The message log is for post-hoc analysis (sequence charts,
    // avdb-trace drilling); none of the BENCH statistics read it — they
    // come from outcomes, spans, and the registries. At scale-up cell
    // sizes ([`FULL_TELEMETRY_CEILING`] exceeded) recording every
    // delivery would dominate memory and wall time, so large cells run
    // with the log off (and auto-sampled traces, see
    // [`ScenarioSpec::config`]).
    if !spec.scaled_telemetry() {
        sys.enable_trace();
    }
    let span = spec.schedule_span().max(1);
    let nemesis = chaos.map(|sc| sc.install(&mut sys, span));
    let mut submitted = Vec::with_capacity(schedule.len());
    for (at, req) in &schedule {
        submitted.push(SubmittedRequest::single(*at, req));
        sys.submit_at(*at, *req);
    }

    match spec.fault {
        FaultProfile::Clean | FaultProfile::Loss => sys.run_until_quiescent(),
        FaultProfile::Crash => {
            let victim = SiteId(spec.sites as u32 - 1);
            sys.crash_at(VirtualTime(span / 3), victim);
            sys.recover_at(VirtualTime(span * 2 / 3), victim);
            sys.run_until_quiescent();
        }
        FaultProfile::Partition => {
            let half = spec.sites / 2;
            let groups = vec![
                SiteId::all(spec.sites).take(half).collect::<Vec<_>>(),
                SiteId::all(spec.sites).skip(half).collect::<Vec<_>>(),
            ];
            sys.run_until(VirtualTime(span / 3));
            sys.set_partition(LinkFilter::partition(groups));
            sys.run_until(VirtualTime(span * 2 / 3));
            sys.heal_partition();
            sys.run_until_quiescent();
        }
    }

    // Anti-entropy until replicas agree; retries cover lossy links.
    for _ in 0..50 {
        sys.flush_all();
        sys.run_until_quiescent();
        if sys.check_convergence().is_ok() {
            break;
        }
    }
    if let Err(e) = sys.check_convergence() {
        dump_flight(&sys, flight_dir, &spec.label(), "no-convergence");
        return Err(format!("{}: no convergence: {e}", spec.label()));
    }

    let outcomes = sys.drain_outcomes();

    let report = check(&Observation::from_system(&sys, submitted, outcomes.clone()));
    if !report.is_ok() {
        dump_flight(&sys, flight_dir, &spec.label(), "oracle-violation");
        return Err(format!("{}: oracle violations: {report}", spec.label()));
    }

    // A targeted scenario whose nemesis never struck proves nothing —
    // fail the cell rather than report adversary-free numbers under an
    // adversarial label.
    let mut export = sys.export_telemetry(&outcomes);
    if let (Some(sc), Some(handle)) = (chaos, &nemesis) {
        if sc.is_targeted() && handle.fired() == 0 {
            return Err(format!(
                "{}: nemesis '{sc}' never fired — vacuous adversarial run",
                spec.label()
            ));
        }
        export.add_registry("chaos", handle.snapshot());
    }

    Ok(finish(spec, export))
}

// ---- live transports ---------------------------------------------------

fn run_live(spec: &ScenarioSpec) -> Result<RunArtifacts, String> {
    if spec.fault != FaultProfile::Clean {
        return Err(format!(
            "{}: fault '{}' needs the deterministic scheduler; run it on sim",
            spec.label(),
            spec.fault.name()
        ));
    }
    if let Some(name) = &spec.scenario {
        return Err(format!(
            "{}: scenario '{name}' needs the deterministic scheduler; run it on sim",
            spec.label()
        ));
    }
    let cfg = spec.config()?;
    let actors: Vec<Accelerator> =
        SiteId::all(spec.sites).map(|s| Accelerator::new(s, &cfg)).collect();
    match spec.transport {
        TransportKind::Threads => drive_live(spec, &cfg, LiveRunner::spawn(actors, cfg.seed)),
        TransportKind::Tcp => drive_live(spec, &cfg, TcpMesh::spawn(actors, cfg.seed)),
        TransportKind::Sim => unreachable!("sim handled by run_sim"),
    }
}

fn drive_live<T>(
    spec: &ScenarioSpec,
    cfg: &SystemConfig,
    mesh: Live<Accelerator, T>,
) -> Result<RunArtifacts, String> {
    let schedule = spec.schedule();
    let mut submitted = Vec::with_capacity(schedule.len());
    let mut outcomes = Vec::with_capacity(schedule.len());
    let deadline = Instant::now() + Duration::from_secs(60);

    // Live runs have no virtual clock; a global injection counter stands
    // in (the oracle only needs per-site injection order).
    for (label, (_, req)) in schedule.iter().enumerate() {
        submitted.push(SubmittedRequest::single(VirtualTime(label as u64), req));
        mesh.inject(req.site, Input::Update(*req));
        if spec.closed_loop {
            // One update in flight at a time: protocol-level counters
            // become independent of thread scheduling.
            while outcomes.len() <= label {
                if Instant::now() > deadline {
                    return Err(format!(
                        "{}: timed out at {}/{} outcomes",
                        spec.label(),
                        outcomes.len(),
                        schedule.len()
                    ));
                }
                outcomes.extend(mesh.wait_outputs(deadline.saturating_duration_since(Instant::now())));
            }
        }
    }
    while outcomes.len() < schedule.len() {
        if Instant::now() > deadline {
            return Err(format!(
                "{}: timed out at {}/{} outcomes",
                spec.label(),
                outcomes.len(),
                schedule.len()
            ));
        }
        outcomes.extend(mesh.wait_outputs(deadline.saturating_duration_since(Instant::now())));
    }
    // Settle: a few anti-entropy rounds with real time for the acks.
    for _ in 0..3 {
        for site in SiteId::all(spec.sites) {
            mesh.inject(site, Input::FlushPropagation);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    outcomes.extend(mesh.drain_outputs());

    let log = mesh.message_log();
    let (actors, counters, _) = mesh.shutdown();
    let report = check(&Observation::from_accelerators(
        cfg.clone(),
        &actors,
        submitted,
        outcomes.clone(),
        counters.snapshot(),
    ));
    if !report.is_ok() {
        return Err(format!("{}: oracle violations: {report}", spec.label()));
    }

    let export = avdb_core::export_from_accelerators(
        spec.transport.name(),
        cfg,
        &actors,
        log.events(),
        counters.registry().snapshot(),
        &outcomes,
    );
    Ok(finish(spec, export))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScenarioSpec;

    #[test]
    fn sim_scenario_runs_green() {
        let mut spec = ScenarioSpec::base();
        spec.updates = 40;
        let arts = run_scenario(&spec).expect("sim run");
        assert_eq!(arts.result.stats.submitted, 40);
        assert!(arts.result.stats.committed > 0);
        assert!(arts.result.stats.sim.is_some());
    }

    #[test]
    fn live_fault_is_rejected() {
        let mut spec = ScenarioSpec::base();
        spec.transport = TransportKind::Threads;
        spec.fault = FaultProfile::Loss;
        assert!(run_scenario(&spec).is_err());
    }
}
