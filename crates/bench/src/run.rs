//! The one run harness. Every deterministic run — matrix cell, sweep
//! case, paper experiment, `avdb-trace record --transport sim` — goes
//! through [`run_checked`]; every live run goes through [`LiveDriver`];
//! every flight-recorder dump goes out through [`write_flight`].
//! [`run_scenario`] executes one [`ScenarioSpec`] end to end on either:
//! build the system, feed the schedule, inject the fault, settle, run
//! the conformance oracle, and distill the telemetry export into a
//! [`ScenarioResult`].
//!
//! Every run — benchmark or not — is oracle-checked. A scenario that
//! violates a protocol invariant returns `Err` instead of numbers, so
//! the perf trajectory can never be bought with correctness.

use crate::matrix::{FaultProfile, ScenarioSpec, TransportKind};
use crate::report::{compute_stats, ScenarioResult};
use avdb_core::{export_from_accelerators, Accelerator, DistributedSystem, Input};
use avdb_oracle::{check, Observation, Report, SubmittedRequest};
use avdb_simnet::{Counters, LinkFilter, TcpMesh};
use avdb_telemetry::{FlightDump, RunExport};
use avdb_types::{SiteId, SystemConfig, UpdateOutcome, UpdateRequest, VirtualTime};
use std::path::{Path, PathBuf};
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
    flight_dir: Option<&Path>,
) -> Result<RunArtifacts, String> {
    match spec.transport {
        TransportKind::Sim => run_sim(spec, flight_dir),
        TransportKind::Tcp => run_live(spec),
    }
}

fn finish(spec: &ScenarioSpec, export: RunExport) -> RunArtifacts {
    let stats = compute_stats(spec, &export);
    let result = ScenarioResult { label: spec.label(), spec: spec.clone(), stats };
    RunArtifacts { result, export }
}

/// Writes `dump` as `<dir>/<name>.json` (creating `dir`) and returns the
/// path: the one place a harness puts a flight-recorder dump.
pub fn write_flight(dir: &Path, name: &str, dump: &FlightDump) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, dump.to_json())?;
    Ok(path)
}

// ---- simulator ---------------------------------------------------------

/// Completed updates as a harness drains them: completion time, origin
/// site, verdict.
pub type Outcomes = Vec<(VirtualTime, SiteId, UpdateOutcome)>;

/// A finished oracle-checked sim run.
pub struct CheckedRun {
    /// [`DistributedSystem::settle`]'s verdict: `Err` when anti-entropy
    /// never brought the replicas together.
    pub settled: Result<(), String>,
    /// The conformance oracle's verdict.
    pub report: Report,
    /// What the oracle saw, the drained outcomes
    /// ([`Observation::outcomes`]) included.
    pub observation: Observation,
}

impl CheckedRun {
    /// `None` when the replicas converged and the oracle found nothing;
    /// else a flight-dump reason and what failed.
    pub fn failure(&self) -> Option<(&'static str, String)> {
        if let Err(e) = &self.settled {
            return Some(("no-convergence", format!("no convergence: {e}")));
        }
        (!self.report.is_ok())
            .then(|| ("oracle-violation", format!("oracle violations: {}", self.report)))
    }

    /// The run's outcomes, or its [`CheckedRun::failure`]. Drops the
    /// rest of the observation.
    pub fn outcomes(self) -> Result<Outcomes, (&'static str, String)> {
        match self.failure() {
            Some(failure) => Err(failure),
            None => Ok(self.observation.outcomes),
        }
    }
}

/// The one oracle-checked sim run: submits `schedule` to `sys`, lets
/// `drive` run the clock (fault windows go there), settles, drains the
/// outcomes and runs the conformance oracle.
pub fn run_checked(
    sys: &mut DistributedSystem,
    schedule: &[(VirtualTime, UpdateRequest)],
    drive: impl FnOnce(&mut DistributedSystem),
) -> CheckedRun {
    let submitted = schedule.iter().map(|(at, req)| SubmittedRequest::single(*at, req)).collect();
    for (at, req) in schedule {
        sys.submit_at(*at, *req);
    }
    drive(sys);
    let settled = sys.settle();
    let outcomes = sys.drain_outcomes();
    let observation = Observation::from_system(sys, submitted, outcomes);
    let report = check(&observation);
    CheckedRun { settled, report, observation }
}

fn run_sim(spec: &ScenarioSpec, flight_dir: Option<&Path>) -> Result<RunArtifacts, String> {
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
    let drive = |sys: &mut DistributedSystem| match spec.fault {
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
    };
    let run = run_checked(&mut sys, &schedule, drive);
    if let Some((reason, e)) = run.failure() {
        if let Some(dir) = flight_dir {
            let dump = run.observation.flight_dump(reason);
            // Best effort: the error below is what the caller reports.
            let _ = write_flight(dir, &format!("{}-{reason}", spec.label()), &dump);
        }
        return Err(format!("{}: {e}", spec.label()));
    }
    let outcomes = run.outcomes().expect("the run conformed");

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

// ---- live transport ----------------------------------------------------

/// The one live driver: spawns one accelerator per site on a TCP mesh,
/// injects updates with their oracle labels, waits for their outcomes,
/// and [`LiveDriver::finish`]es with an anti-entropy round and a
/// shutdown. Every wait shares one deadline, set at spawn.
pub struct LiveDriver {
    cfg: SystemConfig,
    mesh: TcpMesh<Accelerator>,
    deadline: Instant,
    submitted: Vec<SubmittedRequest>,
    outcomes: Outcomes,
}

/// A finished live run.
pub struct LiveRun {
    /// The configuration the sites ran.
    pub cfg: SystemConfig,
    /// Every site's accelerator, in site order (killed sites as they
    /// stopped).
    pub actors: Vec<Accelerator>,
    /// The mesh's traffic counters.
    pub counters: Counters,
    /// Every injected update, labelled in injection order.
    pub submitted: Vec<SubmittedRequest>,
    /// Every outcome, in arrival order.
    pub outcomes: Outcomes,
}

impl LiveDriver {
    /// Spawns `cfg`'s sites on a live TCP mesh; every wait gives up
    /// `timeout` from now.
    pub fn spawn(cfg: &SystemConfig, timeout: Duration) -> Self {
        let actors = SiteId::all(cfg.n_sites).map(|s| Accelerator::new(s, cfg)).collect();
        LiveDriver {
            cfg: cfg.clone(),
            mesh: TcpMesh::spawn(actors, cfg.seed),
            deadline: Instant::now() + timeout,
            submitted: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// The running mesh (fault injection, introspection).
    pub fn mesh(&self) -> &TcpMesh<Accelerator> {
        &self.mesh
    }

    /// Injects one update at its site. Live runs have no virtual clock;
    /// the injection count stands in as the oracle's label (the oracle
    /// only needs per-site injection order).
    pub fn inject(&mut self, req: UpdateRequest) {
        let label = VirtualTime(self.submitted.len() as u64);
        self.submitted.push(SubmittedRequest::single(label, &req));
        self.mesh.inject(req.site, Input::Update(req));
    }

    /// Blocks until `n` outcomes are in and then nothing is in flight.
    /// `Err` names how many outcomes were missing at the deadline, or
    /// says the mesh never went quiet.
    pub fn wait(&mut self, n: usize) -> Result<(), String> {
        let mesh = &self.mesh;
        while self.outcomes.len() < n && Instant::now() < self.deadline {
            self.outcomes.extend(mesh.wait_outputs(self.left()));
        }
        if self.outcomes.len() < n {
            return Err(format!(
                "timed out at {}/{n} outcomes ({} missing)",
                self.outcomes.len(),
                n - self.outcomes.len()
            ));
        }
        if !mesh.quiesce(self.left()) {
            return Err("timed out before the mesh went quiet".to_string());
        }
        self.outcomes.extend(mesh.drain_outputs());
        Ok(())
    }

    fn left(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }

    /// Waits for every injected update's outcome, runs one anti-entropy
    /// round, waits until its acks are in, and shuts the mesh down (on
    /// `Err` too, so no site outlives a failed run).
    pub fn finish(mut self) -> Result<LiveRun, String> {
        let all = self.submitted.len();
        let settled = self.wait(all).and_then(|()| {
            for site in SiteId::all(self.cfg.n_sites) {
                self.mesh.inject(site, Input::FlushPropagation);
            }
            self.wait(all)
        });
        let (actors, counters, _) = self.mesh.shutdown();
        settled?;
        Ok(LiveRun {
            cfg: self.cfg,
            actors,
            counters,
            submitted: self.submitted,
            outcomes: self.outcomes,
        })
    }
}

impl LiveRun {
    /// Runs the conformance oracle over every site; `Err` lists the
    /// violations.
    pub fn check(&self) -> Result<(), String> {
        let report = check(&Observation::from_accelerators(
            self.cfg.clone(),
            &self.actors,
            self.submitted.clone(),
            self.outcomes.clone(),
            self.counters.snapshot(),
        ));
        if report.is_ok() {
            Ok(())
        } else {
            Err(format!("oracle violations: {report}"))
        }
    }

    /// The run's telemetry export.
    pub fn export(&self) -> RunExport {
        export_from_accelerators(
            "tcp",
            &self.cfg,
            &self.actors,
            self.counters.registry().snapshot(),
            &self.outcomes,
        )
    }
}

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
    let mut live = LiveDriver::spawn(&cfg, Duration::from_secs(60));
    for (_, req) in spec.schedule() {
        live.inject(req);
        // Closed loop: one update in flight at a time, and everything it
        // set off (replication, 2PC done-acks) finished before the next,
        // so protocol-level counters are independent of thread
        // scheduling. On a timeout `finish` reports it and stops the
        // sites.
        if spec.closed_loop && live.wait(live.submitted.len()).is_err() {
            break;
        }
    }
    let run = live.finish().and_then(|run| run.check().map(|()| run));
    let run = run.map_err(|e| format!("{}: {e}", spec.label()))?;
    Ok(finish(spec, run.export()))
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
        spec.transport = TransportKind::Tcp;
        spec.fault = FaultProfile::Loss;
        assert!(run_scenario(&spec).is_err());
    }

    #[test]
    fn live_driver_names_the_missing_outcomes_at_its_deadline() {
        let cfg = SystemConfig::builder()
            .sites(3)
            .regular_products(1, avdb_types::Volume(90))
            .seed(3)
            .build()
            .unwrap();
        let mut live = LiveDriver::spawn(&cfg, Duration::from_millis(300));
        live.mesh().kill(SiteId(2));
        let started = Instant::now();
        live.inject(UpdateRequest::new(
            SiteId(2),
            avdb_types::ProductId(0),
            avdb_types::Volume(-1),
        ));
        let err = live.finish().err().expect("a killed site never reports its update");
        assert!(err.contains("0/1 outcomes (1 missing)"), "{err}");
        assert!(started.elapsed() < Duration::from_secs(5), "waited past the deadline");
    }
}
