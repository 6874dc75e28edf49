//! Shared harness for the integration suite: a submission log that feeds
//! the conformance oracle, outcome pumps for the live TCP mesh, and
//! settle helpers — one copy instead of one per test file.
#![allow(dead_code)]

use avdb::core::{export_from_accelerators, Accelerator, DistributedSystem, Input};
use avdb::oracle::{Observation, SubmittedRequest};
use avdb::prelude::*;
use avdb::simnet::{CountersSnapshot, TcpMesh};
use avdb::telemetry::RunExport;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The live mesh over accelerators.
pub type LiveMesh = TcpMesh<Accelerator>;

/// Spawns one accelerator per site of `cfg` on a live TCP mesh.
pub fn spawn_live(cfg: &SystemConfig) -> LiveMesh {
    let actors = SiteId::all(cfg.n_sites).map(|s| Accelerator::new(s, cfg)).collect();
    TcpMesh::spawn(actors, cfg.seed)
}

/// Runs one update schedule through the live mesh, settles, shuts down,
/// and assembles the run's telemetry export.
pub fn export_live(cfg: &SystemConfig, schedule: &[UpdateRequest]) -> RunExport {
    let mesh = spawn_live(cfg);
    for req in schedule {
        mesh.inject(req.site, Input::Update(*req));
    }
    let mut outcomes = wait_for_outcomes(&mesh, schedule.len());
    settle_live(&mesh, cfg.n_sites);
    outcomes.extend(mesh.drain_outputs());
    let log = mesh.message_log();
    let (actors, counters, _) = mesh.shutdown();
    export_from_accelerators(
        "tcp",
        cfg,
        &actors,
        log.events(),
        counters.registry().snapshot(),
        &outcomes,
    )
}

/// Runs one timed schedule through the deterministic simulator, settles,
/// and assembles the run's telemetry export.
pub fn export_sim(
    cfg: &SystemConfig,
    schedule: &[(VirtualTime, UpdateRequest)],
) -> RunExport {
    let mut sys = DistributedSystem::new(cfg.clone());
    sys.enable_trace();
    for (at, req) in schedule {
        sys.submit_at(*at, *req);
    }
    sys.run_until_quiescent();
    settle_sim(&mut sys);
    let outcomes = sys.drain_outcomes();
    sys.export_telemetry(&outcomes)
}

/// The causal *shape* of every update trace in an export: the sorted
/// span-name multiset per trace (auxiliary replication traces excluded).
/// Transports schedule differently, so span ids and times differ between
/// runs — but for the same committed update, the set of phases recorded
/// across all sites must not.
pub fn trace_shapes(export: &RunExport) -> BTreeMap<u64, Vec<String>> {
    let mut shapes: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for s in &export.spans {
        if avdb::telemetry::is_aux_trace(s.trace) {
            continue;
        }
        shapes.entry(s.trace).or_default().push(s.name.clone());
    }
    for names in shapes.values_mut() {
        names.sort();
    }
    shapes
}

/// Records every injected update so the run can be replayed against the
/// conformance oracle afterwards.
#[derive(Default)]
pub struct Submissions {
    log: Vec<SubmittedRequest>,
    next_label: u64,
}

impl Submissions {
    pub fn new() -> Self {
        Submissions::default()
    }

    /// Records and submits one update to the simulator.
    pub fn submit_at(&mut self, sys: &mut DistributedSystem, at: VirtualTime, req: UpdateRequest) {
        self.log.push(SubmittedRequest::single(at, &req));
        sys.submit_at(at, req);
    }

    /// Records and injects one update into a live transport. Live runs
    /// have no virtual clock; a global injection counter stands in (the
    /// oracle only needs per-site injection order).
    pub fn inject(&mut self, transport: &LiveMesh, req: UpdateRequest) {
        self.log.push(SubmittedRequest::single(VirtualTime(self.next_label), &req));
        self.next_label += 1;
        transport.inject(req.site, Input::Update(req));
    }

    pub fn take(self) -> Vec<SubmittedRequest> {
        self.log
    }
}

/// Blocks on the live mesh until `expected` outcomes arrived (30s cap).
pub fn wait_for_outcomes(
    transport: &LiveMesh,
    expected: usize,
) -> Vec<(VirtualTime, SiteId, UpdateOutcome)> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut outcomes = Vec::new();
    while outcomes.len() < expected {
        assert!(
            Instant::now() < deadline,
            "timed out with {}/{expected} outcomes",
            outcomes.len()
        );
        outcomes.extend(transport.wait_outputs(deadline.saturating_duration_since(Instant::now())));
    }
    outcomes
}

/// One anti-entropy round on the live mesh, then a wait until nothing
/// is in flight: every ack is back and every output is queued.
pub fn settle_live(transport: &LiveMesh, n_sites: usize) {
    for site in SiteId::all(n_sites) {
        transport.inject(site, Input::FlushPropagation);
    }
    assert!(transport.quiesce(Duration::from_secs(30)), "the live mesh never settled");
}

/// Settles a simulator run: anti-entropy rounds until replicas agree
/// (one round suffices on reliable links; retries cover lossy ones).
pub fn settle_sim(sys: &mut DistributedSystem) {
    for _ in 0..50 {
        sys.flush_all();
        sys.run_until_quiescent();
        if sys.check_convergence().is_ok() {
            break;
        }
    }
}

/// Captures a settled simulator run for the oracle.
pub fn observe_sim(
    sys: &DistributedSystem,
    submissions: Submissions,
    outcomes: Vec<(VirtualTime, SiteId, UpdateOutcome)>,
) -> Observation {
    Observation::from_system(sys, submissions.take(), outcomes)
}

/// Runs the full conformance oracle over a settled simulator run.
pub fn assert_oracle_sim(
    sys: &DistributedSystem,
    submissions: Submissions,
    outcomes: Vec<(VirtualTime, SiteId, UpdateOutcome)>,
    context: &str,
) {
    avdb::oracle::check(&observe_sim(sys, submissions, outcomes)).assert_ok(context);
}

/// Runs the conformance oracle over a live run from the actors the
/// transport returned at shutdown. Pass only the surviving actors when
/// the test killed some — the oracle checks whatever it observes.
pub fn assert_oracle_live(
    cfg: &SystemConfig,
    actors: &[Accelerator],
    submissions: Submissions,
    outcomes: Vec<(VirtualTime, SiteId, UpdateOutcome)>,
    network: CountersSnapshot,
    context: &str,
) {
    avdb::oracle::check(&Observation::from_accelerators(
        cfg.clone(),
        actors,
        submissions.take(),
        outcomes,
        network,
    ))
    .assert_ok(context);
}
