//! Shared helpers for the integration suite: a submission log that
//! feeds the conformance oracle and oracle assertions over settled runs.
//! Runs themselves go through `avdb::bench::run`: `run_checked` on the
//! simulator, `LiveDriver` on the live TCP mesh.
#![allow(dead_code)]

use avdb::bench::run::{run_checked, LiveRun};
use avdb::core::{Accelerator, DistributedSystem};
use avdb::oracle::{Observation, SubmittedRequest};
use avdb::prelude::*;
use avdb::telemetry::RunExport;
use std::collections::BTreeMap;

/// Runs one timed schedule oracle-checked through the deterministic
/// simulator with the message log on, and assembles the run's telemetry
/// export.
pub fn export_sim(cfg: &SystemConfig, schedule: &[(VirtualTime, UpdateRequest)]) -> RunExport {
    let mut sys = DistributedSystem::new(cfg.clone());
    sys.enable_trace();
    let outcomes = run_checked(&mut sys, schedule, DistributedSystem::run_until_quiescent)
        .outcomes()
        .unwrap_or_else(|(_, e)| panic!("{e}"));
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

/// Records every submitted update so the run can be replayed against the
/// conformance oracle afterwards.
#[derive(Default)]
pub struct Submissions {
    log: Vec<SubmittedRequest>,
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

    pub fn take(self) -> Vec<SubmittedRequest> {
        self.log
    }
}

/// Runs the full conformance oracle over a settled simulator run.
pub fn assert_oracle_sim(
    sys: &DistributedSystem,
    submissions: Submissions,
    outcomes: Vec<(VirtualTime, SiteId, UpdateOutcome)>,
    context: &str,
) {
    let observation = Observation::from_system(sys, submissions.take(), outcomes);
    avdb::oracle::check(&observation).assert_ok(context);
}

/// Runs the conformance oracle over a finished live run, observing only
/// `actors` (pass the survivors when the test killed some — the oracle
/// checks whatever it observes).
pub fn assert_oracle_live(run: &LiveRun, actors: &[Accelerator], context: &str) {
    avdb::oracle::check(&Observation::from_accelerators(
        run.cfg.clone(),
        actors,
        run.submitted.clone(),
        run.outcomes.clone(),
        run.counters.snapshot(),
    ))
    .assert_ok(context);
}
