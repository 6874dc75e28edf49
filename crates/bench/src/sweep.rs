//! The seeded conformance sweep behind `avdb-check`: one case type, one
//! case runner, one prefix minimizer and one sweep loop, for the random
//! fault schedules and the named chaos scenarios alike.
//!
//! A [`Case`] is a shape (a seeded random [`Fault`] schedule or a chaos
//! [`Scenario`]) at a seed, a site count and a fast-lane setting. Its
//! schedule and its fault timing are keyed to the full request count, so
//! a run of a prefix ([`run_case`]) submits the first N requests of the
//! same stream under the same faults, and the printed repro
//! ([`Case::flags`]) replays bit-identically. Every run goes through
//! [`run_checked`]; a failing case shrinks to its shortest failing
//! prefix and leaves a flight-recorder dump under `results/flight/`.

use crate::run::{run_checked, write_flight, CheckedRun};
use avdb_chaos::Scenario;
use avdb_core::DistributedSystem;
use avdb_simnet::{DetRng, LinkFilter, RegistrySnapshot};
use avdb_types::{
    AvAllocation, ProductId, SiteId, SystemConfig, SystemConfigBuilder, UpdateRequest, VirtualTime,
    Volume,
};
use avdb_workload::{scm_catalog, UpdateStream, WorkloadSpec};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Virtual ticks between consecutive requests of a [`mixed_schedule`].
const TICKS_PER_REQUEST: u64 = 4;

/// Where a failing case's flight-recorder dump goes.
const FLIGHT_DIR: &str = "results/flight";

/// The sweep's system shape: two AV-managed products with 40 units per
/// site, enough that most Delay traffic commits and little enough that
/// shortages force request/grant negotiation, plus one non-regular
/// product of 50 for the Immediate path.
pub fn config_shape(n_sites: usize, seed: u64) -> SystemConfigBuilder {
    SystemConfig::builder()
        .sites(n_sites)
        .regular_products(2, Volume(40 * n_sites as i64))
        .non_regular_products(1, Volume(50))
        .seed(seed)
}

/// A mixed ± schedule drawn from `rng`: one single-product update every
/// 4 ticks at a uniform site, over the first
/// `products` products; 65 % decrements of 1–12, the rest increments of
/// 1–15. A longer schedule extends a shorter one from the same `rng`.
pub fn mixed_schedule(
    mut rng: DetRng,
    n_sites: usize,
    products: u64,
    requests: usize,
) -> Vec<(VirtualTime, UpdateRequest)> {
    (0..requests)
        .map(|i| {
            let site = SiteId(rng.gen_range(n_sites as u64) as u32);
            let product = ProductId(rng.gen_range(products) as u32);
            let delta = if rng.gen_f64() < 0.65 {
                -rng.gen_i64_inclusive(1, 12)
            } else {
                rng.gen_i64_inclusive(1, 15)
            };
            (
                VirtualTime(i as u64 * TICKS_PER_REQUEST),
                UpdateRequest::new(site, product, Volume(delta)),
            )
        })
        .collect()
}

/// A seeded random fault schedule (the matrix's fixed-time
/// [`crate::FaultProfile`] is a different thing).
///
/// The fault schedules drive Delay (regular-product) traffic only: the
/// Immediate path is classic presumed-abort 2PC, which assumes reliable
/// delivery of the decision round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Reliable network, mixed Delay + Immediate traffic.
    Clean,
    /// One or two fail-stop crashes, each recovered, at random times.
    Crash,
    /// A random two-group partition, installed and healed mid-run.
    Partition,
    /// Every message dropped with 5 % probability.
    Loss,
}

impl Fault {
    /// Every fault schedule, in sweep order.
    pub const ALL: [Fault; 4] = [Fault::Clean, Fault::Crash, Fault::Partition, Fault::Loss];

    /// Stable name (CLI flag value).
    pub fn name(self) -> &'static str {
        match self {
            Fault::Clean => "clean",
            Fault::Crash => "crash",
            Fault::Partition => "partition",
            Fault::Loss => "loss",
        }
    }

    /// Parses a name back.
    pub fn parse(s: &str) -> Option<Fault> {
        Fault::ALL.into_iter().find(|f| f.name() == s)
    }

    /// Schedules this fault on `sys` and runs the clock to quiescence.
    /// Fault times are drawn from `rng` over `horizon` ticks.
    fn drive(self, sys: &mut DistributedSystem, mut rng: DetRng, horizon: u64) {
        let n_sites = sys.config().n_sites;
        match self {
            Fault::Clean | Fault::Loss => {}
            Fault::Crash => {
                // One or two distinct sites fail-stop and later recover.
                let crashes = (1 + rng.gen_range(2) as usize).min(n_sites);
                let mut sites: Vec<u64> = (0..n_sites as u64).collect();
                for _ in 0..crashes {
                    let site =
                        SiteId(sites.remove(rng.gen_range(sites.len() as u64) as usize) as u32);
                    let down = rng.gen_range(horizon);
                    let outage = 20 + rng.gen_range(horizon / 2);
                    sys.crash_at(VirtualTime(down), site);
                    sys.recover_at(VirtualTime(down + outage), site);
                }
            }
            // A single site cannot partition; the case runs clean.
            Fault::Partition if n_sites >= 2 => {
                // Split the sites into two random non-empty groups
                // mid-run, then heal and let anti-entropy repair it.
                let installed = rng.gen_range(horizon * 2 / 3);
                let healed = installed + 30 + rng.gen_range(horizon);
                let cut = 1 + rng.gen_range(n_sites as u64 - 1) as u32;
                let (a, b): (Vec<SiteId>, Vec<SiteId>) =
                    SiteId::all(n_sites).partition(|s| s.0 < cut);
                sys.run_until(VirtualTime(installed));
                sys.set_partition(LinkFilter::partition(vec![a, b]));
                sys.run_until(VirtualTime(healed));
                sys.heal_partition();
            }
            Fault::Partition => {}
        }
        sys.run_until_quiescent();
    }
}

/// What a [`Case`] exercises.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// A seeded random fault schedule over a [`mixed_schedule`].
    Fault(Fault),
    /// A named chaos scenario over the paper workload.
    Scenario(Scenario),
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Shape::Fault(fault) => fault.name(),
            Shape::Scenario(scenario) => scenario.name(),
        })
    }
}

/// One sweep cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Case {
    /// What the case exercises.
    pub shape: Shape,
    /// Workload, fault and system seed.
    pub seed: u64,
    /// Number of sites.
    pub n_sites: usize,
    /// Shortage fan-out width (0 = the paper's serial request loop).
    pub fanout: usize,
    /// Coalesced propagation frames (batch 4, so folding occurs).
    pub coalesce: bool,
    /// The full request count; a prefix run submits the first N of it.
    pub requests: usize,
}

impl Case {
    /// The case's system configuration.
    fn config(&self) -> SystemConfig {
        let mut builder = config_shape(self.n_sites, self.seed).shortage_fanout(self.fanout);
        if self.coalesce {
            builder = builder.coalesce_propagation(true).propagation_batch(4);
        }
        match self.shape {
            Shape::Fault(Fault::Loss) => builder = builder.drop_probability(0.05),
            // All AV starts at the base, so the very first retailer
            // decrement forces a request/grant round: the nemesis is
            // guaranteed its trigger.
            Shape::Scenario(Scenario::KillTheGranter) => {
                builder = builder.av_allocation(AvAllocation::AllAtBase)
            }
            _ => {}
        }
        builder.build().expect("sweep config is valid")
    }

    /// The case's full timed schedule (deterministic in shape and seed).
    pub fn schedule(&self) -> Vec<(VirtualTime, UpdateRequest)> {
        match self.shape {
            Shape::Fault(fault) => {
                let rng = DetRng::new(self.seed).derive(fault as u64 + 1);
                // Faults stay on the AV-managed products (see [`Fault`]).
                let products = if fault == Fault::Clean { 3 } else { 2 };
                mixed_schedule(rng, self.n_sites, products, self.requests)
            }
            Shape::Scenario(scenario) => {
                let catalog = scm_catalog(2, 1, Volume(40 * self.n_sites as i64));
                let mut spec = WorkloadSpec::paper(self.requests, self.seed);
                spec.n_sites = self.n_sites;
                scenario.adapt_workload(&mut spec);
                UpdateStream::new(spec, &catalog).collect_all()
            }
        }
    }

    /// The `avdb-check` flags that replay this case at `prefix`.
    pub fn flags(&self, prefix: usize) -> String {
        let shape = match self.shape {
            Shape::Fault(fault) => format!("--faults {}", fault.name()),
            Shape::Scenario(scenario) => format!("--scenario {scenario}"),
        };
        format!(
            "{shape} --seeds {}..{} --sites {} --fanout {} --coalesce {} --requests {} \
             --prefix {prefix}",
            self.seed,
            self.seed + 1,
            self.n_sites,
            self.fanout,
            self.coalesce as u8,
            self.requests
        )
    }

    /// File name (no extension) of the case's flight dump.
    fn flight_name(&self) -> String {
        format!(
            "check-{}-seed{}-sites{}-fk{}-c{}",
            self.shape, self.seed, self.n_sites, self.fanout, self.coalesce as u8
        )
    }
}

/// `crash seed=3 sites=5 fanout=0 coalesce=0`; a scenario case names
/// its fast-lane setting only when it is not the default.
impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} seed={} sites={}", self.shape, self.seed, self.n_sites)?;
        if matches!(self.shape, Shape::Fault(_)) || self.fanout != 0 || self.coalesce {
            write!(f, " fanout={} coalesce={}", self.fanout, self.coalesce as u8)?;
        }
        Ok(())
    }
}

/// One finished case.
pub struct CaseRun {
    /// The oracle-checked run.
    pub checked: CheckedRun,
    /// Nemesis strikes (`chaos.nemesis.fired`); 0 for fault cases.
    pub fired: u64,
    /// The chaos registry (per-nemesis strike counters); empty for
    /// fault cases.
    pub chaos_registry: RegistrySnapshot,
}

impl CaseRun {
    /// `true` when the replicas converged and the oracle found nothing.
    pub fn conforms(&self) -> bool {
        self.checked.failure().is_none()
    }

    /// Committed outcomes.
    pub fn committed(&self) -> usize {
        self.checked.observation.outcomes.iter().filter(|(_, _, o)| o.is_committed()).count()
    }

    /// Every site's registry, merged.
    pub fn registry(&self) -> RegistrySnapshot {
        let mut merged = RegistrySnapshot::default();
        for site in &self.checked.observation.sites {
            merged.merge(&site.registry);
        }
        merged
    }
}

/// Runs the first `prefix` requests of `case`'s full schedule (all of
/// them when `prefix >= case.requests`) under its faults or scenario,
/// oracle-checked.
pub fn run_case(case: &Case, prefix: usize) -> CaseRun {
    let full = case.schedule();
    let taken = &full[..prefix.min(full.len())];
    let mut sys = DistributedSystem::new(case.config());
    match case.shape {
        Shape::Fault(fault) => {
            let rng = DetRng::new(case.seed).derive(0xFA017 + fault as u64);
            let horizon = case.requests as u64 * TICKS_PER_REQUEST + 10;
            let checked = run_checked(&mut sys, taken, |sys| fault.drive(sys, rng, horizon));
            CaseRun { checked, fired: 0, chaos_registry: RegistrySnapshot::default() }
        }
        Shape::Scenario(scenario) => {
            let span = full.last().map(|(t, _)| t.ticks()).unwrap_or(0);
            let handle = scenario.install(&mut sys, span);
            let checked = run_checked(&mut sys, taken, DistributedSystem::run_until_quiescent);
            CaseRun { checked, fired: handle.fired(), chaos_registry: handle.snapshot() }
        }
    }
}

/// Binary-searches the shortest prefix of `0..=failing` for which `fails`
/// holds, given that `fails(failing)` does (failures are assumed
/// prefix-monotone, the usual fuzzing bet).
pub fn shortest_failing_prefix(failing: usize, mut fails: impl FnMut(usize) -> bool) -> usize {
    if fails(0) {
        return 0;
    }
    let (mut lo, mut hi) = (0, failing);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fails(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Shrinks a case that fails at `failing` requests to its shortest
/// failing prefix; returns the prefix and the run at it.
fn minimize(case: &Case, failing: usize) -> (usize, CaseRun) {
    let min = shortest_failing_prefix(failing, |n| !run_case(case, n).conforms());
    (min, run_case(case, min))
}

/// A sweep: every shape × site count × fan-out × coalesce setting × seed.
pub struct Sweep {
    /// Seeds to run.
    pub seeds: Range<u64>,
    /// Shapes to run.
    pub shapes: Vec<Shape>,
    /// Site counts.
    pub sites: Vec<usize>,
    /// Shortage fan-out widths.
    pub fanouts: Vec<usize>,
    /// Coalesce settings.
    pub coalesces: Vec<bool>,
    /// Full request count per case.
    pub requests: usize,
    /// Submit only the first N requests of each case's full schedule.
    pub prefix: Option<usize>,
}

/// What [`Sweep::run`] reports as it goes, in order.
pub enum Step<'a> {
    /// One case ran at the sweep's prefix.
    Ran(&'a Case, &'a CaseRun),
    /// The case before failed; here it is at its shortest failing prefix,
    /// with where its flight dump went.
    Shrunk(&'a Case, usize, &'a CaseRun, std::io::Result<PathBuf>),
    /// A targeted scenario's nemesis never fired at this site count, in
    /// any case — a run that proves nothing, counted as a failure.
    Vacuous(Scenario, usize),
    /// Every case of one shape ran: runs and failures.
    Done(Shape, u64, u64),
}

impl Sweep {
    /// Runs every case, hands each [`Step`] to `report`, and returns the
    /// total runs and failures.
    pub fn run(&self, mut report: impl FnMut(Step)) -> (u64, u64) {
        let prefix = self.prefix.unwrap_or(self.requests);
        let (mut runs, mut failures) = (0, 0);
        for &shape in &self.shapes {
            let (mut shape_runs, mut shape_failures) = (0, 0);
            for &n_sites in &self.sites {
                let mut fired = 0;
                for &fanout in &self.fanouts {
                    for &coalesce in &self.coalesces {
                        for seed in self.seeds.clone() {
                            let requests = self.requests;
                            let case = Case { shape, seed, n_sites, fanout, coalesce, requests };
                            let run = run_case(&case, prefix);
                            shape_runs += 1;
                            fired += run.fired;
                            report(Step::Ran(&case, &run));
                            if !run.conforms() {
                                shape_failures += 1;
                                let (min, min_run) = minimize(&case, prefix);
                                let reason = format!("oracle-violation: {}", case.flags(min));
                                let dump = min_run.checked.observation.flight_dump(&reason);
                                let path =
                                    write_flight(Path::new(FLIGHT_DIR), &case.flight_name(), &dump);
                                report(Step::Shrunk(&case, min, &min_run, path));
                            }
                        }
                    }
                }
                if let Shape::Scenario(scenario) = shape {
                    if scenario.is_targeted() && fired == 0 {
                        shape_failures += 1;
                        report(Step::Vacuous(scenario, n_sites));
                    }
                }
            }
            runs += shape_runs;
            failures += shape_failures;
            report(Step::Done(shape, shape_runs, shape_failures));
        }
        (runs, failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario_case(scenario: Scenario, requests: usize, seed: u64) -> Case {
        let shape = Shape::Scenario(scenario);
        Case { shape, seed, n_sites: 3, fanout: 0, coalesce: false, requests }
    }

    #[test]
    fn clean_scenarios_run_green_at_small_scale() {
        for scenario in [Scenario::FlashSale, Scenario::MultiRegion] {
            let case = scenario_case(scenario, 30, 5);
            let verdict = run_case(&case, case.requests);
            assert!(
                verdict.checked.report.is_ok(),
                "{scenario} violated the oracle:\n{}",
                verdict.checked.report
            );
            assert!(verdict.committed() > 0, "{scenario} committed nothing");
        }
    }

    #[test]
    fn targeted_nemeses_fire_and_stay_green() {
        for scenario in [Scenario::KillTheGranter, Scenario::KillTheCoordinator] {
            let case = scenario_case(scenario, 40, 3);
            let verdict = run_case(&case, case.requests);
            assert!(verdict.fired > 0, "{scenario} never fired — vacuous run");
            assert!(
                verdict.checked.report.is_ok(),
                "{scenario} violated the oracle:\n{}",
                verdict.checked.report
            );
        }
    }

    #[test]
    fn prefix_zero_runs_empty_schedule() {
        let case = scenario_case(Scenario::RollingRestart, 20, 1);
        let verdict = run_case(&case, 0);
        assert!(verdict.checked.report.is_ok());
        assert_eq!(verdict.committed(), 0);
    }

    #[test]
    fn the_minimizer_finds_the_first_failing_prefix() {
        for first in [0, 1, 17, 39, 40] {
            let mut probes = 0;
            let found = shortest_failing_prefix(40, |n| {
                probes += 1;
                n >= first
            });
            assert_eq!(found, first);
            assert!(probes <= 8, "{probes} probes for 40 requests");
        }
    }
}
