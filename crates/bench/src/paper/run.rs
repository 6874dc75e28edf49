//! Drives a system over a workload and distills [`RunMetrics`]: the
//! proposal, the lock-everything comparator and the conventional
//! centralized baseline, each over the identical schedule.

use super::metrics::RunMetrics;
use crate::run::run_checked;
use avdb_baseline::CentralizedSystem;
use avdb_core::DistributedSystem;
use avdb_simnet::CountersSnapshot;
use avdb_types::{ProductClass, SiteId, SystemConfig, UpdateOutcome, UpdateRequest, VirtualTime, Volume};
use avdb_workload::{UpdateStream, WorkloadSpec};

/// Everything a single run produces.
pub struct RunOutput {
    /// Distilled metrics (series, per-site stats).
    pub metrics: RunMetrics,
    /// Raw network counter snapshot (cross-checks, kind breakdowns).
    pub network: CountersSnapshot,
}

/// Builds the workload schedule once (identical for both systems).
fn schedule(cfg: &SystemConfig, spec: &WorkloadSpec) -> Vec<(VirtualTime, UpdateRequest)> {
    UpdateStream::new(spec.clone(), &cfg.catalog).collect_all()
}

/// Distills metrics from outcomes, in completion order, sampling the
/// series about 50 times over the run.
fn distill(
    label: &str,
    n_sites: usize,
    schedule: &[(VirtualTime, UpdateRequest)],
    outcomes: &[(VirtualTime, SiteId, UpdateOutcome)],
) -> RunMetrics {
    let sample_every = (schedule.len() / 50).max(1);
    let mut metrics = RunMetrics::new(label, n_sites);
    // Arrival time per (site, per-site issue seq) for latency accounting.
    let mut arrivals: Vec<Vec<VirtualTime>> = vec![Vec::new(); n_sites];
    for (at, req) in schedule {
        arrivals[req.site.index()].push(*at);
    }
    metrics.sample(); // origin point (0, 0)
    for (i, (completed, site, outcome)) in outcomes.iter().enumerate() {
        let stats = metrics.site_mut(*site);
        stats.updates_issued += 1;
        stats.correspondences += outcome.correspondences();
        match outcome {
            UpdateOutcome::Committed { correspondences, txn, .. } => {
                stats.committed += 1;
                if *correspondences == 0 {
                    stats.local_commits += 1;
                }
                if let Some(at) = arrivals[site.index()].get(txn.seq() as usize) {
                    stats.latency.push(completed.since(*at) as f64);
                }
            }
            UpdateOutcome::Aborted { .. } => {
                stats.aborted += 1;
            }
        }
        if (i + 1) % sample_every == 0 || i + 1 == outcomes.len() {
            metrics.sample();
        }
    }
    metrics
}

/// Runs the proposed system over the workload through the oracle-checked
/// sim harness (panics on a violation — an experiment on a broken system
/// is worthless).
pub fn run_proposal(cfg: &SystemConfig, spec: &WorkloadSpec) -> RunOutput {
    run_proposal_named("proposal", cfg, spec)
}

/// [`run_proposal`] with a custom label (ablation sweeps).
pub fn run_proposal_named(label: &str, cfg: &SystemConfig, spec: &WorkloadSpec) -> RunOutput {
    let schedule = schedule(cfg, spec);
    let mut sys = DistributedSystem::new(cfg.clone());
    let outcomes = run_checked(&mut sys, &schedule, DistributedSystem::run_until_quiescent)
        .outcomes()
        .unwrap_or_else(|(_, e)| panic!("{label}: {e}"));
    let mut metrics = distill(label, cfg.n_sites, &schedule, &outcomes);
    metrics.registry = sys.merged_registry();
    debug_assert_eq!(
        metrics.total_correspondences(),
        metrics.attributed_correspondences(),
        "registry and outcome-attributed correspondence counts must agree"
    );
    RunOutput { metrics, network: sys.counters().snapshot() }
}

/// Runs the "lock-everything primary copy" comparator: the proposed
/// system's machinery with every product non-regular, so every update
/// takes the Immediate path. This is the second baseline DESIGN.md names
/// — what integration without AV autonomy costs on the same codebase.
pub fn run_lock_everything(cfg: &SystemConfig, spec: &WorkloadSpec) -> RunOutput {
    let mut all_imm = cfg.clone();
    for entry in &mut all_imm.catalog {
        entry.class = ProductClass::NonRegular;
    }
    all_imm.initial_av.fill(Volume::ZERO);
    all_imm.validate().expect("all-immediate config is valid");
    run_proposal_named("lock-everything", &all_imm, spec)
}

/// Runs the conventional centralized system over the same workload.
pub fn run_conventional(cfg: &SystemConfig, spec: &WorkloadSpec) -> RunOutput {
    let schedule = schedule(cfg, spec);
    let mut sys = CentralizedSystem::new(cfg.clone());
    for (at, req) in &schedule {
        sys.submit_at(*at, *req);
    }
    sys.run_until_quiescent();
    let outcomes = sys.drain_outcomes();
    let metrics = distill("conventional", cfg.n_sites, &schedule, &outcomes);
    RunOutput { metrics, network: sys.counters().snapshot() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_scenario;

    #[test]
    fn proposal_run_produces_consistent_metrics() {
        let (cfg, spec) = paper_scenario(300, 3);
        let out = run_proposal(&cfg, &spec);
        let m = &out.metrics;
        assert_eq!(m.total_updates(), 300, "every update gets an outcome");
        assert!(m.total_committed() > 290, "near-everything commits");
        assert!(m.local_fraction() > 0.5, "most Delay commits are local");
        assert!(!m.cumulative.is_empty());
        assert_eq!(m.cumulative.points[0], (0, 0));
        // The outcome-attributed correspondences are AV traffic only;
        // network messages also include propagation — so the network total
        // bounds the attributed total from above.
        assert!(m.total_correspondences() * 2 <= out.network.total_messages);
    }

    #[test]
    fn conventional_run_charges_remote_updates() {
        let (cfg, spec) = paper_scenario(300, 3);
        let out = run_conventional(&cfg, &spec);
        let m = &out.metrics;
        assert_eq!(m.total_updates(), 300);
        // Round-robin: site 0 issues 100 free updates, retailers 200 paid.
        assert_eq!(m.total_correspondences(), 200);
        assert_eq!(m.sites[0].correspondences, 0);
        assert_eq!(m.sites[1].correspondences, 100);
        assert_eq!(m.sites[2].correspondences, 100);
        assert_eq!(out.network.total_messages, 400);
    }

    #[test]
    fn proposal_beats_conventional_on_paper_workload() {
        let (cfg, spec) = paper_scenario(600, 5);
        let p = run_proposal(&cfg, &spec);
        let c = run_conventional(&cfg, &spec);
        assert!(
            p.metrics.total_correspondences() < c.metrics.total_correspondences() / 2,
            "proposal {} vs conventional {}",
            p.metrics.total_correspondences(),
            c.metrics.total_correspondences()
        );
    }

    #[test]
    fn registry_is_the_single_source_of_correspondence_truth() {
        let (cfg, spec) = paper_scenario(300, 3);
        let out = run_proposal(&cfg, &spec);
        // The accelerators' own telemetry and the per-outcome attribution
        // must count the same correspondences.
        assert_eq!(
            out.metrics.total_correspondences(),
            out.metrics.attributed_correspondences()
        );
        // The registry is attached, and its send counters reproduce the
        // network substrate's totals and kind breakdown exactly.
        assert_eq!(
            out.metrics.registry.counter_sum("msg.sent."),
            out.network.total_messages
        );
        assert!(!out.network.by_kind.is_empty());
        for (kind, n) in &out.network.by_kind {
            assert_eq!(
                out.metrics.registry.counter(&format!("msg.sent.{kind}")),
                *n,
                "kind {kind}"
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let (cfg, spec) = paper_scenario(200, 11);
        let a = run_proposal(&cfg, &spec);
        let b = run_proposal(&cfg, &spec);
        assert_eq!(a.metrics.cumulative, b.metrics.cumulative);
        assert_eq!(a.network, b.network);
    }

    #[test]
    fn lock_everything_is_the_most_expensive_option() {
        let (cfg, spec) = paper_scenario(240, 4);
        let lock = run_lock_everything(&cfg, &spec);
        let conv = run_conventional(&cfg, &spec);
        let prop = run_proposal(&cfg, &spec);
        // Committed Immediate updates cost 2(n−1) = 4 correspondences.
        let committed = lock.metrics.total_committed().max(1);
        let per_commit = lock.metrics.total_correspondences() as f64 / committed as f64;
        assert!(per_commit > 3.5, "per-commit {per_commit}");
        assert!(
            lock.metrics.total_correspondences() > conv.metrics.total_correspondences()
        );
        assert!(
            lock.metrics.total_correspondences() > prop.metrics.total_correspondences()
        );
        // But it does replicate synchronously: zero local commits.
        assert_eq!(lock.metrics.local_fraction(), 0.0);
    }

    #[test]
    fn latency_of_local_commits_is_zero() {
        let (cfg, spec) = paper_scenario(150, 2);
        let out = run_proposal(&cfg, &spec);
        for s in &out.metrics.sites {
            if s.local_commits == s.committed && s.committed > 0 {
                assert_eq!(s.latency.max(), Some(0.0));
            }
            // Any remote fetch takes at least a round trip (2 ticks).
            if s.committed > s.local_commits {
                assert!(s.latency.max().unwrap() >= 2.0);
            }
        }
    }
}
