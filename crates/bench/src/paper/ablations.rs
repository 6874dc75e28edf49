//! Ablations A1/A2/A6/A7/A8 — the design choices the paper leaves open
//! (§3.4 "Each site has its own strategy…"), swept one axis at a time on
//! the paper workload.

use super::paper_config;
use super::render::render_table;
use super::run::run_proposal_named;
use avdb_types::{AvAllocation, DecideStrategyKind, SelectStrategyKind, SystemConfig};
use avdb_workload::{Popularity, WorkloadSpec};
use serde::Serialize;

/// One swept variant's summary.
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Total attributed correspondences.
    pub correspondences: u64,
    /// Correspondences per update.
    pub per_update: f64,
    /// Fraction of commits with zero communication.
    pub local_fraction: f64,
    /// Aborted updates (insufficient AV).
    pub aborts: u64,
    /// Mean commit latency in ticks.
    pub mean_latency: f64,
}

fn summarize(label: &str, cfg: &SystemConfig, spec: &WorkloadSpec) -> AblationRow {
    let out = run_proposal_named(label, cfg, spec);
    let m = &out.metrics;
    AblationRow {
        label: label.to_string(),
        correspondences: m.total_correspondences(),
        per_update: m.total_correspondences() as f64 / m.total_updates().max(1) as f64,
        local_fraction: m.local_fraction(),
        aborts: m.sites.iter().map(|s| s.aborted).sum(),
        mean_latency: m.latency().mean(),
    }
}

/// Renders sweep rows as an aligned table.
pub fn render_rows(rows: &[AblationRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.correspondences.to_string(),
                format!("{:.3}", r.per_update),
                format!("{:.3}", r.local_fraction),
                r.aborts.to_string(),
                format!("{:.2}", r.mean_latency),
            ]
        })
        .collect();
    render_table(
        &["variant", "corr", "corr/update", "local", "aborts", "latency"],
        &body,
    )
}

/// A1 — deciding strategies.
pub fn run_decide_sweep(n_updates: usize, seed: u64) -> Vec<AblationRow> {
    [
        DecideStrategyKind::GrantHalf,
        DecideStrategyKind::GrantAll,
        DecideStrategyKind::GrantShortage,
        DecideStrategyKind::GrantDoubleShortage,
    ]
    .iter()
    .map(|&kind| {
        let mut cfg = paper_config(seed);
        cfg.decide = kind;
        summarize(&kind.to_string(), &cfg, &WorkloadSpec::paper(n_updates, seed))
    })
    .collect()
}

/// A2 — selecting strategies.
pub fn run_select_sweep(n_updates: usize, seed: u64) -> Vec<AblationRow> {
    [
        SelectStrategyKind::MostKnownAv,
        SelectStrategyKind::RoundRobin,
        SelectStrategyKind::Random,
        SelectStrategyKind::LeastRecentlyAsked,
    ]
    .iter()
    .map(|&kind| {
        let mut cfg = paper_config(seed);
        cfg.select = kind;
        summarize(&kind.to_string(), &cfg, &WorkloadSpec::paper(n_updates, seed))
    })
    .collect()
}

/// A6 — initial AV allocation.
pub fn run_allocation_sweep(n_updates: usize, seed: u64) -> Vec<AblationRow> {
    [
        (AvAllocation::Uniform, "uniform"),
        (AvAllocation::AllAtBase, "all-at-base"),
        (AvAllocation::HalfAtBase, "half-at-base"),
    ]
    .iter()
    .map(|&(alloc, label)| {
        let mut cfg = paper_config(seed);
        cfg.av_allocation = alloc;
        summarize(label, &cfg, &WorkloadSpec::paper(n_updates, seed))
    })
    .collect()
}

/// A7 — product-popularity skew.
pub fn run_skew_sweep(n_updates: usize, seed: u64) -> Vec<AblationRow> {
    [(0.0, "uniform"), (0.8, "zipf-0.8"), (1.2, "zipf-1.2")]
        .iter()
        .map(|&(s, label)| {
            let cfg = paper_config(seed);
            let mut spec = WorkloadSpec::paper(n_updates, seed);
            if s > 0.0 {
                spec.popularity = Popularity::Zipf(s);
            }
            summarize(label, &cfg, &spec)
        })
        .collect()
}

/// A8 — retailer decrement magnitude (percent of initial stock).
pub fn run_magnitude_sweep(n_updates: usize, seed: u64) -> Vec<AblationRow> {
    [1u32, 5, 10, 25, 50]
        .iter()
        .map(|&pct| {
            let cfg = paper_config(seed);
            let mut spec = WorkloadSpec::paper(n_updates, seed);
            spec.retailer_decrease_pct = pct;
            summarize(&format!("decrement-{pct}%"), &cfg, &spec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 450;

    #[test]
    fn decide_sweep_orders_sensibly() {
        let rows = run_decide_sweep(N, 3);
        assert_eq!(rows.len(), 4);
        let by_label = |l: &str| rows.iter().find(|r| r.label == l).unwrap();
        // Grant-shortage moves the minimum volume, so shortages recur and
        // it pays at least as many correspondences as grant-half.
        assert!(
            by_label("grant-shortage").correspondences
                >= by_label("grant-half").correspondences,
            "shortage {} < half {}",
            by_label("grant-shortage").correspondences,
            by_label("grant-half").correspondences
        );
        for r in &rows {
            assert!(r.local_fraction > 0.4, "{}: local {:.2}", r.label, r.local_fraction);
        }
    }

    #[test]
    fn select_sweep_runs_all_strategies() {
        let rows = run_select_sweep(N, 3);
        assert_eq!(rows.len(), 4);
        // All strategies keep the system mostly local on this workload.
        for r in &rows {
            assert!(r.per_update < 0.67, "{} per-update {:.2}", r.label, r.per_update);
        }
    }

    #[test]
    fn allocation_sweep_shows_all_at_base_costs_more_early() {
        let rows = run_allocation_sweep(N, 3);
        let uniform = rows.iter().find(|r| r.label == "uniform").unwrap();
        let at_base = rows.iter().find(|r| r.label == "all-at-base").unwrap();
        // Retailers start with zero AV → they must fetch before their
        // first decrement; more correspondences than the uniform start.
        assert!(at_base.correspondences > uniform.correspondences);
    }

    #[test]
    fn magnitude_sweep_degrades_gracefully() {
        let rows = run_magnitude_sweep(N, 3);
        let small = &rows[0]; // 1%
        let large = rows.last().unwrap(); // 50%
        assert!(small.per_update <= large.per_update);
        assert!(small.local_fraction >= large.local_fraction);
    }

    #[test]
    fn skew_sweep_and_render() {
        let rows = run_skew_sweep(N, 3);
        assert_eq!(rows.len(), 3);
        let text = render_rows(&rows);
        assert!(text.contains("zipf-1.2"));
        assert!(text.contains("corr/update"));
    }
}
