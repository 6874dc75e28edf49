//! A3 — site-count scaling: does the autonomy advantage survive more
//! retailers sharing the same AV pool?
//!
//! Two variants are measured:
//!
//! * **paper workload** — the §4 rates verbatim (maker +≤20 %, each
//!   retailer −≤10 %). With `n` sites the maker issues only `1/n` of
//!   updates, so aggregate drain outpaces minting and the AV pool
//!   fragments and empties: shortages (and their request fan-out) come to
//!   dominate. This is an honest negative result about naively scaling
//!   the paper's scenario.
//! * **balanced workload** — the maker's increment cap scales with the
//!   retailer count (`10 % × (n−1)`), so aggregate minting matches
//!   aggregate drain. Provisioning stays the paper's: the AV pool equals
//!   stock, split uniformly, so each site's buffer thins as `n` grows.
//!   More AV than stock would let the sites jointly sell what does not
//!   exist, and `SystemConfig::validate` rejects it. This separates the
//!   workload's imbalance from the fragmentation of a fixed pool.

use super::paper_config_sites;
use super::render::render_table;
use super::run::{run_conventional, run_proposal_named};
use avdb_workload::WorkloadSpec;
use serde::Serialize;

/// One site-count's comparison.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingRow {
    /// Number of sites (1 maker + n−1 retailers).
    pub n_sites: usize,
    /// Proposal correspondences per update.
    pub proposal_per_update: f64,
    /// Conventional correspondences per update.
    pub conventional_per_update: f64,
    /// `1 − proposal/conventional`.
    pub reduction: f64,
    /// Proposal local-commit fraction.
    pub local_fraction: f64,
}

/// Runs the scaling sweep at fixed total update count with the paper's
/// per-site rates (imbalanced at large `n`; see module docs).
pub fn run_scaling(site_counts: &[usize], n_updates: usize, seed: u64) -> Vec<ScalingRow> {
    run_scaling_inner(site_counts, n_updates, seed, false)
}

/// Runs the scaling sweep with maker minting balanced against aggregate
/// retailer drain.
pub fn run_scaling_balanced(site_counts: &[usize], n_updates: usize, seed: u64) -> Vec<ScalingRow> {
    run_scaling_inner(site_counts, n_updates, seed, true)
}

fn run_scaling_inner(
    site_counts: &[usize],
    n_updates: usize,
    seed: u64,
    balanced: bool,
) -> Vec<ScalingRow> {
    site_counts
        .iter()
        .map(|&n_sites| {
            let cfg = paper_config_sites(n_sites, seed);
            let mut spec = WorkloadSpec::paper(n_updates, seed);
            spec.n_sites = n_sites;
            if balanced {
                spec.maker_increase_pct =
                    spec.retailer_decrease_pct * (n_sites as u32 - 1).max(1);
            }
            let p = run_proposal_named(&format!("proposal-{n_sites}"), &cfg, &spec);
            let c = run_conventional(&cfg, &spec);
            let updates = p.metrics.total_updates().max(1) as f64;
            let ppu = p.metrics.total_correspondences() as f64 / updates;
            let cpu = c.metrics.total_correspondences() as f64 / updates;
            ScalingRow {
                n_sites,
                proposal_per_update: ppu,
                conventional_per_update: cpu,
                reduction: if cpu > 0.0 { 1.0 - ppu / cpu } else { 0.0 },
                local_fraction: p.metrics.local_fraction(),
            }
        })
        .collect()
}

/// Renders the sweep as an aligned table.
pub fn render_rows(rows: &[ScalingRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n_sites.to_string(),
                format!("{:.3}", r.proposal_per_update),
                format!("{:.3}", r.conventional_per_update),
                format!("{:.1}", r.reduction * 100.0),
                format!("{:.3}", r.local_fraction),
            ]
        })
        .collect();
    render_table(
        &["sites", "proposal/upd", "conventional/upd", "reduction%", "local"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_preserves_the_advantage() {
        let rows = run_scaling(&[3, 5, 9], 540, 5);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.reduction > 0.4,
                "{} sites: reduction {:.2}",
                r.n_sites,
                r.reduction
            );
            // Conventional cost per update approaches 1 as the share of
            // non-center sites grows: (n−1)/n.
            let expected = (r.n_sites - 1) as f64 / r.n_sites as f64;
            assert!(
                (r.conventional_per_update - expected).abs() < 0.02,
                "{} sites: conventional {:.3} vs expected {:.3}",
                r.n_sites,
                r.conventional_per_update,
                expected
            );
        }
    }

    #[test]
    fn balanced_minting_beats_the_paper_rates() {
        // At 3 sites the balanced cap is the paper's own 20 %; beyond it,
        // minting that keeps pace with the drain costs less at every
        // site count, though a fixed pool still fragments.
        let paper = run_scaling(&[3, 9, 17], 1020, 5);
        let balanced = run_scaling_balanced(&[3, 9, 17], 1020, 5);
        assert_eq!(balanced[0].proposal_per_update, paper[0].proposal_per_update);
        assert!(balanced[0].reduction > 0.5, "3 sites still wins");
        for (b, p) in balanced.iter().zip(&paper).skip(1) {
            assert!(
                b.proposal_per_update < p.proposal_per_update,
                "{} sites: balanced {:.3} vs paper rates {:.3}",
                b.n_sites,
                b.proposal_per_update,
                p.proposal_per_update
            );
        }
    }

    #[test]
    fn paper_workload_scaling_degrades_at_large_n() {
        // The honest negative result: the §4 rates starve the AV pool as
        // retailers multiply, and the advantage inverts.
        let rows = run_scaling(&[3, 17], 1020, 5);
        assert!(rows[0].reduction > 0.5, "3 sites still wins");
        assert!(
            rows[1].reduction < rows[0].reduction,
            "advantage must shrink with fragmentation"
        );
    }

    #[test]
    fn render_has_one_row_per_count() {
        let rows = run_scaling(&[3, 5], 300, 1);
        let text = render_rows(&rows);
        assert_eq!(text.lines().count(), 4);
    }
}
