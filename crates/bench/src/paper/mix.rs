//! A4 — heterogeneous product mixes: as the share of non-regular
//! (Immediate Update) products grows, the proposal's advantage shrinks —
//! Immediate Updates cost `2(n−1)` correspondences against the
//! conventional round trip's 1. This experiment locates the crossover.

use super::render::render_table;
use super::run::{run_conventional, run_proposal_named};
use super::{PAPER_N_PRODUCTS, PAPER_STOCK};
use avdb_types::SystemConfig;
use avdb_workload::WorkloadSpec;
use serde::Serialize;

/// One mix point.
#[derive(Clone, Debug, Serialize)]
pub struct MixRow {
    /// Fraction of the catalog that is non-regular (Immediate path).
    pub immediate_fraction: f64,
    /// Proposal correspondences per update.
    pub proposal_per_update: f64,
    /// Conventional correspondences per update.
    pub conventional_per_update: f64,
    /// `true` while the proposal still wins.
    pub proposal_wins: bool,
}

/// Builds the paper config with a regular/non-regular catalog split.
pub fn mixed_config(immediate_fraction: f64, seed: u64) -> SystemConfig {
    let n_imm = ((PAPER_N_PRODUCTS as f64) * immediate_fraction).round() as usize;
    let n_reg = PAPER_N_PRODUCTS - n_imm;
    SystemConfig::builder()
        .sites(3)
        .regular_products(n_reg, PAPER_STOCK)
        .non_regular_products(n_imm, PAPER_STOCK)
        .propagation_batch(25)
        .seed(seed)
        .build()
        .expect("mixed config is valid")
}

/// Runs the mix sweep.
pub fn run_mix(fractions: &[f64], n_updates: usize, seed: u64) -> Vec<MixRow> {
    fractions
        .iter()
        .map(|&f| {
            let cfg = mixed_config(f, seed);
            let spec = WorkloadSpec::paper(n_updates, seed);
            let p = run_proposal_named(&format!("mix-{f:.2}"), &cfg, &spec);
            let c = run_conventional(&cfg, &spec);
            let updates = p.metrics.total_updates().max(1) as f64;
            let ppu = p.metrics.total_correspondences() as f64 / updates;
            let cpu = c.metrics.total_correspondences() as f64 / updates;
            MixRow {
                immediate_fraction: f,
                proposal_per_update: ppu,
                conventional_per_update: cpu,
                proposal_wins: ppu < cpu,
            }
        })
        .collect()
}

/// Renders the sweep as an aligned table.
pub fn render_rows(rows: &[MixRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.immediate_fraction),
                format!("{:.3}", r.proposal_per_update),
                format!("{:.3}", r.conventional_per_update),
                if r.proposal_wins { "proposal" } else { "conventional" }.to_string(),
            ]
        })
        .collect();
    render_table(
        &["imm-fraction", "proposal/upd", "conventional/upd", "winner"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_exists_between_pure_delay_and_pure_immediate() {
        let rows = run_mix(&[0.0, 0.5, 1.0], 540, 3);
        assert!(rows[0].proposal_wins, "pure Delay must win");
        assert!(
            !rows[2].proposal_wins,
            "pure Immediate must lose: {} vs {}",
            rows[2].proposal_per_update, rows[2].conventional_per_update
        );
        // Pure Immediate costs ~4 correspondences per non-aborted update
        // (2 prepare pairs + 2 decision pairs in a 3-site system).
        assert!(rows[2].proposal_per_update > 3.0);
        // Cost grows monotonically with the Immediate share.
        assert!(rows[0].proposal_per_update < rows[1].proposal_per_update);
        assert!(rows[1].proposal_per_update < rows[2].proposal_per_update);
    }

    #[test]
    fn mixed_config_splits_catalog() {
        let cfg = mixed_config(0.25, 1);
        let regular = cfg.catalog.iter().filter(|e| e.class.uses_av()).count();
        assert_eq!(regular, 75);
        assert_eq!(cfg.n_products(), PAPER_N_PRODUCTS);
    }

    #[test]
    fn render_names_winner() {
        let rows = run_mix(&[0.0], 150, 1);
        assert!(render_rows(&rows).contains("proposal"));
    }
}
