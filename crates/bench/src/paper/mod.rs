//! The paper's experiments: builds the §4 evaluation scenario, drives
//! the proposed system and the conventional baseline over identical
//! workloads, and regenerates every table and figure:
//!
//! * [`fig6`] — E1, Fig. 6: updates vs correspondences, proposal vs
//!   conventional;
//! * [`table1`] — E2, Table 1: per-site correspondences at update-count
//!   checkpoints;
//! * [`ablations`] — A1/A2/A6/A7/A8 strategy and workload sweeps;
//! * [`scaling`] — A3, site-count scaling;
//! * [`mix`] — A4, Delay/Immediate product mixes;
//! * [`faults`] — A5, crash/recovery behaviour of both systems;
//! * [`circulation`] — A9, proactive AV push;
//! * [`freshness`] — A10, propagation batching vs replica staleness;
//! * [`report`] — the JSON artifacts under `results/json` and the sweep
//!   lists `avdb ablations` and `avdb report` share.
//!
//! Everything is deterministic per `(scenario, seed)`, and every run of
//! the proposed system passes the conformance oracle (an experiment on a
//! broken system is worthless). The `avdb` binary is the front end:
//! `avdb fig6|table1|ablations|faults|report`.

pub mod ablations;
pub mod circulation;
pub mod faults;
pub mod fig6;
pub mod freshness;
pub mod metrics;
pub mod mix;
pub mod render;
pub mod report;
pub mod run;
pub mod scaling;
pub mod table1;

pub use faults::run_faults;
pub use fig6::run_fig6;
pub use report::{generate_report, run_ablations, ReportScale};
pub use run::{run_conventional, run_proposal};
pub use table1::{run_table1, table1_checkpoints};

use avdb_types::{SystemConfig, Volume};
use avdb_workload::WorkloadSpec;

/// Products in the local DB. The paper's count is garbled in the
/// surviving text ("the number of data items in local DB is …"); 100 is
/// our documented default and the results are insensitive to it
/// (DESIGN.md §4).
pub const PAPER_N_PRODUCTS: usize = 100;

/// Initial stock per product. Large enough that the workload's slight net
/// drain (maker +≤20 % every third update, retailers −≤10 % each on the
/// other two) cannot exhaust stock within the longest runs.
pub const PAPER_STOCK: Volume = Volume(1_000);

/// The paper's system: 3 sites (maker + 2 retailers), all products
/// regular (Delay path), AV = stock split uniformly, most-known-AV
/// selection, request-shortage/grant-half deciding.
pub fn paper_config(seed: u64) -> SystemConfig {
    paper_config_sites(3, seed)
}

/// The paper's system generalized to `n_sites` (scaling experiment A3).
pub fn paper_config_sites(n_sites: usize, seed: u64) -> SystemConfig {
    SystemConfig::builder()
        .sites(n_sites)
        .regular_products(PAPER_N_PRODUCTS, PAPER_STOCK)
        .propagation_batch(25)
        .seed(seed)
        .build()
        .expect("paper scenario config is valid")
}

/// Full paper scenario: config + the §4 workload for `n_updates`.
pub fn paper_scenario(n_updates: usize, seed: u64) -> (SystemConfig, WorkloadSpec) {
    (paper_config(seed), WorkloadSpec::paper(n_updates, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::{DecideStrategyKind, SelectStrategyKind};

    #[test]
    fn paper_config_matches_section_4() {
        let cfg = paper_config(1);
        assert_eq!(cfg.n_sites, 3);
        assert_eq!(cfg.n_products(), PAPER_N_PRODUCTS);
        assert_eq!(cfg.select, SelectStrategyKind::MostKnownAv);
        assert_eq!(cfg.decide, DecideStrategyKind::GrantHalf);
        assert!(cfg.catalog.iter().all(|e| e.class.uses_av()));
        assert_eq!(cfg.initial_av_of(avdb_types::ProductId(0)), PAPER_STOCK);
    }

    #[test]
    fn scenario_pairs_config_and_workload() {
        let (cfg, spec) = paper_scenario(600, 9);
        assert_eq!(cfg.seed, 9);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.n_updates, 600);
        assert_eq!(spec.n_sites, cfg.n_sites);
        assert_eq!(spec.maker_increase_pct, 20);
        assert_eq!(spec.retailer_decrease_pct, 10);
    }
}
