//! Experiment E2 — Table 1: per-site correspondences for update at
//! update-count checkpoints.
//!
//! The numeric cells of the paper's table are lost in the surviving text;
//! its qualitative claims are: "the numbers are almost same between site 1
//! and site 2 and increases very slowly. That is … the real-time property
//! is fairly achieved at the retailer sites."

use super::metrics::Series;
use super::paper_scenario;
use super::render::render_table;
use super::run::{run_conventional, run_proposal};
use serde::Serialize;

/// Output of the Table 1 reproduction.
#[derive(Clone, Debug, Serialize)]
pub struct Table1Result {
    /// Update-count checkpoints (columns).
    pub checkpoints: Vec<u64>,
    /// Proposal per-site cumulative correspondences (rows, site order).
    pub proposal: Vec<Series>,
    /// Conventional per-site series.
    pub conventional: Vec<Series>,
}

impl Table1Result {
    /// Per-site correspondences of `series` at each checkpoint.
    fn row(&self, series: &Series) -> Vec<u64> {
        self.checkpoints.iter().map(|&x| series.y_at(x)).collect()
    }

    /// Retailer fairness in the proposal at the final checkpoint:
    /// `|site1 − site2| / max(site1, site2)` (0 = perfectly fair).
    ///
    /// AV correspondences are rare events, so short runs carry heavy
    /// relative noise; judge fairness on runs of a few thousand updates
    /// (the paper's own table spans thousands).
    pub fn retailer_unfairness(&self) -> f64 {
        let last = *self.checkpoints.last().expect("non-empty checkpoints");
        let a = self.proposal[1].y_at(last) as f64;
        let b = self.proposal[2].y_at(last) as f64;
        if a.max(b) == 0.0 {
            0.0
        } else {
            (a - b).abs() / a.max(b)
        }
    }

    /// Renders the table in the paper's layout (one row per site per
    /// system, one column per checkpoint).
    pub fn render(&self) -> String {
        let mut headers: Vec<String> = vec!["system".into(), "site".into()];
        headers.extend(self.checkpoints.iter().map(|c| c.to_string()));
        let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut rows = Vec::new();
        for (label, series) in
            [("proposal", &self.proposal), ("conventional", &self.conventional)]
        {
            for (i, s) in series.iter().enumerate() {
                let mut row = vec![label.to_string(), format!("site{i}")];
                row.extend(self.row(s).iter().map(|v| v.to_string()));
                rows.push(row);
            }
        }
        render_table(&headers_ref, &rows)
    }
}

/// E2's checkpoints for an `n_updates` run: five equal steps.
pub fn table1_checkpoints(n_updates: usize) -> Vec<u64> {
    let step = (n_updates / 5).max(1) as u64;
    (1..=5).map(|i| i * step).collect()
}

/// Runs E2: one run per system, sampled at `checkpoints`.
pub fn run_table1(checkpoints: &[u64], seed: u64) -> Table1Result {
    let n_updates = *checkpoints.last().expect("need at least one checkpoint") as usize;
    let (cfg, spec) = paper_scenario(n_updates, seed);
    let proposal = run_proposal(&cfg, &spec);
    let conventional = run_conventional(&cfg, &spec);
    Table1Result {
        checkpoints: checkpoints.to_vec(),
        proposal: proposal.metrics.per_site_series,
        conventional: conventional.metrics.per_site_series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let result = run_table1(&[1000, 2000, 3000], 13);
        // Retailers are treated fairly: site 1 ≈ site 2 (qualitative claim
        // of the paper; correspondences are rare events, hence the slack).
        assert!(
            result.retailer_unfairness() < 0.35,
            "unfairness {:.2}",
            result.retailer_unfairness()
        );
        // Proposal per-site counts grow much slower than conventional's.
        let last = 3000;
        for site in 1..3 {
            let p = result.proposal[site].y_at(last);
            let c = result.conventional[site].y_at(last);
            assert!(p * 2 < c, "site{site}: proposal {p} vs conventional {c}");
        }
        // Conventional retailers pay exactly one correspondence per update
        // (update count per site at x=3000 is 3000/3 = 1000).
        assert_eq!(result.conventional[1].y_at(last), 1000);
        assert_eq!(result.conventional[0].y_at(last), 0, "center is free");
    }

    #[test]
    fn render_is_tabular() {
        let result = run_table1(&[100, 200], 1);
        let text = result.render();
        assert!(text.contains("proposal"));
        assert!(text.contains("site2"));
        assert_eq!(text.lines().count(), 2 + 6, "header + rule + 6 rows");
    }
}
