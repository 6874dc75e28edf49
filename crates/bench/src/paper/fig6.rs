//! Experiment E1 — Fig. 6: number of updates vs number of
//! correspondences, proposal vs conventional.
//!
//! Paper claims: "the proposed way decreases the correspondences by 75 %
//! and most of the update is completed within the local site."

use super::metrics::Series;
use super::paper_scenario;
use super::render::{render_ascii_chart, render_table};
use super::run::{run_conventional, run_proposal};
use serde::Serialize;

/// Output of the Fig. 6 reproduction.
#[derive(Clone, Debug, Serialize)]
pub struct Fig6Result {
    /// Updates issued.
    pub n_updates: usize,
    /// Proposal cumulative `(updates, correspondences)`.
    pub proposal: Series,
    /// Conventional cumulative `(updates, correspondences)`.
    pub conventional: Series,
    /// `1 − proposal/conventional` at the final point (paper: ≈ 0.75).
    pub reduction: f64,
    /// Fraction of proposal commits completed with zero communication
    /// (paper: "most").
    pub local_fraction: f64,
}

impl Fig6Result {
    /// Renders the two series side by side as an aligned text table.
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        for &(x, y) in &self.proposal.points {
            rows.push(vec![
                x.to_string(),
                y.to_string(),
                self.conventional.y_at(x).to_string(),
            ]);
        }
        let mut out = render_table(&["updates", "proposal", "conventional"], &rows);
        out.push('\n');
        out.push_str(&render_ascii_chart(&[&self.conventional, &self.proposal], 64, 16));
        out.push_str(&format!(
            "\nreduction at {} updates: {:.1}%  (paper: ~75%)\nlocal commits: {:.1}%\n",
            self.n_updates,
            self.reduction * 100.0,
            self.local_fraction * 100.0,
        ));
        out
    }
}

/// Runs E1 for `n_updates` with `seed`.
pub fn run_fig6(n_updates: usize, seed: u64) -> Fig6Result {
    let (cfg, spec) = paper_scenario(n_updates, seed);
    let proposal = run_proposal(&cfg, &spec);
    let conventional = run_conventional(&cfg, &spec);
    let p = proposal.metrics.cumulative.clone();
    let c = conventional.metrics.cumulative.clone();
    let reduction = 1.0 - p.final_ratio_to(&c).unwrap_or(1.0);
    Fig6Result {
        n_updates,
        reduction,
        local_fraction: proposal.metrics.local_fraction(),
        proposal: p,
        conventional: c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shape_matches_paper() {
        let result = run_fig6(900, 7);
        // The headline: ≥ 60 % fewer correspondences (paper reports 75 %;
        // exact value depends on unknown constants, the *shape* must hold).
        assert!(
            result.reduction > 0.6,
            "reduction {:.2} too small",
            result.reduction
        );
        // Most updates complete locally.
        assert!(result.local_fraction > 0.6, "local {:.2}", result.local_fraction);
        // Conventional grows linearly at 2/3 per update (round-robin with
        // a free center).
        let slope = result.conventional.slope();
        assert!((slope - 2.0 / 3.0).abs() < 0.05, "conventional slope {slope}");
        // Proposal grows strictly slower.
        assert!(result.proposal.slope() < slope / 2.0);
        // Both series are monotone.
        for s in [&result.proposal, &result.conventional] {
            assert!(s.points.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn render_mentions_both_series() {
        let result = run_fig6(150, 1);
        let text = result.render();
        assert!(text.contains("proposal"));
        assert!(text.contains("conventional"));
        assert!(text.contains("reduction"));
    }
}
