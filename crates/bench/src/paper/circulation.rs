//! A9 — proactive AV circulation (§3.4 extension).
//!
//! The paper: "it is essential to calculate the volume of AV transfer
//! using local information and to make AV circulate among the sites."
//! The base mechanism circulates on demand (pull); this experiment adds a
//! push policy — after minting AV, a site with more than twice its peers'
//! believed mean pushes half its surplus to the believed-poorest peer —
//! and measures what that buys.

use super::paper_config;
use super::render::render_table;
use super::run::run_proposal_named;
use avdb_workload::WorkloadSpec;
use serde::Serialize;

/// One policy's measurements.
#[derive(Clone, Debug, Serialize)]
pub struct CirculationRow {
    /// "pull-only" (paper) or "pull+push".
    pub label: String,
    /// Correspondences attributed to updates (what Fig. 6 counts) per
    /// update: the *retailer-visible* synchronous cost.
    pub attributed_per_update: f64,
    /// All AV-management traffic (requests, grants, pushes, acks) per
    /// update: the *total* background cost.
    pub av_traffic_per_update: f64,
    /// Fraction of commits with zero synchronous communication.
    pub local_fraction: f64,
    /// Mean commit latency in ticks.
    pub mean_latency: f64,
}

/// Runs A9: identical workload, push policy off vs on.
pub fn run_circulation(n_updates: usize, seed: u64) -> Vec<CirculationRow> {
    [("pull-only", false), ("pull+push", true)]
        .iter()
        .map(|&(label, push)| {
            let mut cfg = paper_config(seed);
            cfg.proactive_push = push;
            let spec = WorkloadSpec::paper(n_updates, seed);
            let out = run_proposal_named(label, &cfg, &spec);
            let m = &out.metrics;
            let updates = m.total_updates().max(1) as f64;
            let av_msgs = ["av-request", "av-grant", "av-push", "av-push-ack"]
                .iter()
                .map(|k| out.network.by_kind.get(*k).copied().unwrap_or(0))
                .sum::<u64>();
            CirculationRow {
                label: label.to_string(),
                attributed_per_update: m.total_correspondences() as f64 / updates,
                av_traffic_per_update: (av_msgs / 2) as f64 / updates,
                local_fraction: m.local_fraction(),
                mean_latency: m.latency().mean(),
            }
        })
        .collect()
}

/// Renders the comparison.
pub fn render_rows(rows: &[CirculationRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.3}", r.attributed_per_update),
                format!("{:.3}", r.av_traffic_per_update),
                format!("{:.3}", r.local_fraction),
                format!("{:.2}", r.mean_latency),
            ]
        })
        .collect();
    render_table(
        &["policy", "sync-corr/upd", "av-traffic/upd", "local", "latency"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_trades_background_traffic_for_synchronous_cost() {
        let rows = run_circulation(3_000, 5);
        let pull = &rows[0];
        let push = &rows[1];
        // The push policy must improve the retailer-visible numbers …
        assert!(
            push.attributed_per_update < pull.attributed_per_update,
            "push {:.3} !< pull {:.3}",
            push.attributed_per_update,
            pull.attributed_per_update
        );
        assert!(push.local_fraction >= pull.local_fraction);
        assert!(push.mean_latency <= pull.mean_latency);
        // … and both policies stay far below the conventional 2/3.
        assert!(push.av_traffic_per_update < 0.5);
    }

    #[test]
    fn render_lists_both_policies() {
        let rows = run_circulation(300, 1);
        let text = render_rows(&rows);
        assert!(text.contains("pull-only"));
        assert!(text.contains("pull+push"));
    }
}
