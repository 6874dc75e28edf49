//! A10 — propagation batching: traffic vs replica freshness.
//!
//! Delay Update trades global freshness for local real-time commits; the
//! batch size decides how stale the other replicas are allowed to get.
//! This experiment drives the paper workload while sampling, at a fixed
//! cadence, the worst absolute divergence between any replica and the
//! base replica — the staleness an application reading a remote replica
//! would observe — against the propagation traffic spent.

use super::metrics::OnlineStats;
use super::paper_config;
use super::render::render_table;
use crate::run::run_checked;
use avdb_core::DistributedSystem;
use avdb_types::{ProductId, SiteId, VirtualTime};
use avdb_workload::{UpdateStream, WorkloadSpec};
use serde::Serialize;

/// One batch size's measurements.
#[derive(Clone, Debug, Serialize)]
pub struct FreshnessRow {
    /// Propagation batch size (commits per flush).
    pub batch: usize,
    /// Propagation messages per update (batches + acks).
    pub propagation_msgs_per_update: f64,
    /// Mean over samples of `max_product |replica − base|`.
    pub mean_staleness: f64,
    /// Worst sampled staleness.
    pub max_staleness: f64,
}

/// Runs the freshness sweep over propagation batch sizes.
pub fn run_freshness(batches: &[usize], n_updates: usize, seed: u64) -> Vec<FreshnessRow> {
    batches
        .iter()
        .map(|&batch| {
            let mut cfg = paper_config(seed);
            cfg.propagation_batch = batch;
            let spec = WorkloadSpec::paper(n_updates, seed);
            let schedule = UpdateStream::new(spec, &cfg.catalog).collect_all();
            let t_end = schedule.last().expect("non-empty").0;
            let mut sys = DistributedSystem::new(cfg.clone());
            let mut staleness = OnlineStats::new();
            let mut prop_msgs = 0;
            // Drive in slices, sampling staleness at a fixed cadence, and
            // count the traffic before the harness's closing anti-entropy.
            let drive = |sys: &mut DistributedSystem| {
                let cadence = (t_end.ticks() / 100).max(1);
                let mut t = 0;
                while t < t_end.ticks() {
                    t += cadence;
                    sys.run_until(VirtualTime(t));
                    let worst = (0..cfg.n_products())
                        .map(|p| {
                            let product = ProductId(p as u32);
                            let base = sys.stock(SiteId::BASE, product).get();
                            SiteId::all(cfg.n_sites)
                                .map(|s| (sys.stock(s, product).get() - base).abs())
                                .max()
                                .unwrap_or(0)
                        })
                        .max()
                        .unwrap_or(0);
                    staleness.push(worst as f64);
                }
                sys.run_until_quiescent();
                prop_msgs = sys.counters().by_kind("propagate")
                    + sys.counters().by_kind("propagate-ack");
            };
            run_checked(&mut sys, &schedule, drive)
                .outcomes()
                .unwrap_or_else(|(_, e)| panic!("freshness batch {batch}: {e}"));
            FreshnessRow {
                batch,
                propagation_msgs_per_update: prop_msgs as f64 / n_updates.max(1) as f64,
                mean_staleness: staleness.mean(),
                max_staleness: staleness.max().unwrap_or(0.0),
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render_rows(rows: &[FreshnessRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                format!("{:.3}", r.propagation_msgs_per_update),
                format!("{:.1}", r.mean_staleness),
                format!("{:.0}", r.max_staleness),
            ]
        })
        .collect();
    render_table(&["batch", "prop-msgs/upd", "mean-staleness", "max-staleness"], &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_batches_cost_less_traffic_but_more_staleness() {
        let rows = run_freshness(&[1, 25, 200], 900, 5);
        assert_eq!(rows.len(), 3);
        // Traffic strictly decreases with batch size.
        assert!(rows[0].propagation_msgs_per_update > rows[1].propagation_msgs_per_update);
        assert!(rows[1].propagation_msgs_per_update > rows[2].propagation_msgs_per_update);
        // Staleness moves the other way.
        assert!(rows[0].mean_staleness <= rows[1].mean_staleness);
        assert!(rows[1].mean_staleness <= rows[2].mean_staleness);
        // batch=1 keeps replicas within one round trip: tiny staleness.
        assert!(rows[0].mean_staleness < rows[2].mean_staleness);
    }

    #[test]
    fn render_lists_batches() {
        let rows = run_freshness(&[1, 10], 150, 1);
        let text = render_rows(&rows);
        assert!(text.contains("staleness"));
        assert_eq!(text.lines().count(), 4);
    }
}
