//! BENCH report assembly: deterministic per-scenario statistics sourced
//! from the telemetry registry, a machine-readable JSON envelope, a
//! human-readable table, and the throughput regression gate.
//!
//! Every field in [`ScenarioStats`] is integer-valued and derived only
//! from protocol-level telemetry, so for a fixed spec the report is
//! byte-identical across runs and machines. Wall-clock numbers are the
//! performance ledger's (`benchmark/`); this report carries none.

use crate::matrix::ScenarioSpec;
use avdb_telemetry::analyze::{amplification, commit_latencies, percentile_sorted};
use avdb_telemetry::{RegistrySnapshot, RunExport};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Nearest-rank percentile summary of one metric. `mean_milli` is the
/// mean scaled by 1000 and truncated, keeping the report integer-only.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean × 1000, truncated.
    pub mean_milli: u64,
}

impl Percentiles {
    /// Summarizes an ascending-sorted sample.
    pub fn from_sorted(sorted: &[u64]) -> Self {
        if sorted.is_empty() {
            return Percentiles::default();
        }
        let sum: u64 = sorted.iter().sum();
        Percentiles {
            p50: percentile_sorted(sorted, 0.50),
            p95: percentile_sorted(sorted, 0.95),
            p99: percentile_sorted(sorted, 0.99),
            max: *sorted.last().unwrap(),
            mean_milli: sum * 1000 / sorted.len() as u64,
        }
    }
}

/// Network-substrate message accounting (simulator runs only — the live
/// transports' totals include timing-dependent settle retransmissions,
/// so they are not reported).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageStats {
    /// Every message the network carried.
    pub total: u64,
    /// Messages per committed update × 1000 (amplification including
    /// asynchronous propagation traffic).
    pub per_commit_milli: u64,
    /// Per-kind totals (`av-request`, `propagate`, …), sorted by kind.
    pub by_kind: BTreeMap<String, u64>,
}

/// Virtual-clock metrics, defined only on the simulator where the clock
/// is part of the deterministic state.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Tick of the last outcome (schedule start is tick 0).
    pub makespan_ticks: u64,
    /// Committed updates per million virtual ticks.
    pub commits_per_mtick: u64,
    /// Submission-to-outcome latency of committed updates, in ticks.
    pub latency_ticks: Percentiles,
    /// Message accounting over the whole run (updates + settle rounds).
    pub messages: MessageStats,
}

/// One scenario's deterministic results.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioStats {
    /// Updates submitted.
    pub submitted: u64,
    /// Updates that committed.
    pub committed: u64,
    /// Updates that aborted.
    pub aborted: u64,
    /// Delay Updates fully covered by local AV (zero correspondences).
    pub delay_commit_local: u64,
    /// Delay Updates that needed at least one AV transfer round.
    pub delay_commit_remote: u64,
    /// Delay Updates aborted because the system-wide AV was insufficient.
    pub delay_abort_insufficient: u64,
    /// Individual AV-shortage episodes (one per transfer round entered).
    pub delay_shortage_events: u64,
    /// Delay Updates that hit a shortage (committed remotely or aborted)
    /// per 1000 Delay Update attempts.
    pub shortage_rate_permille: u64,
    /// Immediate Updates committed.
    pub imm_commit: u64,
    /// Immediate Updates aborted.
    pub imm_abort: u64,
    /// Synchronous correspondences charged per committed update (the
    /// paper's message-cost metric; propagation traffic excluded).
    pub amplification: Percentiles,
    /// Mean critical-path self time per phase × 1000 (ticks), from the
    /// run's [`avdb_telemetry::PhaseProfile`]. The regression gate uses
    /// the deltas to name the phase a gated slowdown came from.
    pub phase_self_milli: BTreeMap<String, u64>,
    /// Virtual-clock metrics (simulator runs only).
    pub sim: Option<SimStats>,
}

/// One matrix cell's spec plus everything measured while running it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// `spec.label()`, repeated for grep-ability of the JSON.
    pub label: String,
    /// The cell that was run.
    pub spec: ScenarioSpec,
    /// Deterministic, registry-sourced statistics.
    pub stats: ScenarioStats,
}

/// A full `BENCH_<label>.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report label (`BENCH_<label>.json`).
    pub label: String,
    /// One entry per scenario run, in matrix order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchReport {
    /// Pretty JSON of the report: for a fixed spec this string is
    /// byte-identical across runs, which the determinism suite asserts.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a report back (regression gate input).
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("bad BENCH json: {e:?}"))
    }

    /// Renders the human-readable results table. Live cells have no
    /// virtual clock, so their throughput, latency and message columns
    /// read `-`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("BENCH {}\n", self.label));
        out.push_str(&format!(
            "{:<44} {:>9} {:>12} {:>16} {:>11} {:>7} {:>9}\n",
            "scenario", "ok/all", "throughput", "latency p50/p99", "amp p50/p99", "short\u{2030}", "msgs"
        ));
        for s in &self.scenarios {
            let (thr, lat, msgs) = match &s.stats.sim {
                Some(sim) => (
                    format!("{}c/Mt", sim.commits_per_mtick),
                    format!("{}/{}t", sim.latency_ticks.p50, sim.latency_ticks.p99),
                    format!("{}", sim.messages.total),
                ),
                None => ("-".to_string(), "-".to_string(), "-".to_string()),
            };
            out.push_str(&format!(
                "{:<44} {:>9} {:>12} {:>16} {:>11} {:>7} {:>9}\n",
                s.label,
                format!("{}/{}", s.stats.committed, s.stats.submitted),
                thr,
                lat,
                format!("{}/{}", s.stats.amplification.p50, s.stats.amplification.p99),
                s.stats.shortage_rate_permille,
                msgs,
            ));
        }
        out
    }
}

/// Computes the deterministic statistics of one finished run from its
/// telemetry export.
pub fn compute_stats(spec: &ScenarioSpec, export: &RunExport) -> ScenarioStats {
    let sites = merged_site_registry(export);
    let committed = export.outcomes.iter().filter(|o| o.committed).count() as u64;
    let aborted = export.outcomes.len() as u64 - committed;

    let delay_commit_local = sites.counter("delay.commit.local");
    let delay_commit_remote = sites.counter("delay.commit.remote");
    let delay_abort_insufficient = sites.counter("delay.abort.insufficient-av");
    let delay_attempts = delay_commit_local + delay_commit_remote + delay_abort_insufficient;
    let shortage_hits = delay_commit_remote + delay_abort_insufficient;
    let shortage_rate_permille =
        (shortage_hits * 1000).checked_div(delay_attempts).unwrap_or(0);
    let delay_shortage_events =
        sites.histograms.get("delay.shortage").map(|h| h.count).unwrap_or(0);

    let amp = amplification(export);

    let is_sim = export.meta.as_ref().map(|m| m.transport == "sim").unwrap_or(false);
    let sim = if is_sim {
        let network = export.registry("network").cloned().unwrap_or_default();
        let total = network.counter("msg.total");
        let by_kind: BTreeMap<String, u64> = network
            .counters
            .iter()
            .filter_map(|(k, v)| k.strip_prefix("msg.kind.").map(|kind| (kind.to_string(), *v)))
            .collect();
        let makespan = export.outcomes.iter().map(|o| o.at).max().unwrap_or(0);
        SimStats {
            makespan_ticks: makespan,
            commits_per_mtick: (committed * 1_000_000).checked_div(makespan).unwrap_or(0),
            latency_ticks: Percentiles::from_sorted(&commit_latencies(export)),
            messages: MessageStats {
                total,
                per_commit_milli: (total * 1000).checked_div(committed).unwrap_or(0),
                by_kind,
            },
        }
        .into()
    } else {
        None
    };

    ScenarioStats {
        submitted: spec.updates as u64,
        committed,
        aborted,
        delay_commit_local,
        delay_commit_remote,
        delay_abort_insufficient,
        delay_shortage_events,
        shortage_rate_permille,
        imm_commit: sites.counter("imm.commit"),
        imm_abort: sites.counter("imm.abort"),
        amplification: Percentiles::from_sorted(&amp),
        // Span times under the live transports are wall-derived, so the
        // phase breakdown is only byte-identical (and only meaningful as a
        // pinned stat) for the sim transport.
        phase_self_milli: if is_sim {
            export
                .profile
                .as_ref()
                .map(|p| p.phase_self_milli())
                .unwrap_or_default()
        } else {
            Default::default()
        },
        sim,
    }
}

/// Merges every per-site registry scope of an export into one snapshot.
pub fn merged_site_registry(export: &RunExport) -> RegistrySnapshot {
    let mut merged = RegistrySnapshot::default();
    for line in &export.registries {
        if line.scope.starts_with("site") {
            merged.merge(&line.snapshot);
        }
    }
    merged
}

/// Minimum absolute headroom the shortage-rate gate always allows, so
/// near-zero baselines don't flap on a couple of extra shortage events.
const SHORTAGE_SLACK_PERMILLE: u64 = 25;

/// Minimum absolute headroom the amplification gate always allows.
const AMPLIFICATION_SLACK: u64 = 1;

/// Minimum absolute headroom the messages-per-commit gate always allows
/// (one message per commit, in milli).
const MESSAGES_SLACK_MILLI: u64 = 1_000;

/// Names the phase whose mean critical-path self time grew the most
/// between two profiles (`phase_self_milli` maps). Returns
/// `(phase, baseline_milli, current_milli)`; `None` when nothing grew
/// (or either run carried no profile). Ties break on the
/// lexicographically smallest phase name, keeping the attribution
/// deterministic.
pub fn dominant_regressed_phase(
    base: &BTreeMap<String, u64>,
    cur: &BTreeMap<String, u64>,
) -> Option<(String, u64, u64)> {
    cur.iter()
        .map(|(name, &c)| (name, base.get(name).copied().unwrap_or(0), c))
        .filter(|(_, b, c)| c > b)
        .max_by(|(an, ab, ac), (bn, bb, bc)| {
            (ac - ab).cmp(&(bc - bb)).then(bn.cmp(an))
        })
        .map(|(name, b, c)| (name.clone(), b, c))
}

/// Compares a fresh report against a committed baseline. Every sim
/// scenario present in both must:
///
/// - retain at least `100 - max_regress_pct`% of the baseline's
///   virtual-tick throughput,
/// - keep `shortage_rate_permille` within `max_regress_pct`% (never less
///   than [`SHORTAGE_SLACK_PERMILLE`] absolute) of the baseline, and
/// - keep amplification p95 within `max_regress_pct`% (never less than
///   [`AMPLIFICATION_SLACK`] absolute) of the baseline, and
/// - keep messages per commit within `max_regress_pct`% (never less than
///   [`MESSAGES_SLACK_MILLI`] absolute) of the baseline — amplification
///   counts only synchronous correspondences, so a shortage sweep that
///   creeps back shows here first.
///
/// A scenario that trips any gate also gets a critical-path attribution
/// line naming the phase whose mean self time grew the most between the
/// two runs' profiles (see [`dominant_regressed_phase`]).
///
/// Returns human-readable comparison lines, or the list of violations.
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    max_regress_pct: u64,
) -> Result<Vec<String>, Vec<String>> {
    let mut lines = Vec::new();
    let mut violations = Vec::new();
    let mut matched = 0usize;
    for base in &baseline.scenarios {
        let Some(base_sim) = &base.stats.sim else { continue };
        let Some(cur) = current.scenarios.iter().find(|c| c.label == base.label) else {
            violations.push(format!("scenario missing from current report: {}", base.label));
            continue;
        };
        let Some(cur_sim) = &cur.stats.sim else {
            violations.push(format!("scenario no longer ran on sim: {}", base.label));
            continue;
        };
        matched += 1;
        let pct = max_regress_pct.min(100);

        let floor = base_sim.commits_per_mtick * (100 - pct) / 100;
        let thr_ok = cur_sim.commits_per_mtick >= floor;
        let line = format!(
            "{}: {} -> {} commits/Mtick (floor {}) {}",
            base.label,
            base_sim.commits_per_mtick,
            cur_sim.commits_per_mtick,
            floor,
            if thr_ok { "ok" } else { "REGRESSED" },
        );
        if thr_ok { lines.push(line) } else { violations.push(line) };

        let base_short = base.stats.shortage_rate_permille;
        let ceiling = base_short + (base_short * pct / 100).max(SHORTAGE_SLACK_PERMILLE);
        let short_ok = cur.stats.shortage_rate_permille <= ceiling;
        let line = format!(
            "{}: {} -> {} shortage permille (ceiling {}) {}",
            base.label,
            base_short,
            cur.stats.shortage_rate_permille,
            ceiling,
            if short_ok { "ok" } else { "REGRESSED" },
        );
        if short_ok { lines.push(line) } else { violations.push(line) };

        let base_amp = base.stats.amplification.p95;
        let ceiling = base_amp + (base_amp * pct / 100).max(AMPLIFICATION_SLACK);
        let amp_ok = cur.stats.amplification.p95 <= ceiling;
        let line = format!(
            "{}: {} -> {} amplification p95 (ceiling {}) {}",
            base.label,
            base_amp,
            cur.stats.amplification.p95,
            ceiling,
            if amp_ok { "ok" } else { "REGRESSED" },
        );
        if amp_ok { lines.push(line) } else { violations.push(line) };

        let base_msgs = base_sim.messages.per_commit_milli;
        let ceiling = base_msgs + (base_msgs * pct / 100).max(MESSAGES_SLACK_MILLI);
        let msgs_ok = cur_sim.messages.per_commit_milli <= ceiling;
        let line = format!(
            "{}: {} -> {} messages per commit milli (ceiling {}) {}",
            base.label,
            base_msgs,
            cur_sim.messages.per_commit_milli,
            ceiling,
            if msgs_ok { "ok" } else { "REGRESSED" },
        );
        if msgs_ok { lines.push(line) } else { violations.push(line) };

        // When a gate trips, name the phase whose critical-path self
        // time moved most — the place to start looking.
        if !(thr_ok && short_ok && amp_ok && msgs_ok) {
            match dominant_regressed_phase(
                &base.stats.phase_self_milli,
                &cur.stats.phase_self_milli,
            ) {
                Some((phase, from, to)) => violations.push(format!(
                    "{}: critical-path attribution: phase '{phase}' mean self time \
                     {from} -> {to} milli-ticks/commit (+{})",
                    base.label,
                    to - from,
                )),
                None => violations.push(format!(
                    "{}: critical-path attribution: no phase self-time grew \
                     (profile missing, or the regression is outside commit paths)",
                    base.label,
                )),
            }
        }
    }
    if matched == 0 {
        violations.push("no sim scenarios matched between baseline and current".to_string());
    }
    if violations.is_empty() {
        Ok(lines)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScenarioSpec;

    fn report_full(label: &str, thr: u64, shortage: u64, amp_p95: u64) -> BenchReport {
        let spec = ScenarioSpec::base();
        BenchReport {
            label: "t".to_string(),
            scenarios: vec![ScenarioResult {
                label: label.to_string(),
                spec,
                stats: ScenarioStats {
                    shortage_rate_permille: shortage,
                    amplification: Percentiles { p95: amp_p95, ..Default::default() },
                    sim: Some(SimStats { commits_per_mtick: thr, ..Default::default() }),
                    ..Default::default()
                },
            }],
        }
    }

    fn report_with(label: &str, thr: u64) -> BenchReport {
        report_full(label, thr, 0, 0)
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = Percentiles::from_sorted(&[1, 2, 3, 4, 100]);
        assert_eq!(p.p50, 3);
        assert_eq!(p.max, 100);
        assert_eq!(p.mean_milli, 22_000);
        assert_eq!(Percentiles::from_sorted(&[]), Percentiles::default());
    }

    #[test]
    fn compare_gates_on_throughput() {
        let base = report_with("cell", 1000);
        assert!(compare(&base, &report_with("cell", 800), 25).is_ok());
        assert!(compare(&base, &report_with("cell", 700), 25).is_err());
        assert!(compare(&base, &report_with("other", 1000), 25).is_err());
    }

    #[test]
    fn compare_gates_on_shortage_rate() {
        let base = report_full("cell", 1000, 200, 0);
        // Within 25% of the baseline: fine.
        assert!(compare(&base, &report_full("cell", 1000, 250, 0), 25).is_ok());
        // Beyond it: gated.
        let err = compare(&base, &report_full("cell", 1000, 251, 0), 25).unwrap_err();
        assert!(err.iter().any(|l| l.contains("shortage permille")), "{err:?}");
        // A near-zero baseline keeps the absolute slack so a couple of
        // extra shortage events don't flap the gate.
        let tiny = report_full("cell", 1000, 3, 0);
        assert!(compare(&tiny, &report_full("cell", 1000, 28, 0), 25).is_ok());
        assert!(compare(&tiny, &report_full("cell", 1000, 29, 0), 25).is_err());
    }

    #[test]
    fn compare_gates_on_amplification_p95() {
        let base = report_full("cell", 1000, 0, 8);
        assert!(compare(&base, &report_full("cell", 1000, 0, 10), 25).is_ok());
        let err = compare(&base, &report_full("cell", 1000, 0, 11), 25).unwrap_err();
        assert!(err.iter().any(|l| l.contains("amplification p95")), "{err:?}");
        // Zero baseline still allows the absolute slack of one.
        let zero = report_full("cell", 1000, 0, 0);
        assert!(compare(&zero, &report_full("cell", 1000, 0, 1), 25).is_ok());
        assert!(compare(&zero, &report_full("cell", 1000, 0, 2), 25).is_err());
    }

    #[test]
    fn compare_gates_on_messages_per_commit() {
        let with_msgs = |per_commit_milli| {
            let mut r = report_with("cell", 1000);
            r.scenarios[0].stats.sim.as_mut().unwrap().messages.per_commit_milli =
                per_commit_milli;
            r
        };
        let base = with_msgs(16_000);
        assert!(compare(&base, &with_msgs(20_000), 25).is_ok());
        let err = compare(&base, &with_msgs(20_001), 25).unwrap_err();
        assert!(err.iter().any(|l| l.contains("messages per commit")), "{err:?}");
        // A small baseline keeps the absolute slack of one message.
        assert!(compare(&with_msgs(2_000), &with_msgs(3_000), 25).is_ok());
        assert!(compare(&with_msgs(2_000), &with_msgs(3_001), 25).is_err());
    }

    #[test]
    fn dominant_regressed_phase_picks_largest_growth() {
        let base: BTreeMap<String, u64> =
            [("update".to_string(), 500), ("transfer".to_string(), 2000)].into();
        let mut cur = base.clone();
        cur.insert("transfer".to_string(), 9000);
        cur.insert("update".to_string(), 600);
        let (phase, from, to) = dominant_regressed_phase(&base, &cur).unwrap();
        assert_eq!((phase.as_str(), from, to), ("transfer", 2000, 9000));
        // A phase new in the current run counts from zero.
        let (phase, ..) =
            dominant_regressed_phase(&BTreeMap::new(), &cur).unwrap();
        assert_eq!(phase, "transfer");
        // Nothing grew → no attribution.
        assert!(dominant_regressed_phase(&cur, &base).is_none());
        assert!(dominant_regressed_phase(&base, &base).is_none());
    }

    #[test]
    fn compare_attributes_gated_regressions_to_a_phase() {
        let mut base = report_with("cell", 1000);
        base.scenarios[0].stats.phase_self_milli =
            [("update".to_string(), 500), ("transfer".to_string(), 2000)].into();
        let mut cur = report_with("cell", 600); // trips the throughput gate
        cur.scenarios[0].stats.phase_self_milli =
            [("update".to_string(), 500), ("transfer".to_string(), 9000)].into();
        let err = compare(&base, &cur, 25).unwrap_err();
        assert!(
            err.iter().any(|l| l.contains("phase 'transfer'") && l.contains("+7000")),
            "{err:?}"
        );
        // Healthy comparisons carry no attribution line.
        let ok = compare(&base, &base, 25).unwrap();
        assert!(ok.iter().all(|l| !l.contains("attribution")), "{ok:?}");
    }

    #[test]
    fn report_round_trips() {
        let rep = report_with("cell", 42);
        let back = BenchReport::from_json(&rep.to_json()).unwrap();
        assert_eq!(back.scenarios[0].stats.sim.as_ref().unwrap().commits_per_mtick, 42);
    }
}
