//! Machine-readable experiment artifacts, and the one sweep list per
//! experiment.
//!
//! Serializes every experiment's result to pretty JSON under a directory
//! (one file per experiment id), so EXPERIMENTS.md numbers can be diffed
//! mechanically between revisions instead of eyeballed. `avdb ablations`
//! prints the tables of exactly the runs `avdb report` writes.

use super::{
    ablations, circulation, freshness, mix, run_faults, run_fig6, run_table1, scaling,
    table1_checkpoints,
};
use avdb_types::{AvdbError, Result};
use serde::Serialize;
use std::fs;
use std::path::Path;

/// Scale knobs for a full report run.
#[derive(Clone, Copy, Debug)]
pub struct ReportScale {
    /// Updates for E1/E2.
    pub paper_updates: usize,
    /// Updates for each ablation sweep.
    pub ablation_updates: usize,
    /// Seed shared by every experiment.
    pub seed: u64,
}

impl Default for ReportScale {
    fn default() -> Self {
        ReportScale { paper_updates: 10_000, ablation_updates: 3_000, seed: 1 }
    }
}

/// One experiment's result, ready to write or print.
pub struct Artifact {
    /// File name under the report directory (`a1_decide.json`, …).
    pub file: &'static str,
    /// Pretty JSON: what `avdb report` writes.
    pub json: String,
    /// Headed tables: what `avdb ablations` prints (empty for E1, E2
    /// and A5, which `avdb fig6|table1|faults` render themselves).
    pub text: String,
}

fn artifact<T: Serialize>(file: &'static str, value: &T, text: String) -> Result<Artifact> {
    let json = serde_json::to_string_pretty(value).map_err(|e| AvdbError::Codec(e.to_string()))?;
    Ok(Artifact { file, json, text })
}

/// Runs A1–A4 and A6–A10 at `n_updates` each, over their sweep lists.
pub fn run_ablations(n_updates: usize, seed: u64) -> Result<Vec<Artifact>> {
    let n = n_updates;
    let table = ablations::render_rows;
    let decide = ablations::run_decide_sweep(n, seed);
    let select = ablations::run_select_sweep(n, seed);
    let sites = [3, 5, 9, 17];
    let scaled = scaling::run_scaling(&sites, n, seed);
    let balanced = scaling::run_scaling_balanced(&sites, n, seed);
    let mixed = mix::run_mix(&[0.0, 0.1, 0.25, 0.5, 0.75, 1.0], n, seed);
    let allocation = ablations::run_allocation_sweep(n, seed);
    let skew = ablations::run_skew_sweep(n, seed);
    let magnitude = ablations::run_magnitude_sweep(n, seed);
    let circulated = circulation::run_circulation(n, seed);
    let fresh = freshness::run_freshness(&[1, 5, 25, 100], n, seed);
    Ok(vec![
        artifact("a1_decide.json", &decide, format!("=== A1 deciding ===\n{}", table(&decide)))?,
        artifact("a2_select.json", &select, format!("=== A2 selecting ===\n{}", table(&select)))?,
        artifact(
            "a3_scaling.json",
            &(&scaled, &balanced),
            format!(
                "=== A3 scaling (paper rates) ===\n{}\n=== A3b scaling (balanced) ===\n{}",
                scaling::render_rows(&scaled),
                scaling::render_rows(&balanced)
            ),
        )?,
        artifact("a4_mix.json", &mixed, format!("=== A4 mix ===\n{}", mix::render_rows(&mixed)))?,
        artifact(
            "a6_allocation.json",
            &allocation,
            format!("=== A6 allocation ===\n{}", table(&allocation)),
        )?,
        artifact("a7_skew.json", &skew, format!("=== A7 skew ===\n{}", table(&skew)))?,
        artifact(
            "a8_magnitude.json",
            &magnitude,
            format!("=== A8 magnitude ===\n{}", table(&magnitude)),
        )?,
        artifact(
            "a9_circulation.json",
            &circulated,
            format!("=== A9 circulation ===\n{}", circulation::render_rows(&circulated)),
        )?,
        artifact(
            "a10_freshness.json",
            &fresh,
            format!("=== A10 freshness ===\n{}", freshness::render_rows(&fresh)),
        )?,
    ])
}

/// Runs every experiment at the given scale and writes one JSON file per
/// experiment id into `dir` (created if needed). Returns the file names
/// written.
pub fn generate_report(dir: &Path, scale: ReportScale) -> Result<Vec<&'static str>> {
    let ReportScale { paper_updates, ablation_updates, seed } = scale;
    let mut artifacts = vec![
        artifact("e1_fig6.json", &run_fig6(paper_updates, seed), String::new())?,
        artifact(
            "e2_table1.json",
            &run_table1(&table1_checkpoints(paper_updates), seed),
            String::new(),
        )?,
        artifact("a5_faults.json", &run_faults(ablation_updates, seed), String::new())?,
    ];
    artifacts.extend(run_ablations(ablation_updates, seed)?);
    fs::create_dir_all(dir).map_err(|e| AvdbError::Corruption(format!("create dir: {e}")))?;
    for a in &artifacts {
        fs::write(dir.join(a.file), &a.json)
            .map_err(|e| AvdbError::Corruption(format!("write {}: {e}", a.file)))?;
    }
    Ok(artifacts.iter().map(|a| a.file).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_report_writes_every_artifact() {
        let dir = std::env::temp_dir().join(format!("avdb-report-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let scale = ReportScale { paper_updates: 250, ablation_updates: 150, seed: 1 };
        let written = generate_report(&dir, scale).unwrap();
        assert_eq!(written.len(), 12, "one artifact per experiment id");
        for name in &written {
            let content = fs::read_to_string(dir.join(name)).unwrap();
            assert!(content.trim_start().starts_with(['{', '[']), "{name} is JSON");
            assert!(content.len() > 50, "{name} is non-trivial");
        }
        // Spot check: the Fig. 6 artifact carries both series.
        let fig6 = fs::read_to_string(dir.join("e1_fig6.json")).unwrap();
        assert!(fig6.contains("\"proposal\""));
        assert!(fig6.contains("\"conventional\""));
        fs::remove_dir_all(&dir).unwrap();
    }
}
