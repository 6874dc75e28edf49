#![warn(missing_docs)]

//! # avdb-bench
//!
//! The benchmark subsystem: a seeded, deterministic workload-matrix
//! harness plus the paper-artifact bench targets. Wall-clock, RSS and
//! latency numbers belong to the performance ledger (`benchmark/`), not
//! to this crate.
//!
//! The harness ([`matrix`] → [`run`] → [`report`]) expands a matrix of
//! {transport, site count, delay/immediate mix, AV split, zipf skew,
//! fault profile} cells into oracle-checked runs and distills each run's
//! telemetry export into registry-sourced statistics: virtual-tick
//! throughput and commit latency (sim cells), message amplification,
//! and AV-shortage rates. The `avdb-bench` binary writes the results as
//! machine-readable `results/BENCH_<label>.json` plus a human table:
//!
//! ```sh
//! cargo run --release --bin avdb-bench -- run --label local
//! cargo run --release --bin avdb-bench -- compare \
//!     results/BENCH_baseline.json results/BENCH_local.json
//! ```
//!
//! Paper-artifact targets (plain `harness = false` binaries, run with
//! `cargo bench -p avdb-bench --bench <name>`): `fig6`, `table1`,
//! `ablations`, `scaling`, `mix`. Each regenerates and prints its paper
//! artifact, then times the experiment kernel.

pub mod matrix;
pub mod report;
pub mod run;

pub use matrix::{FaultProfile, ScenarioSpec, TransportKind};
pub use report::{BenchReport, Percentiles, ScenarioResult, ScenarioStats};
pub use run::{run_scenario, run_scenario_with_flight_dir, RunArtifacts};

/// Updates used when a bench regenerates the printed artifact.
pub const PRINT_UPDATES: usize = 2_000;

/// Updates used inside timed iterations (kept small so Criterion can
/// sample enough runs).
pub const TIMED_UPDATES: usize = 500;

/// Seed shared by all bench targets.
pub const SEED: u64 = 1;
