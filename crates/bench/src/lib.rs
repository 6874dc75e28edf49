#![warn(missing_docs)]

//! # avdb-bench
//!
//! The deterministic experiment harness: a seeded workload matrix and
//! the paper's own experiments. Wall-clock, RSS and latency numbers
//! belong to the performance ledger (`benchmark/`), not to this crate.
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
//! [`paper`] holds the paper's experiments (E1/E2, A1–A10) and
//! [`sweep`] the seeded conformance sweep behind `avdb-check`. All of
//! them run on the one harness in [`run`]: [`run::run_checked`] for every
//! simulator run, [`run::LiveDriver`] for every live one.

pub mod matrix;
pub mod paper;
pub mod report;
pub mod run;
pub mod sweep;

pub use matrix::{FaultProfile, ScenarioSpec, TransportKind};
pub use report::{BenchReport, Percentiles, ScenarioResult, ScenarioStats};
pub use run::{
    run_checked, run_scenario, run_scenario_with_flight_dir, CheckedRun, LiveDriver, LiveRun,
    RunArtifacts,
};

