#![warn(missing_docs)]

//! # avdb-chaos
//!
//! Adversarial testing for the AV escrow protocol: a **nemesis engine**
//! that fires scripted faults at exactly the worst protocol moment, and a
//! **scenario library** of named production traffic/fault shapes.
//!
//! Random fault schedules (the `avdb-check` sweeps) shake out broad
//! classes of bugs, but the failures that matter in an escrow protocol
//! hide in *targeted* schedules: partition the granting peer while its
//! grant is in flight, crash the 2PC coordinator between vote and
//! decision. A [`Nemesis`] subscribes to substrate events through the
//! simnet [`avdb_simnet::NetHook`] and reacts with link cuts, latency
//! inflation, flap schedules, or crashes — deterministically, inside the
//! event loop, so every adversarial run replays bit-identically from its
//! seed.
//!
//! The [`Scenario`] library names six production shapes (`flash-sale`,
//! `diurnal-wave`, `multi-region`, `rolling-restart`, `kill-the-granter`,
//! `kill-the-coordinator`) consumable by `avdb-bench` (matrix axis) and
//! `avdb-check --scenario` (sweep + minimal-repro search); both run them
//! on `avdb-bench`'s one oracle-checked harness. [`NemesisHandle`]
//! exposes the `chaos.nemesis.fired` counters so CI can prove a nemesis
//! actually triggered instead of passing vacuously.

pub mod nemesis;
pub mod scenario;

pub use nemesis::{
    FlakyWan, KillTheCoordinator, KillTheGranter, Nemesis, NemesisEngine, NemesisHandle,
};
pub use scenario::Scenario;
