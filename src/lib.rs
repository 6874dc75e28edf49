#![warn(missing_docs)]

//! # avdb — autonomous consistency for distributed databases
//!
//! Facade crate re-exporting the whole workspace: a production-quality
//! reproduction of Hanamura, Kaji & Mori, *"Autonomous Consistency
//! Technique in Distributed Database with Heterogeneous Requirements"*
//! (IPPS 2000).
//!
//! Start with [`bench::paper::paper_scenario`] to build the paper's
//! 3-site supply-chain setup, or assemble your own with
//! [`types::SystemConfig`] + [`core::DistributedSystem`]:
//!
//! ```
//! use avdb::prelude::*;
//!
//! // One maker + two retailers; one stocked product under AV management.
//! let config = SystemConfig::builder()
//!     .sites(3)
//!     .regular_products(1, Volume(90))
//!     .build()?;
//! let mut system = DistributedSystem::new(config);
//!
//! // A retailer sells 20 units: covered by its local AV share (30),
//! // so the commit is instantaneous and costs zero messages.
//! system.submit_at(VirtualTime(0),
//!     UpdateRequest::new(SiteId(1), ProductId(0), Volume(-20)));
//! system.run_until_quiescent();
//!
//! let outcomes = system.drain_outcomes();
//! assert!(outcomes[0].2.is_committed());
//! assert_eq!(outcomes[0].2.correspondences(), 0);
//! assert_eq!(system.stock(SiteId(1), ProductId(0)), Volume(70));
//! # Ok::<(), AvdbError>(())
//! ```

/// Shared vocabulary: ids, volumes, requests, errors, configuration.
pub use avdb_types as types;
/// Deterministic discrete-event network simulator and live transport.
pub use avdb_simnet as simnet;
/// Per-site local database engine (tables, WAL, transactions, recovery).
pub use avdb_storage as storage;
/// Allowable Volume (escrow) tables and transfer strategies.
pub use avdb_escrow as escrow;
/// The paper's contribution: accelerator, Delay Update, Immediate Update.
pub use avdb_core as core;
/// Conventional centralized comparator systems.
pub use avdb_baseline as baseline;
/// SCM workload generation.
pub use avdb_workload as workload;
/// Causal tracing, metrics registries, and run exports.
pub use avdb_telemetry as telemetry;
/// Conformance oracle: sequential reference model + invariant checker.
pub use avdb_oracle as oracle;
/// Deterministic experiment harness: the `avdb-bench` workload matrix
/// and the paper's evaluation.
pub use avdb_bench as bench;
/// Adversarial nemesis engine and named scenario library.
pub use avdb_chaos as chaos;
/// Binary wire protocol: framing, request/response codec, typed errors.
pub use avdb_wire as wire;
/// Client-facing gateway: per-site wire listeners over a live TCP mesh.
pub use avdb_gateway as gateway;
/// Pipelined wire-protocol client and connection pool.
pub use avdb_client as client;

/// Commonly used items, for `use avdb::prelude::*`.
pub mod prelude {
    pub use avdb_core::{Accelerator, DistributedSystem};
    pub use avdb_types::{
        AvdbError, ProductClass, ProductId, Result, SiteId, SystemConfig, UpdateKind,
        UpdateOutcome, UpdateRequest, VirtualTime, Volume,
    };
}
