#![warn(missing_docs)]

//! # avdb-telemetry
//!
//! Structured causal tracing and a unified metrics registry for the avdb
//! reproduction — with zero external dependencies beyond the vendored
//! serde stubs, so it runs identically under the deterministic simulator
//! and the live TCP mesh.
//!
//! Three pieces:
//!
//! * [`TraceContext`] — trace id + parent span + Lamport clock,
//!   piggybacked on every protocol message so one update's full causal
//!   tree is reconstructible across sites and transports.
//! * [`Registry`] — per-site named counters, gauges, and log₂-bucketed
//!   [`Histogram`]s (message counts by kind, AV shortage depth,
//!   candidate-list staleness, per-phase latencies).
//! * [`RunExport`] — a JSONL span/event exporter consumed by the
//!   `avdb-trace` binary ([`analyze`] holds the tree reconstruction and
//!   latency breakdowns it prints).
//!
//! Determinism contract: nothing here reads clocks or RNGs; span ids are
//! minted per site from a sequence counter using the same
//! `site << 40 | seq` split as `TxnId`, so a seeded simulator run
//! produces bit-identical telemetry.

pub mod analyze;
pub mod chrome;
pub mod context;
pub mod critical_path;
pub mod export;
pub mod flight;
pub mod message_log;
pub mod prometheus;
pub mod registry;
pub mod sampling;
pub mod slo;
pub mod span;
pub mod timeseries;

pub use chrome::chrome_trace;
pub use context::{
    aux_trace_id, aux_trace_site, is_aux_trace, TraceContext, AUX_TRACE_FLAG, SEQ_MASK,
};
pub use critical_path::{
    build_profile, critical_path, path_for_trace, profile_export, render_path, CriticalPath,
    Exemplar, PathNode, PhaseProfile, ProfileBuilder, SpanView, PROFILE_EXEMPLARS,
};
pub use export::{
    for_each_line, ExportLine, MessageLine, MetaLine, OutcomeLine, RegistryLine, RunExport,
    SeriesLine, SpanLine,
};
pub use flight::{
    FlightDump, FlightEvent, FlightFields, FlightRecorder, FlightRender, SiteFlight,
    DEFAULT_FLIGHT_CAPACITY,
};
pub use message_log::{render_sequence, MessageEvent, MessageLog};
pub use prometheus::{
    metric_families, metric_name, render_prometheus, render_series_prometheus,
    validate_exposition,
};
pub use registry::{Histogram, HistogramSnapshot, MetricId, Registry, RegistrySnapshot};
pub use sampling::{TraceSampler, AUTO_SCALE_SAMPLE_RATE, FULL_TRACES_PER_ORIGIN};
pub use slo::{
    evaluate as evaluate_slo, LaneReport, LaneSlo, SloHealth, SloReport, SloSpec, LANE_DELAY,
    LANE_IMM,
};
pub use span::{SpanCollector, SpanRecord, DEFAULT_SPAN_RING_CAPACITY};
pub use timeseries::{
    sparkline, RollOutcome, SeriesRecorder, SeriesSnapshot, SeriesWindowSnapshot, WatchdogConfig,
    WatchdogFiring, DEFAULT_SERIES_RING_CAPACITY,
};
