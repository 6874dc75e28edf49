//! The benchmark workload matrix: one [`ScenarioSpec`] per cell.
//!
//! A scenario pins everything a run needs to be reproducible — transport,
//! topology, delay/immediate mix, AV split, popularity skew, fault
//! profile, and seed — and knows how to expand itself into a validated
//! [`SystemConfig`] plus a timed update schedule.

use avdb_chaos::Scenario;
use avdb_telemetry::AUTO_SCALE_SAMPLE_RATE;
use avdb_types::{AvAllocation, SystemConfig, UpdateRequest, VirtualTime, Volume};
use avdb_workload::{scm_catalog, ArrivalPattern, Popularity, UpdateStream, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Which substrate carries the protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum TransportKind {
    /// Deterministic discrete-event simulator (virtual ticks).
    Sim,
    /// One OS thread per site, loopback TCP sockets, wall clock.
    Tcp,
}

impl TransportKind {
    /// Short name used in labels and the export's `meta.transport`.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Sim => "sim",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parses the short name back (CLI flag values).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(TransportKind::Sim),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }
}

/// Fault injected while the scenario runs (simulator only — the live
/// transports have no deterministic fault scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "kebab-case")]
pub enum FaultProfile {
    /// Reliable links, no crashes.
    #[default]
    Clean,
    /// Every link drops 5% of messages (retries recover).
    Loss,
    /// The last site crashes a third of the way through the schedule and
    /// recovers from its WAL at the two-thirds mark.
    Crash,
    /// The mesh splits into two halves for the middle third of the
    /// schedule, then heals.
    Partition,
}

impl FaultProfile {
    /// Short name used in labels.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::Clean => "clean",
            FaultProfile::Loss => "loss",
            FaultProfile::Crash => "crash",
            FaultProfile::Partition => "partition",
        }
    }

    /// Parses the short name back (CLI flag values).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "clean" => Some(FaultProfile::Clean),
            "loss" => Some(FaultProfile::Loss),
            "crash" => Some(FaultProfile::Crash),
            "partition" => Some(FaultProfile::Partition),
            _ => None,
        }
    }
}

/// Message-drop probability used by [`FaultProfile::Loss`].
pub const LOSS_DROP_PROBABILITY: f64 = 0.05;

/// Cells whose `updates × sites` product stays at or below this run with
/// full telemetry: the default sampler (every trace below the per-origin
/// budget kept whole) and every delivery in the message log. Larger
/// (scale-up) cells auto-sample traces at [`AUTO_SCALE_SAMPLE_RATE`] and
/// skip the message log; the deterministic BENCH statistics are
/// identical either way.
pub const FULL_TELEMETRY_CEILING: usize = 100_000;

/// Anomaly rescue rate auto-applied past [`FULL_TELEMETRY_CEILING`].
/// Requested `-ts` cells keep the default full rescue (every abort /
/// shortage / outlier trace survives), but a saturated scale-up cell
/// where nearly every update shorts would rescue nearly every trace —
/// this caps that at ~5%, deterministically and identically on every
/// site.
pub const AUTO_SCALE_ANOMALY_KEEP: f64 = 0.05;

/// One cell of the benchmark matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Substrate to run on.
    pub transport: TransportKind,
    /// Number of sites (site 0 is the maker/base).
    pub sites: usize,
    /// Total updates across all sites.
    pub updates: usize,
    /// Regular products (Delay Update path).
    pub regular_products: usize,
    /// Non-regular products (Immediate Update path). The delay/immediate
    /// mix follows from the catalog split because the workload generator
    /// picks products by popularity.
    pub non_regular_products: usize,
    /// Initial stock (and total AV) per product.
    pub initial_stock: i64,
    /// How the AV is split across sites.
    pub allocation: AvAllocation,
    /// Zipf exponent for product popularity; `0` means uniform.
    pub zipf_milli: u64,
    /// Maker increment cap, percent of initial stock.
    pub maker_pct: u32,
    /// Retailer decrement cap, percent of initial stock.
    pub retailer_pct: u32,
    /// Commits batched per propagation flush (1 = eager).
    pub propagation_batch: usize,
    /// Fault injected mid-run (simulator only).
    pub fault: FaultProfile,
    /// Virtual ticks between consecutive submissions (simulator).
    pub spacing: u64,
    /// Workload + network seed.
    pub seed: u64,
    /// Live transports only: submit one update at a time, waiting for its
    /// outcome before the next — the injection order (and therefore every
    /// protocol-level counter) becomes scheduling-independent.
    pub closed_loop: bool,
    /// Peers asked concurrently per shortage round (0/1 = the paper's
    /// serial loop).
    pub shortage_fanout: usize,
    /// Fold propagation batches into net-per-product frames.
    pub coalesce_propagation: bool,
    /// Named chaos scenario layered over the cell: traffic reshaping
    /// (flash-sale, diurnal-wave) and/or faults and nemeses
    /// (multi-region, rolling-restart, kill-the-*). `None` = plain cell.
    pub scenario: Option<String>,
    /// Head-based trace sample rate in per-mille. Both `0` and `1000`
    /// mean the default: every trace up to the per-origin budget.
    pub trace_sample_milli: u32,
    /// Time-series window width in sim ticks; `0` leaves the series
    /// plane off.
    pub series_window_ticks: u64,
}

impl ScenarioSpec {
    /// A paper-shaped default cell: 3 sites, uniform popularity, 25%
    /// immediate traffic, clean links, eager propagation.
    pub fn base() -> Self {
        ScenarioSpec {
            transport: TransportKind::Sim,
            sites: 3,
            updates: 300,
            regular_products: 6,
            non_regular_products: 2,
            initial_stock: 120_000,
            allocation: AvAllocation::Uniform,
            zipf_milli: 0,
            maker_pct: 20,
            retailer_pct: 10,
            propagation_batch: 1,
            fault: FaultProfile::Clean,
            spacing: 40,
            seed: 1,
            closed_loop: true,
            shortage_fanout: 0,
            coalesce_propagation: false,
            scenario: None,
            trace_sample_milli: 0,
            series_window_ticks: 0,
        }
    }

    /// Whether the cell samples traces (a rate below full was set).
    pub fn samples_traces(&self) -> bool {
        self.trace_sample_milli > 0 && self.trace_sample_milli < 1000
    }

    /// Whether this cell exceeds the full-telemetry budget
    /// ([`FULL_TELEMETRY_CEILING`]) and therefore runs with auto-sampled
    /// traces and no per-delivery message log. Explicit `-ts` cells keep
    /// their requested rate instead.
    pub fn scaled_telemetry(&self) -> bool {
        self.updates.saturating_mul(self.sites) > FULL_TELEMETRY_CEILING
    }

    /// The parsed chaos scenario, if the cell names one. An unknown name
    /// is an error (a silently ignored scenario would report misleading
    /// numbers under the right label).
    pub fn chaos_scenario(&self) -> Result<Option<Scenario>, String> {
        match self.scenario.as_deref() {
            None => Ok(None),
            Some(name) => Scenario::parse(name).map(Some).ok_or_else(|| {
                format!(
                    "unknown scenario '{name}' (known: {})",
                    Scenario::ALL.map(|s| s.name()).join(", ")
                )
            }),
        }
    }

    /// Share of updates that land on non-regular (Immediate) products,
    /// in permille, assuming uniform popularity.
    pub fn immediate_permille(&self) -> u64 {
        let total = (self.regular_products + self.non_regular_products) as u64;
        (self.non_regular_products as u64 * 1000).checked_div(total).unwrap_or(0)
    }

    /// Stable human-readable identifier; doubles as the key the
    /// regression gate uses to match scenarios across BENCH files.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}-s{}-u{}-imm{}-{}-z{}-b{}-{}-seed{}",
            self.transport.name(),
            self.sites,
            self.updates,
            self.immediate_permille(),
            allocation_name(self.allocation),
            self.zipf_milli,
            self.propagation_batch,
            self.fault.name(),
            self.seed,
        );
        // Fast-lane knobs append segments only when non-default, so every
        // pre-fast-lane label (and its baseline entry) stays unchanged.
        if self.shortage_fanout > 1 {
            label.push_str(&format!("-fk{}", self.shortage_fanout));
        }
        if self.coalesce_propagation {
            label.push_str("-coal");
        }
        if let Some(scenario) = &self.scenario {
            label.push_str(&format!("-sc{scenario}"));
        }
        if self.samples_traces() {
            label.push_str(&format!("-ts{}", self.trace_sample_milli));
        }
        if self.series_window_ticks > 0 {
            label.push_str(&format!("-sw{}", self.series_window_ticks));
        }
        label
    }

    /// Expands the cell into a validated system configuration.
    pub fn config(&self) -> Result<SystemConfig, String> {
        let mut b = SystemConfig::builder()
            .sites(self.sites)
            .regular_products(self.regular_products, Volume(self.initial_stock))
            .non_regular_products(self.non_regular_products, Volume(self.initial_stock))
            .av_allocation(self.allocation)
            .propagation_batch(self.propagation_batch)
            .shortage_fanout(self.shortage_fanout)
            .coalesce_propagation(self.coalesce_propagation)
            .series_window_ticks(self.series_window_ticks)
            .seed(self.seed);
        if self.fault == FaultProfile::Loss {
            b = b.drop_probability(LOSS_DROP_PROBABILITY);
        }
        if self.samples_traces() {
            b = b.trace_sample_rate(f64::from(self.trace_sample_milli) / 1000.0);
        } else if self.scaled_telemetry() {
            // Scale-up cells auto-sample: every BENCH statistic is
            // sampling-independent (outcomes, counters, and always-retained
            // root spans), but retaining every interior span at
            // updates × sites in the millions costs gigabytes and dominates
            // wall time. The label deliberately does not change — `-ts`
            // marks a *requested* rate, and the statistics are identical.
            b = b.trace_sample_rate(AUTO_SCALE_SAMPLE_RATE);
            b = b.anomaly_keep_rate(AUTO_SCALE_ANOMALY_KEEP);
        }
        b.build().map_err(|e| format!("scenario {}: {e}", self.label()))
    }

    /// The scenario's timed update schedule (deterministic in the seed).
    pub fn schedule(&self) -> Vec<(VirtualTime, UpdateRequest)> {
        let catalog = scm_catalog(
            self.regular_products,
            self.non_regular_products,
            Volume(self.initial_stock),
        );
        let mut spec = WorkloadSpec {
            n_sites: self.sites,
            n_updates: self.updates,
            maker_increase_pct: self.maker_pct,
            retailer_decrease_pct: self.retailer_pct,
            popularity: if self.zipf_milli == 0 {
                Popularity::Uniform
            } else {
                Popularity::Zipf(self.zipf_milli as f64 / 1000.0)
            },
            spacing: self.spacing,
            arrival: ArrivalPattern::Even,
            seed: self.seed,
        };
        if let Ok(Some(scenario)) = self.chaos_scenario() {
            scenario.adapt_workload(&mut spec);
        }
        UpdateStream::new(spec, &catalog).collect_all()
    }

    /// The virtual-time span the schedule covers (last submission tick).
    pub fn schedule_span(&self) -> u64 {
        self.updates.saturating_sub(1) as u64 * self.spacing
    }
}

/// Short name for an AV allocation policy, for labels.
pub fn allocation_name(a: AvAllocation) -> &'static str {
    match a {
        AvAllocation::Uniform => "uniform",
        AvAllocation::AllAtBase => "all-at-base",
        AvAllocation::HalfAtBase => "half-at-base",
        AvAllocation::Weighted => "weighted",
    }
}

/// Parses an allocation short name (CLI flag values).
pub fn parse_allocation(s: &str) -> Option<AvAllocation> {
    match s {
        "uniform" => Some(AvAllocation::Uniform),
        "all-at-base" => Some(AvAllocation::AllAtBase),
        "half-at-base" => Some(AvAllocation::HalfAtBase),
        "weighted" => Some(AvAllocation::Weighted),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_is_stable_and_distinct() {
        let a = ScenarioSpec::base();
        let mut b = ScenarioSpec::base();
        b.sites = 7;
        assert_ne!(a.label(), b.label());
        assert_eq!(a.label(), ScenarioSpec::base().label());
    }

    #[test]
    fn schedule_is_deterministic() {
        let spec = ScenarioSpec::base();
        assert_eq!(spec.schedule(), spec.schedule());
        assert_eq!(spec.schedule().len(), spec.updates);
    }

    #[test]
    fn config_builds_for_every_fault() {
        for fault in [
            FaultProfile::Clean,
            FaultProfile::Loss,
            FaultProfile::Crash,
            FaultProfile::Partition,
        ] {
            let mut spec = ScenarioSpec::base();
            spec.fault = fault;
            spec.config().expect("valid config");
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec::base();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec.label(), back.label());
    }

    #[test]
    fn fast_lane_knobs_extend_the_label_only_when_set() {
        let base = ScenarioSpec::base();
        let mut spec = ScenarioSpec::base();
        spec.shortage_fanout = 1;
        assert_eq!(spec.label(), base.label(), "fanout 1 is the serial default");
        spec.shortage_fanout = 4;
        spec.coalesce_propagation = true;
        let label = spec.label();
        assert!(label.ends_with("-fk4-coal"), "unexpected label {label}");
        spec.config().expect("knobs thread into a valid config");
    }

    #[test]
    fn series_window_extends_the_label_only_when_set() {
        let base = ScenarioSpec::base();
        let mut spec = ScenarioSpec::base();
        spec.series_window_ticks = 64;
        assert_eq!(base.label(), ScenarioSpec::base().label());
        let label = spec.label();
        assert!(label.ends_with("-sw64"), "unexpected label {label}");
        let cfg = spec.config().expect("series window threads into a valid config");
        assert_eq!(cfg.series_window_ticks, 64);
    }
}
