//! System configuration shared by the DES runtime, the live runtime, the
//! baseline, and the experiment harness.

use crate::error::{AvdbError, Result};
use crate::product::{CatalogEntry, ProductClass, ProductId};
use crate::volume::Volume;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the system-wide Allowable Volume of each regular product is split
/// across sites at startup.
///
/// The paper initializes AV "delivered to all the sites initially from the
/// base DB" without fixing a split; Fig. 1 shows an uneven (40/20/40)
/// example. The experiment A6 sweeps these policies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AvAllocation {
    /// Every site receives `total / n_sites` (remainder to the base site).
    #[default]
    Uniform,
    /// The base site keeps everything; retailers start at zero and must
    /// request AV before their first decrement.
    AllAtBase,
    /// The base site keeps half; the rest is split uniformly across
    /// retailers — a stand-in for "demand-proportional" when all retailers
    /// are statistically identical.
    HalfAtBase,
    /// Explicit per-mille weights per site, applied in site order. Must sum
    /// to 1000. Allows reproducing Fig. 1's 40/20/40 example exactly.
    Weighted,
}

/// Which peer the accelerator's *selecting* function asks for AV.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectStrategyKind {
    /// Paper strategy: the peer believed (from possibly-stale piggybacked
    /// knowledge) to hold the most AV for the product.
    #[default]
    MostKnownAv,
    /// Cycle through peers irrespective of holdings.
    RoundRobin,
    /// Uniformly random peer.
    Random,
    /// The peer asked longest ago (spreads load like RoundRobin but adapts
    /// when requests fail).
    LeastRecentlyAsked,
}

impl fmt::Display for SelectStrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SelectStrategyKind::MostKnownAv => "most-known-av",
            SelectStrategyKind::RoundRobin => "round-robin",
            SelectStrategyKind::Random => "random",
            SelectStrategyKind::LeastRecentlyAsked => "least-recently-asked",
        };
        f.write_str(s)
    }
}

/// How much AV the *deciding* function requests and how much a grantor
/// releases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecideStrategyKind {
    /// Paper strategy (after Kawazoe et al., SODA '99): request exactly the
    /// shortage; the grantor gives half of what it holds (rounded up so a
    /// single remaining unit can still move).
    #[default]
    GrantHalf,
    /// The grantor gives everything it holds.
    GrantAll,
    /// The grantor gives exactly the requested shortage (or all it has if
    /// less).
    GrantShortage,
    /// The grantor gives `min(held, 2 × shortage)` — a smoothing compromise
    /// that pre-positions some slack at the requester.
    GrantDoubleShortage,
}

impl fmt::Display for DecideStrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DecideStrategyKind::GrantHalf => "grant-half",
            DecideStrategyKind::GrantAll => "grant-all",
            DecideStrategyKind::GrantShortage => "grant-shortage",
            DecideStrategyKind::GrantDoubleShortage => "grant-double-shortage",
        };
        f.write_str(s)
    }
}

/// Network latency model for the discrete-event simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every link delivers in exactly `ticks`.
    Fixed {
        /// One-way message delay in ticks.
        ticks: u64,
    },
    /// Delivery in `base + jitter` where jitter is drawn uniformly from
    /// `0..=spread` by the (seeded, deterministic) simulator RNG.
    Jittered {
        /// Minimum one-way delay.
        base: u64,
        /// Maximum extra delay.
        spread: u64,
    },
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Fixed { ticks: 1 }
    }
}

/// Full static configuration of one system instance.
///
/// Build with [`SystemConfig::builder`]; `validate` is called on `build` so
/// a constructed config is always internally consistent.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of sites including the base site (≥ 2 for any distribution
    /// to happen; the paper uses 3).
    pub n_sites: usize,
    /// Product catalog, identical at all sites.
    pub catalog: Vec<CatalogEntry>,
    /// System-wide initial AV per regular product. Defaults to the
    /// product's initial stock (AV can never exceed real stock if
    /// decrements must be coverable).
    pub initial_av: Vec<Volume>,
    /// How `initial_av` is split across sites.
    pub av_allocation: AvAllocation,
    /// Per-mille weights for [`AvAllocation::Weighted`]; empty otherwise.
    pub av_weights: Vec<u32>,
    /// Peer-selection strategy for AV requests.
    pub select: SelectStrategyKind,
    /// Volume-deciding strategy for AV requests/grants.
    pub decide: DecideStrategyKind,
    /// Maximum AV request rounds before a Delay update gives up
    /// (`n_sites - 1` asks every peer once).
    pub max_av_rounds: usize,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Lazy-propagation batching: a site flushes its committed-delta log to
    /// peers after this many local commits (1 = propagate each commit).
    pub propagation_batch: usize,
    /// Ticks between periodic anti-entropy rounds (each site retransmits
    /// everything peers have not acknowledged). 0 disables the timer; the
    /// harness then drives convergence with explicit flushes. Repairs
    /// partition-era propagation loss without operator action.
    pub anti_entropy_interval: u64,
    /// Proactive AV circulation (§3.4 extension, experiment A9): after a
    /// local increment mints AV, if this site's available AV exceeds
    /// twice the believed mean of its peers, push half the surplus to the
    /// believed-poorest peer. Costs push/ack pairs up front to save
    /// request/grant pairs (and retailer-visible latency) later.
    pub proactive_push: bool,
    /// Parallel shortage fan-out width: on an AV shortage, partition the
    /// missing volume across up to this many top-known-AV peers and issue
    /// the requests concurrently instead of one serial round trip per
    /// peer. `0` or `1` keeps the paper's serial selecting/deciding loop.
    /// The per-update peer budget (`max_av_rounds`) still applies across
    /// all bursts.
    #[serde(default)]
    pub shortage_fanout: usize,
    /// Coalesced replication frames: fold a multi-delta propagation batch
    /// into one net-delta-per-product frame, acked by log watermark. Cuts
    /// message bytes (and receiver work) for `propagation_batch > 1` and
    /// for anti-entropy retransmissions; disabled by default to keep the
    /// per-update delta stream byte-compatible.
    #[serde(default)]
    pub coalesce_propagation: bool,
    /// Probability that the network silently drops any given message
    /// (fault-injection knob; 0.0 = reliable links). Replication repairs
    /// itself through retransmission; in-flight AV grants are destroyed
    /// by a drop, so conservation weakens to an inequality under loss.
    pub drop_probability: f64,
    /// Head-based trace sampling rate in `[0, 1]`: the fraction of traces
    /// whose full span trees are retained. Unsampled traces keep only
    /// their root span (commit latency survives at any rate) plus
    /// whatever retroactive promotion rescues (aborts, shortage paths,
    /// latency outliers). `None` (the default) keeps every trace whose
    /// origin sequence is below `avdb_telemetry::FULL_TRACES_PER_ORIGIN`
    /// (16 384 per site) and head-samples the rest at
    /// `avdb_telemetry::AUTO_SCALE_SAMPLE_RATE` (1 %), so a long-running
    /// site's span memory stops growing with its history.
    #[serde(default)]
    pub trace_sample_rate: Option<f64>,
    /// Fraction of *anomalous* traces (aborts, shortage paths, latency
    /// outliers) rescued from the head sampler's discard set, in `[0, 1]`.
    /// The decision is a deterministic pure function of the trace id
    /// shared by every site, so a rescued span's cross-site parent is
    /// always rescued too. `None` (the wire default) means 1.0 — every
    /// anomaly keeps its full tree, the historical behaviour. Scale-up
    /// benchmark cells dial this down: on a saturated cell where nearly
    /// every update shorts, full rescue would quietly retain every trace
    /// and defeat the sampler entirely.
    #[serde(default)]
    pub anomaly_keep_rate: Option<f64>,
    /// Width (in sim ticks) of the telemetry time-series windows: every
    /// `series_window_ticks` the accelerator rolls its registry into one
    /// window of counter deltas / gauge last-values / histogram deltas,
    /// held in a bounded per-site ring and watched by the anomaly
    /// watchdog. `0` (the default, and the wire default for configs
    /// serialized before the knob existed) disables the series plane.
    #[serde(default)]
    pub series_window_ticks: u64,
    /// RNG seed for all stochastic pieces (workload, jitter, random
    /// strategies). Same seed + same config ⇒ identical run.
    pub seed: u64,
}

impl SystemConfig {
    /// Starts building a config.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::default()
    }

    /// Number of retailer sites.
    pub fn n_retailers(&self) -> usize {
        self.n_sites.saturating_sub(1)
    }

    /// Number of products in the catalog.
    pub fn n_products(&self) -> usize {
        self.catalog.len()
    }

    /// Catalog entry lookup.
    pub fn entry(&self, product: ProductId) -> Result<&CatalogEntry> {
        self.catalog
            .get(product.index())
            .ok_or(AvdbError::UnknownProduct(product))
    }

    /// Initial system-wide AV for `product` (zero for non-regular products).
    pub fn initial_av_of(&self, product: ProductId) -> Volume {
        self.initial_av.get(product.index()).copied().unwrap_or(Volume::ZERO)
    }

    /// Splits `total` AV across `n_sites` according to the allocation
    /// policy; the returned vector sums exactly to `total`.
    pub fn split_av(&self, total: Volume) -> Vec<Volume> {
        let n = self.n_sites as i64;
        let t = total.get();
        let mut shares = vec![0i64; self.n_sites];
        match self.av_allocation {
            AvAllocation::Uniform => {
                let each = t / n;
                for s in shares.iter_mut() {
                    *s = each;
                }
                shares[0] += t - each * n;
            }
            AvAllocation::AllAtBase => {
                shares[0] = t;
            }
            AvAllocation::HalfAtBase => {
                let base = t / 2;
                shares[0] = base;
                let rest = t - base;
                let retailers = (n - 1).max(1);
                let each = rest / retailers;
                for s in shares.iter_mut().skip(1) {
                    *s = each;
                }
                shares[0] += rest - each * retailers.min(n - 1).max(0);
                if self.n_sites == 1 {
                    shares[0] = t;
                }
            }
            AvAllocation::Weighted => {
                let mut assigned = 0i64;
                for (i, w) in self.av_weights.iter().enumerate().take(self.n_sites) {
                    shares[i] = t * (*w as i64) / 1000;
                    assigned += shares[i];
                }
                shares[0] += t - assigned;
            }
        }
        debug_assert_eq!(shares.iter().sum::<i64>(), t);
        shares.into_iter().map(Volume).collect()
    }

    /// Checks internal consistency; called by the builder.
    pub fn validate(&self) -> Result<()> {
        if self.n_sites < 1 {
            return Err(AvdbError::InvalidConfig("n_sites must be >= 1".into()));
        }
        if self.catalog.is_empty() {
            return Err(AvdbError::InvalidConfig("catalog must not be empty".into()));
        }
        for (i, e) in self.catalog.iter().enumerate() {
            if e.id.index() != i {
                return Err(AvdbError::InvalidConfig(format!(
                    "catalog entry {i} has non-dense id {}",
                    e.id
                )));
            }
            if e.initial_stock.is_negative() {
                return Err(AvdbError::InvalidConfig(format!(
                    "negative initial stock for {}",
                    e.id
                )));
            }
        }
        if self.initial_av.len() != self.catalog.len() {
            return Err(AvdbError::InvalidConfig(
                "initial_av length must match catalog length".into(),
            ));
        }
        for (i, av) in self.initial_av.iter().enumerate() {
            if av.is_negative() {
                return Err(AvdbError::InvalidConfig(format!(
                    "negative initial AV for product{i}"
                )));
            }
            if !self.catalog[i].class.uses_av() && av.is_positive() {
                return Err(AvdbError::InvalidConfig(format!(
                    "non-regular product{i} must have zero AV"
                )));
            }
            if *av > self.catalog[i].initial_stock {
                return Err(AvdbError::InvalidConfig(format!(
                    "product{i} has more initial AV ({av}) than stock ({})",
                    self.catalog[i].initial_stock
                )));
            }
        }
        if self.av_allocation == AvAllocation::Weighted {
            if self.av_weights.len() != self.n_sites {
                return Err(AvdbError::InvalidConfig(
                    "av_weights length must equal n_sites".into(),
                ));
            }
            let sum: u32 = self.av_weights.iter().sum();
            if sum != 1000 {
                return Err(AvdbError::InvalidConfig(format!(
                    "av_weights must sum to 1000 per-mille, got {sum}"
                )));
            }
        }
        if self.max_av_rounds == 0 {
            return Err(AvdbError::InvalidConfig("max_av_rounds must be >= 1".into()));
        }
        if self.propagation_batch == 0 {
            return Err(AvdbError::InvalidConfig("propagation_batch must be >= 1".into()));
        }
        if !(0.0..1.0).contains(&self.drop_probability) {
            return Err(AvdbError::InvalidConfig(format!(
                "drop_probability must be in [0, 1), got {}",
                self.drop_probability
            )));
        }
        if let Some(rate) = self.trace_sample_rate {
            if !(0.0..=1.0).contains(&rate) {
                return Err(AvdbError::InvalidConfig(format!(
                    "trace_sample_rate must be in [0, 1], got {rate}"
                )));
            }
        }
        if let Some(rate) = self.anomaly_keep_rate {
            if !(0.0..=1.0).contains(&rate) {
                return Err(AvdbError::InvalidConfig(format!(
                    "anomaly_keep_rate must be in [0, 1], got {rate}"
                )));
            }
        }
        Ok(())
    }

    /// Effective anomaly rescue rate (`None` ⇒ 1.0, rescue every
    /// anomalous trace from the head sampler).
    pub fn anomaly_keep(&self) -> f64 {
        self.anomaly_keep_rate.unwrap_or(1.0)
    }
}

/// Fluent builder for [`SystemConfig`].
#[derive(Clone, Debug)]
pub struct SystemConfigBuilder {
    n_sites: usize,
    catalog: Vec<CatalogEntry>,
    initial_av: Option<Vec<Volume>>,
    av_allocation: AvAllocation,
    av_weights: Vec<u32>,
    select: SelectStrategyKind,
    decide: DecideStrategyKind,
    max_av_rounds: Option<usize>,
    latency: LatencyModel,
    propagation_batch: usize,
    anti_entropy_interval: u64,
    proactive_push: bool,
    shortage_fanout: usize,
    coalesce_propagation: bool,
    drop_probability: f64,
    trace_sample_rate: Option<f64>,
    anomaly_keep_rate: Option<f64>,
    series_window_ticks: u64,
    seed: u64,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        SystemConfigBuilder {
            n_sites: 3,
            catalog: Vec::new(),
            initial_av: None,
            av_allocation: AvAllocation::default(),
            av_weights: Vec::new(),
            select: SelectStrategyKind::default(),
            decide: DecideStrategyKind::default(),
            max_av_rounds: None,
            latency: LatencyModel::default(),
            propagation_batch: 1,
            anti_entropy_interval: 0,
            proactive_push: false,
            shortage_fanout: 0,
            coalesce_propagation: false,
            drop_probability: 0.0,
            trace_sample_rate: None,
            anomaly_keep_rate: None,
            series_window_ticks: 0,
            seed: 0,
        }
    }
}

impl SystemConfigBuilder {
    /// Sets the number of sites (default 3, like the paper).
    pub fn sites(mut self, n: usize) -> Self {
        self.n_sites = n;
        self
    }

    /// Replaces the catalog.
    pub fn catalog(mut self, catalog: Vec<CatalogEntry>) -> Self {
        self.catalog = catalog;
        self
    }

    /// Appends `n` regular products each with `initial_stock`.
    pub fn regular_products(mut self, n: usize, initial_stock: Volume) -> Self {
        let start = self.catalog.len() as u32;
        for i in 0..n as u32 {
            self.catalog.push(CatalogEntry::new(
                ProductId(start + i),
                ProductClass::Regular,
                initial_stock,
            ));
        }
        self
    }

    /// Appends `n` non-regular products each with `initial_stock`.
    pub fn non_regular_products(mut self, n: usize, initial_stock: Volume) -> Self {
        let start = self.catalog.len() as u32;
        for i in 0..n as u32 {
            self.catalog.push(CatalogEntry::new(
                ProductId(start + i),
                ProductClass::NonRegular,
                initial_stock,
            ));
        }
        self
    }

    /// Overrides the system-wide initial AV per product (defaults to the
    /// initial stock for regular products, zero for non-regular).
    pub fn initial_av(mut self, av: Vec<Volume>) -> Self {
        self.initial_av = Some(av);
        self
    }

    /// Sets the AV split policy.
    pub fn av_allocation(mut self, a: AvAllocation) -> Self {
        self.av_allocation = a;
        self
    }

    /// Sets per-mille weights and switches to [`AvAllocation::Weighted`].
    pub fn av_weights(mut self, weights: Vec<u32>) -> Self {
        self.av_weights = weights;
        self.av_allocation = AvAllocation::Weighted;
        self
    }

    /// Sets the selection strategy.
    pub fn select(mut self, s: SelectStrategyKind) -> Self {
        self.select = s;
        self
    }

    /// Sets the deciding strategy.
    pub fn decide(mut self, d: DecideStrategyKind) -> Self {
        self.decide = d;
        self
    }

    /// Sets the AV request round limit (default: every peer once).
    pub fn max_av_rounds(mut self, r: usize) -> Self {
        self.max_av_rounds = Some(r);
        self
    }

    /// Sets the latency model.
    pub fn latency(mut self, l: LatencyModel) -> Self {
        self.latency = l;
        self
    }

    /// Sets propagation batching (default 1).
    pub fn propagation_batch(mut self, b: usize) -> Self {
        self.propagation_batch = b;
        self
    }

    /// Enables periodic anti-entropy every `ticks` (0 disables; default).
    pub fn anti_entropy_interval(mut self, ticks: u64) -> Self {
        self.anti_entropy_interval = ticks;
        self
    }

    /// Enables proactive AV circulation (default off).
    pub fn proactive_push(mut self, on: bool) -> Self {
        self.proactive_push = on;
        self
    }

    /// Sets the parallel shortage fan-out width (default 0 = serial).
    pub fn shortage_fanout(mut self, k: usize) -> Self {
        self.shortage_fanout = k;
        self
    }

    /// Enables coalesced (net-delta-per-product) replication frames
    /// (default off).
    pub fn coalesce_propagation(mut self, on: bool) -> Self {
        self.coalesce_propagation = on;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the probability that any message is silently dropped in
    /// transit (default 0.0 — reliable links).
    pub fn drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Sets the head-based trace sampling rate in `[0, 1]` (default: 1.0,
    /// retain every span).
    pub fn trace_sample_rate(mut self, rate: f64) -> Self {
        self.trace_sample_rate = Some(rate);
        self
    }

    /// Sets the anomaly rescue rate (default `None` ⇒ 1.0, rescue every
    /// aborted / shortage-path / outlier trace from the head sampler).
    pub fn anomaly_keep_rate(mut self, rate: f64) -> Self {
        self.anomaly_keep_rate = Some(rate);
        self
    }

    /// Sets the telemetry time-series window width in sim ticks
    /// (default 0 — series plane off).
    pub fn series_window_ticks(mut self, ticks: u64) -> Self {
        self.series_window_ticks = ticks;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<SystemConfig> {
        let initial_av = self.initial_av.unwrap_or_else(|| {
            self.catalog
                .iter()
                .map(|e| if e.class.uses_av() { e.initial_stock } else { Volume::ZERO })
                .collect()
        });
        let cfg = SystemConfig {
            n_sites: self.n_sites,
            initial_av,
            av_allocation: self.av_allocation,
            av_weights: self.av_weights,
            select: self.select,
            decide: self.decide,
            max_av_rounds: self.max_av_rounds.unwrap_or(self.n_sites.saturating_sub(1).max(1)),
            latency: self.latency,
            propagation_batch: self.propagation_batch,
            anti_entropy_interval: self.anti_entropy_interval,
            proactive_push: self.proactive_push,
            shortage_fanout: self.shortage_fanout,
            coalesce_propagation: self.coalesce_propagation,
            drop_probability: self.drop_probability,
            trace_sample_rate: self.trace_sample_rate,
            anomaly_keep_rate: self.anomaly_keep_rate,
            series_window_ticks: self.series_window_ticks,
            seed: self.seed,
            catalog: self.catalog,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SystemConfigBuilder {
        SystemConfig::builder().sites(3).regular_products(2, Volume(100))
    }

    #[test]
    fn trace_sample_rate_validates_and_defaults_to_full() {
        let cfg = base().build().unwrap();
        assert_eq!(cfg.trace_sample_rate, None);
        let cfg = base().trace_sample_rate(0.01).build().unwrap();
        assert_eq!(cfg.trace_sample_rate, Some(0.01));
        assert!(base().trace_sample_rate(1.5).build().is_err());
        assert!(base().trace_sample_rate(-0.1).build().is_err());
    }

    #[test]
    fn builder_defaults_match_paper() {
        let cfg = base().build().unwrap();
        assert_eq!(cfg.n_sites, 3);
        assert_eq!(cfg.n_retailers(), 2);
        assert_eq!(cfg.select, SelectStrategyKind::MostKnownAv);
        assert_eq!(cfg.decide, DecideStrategyKind::GrantHalf);
        assert_eq!(cfg.max_av_rounds, 2);
        assert_eq!(cfg.initial_av, vec![Volume(100), Volume(100)]);
    }

    #[test]
    fn non_regular_products_default_zero_av() {
        let cfg = SystemConfig::builder()
            .sites(3)
            .regular_products(1, Volume(100))
            .non_regular_products(1, Volume(50))
            .build()
            .unwrap();
        assert_eq!(cfg.initial_av, vec![Volume(100), Volume::ZERO]);
    }

    #[test]
    fn uniform_split_sums_to_total() {
        let cfg = base().build().unwrap();
        let split = cfg.split_av(Volume(100));
        assert_eq!(split.iter().copied().sum::<Volume>(), Volume(100));
        assert_eq!(split[1], split[2]);
        // Remainder goes to the base site.
        assert_eq!(split[0], Volume(34));
    }

    #[test]
    fn all_at_base_split() {
        let cfg = base().av_allocation(AvAllocation::AllAtBase).build().unwrap();
        assert_eq!(cfg.split_av(Volume(99)), vec![Volume(99), Volume::ZERO, Volume::ZERO]);
    }

    #[test]
    fn weighted_split_reproduces_fig1() {
        // Fig. 1 of the paper: AV of 40/20/40 for a total of 100.
        let cfg = base().av_weights(vec![400, 200, 400]).build().unwrap();
        assert_eq!(cfg.split_av(Volume(100)), vec![Volume(40), Volume(20), Volume(40)]);
    }

    #[test]
    fn weighted_split_requires_weights() {
        let err = base().av_weights(vec![500, 500]).build().unwrap_err();
        assert!(matches!(err, AvdbError::InvalidConfig(_)));
        let err = base().av_weights(vec![500, 300, 100]).build().unwrap_err();
        assert!(matches!(err, AvdbError::InvalidConfig(_)));
    }

    #[test]
    fn half_at_base_split_sums() {
        let cfg = base().av_allocation(AvAllocation::HalfAtBase).build().unwrap();
        let split = cfg.split_av(Volume(101));
        assert_eq!(split.iter().copied().sum::<Volume>(), Volume(101));
        assert!(split[0] >= Volume(50));
    }

    #[test]
    fn rejects_empty_catalog_and_bad_av() {
        assert!(SystemConfig::builder().sites(3).build().is_err());
        let err = base().initial_av(vec![Volume(1)]).build().unwrap_err();
        assert!(matches!(err, AvdbError::InvalidConfig(_)));
        let err = base().initial_av(vec![Volume(-1), Volume(0)]).build().unwrap_err();
        assert!(matches!(err, AvdbError::InvalidConfig(_)));
        // More AV than stock would let the sites jointly sell what does
        // not exist.
        let err = base().initial_av(vec![Volume(101), Volume(0)]).build().unwrap_err();
        assert!(matches!(err, AvdbError::InvalidConfig(_)));
        assert!(base().initial_av(vec![Volume(100), Volume(0)]).build().is_ok());
    }

    #[test]
    fn rejects_positive_av_on_non_regular() {
        let err = SystemConfig::builder()
            .sites(3)
            .non_regular_products(1, Volume(10))
            .initial_av(vec![Volume(5)])
            .build()
            .unwrap_err();
        assert!(matches!(err, AvdbError::InvalidConfig(_)));
    }

    #[test]
    fn entry_lookup() {
        let cfg = base().build().unwrap();
        assert!(cfg.entry(ProductId(0)).is_ok());
        assert_eq!(
            cfg.entry(ProductId(9)).unwrap_err(),
            AvdbError::UnknownProduct(ProductId(9))
        );
    }

    #[test]
    fn serde_round_trip() {
        let cfg = base().seed(42).build().unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        assert_eq!(cfg, serde_json::from_str::<SystemConfig>(&json).unwrap());
    }

    #[test]
    fn fast_lane_knobs_default_off_and_round_trip() {
        let cfg = base().build().unwrap();
        assert_eq!(cfg.shortage_fanout, 0);
        assert!(!cfg.coalesce_propagation);

        let cfg = base()
            .shortage_fanout(3)
            .coalesce_propagation(true)
            .build()
            .unwrap();
        assert_eq!(cfg.shortage_fanout, 3);
        assert!(cfg.coalesce_propagation);
        let json = serde_json::to_string(&cfg).unwrap();
        assert_eq!(cfg, serde_json::from_str::<SystemConfig>(&json).unwrap());

        // Configs serialized before the knobs existed still deserialize:
        // strip the new keys from the JSON text and reparse.
        let stripped = json
            .replace("\"shortage_fanout\":3,", "")
            .replace("\"coalesce_propagation\":true,", "");
        assert_ne!(stripped, json, "the knobs serialize under their field names");
        let old: SystemConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.shortage_fanout, 0);
        assert!(!old.coalesce_propagation);
    }

    #[test]
    fn series_window_defaults_off_and_round_trips() {
        let cfg = base().build().unwrap();
        assert_eq!(cfg.series_window_ticks, 0, "series plane is opt-in");

        let cfg = base().series_window_ticks(250).build().unwrap();
        assert_eq!(cfg.series_window_ticks, 250);
        let json = serde_json::to_string(&cfg).unwrap();
        assert_eq!(cfg, serde_json::from_str::<SystemConfig>(&json).unwrap());

        // Configs serialized before the knob existed still deserialize.
        let stripped = json.replace("\"series_window_ticks\":250,", "");
        assert_ne!(stripped, json);
        let old: SystemConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old.series_window_ticks, 0);
    }
}
