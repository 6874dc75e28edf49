//! The unified metrics registry: named counters, gauges, and log-scale
//! histograms, one instance per site (plus one for the network substrate).
//!
//! Keys are dotted paths (`"msg.kind.av-request"`, `"delay.shortage"`).
//! The registry is deliberately dependency-free and deterministic: no
//! clocks, no atomics — the owning runtime is already single-threaded per
//! site, and snapshots are plain serializable values.
//!
//! # Interned hot path
//!
//! Every metric name can be resolved **once** at registration into a
//! dense [`MetricId`] (one id space per kind), after which updates are
//! plain indexed stores with no hashing, no `BTreeMap` walk, and no
//! `String` allocation — the contract the 10⁵-update bench cells need.
//! The string-keyed methods ([`Registry::inc`], [`Registry::set_gauge`],
//! [`Registry::observe`], …) remain as a lookup shim for cold paths and
//! tests. Registration alone does not make a metric visible: snapshots
//! contain only metrics that were actually written, so interning ahead
//! of time never changes the exported shape.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Power-of-two bucketed histogram: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`. 64 buckets cover all of `u64`.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, max: 0, buckets: [0; BUCKETS] }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-quantile (`0 < p ≤ 1`), linearly interpolated within the
    /// containing log₂ bucket. An estimate by construction: log-scale
    /// buckets trade precision for constant space.
    pub fn percentile(&self, p: f64) -> u64 {
        let buckets = self.buckets.iter().enumerate().map(|(i, n)| (i as u32, *n));
        HistogramSnapshot::percentile_over(self.count, self.max, buckets, p)
    }

    /// Serializable view (only non-empty buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| (i as u32, *n))
                .collect(),
        }
    }

    /// The observations recorded since `baseline` (an earlier state of
    /// this same histogram), as a mergeable snapshot. Bucket counts and
    /// `count`/`sum` subtract exactly; `max` is the running max at the
    /// window's end (per-window maxima are not recoverable from
    /// cumulative state), which keeps `merge` over consecutive deltas
    /// equal to the full-range snapshot.
    pub fn delta_snapshot(&self, baseline: &Histogram) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        self.delta_snapshot_into(baseline, &mut out);
        out
    }

    /// As [`Histogram::delta_snapshot`], but writing into a caller-owned
    /// snapshot whose bucket allocation is reused — the series roller's
    /// steady-state path, which must not allocate per window.
    pub fn delta_snapshot_into(&self, baseline: &Histogram, out: &mut HistogramSnapshot) {
        out.count = self.count - baseline.count;
        out.sum = self.sum.saturating_sub(baseline.sum);
        out.max = if self.count > baseline.count { self.max } else { 0 };
        out.buckets.clear();
        for (i, (now, was)) in self.buckets.iter().zip(baseline.buckets.iter()).enumerate() {
            if now > was {
                out.buckets.push((i as u32, now - was));
            }
        }
    }

    /// Advances this histogram by a delta previously taken against it —
    /// the allocation-free way to move a series baseline forward (the
    /// few non-empty delta buckets beat re-copying all 65).
    pub fn apply_delta(&mut self, delta: &HistogramSnapshot) {
        self.count += delta.count;
        self.sum = self.sum.saturating_add(delta.sum);
        self.max = self.max.max(delta.max);
        for &(i, n) in &delta.buckets {
            self.buckets[i as usize] += n;
        }
    }
}

/// Serializable view of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// `(bucket index, count)` for non-empty buckets, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `i` (0 → 0, else `2^i − 1`).
    fn bucket_upper(i: u32) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << (i - 1)).saturating_mul(2).saturating_sub(1)
        }
    }

    /// Lower bound of bucket `i` (0 → 0, else `2^(i−1)`).
    fn bucket_lower(i: u32) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// The `p`-quantile, linearly interpolated within the containing
    /// bucket by rank position. Returning the raw bucket upper bound
    /// would quantize every readout to `2^i − 1`; interpolation keeps the
    /// estimate monotone in `p` without extra space. Pure integer
    /// arithmetic (deterministic), clamped to the observed max.
    pub fn percentile(&self, p: f64) -> u64 {
        Self::percentile_over(self.count, self.max, self.buckets.iter().copied(), p)
    }

    /// [`HistogramSnapshot::percentile`] over `(bucket, count)` pairs in
    /// bucket order. Empty buckets may be included: the walk never stops
    /// in one.
    fn percentile_over(
        count: u64,
        max: u64,
        buckets: impl IntoIterator<Item = (u32, u64)>,
        p: f64,
    ) -> u64 {
        if count == 0 {
            return 0;
        }
        let target = ((p * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (i, n) in buckets {
            if seen + n >= target {
                let pos = target - seen; // 1..=n, rank within the bucket
                let lower = Self::bucket_lower(i);
                let width = Self::bucket_upper(i) - lower;
                let v = lower + ((width as u128 * pos as u128) / n as u128) as u64;
                return v.min(max);
            }
            seen += n;
        }
        max
    }

    /// Mean observation, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Plain-text bucket chart, one `[lo, hi] count ∎∎∎` line per
    /// non-empty bucket.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let peak = self.buckets.iter().map(|(_, n)| *n).max().unwrap_or(0).max(1);
        for (i, n) in &self.buckets {
            let bar = "∎".repeat(((n * 40).div_ceil(peak)) as usize);
            let _ = writeln!(
                out,
                "  [{:>6}, {:>6}] {:>8}  {}",
                Self::bucket_lower(*i),
                Self::bucket_upper(*i),
                n,
                bar
            );
        }
        out
    }

    /// Folds another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for (i, n) in &other.buckets {
            *merged.entry(*i).or_default() += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// Dense handle to one registered metric. Ids are per-kind (counter ids,
/// gauge ids, and histogram ids live in separate spaces) and are stable
/// for the life of the registry that minted them.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId(u32);

impl MetricId {
    /// The dense index behind this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a dense index (only valid against the
    /// registry and kind that minted it).
    pub fn from_index(i: usize) -> MetricId {
        MetricId(i as u32)
    }
}

/// One kind's dense storage: values indexed by [`MetricId`], a name
/// table for snapshot resolution, and touched flags so registration
/// alone never leaks a zero entry into exports.
#[derive(Clone, Debug, Default)]
struct MetricTable<T> {
    names: Vec<String>,
    index: HashMap<String, u32>,
    values: Vec<T>,
    touched: Vec<bool>,
}

impl<T: Default> MetricTable<T> {
    fn id(&mut self, name: &str) -> MetricId {
        if let Some(&i) = self.index.get(name) {
            return MetricId(i);
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        self.values.push(T::default());
        self.touched.push(false);
        MetricId(i)
    }

    fn lookup(&self, name: &str) -> Option<MetricId> {
        self.index.get(name).map(|&i| MetricId(i))
    }

    /// Touched `(name, value)` pairs in name order (cold path only).
    fn sorted_touched(&self) -> Vec<(&str, &T)> {
        let mut out: Vec<(&str, &T)> = self
            .names
            .iter()
            .zip(self.values.iter())
            .zip(self.touched.iter())
            .filter(|(_, t)| **t)
            .map(|((n, v), _)| (n.as_str(), v))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }
}

/// A per-site registry of named counters, gauges, and histograms.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: MetricTable<u64>,
    gauges: MetricTable<i64>,
    histograms: MetricTable<Histogram>,
    /// Counter ids that moved since the last [`Registry::clear_dirty`],
    /// in first-mutation order — the series roller's incremental view,
    /// so a window roll visits only what changed instead of every
    /// registered metric. At most one entry per id (`counter_in_dirty`
    /// dedupes), so the lists stay bounded even with the series plane
    /// off.
    dirty_counters: Vec<u32>,
    counter_in_dirty: Vec<bool>,
    dirty_histograms: Vec<u32>,
    histogram_in_dirty: Vec<bool>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    // ---- registration (resolve a name to a dense id, once) ---------------

    /// Interns a counter name. Idempotent; does not make the counter
    /// visible in snapshots until it is written.
    pub fn counter_id(&mut self, name: &str) -> MetricId {
        let id = self.counters.id(name);
        self.counter_in_dirty.resize(self.counters.values.len(), false);
        id
    }

    /// Interns a gauge name (see [`Registry::counter_id`]).
    pub fn gauge_id(&mut self, name: &str) -> MetricId {
        self.gauges.id(name)
    }

    /// Interns a histogram name (see [`Registry::counter_id`]).
    pub fn histogram_id(&mut self, name: &str) -> MetricId {
        let id = self.histograms.id(name);
        self.histogram_in_dirty.resize(self.histograms.values.len(), false);
        id
    }

    /// Looks up an already-interned counter without registering it.
    pub fn find_counter(&self, name: &str) -> Option<MetricId> {
        self.counters.lookup(name)
    }

    /// Looks up an already-interned gauge without registering it.
    pub fn find_gauge(&self, name: &str) -> Option<MetricId> {
        self.gauges.lookup(name)
    }

    /// Looks up an already-interned histogram without registering it.
    pub fn find_histogram(&self, name: &str) -> Option<MetricId> {
        self.histograms.lookup(name)
    }

    // ---- interned hot path (no hashing, no allocation) -------------------

    /// Adds 1 to a registered counter.
    #[inline]
    pub fn inc_id(&mut self, id: MetricId) {
        self.add_id(id, 1);
    }

    /// Adds `n` to a registered counter.
    #[inline]
    pub fn add_id(&mut self, id: MetricId, n: u64) {
        let i = id.index();
        self.counters.values[i] += n;
        self.counters.touched[i] = true;
        if n > 0 && !self.counter_in_dirty[i] {
            self.counter_in_dirty[i] = true;
            self.dirty_counters.push(i as u32);
        }
    }

    /// Current value of a registered counter.
    #[inline]
    pub fn counter_value(&self, id: MetricId) -> u64 {
        self.counters.values[id.index()]
    }

    /// Sets a registered gauge to an absolute value.
    #[inline]
    pub fn set_gauge_id(&mut self, id: MetricId, value: i64) {
        let i = id.index();
        self.gauges.values[i] = value;
        self.gauges.touched[i] = true;
    }

    /// Current value of a registered gauge.
    #[inline]
    pub fn gauge_value(&self, id: MetricId) -> i64 {
        self.gauges.values[id.index()]
    }

    /// Records one observation into a registered histogram.
    #[inline]
    pub fn observe_id(&mut self, id: MetricId, value: u64) {
        let i = id.index();
        self.histograms.values[i].observe(value);
        self.histograms.touched[i] = true;
        if !self.histogram_in_dirty[i] {
            self.histogram_in_dirty[i] = true;
            self.dirty_histograms.push(i as u32);
        }
    }

    // ---- dense iteration (the time-series roller's view) -----------------

    /// Number of registered counters (ids are `0..len`).
    pub fn counters_len(&self) -> usize {
        self.counters.values.len()
    }

    /// Number of registered gauges.
    pub fn gauges_len(&self) -> usize {
        self.gauges.values.len()
    }

    /// Number of registered histograms.
    pub fn histograms_len(&self) -> usize {
        self.histograms.values.len()
    }

    /// Name of a registered counter.
    pub fn counter_name(&self, id: MetricId) -> &str {
        &self.counters.names[id.index()]
    }

    /// Name of a registered gauge.
    pub fn gauge_name(&self, id: MetricId) -> &str {
        &self.gauges.names[id.index()]
    }

    /// Name of a registered histogram.
    pub fn histogram_name(&self, id: MetricId) -> &str {
        &self.histograms.names[id.index()]
    }

    /// Whether a registered gauge has ever been written.
    pub fn gauge_touched(&self, id: MetricId) -> bool {
        self.gauges.touched[id.index()]
    }

    /// A registered histogram's live state.
    pub fn histogram_value(&self, id: MetricId) -> &Histogram {
        &self.histograms.values[id.index()]
    }

    // ---- dirty tracking (the series roller's drain) ----------------------

    /// Counter ids written (with a non-zero delta) since the last
    /// [`Registry::clear_dirty`], in first-mutation order. Counters are
    /// monotone, so every listed id carries a positive delta against any
    /// baseline taken at the last clear.
    pub fn dirty_counter_ids(&self) -> &[u32] {
        &self.dirty_counters
    }

    /// Histogram ids observed since the last [`Registry::clear_dirty`].
    pub fn dirty_histogram_ids(&self) -> &[u32] {
        &self.dirty_histograms
    }

    /// Resets the dirty sets. Called by the (single) series recorder
    /// after it advances its baselines past a recorded window; anything
    /// written after this call shows up in the next drain.
    pub fn clear_dirty(&mut self) {
        for &i in &self.dirty_counters {
            self.counter_in_dirty[i as usize] = false;
        }
        self.dirty_counters.clear();
        for &i in &self.dirty_histograms {
            self.histogram_in_dirty[i as usize] = false;
        }
        self.dirty_histograms.clear();
    }

    // ---- string-keyed shim (cold paths, tests) ---------------------------

    /// Adds 1 to a counter (creating it at 0).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to a counter (creating it at 0).
    pub fn add(&mut self, name: &str, n: u64) {
        let id = self.counter_id(name);
        self.add_id(id, n);
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        match self.counters.lookup(name) {
            Some(id) if self.counters.touched[id.index()] => self.counter_value(id),
            _ => 0,
        }
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters_with_prefix(prefix).map(|(_, n)| n).sum()
    }

    /// `(name, value)` for every touched counter with the given prefix,
    /// in name order.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        let hits: Vec<(&str, u64)> = self
            .counters
            .sorted_touched()
            .into_iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k, *v))
            .collect();
        hits.into_iter()
    }

    /// Sets a gauge to an absolute value.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        let id = self.gauges.id(name);
        self.set_gauge_id(id, value);
    }

    /// Current gauge value (0 if never set).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.gauges.lookup(name) {
            Some(id) if self.gauges.touched[id.index()] => self.gauge_value(id),
            _ => 0,
        }
    }

    /// Records one observation into a histogram (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        let id = self.histogram_id(name);
        self.observe_id(id, value);
    }

    /// A histogram by name (`None` until its first observation).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.histograms.lookup(name) {
            Some(id) if self.histograms.touched[id.index()] => {
                Some(&self.histograms.values[id.index()])
            }
            _ => None,
        }
    }

    /// Serializable view of everything that was ever written (registered
    /// but unwritten metrics are omitted, so interning is invisible).
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .sorted_touched()
                .into_iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: self
                .gauges
                .sorted_touched()
                .into_iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: self
                .histograms
                .sorted_touched()
                .into_iter()
                .map(|(k, h)| (k.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// Serializable view of a [`Registry`] at one instant.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-set gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Counter value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Folds another snapshot into this one: counters add, gauges sum,
    /// histograms merge bucket-wise. Used to aggregate per-site
    /// registries into a system-wide view.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_default() += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_prefix_sum() {
        let mut r = Registry::new();
        r.inc("msg.kind.av-request");
        r.add("msg.kind.av-request", 2);
        r.inc("msg.kind.av-grant");
        r.inc("other");
        assert_eq!(r.counter("msg.kind.av-request"), 3);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.counter_sum("msg.kind."), 4);
        let names: Vec<_> =
            r.counters_with_prefix("msg.kind.").map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, vec!["msg.kind.av-grant", "msg.kind.av-request"]);
    }

    #[test]
    fn gauges_hold_last_value() {
        let mut r = Registry::new();
        r.set_gauge("pending", 3);
        r.set_gauge("pending", -1);
        assert_eq!(r.gauge("pending"), -1);
        assert_eq!(r.gauge("missing"), 0);
    }

    #[test]
    fn interned_ids_hit_the_same_cells_as_names() {
        let mut r = Registry::new();
        let c = r.counter_id("msg.sent.av-request");
        let g = r.gauge_id("repl.queue.depth");
        let h = r.histogram_id("update.latency.ticks");
        r.inc_id(c);
        r.add_id(c, 4);
        r.inc("msg.sent.av-request");
        r.set_gauge_id(g, 9);
        r.observe_id(h, 12);
        r.observe("update.latency.ticks", 12);
        assert_eq!(r.counter("msg.sent.av-request"), 6);
        assert_eq!(r.counter_value(c), 6);
        assert_eq!(r.gauge("repl.queue.depth"), 9);
        assert_eq!(r.histogram("update.latency.ticks").unwrap().count(), 2);
        // Re-registering returns the same id.
        assert_eq!(r.counter_id("msg.sent.av-request"), c);
    }

    #[test]
    fn registration_without_writes_is_invisible() {
        let mut r = Registry::new();
        r.counter_id("never.written");
        r.gauge_id("never.set");
        r.histogram_id("never.observed");
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert_eq!(r.counter("never.written"), 0);
        assert!(r.histogram("never.observed").is_none());
        // A zero-add still materializes the counter, as it always has.
        r.add("never.written", 0);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        let snap = h.snapshot();
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4 → bucket 3;
        // 1000 → bucket 10.
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (10, 1)]);
    }

    #[test]
    fn delta_snapshot_subtracts_and_merges_back() {
        let mut h = Histogram::new();
        h.observe(3);
        h.observe(100);
        let baseline = h.clone();
        h.observe(7);
        h.observe(2000);
        let delta = h.delta_snapshot(&baseline);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 2007);
        assert_eq!(delta.max, 2000);
        // baseline snapshot + delta == full snapshot (count/sum/buckets).
        let mut merged = baseline.snapshot();
        merged.merge(&delta);
        assert_eq!(merged, h.snapshot());
        // An idle window deltas to an empty snapshot.
        let idle = h.delta_snapshot(&h.clone());
        assert_eq!(idle.count, 0);
        assert!(idle.buckets.is_empty());
        assert_eq!(idle.max, 0);
    }

    #[test]
    fn percentile_interpolates_within_the_bucket() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.observe(1);
        }
        h.observe(1000);
        assert_eq!(h.percentile(0.50), 1);
        assert_eq!(h.percentile(0.99), 1);
        // The tail observation lands in [512, 1023]; capped at max.
        assert_eq!(h.percentile(1.0), 1000);
        assert_eq!(Histogram::new().percentile(0.5), 0);

        // 50 fast + 50 slow: p75 is rank 25 of 50 inside [512, 1023] —
        // interpolated to 512 + 511·25/50 = 767, not snapped to 1023.
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.observe(1);
        }
        for _ in 0..50 {
            h.observe(1000);
        }
        assert_eq!(h.percentile(0.75), 767);
        assert_eq!(h.percentile(0.50), 1);
        // Monotone in p, never above the observed max.
        assert!(h.percentile(0.9) >= h.percentile(0.75));
        assert_eq!(h.percentile(1.0), 1000);
    }

    #[test]
    fn snapshot_merge_adds() {
        let mut a = Registry::new();
        a.inc("x");
        a.observe("h", 4);
        let mut b = Registry::new();
        b.add("x", 2);
        b.inc("y");
        b.observe("h", 4);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("x"), 3);
        assert_eq!(merged.counter("y"), 1);
        assert_eq!(merged.histograms["h"].count, 2);
        assert_eq!(merged.histograms["h"].sum, 8);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut r = Registry::new();
        r.inc("a.b");
        r.set_gauge("g", -7);
        r.observe("h", 12);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn render_emits_one_line_per_bucket() {
        let mut h = Histogram::new();
        h.observe(3);
        h.observe(100);
        let text = h.snapshot().render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains('∎'));
    }
}
