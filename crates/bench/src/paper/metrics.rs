//! What one experiment run records: the `(updates, correspondences)`
//! series behind Fig. 6 and Table 1, per-site counts, and virtual-time
//! commit latency.

use avdb_telemetry::RegistrySnapshot;
use avdb_types::SiteId;
use serde::{Deserialize, Serialize};

/// A named, monotonically sampled series of `(x, y)` points, e.g.
/// `x = cumulative updates`, `y = cumulative correspondences`.
///
/// ```
/// use avdb_bench::paper::metrics::Series;
///
/// let mut proposal = Series::new("proposal");
/// proposal.push(0, 0);
/// proposal.push(100, 25);
/// let mut conventional = Series::new("conventional");
/// conventional.push(0, 0);
/// conventional.push(100, 100);
///
/// // The Fig. 6 headline: final-ratio comparison.
/// assert_eq!(proposal.final_ratio_to(&conventional), Some(0.25));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label ("proposal", "conventional", …).
    pub name: String,
    /// Sample points in x order.
    pub points: Vec<(u64, u64)>,
}

impl Series {
    /// Empty series with a label.
    pub fn new(name: impl Into<String>) -> Self {
        Series { name: name.into(), points: Vec::new() }
    }

    /// Appends a sample; panics in debug builds if x regresses.
    pub fn push(&mut self, x: u64, y: u64) {
        debug_assert!(
            self.points.last().is_none_or(|&(px, _)| px <= x),
            "series x must be non-decreasing"
        );
        self.points.push((x, y));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no samples exist.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Final y value (0 for an empty series).
    pub fn last_y(&self) -> u64 {
        self.points.last().map(|&(_, y)| y).unwrap_or(0)
    }

    /// y at the largest sampled x ≤ `x` (step interpolation).
    pub fn y_at(&self, x: u64) -> u64 {
        self.points
            .iter()
            .take_while(|&&(px, _)| px <= x)
            .last()
            .map(|&(_, y)| y)
            .unwrap_or(0)
    }

    /// Least-squares slope of y over x — "correspondences per update".
    pub fn slope(&self) -> f64 {
        let n = self.points.len();
        if n < 2 {
            return 0.0;
        }
        let nf = n as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for &(x, y) in &self.points {
            let (x, y) = (x as f64, y as f64);
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let denom = nf * sxx - sx * sx;
        if denom.abs() < f64::EPSILON {
            0.0
        } else {
            (nf * sxy - sx * sy) / denom
        }
    }

    /// Ratio of this series' final y to `other`'s final y (the Fig. 6
    /// "proposal is 25% of conventional" comparison). `None` when `other`
    /// ends at zero.
    pub fn final_ratio_to(&self, other: &Series) -> Option<f64> {
        let o = other.last_y();
        (o > 0).then(|| self.last_y() as f64 / o as f64)
    }
}

/// Streaming mean and maximum (Welford's running mean), mergeable across
/// sites. O(1) memory for any number of observations.
#[derive(Clone, Debug, Default, Serialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats { count: 0, mean: 0.0, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (per-site → run totals).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = (self.count + other.count) as f64;
        self.mean += (other.mean - self.mean) * other.count as f64 / total;
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

/// Everything measured about one site over one run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct SiteStats {
    /// Updates submitted at this site.
    pub updates_issued: u64,
    /// Updates that committed.
    pub committed: u64,
    /// Updates that aborted.
    pub aborted: u64,
    /// Committed Delay updates that needed zero communication.
    pub local_commits: u64,
    /// Correspondences attributed to updates originating here
    /// (the per-site rows of Table 1).
    pub correspondences: u64,
    /// Virtual-time latency (ticks) from submission to completion.
    pub latency: OnlineStats,
}

impl SiteStats {
    /// Fraction of committed updates completed without communication.
    pub fn local_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.local_commits as f64 / self.committed as f64
        }
    }
}

/// Full record of one experiment run.
#[derive(Clone, Debug, Serialize)]
pub struct RunMetrics {
    /// Label for reports ("proposal", "conventional", "grant-all", …).
    pub label: String,
    /// Per-site breakdown, index = site id.
    pub sites: Vec<SiteStats>,
    /// Cumulative `(updates, correspondences)` series (Fig. 6 data).
    pub cumulative: Series,
    /// Per-site cumulative series (Table 1 data).
    pub per_site_series: Vec<Series>,
    /// The merged per-site telemetry registry at the end of the run
    /// (empty for systems without one, e.g. the centralized baseline).
    pub registry: RegistrySnapshot,
}

impl RunMetrics {
    /// Fresh record for a system of `n_sites`.
    pub fn new(label: impl Into<String>, n_sites: usize) -> Self {
        let label = label.into();
        RunMetrics {
            cumulative: Series::new(label.clone()),
            per_site_series: (0..n_sites)
                .map(|i| Series::new(format!("{label}-site{i}")))
                .collect(),
            sites: vec![SiteStats::default(); n_sites],
            registry: RegistrySnapshot::default(),
            label,
        }
    }

    /// Mutable per-site stats.
    pub fn site_mut(&mut self, site: SiteId) -> &mut SiteStats {
        &mut self.sites[site.index()]
    }

    /// Total updates issued across sites.
    pub fn total_updates(&self) -> u64 {
        self.sites.iter().map(|s| s.updates_issued).sum()
    }

    /// Total committed updates.
    pub fn total_committed(&self) -> u64 {
        self.sites.iter().map(|s| s.committed).sum()
    }

    /// Total correspondences over the run, read from the telemetry
    /// registry (the accelerators' own `update.correspondences` cells)
    /// when one is attached; falls back to the outcome-attributed sum for
    /// systems without a registry. The runner asserts the two countings
    /// agree, so there is a single source of truth either way.
    pub fn total_correspondences(&self) -> u64 {
        match self.registry.histograms.get("update.correspondences") {
            Some(h) => h.sum,
            None => self.attributed_correspondences(),
        }
    }

    /// Correspondences attributed per-outcome during distillation (the
    /// running total behind the cumulative series).
    pub fn attributed_correspondences(&self) -> u64 {
        self.sites.iter().map(|s| s.correspondences).sum()
    }

    /// Records a sample point on the cumulative and per-site series.
    pub fn sample(&mut self) {
        let x = self.total_updates();
        self.cumulative.push(x, self.attributed_correspondences());
        for (i, series) in self.per_site_series.iter_mut().enumerate() {
            series.push(x, self.sites[i].correspondences);
        }
    }

    /// System-wide fraction of commits that were purely local.
    pub fn local_fraction(&self) -> f64 {
        let committed = self.total_committed();
        if committed == 0 {
            return 0.0;
        }
        let local: u64 = self.sites.iter().map(|s| s.local_commits).sum();
        local as f64 / committed as f64
    }

    /// Commit latency over every site.
    pub fn latency(&self) -> OnlineStats {
        let mut all = OnlineStats::new();
        for s in &self.sites {
            all.merge(&s.latency);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pts: &[(u64, u64)]) -> Series {
        let mut s = Series::new("s");
        for &(x, y) in pts {
            s.push(x, y);
        }
        s
    }

    #[test]
    fn push_and_accessors() {
        let s = series(&[(0, 0), (10, 3), (20, 5)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.last_y(), 5);
        assert_eq!(Series::new("e").last_y(), 0);
    }

    #[test]
    fn y_at_steps() {
        let s = series(&[(0, 0), (10, 3), (20, 5)]);
        assert_eq!(s.y_at(0), 0);
        assert_eq!(s.y_at(9), 0);
        assert_eq!(s.y_at(10), 3);
        assert_eq!(s.y_at(15), 3);
        assert_eq!(s.y_at(25), 5);
    }

    #[test]
    fn slope_of_linear_series() {
        let s = series(&[(0, 0), (10, 10), (20, 20), (30, 30)]);
        assert!((s.slope() - 1.0).abs() < 1e-12);
        let half = series(&[(0, 0), (10, 5), (20, 10)]);
        assert!((half.slope() - 0.5).abs() < 1e-12);
        assert_eq!(series(&[(5, 2)]).slope(), 0.0);
        // Degenerate: all x equal.
        assert_eq!(series(&[(5, 2), (5, 9)]).slope(), 0.0);
    }

    #[test]
    fn final_ratio() {
        let a = series(&[(0, 0), (100, 25)]);
        let b = series(&[(0, 0), (100, 100)]);
        assert!((a.final_ratio_to(&b).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(a.final_ratio_to(&Series::new("z")), None);
    }

    #[test]
    fn serde_round_trip() {
        let s = series(&[(1, 2), (3, 4)]);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(s, serde_json::from_str::<Series>(&json).unwrap());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    #[cfg(debug_assertions)]
    fn regressing_x_panics_in_debug() {
        let mut s = series(&[(10, 1)]);
        s.push(5, 2);
    }

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), None);
        for x in [2.0, 4.0, 6.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert_eq!(s.max(), Some(6.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..40] {
            a.push(x);
        }
        for &x in &xs[40..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 3.0);
    }

    #[test]
    fn site_stats_local_fraction() {
        let mut s = SiteStats::default();
        assert_eq!(s.local_fraction(), 0.0);
        s.committed = 10;
        s.local_commits = 7;
        assert!((s.local_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn run_metrics_aggregates_sites() {
        let mut m = RunMetrics::new("proposal", 3);
        m.site_mut(SiteId(0)).updates_issued = 5;
        m.site_mut(SiteId(1)).updates_issued = 3;
        m.site_mut(SiteId(1)).correspondences = 2;
        m.site_mut(SiteId(2)).correspondences = 4;
        assert_eq!(m.total_updates(), 8);
        assert_eq!(m.total_correspondences(), 6);
        m.sample();
        assert_eq!(m.cumulative.points, vec![(8, 6)]);
        assert_eq!(m.per_site_series[1].points, vec![(8, 2)]);
        assert_eq!(m.per_site_series[2].points, vec![(8, 4)]);
    }

    #[test]
    fn run_local_fraction() {
        let mut m = RunMetrics::new("p", 2);
        m.site_mut(SiteId(0)).committed = 4;
        m.site_mut(SiteId(0)).local_commits = 4;
        m.site_mut(SiteId(1)).committed = 4;
        m.site_mut(SiteId(1)).local_commits = 2;
        assert!((m.local_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(RunMetrics::new("e", 2).local_fraction(), 0.0);
    }

    #[test]
    fn serializable() {
        let mut m = RunMetrics::new("p", 1);
        m.site_mut(SiteId(0)).latency.push(3.0);
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"label\":\"p\""));
    }
}
