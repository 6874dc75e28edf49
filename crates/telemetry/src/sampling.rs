//! Head-based, seeded trace sampling.
//!
//! A [`TraceSampler`] decides — deterministically, from the run seed and
//! the trace id alone — whether a trace's interior spans are retained.
//! Every site in a cluster constructs the sampler from the same
//! `SystemConfig`, so the keep/drop decision for a given trace is
//! identical everywhere: either a trace's full tree is kept on all sites
//! or only its root span survives. That cluster-wide agreement is what
//! keeps the oracle's span-tree invariant (no orphan spans) intact under
//! sampling — a retained span's parent is always retained too.
//!
//! The decision is a threshold test on a splitmix64-style finalizer of
//! `trace ⊕ mix(seed)`: uniform enough that `rate` is honoured in
//! expectation, and byte-stable across platforms because it is pure
//! integer arithmetic. `rate ≥ 1.0` short-circuits to "always sample",
//! which reproduces pre-sampling behaviour exactly.

use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hasher for trace and span ids: one [`mix`] per key instead of SipHash.
/// Those ids are minted by the cluster's own sites, never by a client, so
/// the flood resistance SipHash buys is not needed on these sets.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0 ^ n);
    }
}

/// `HashMap`/`HashSet` state for id-keyed tables (see [`IdHasher`]).
pub(crate) type IdHash = BuildHasherDefault<IdHasher>;

/// Deterministic per-trace keep/drop decision shared by every site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSampler {
    seed: u64,
    /// `u64::MAX` means "always" (the exact pre-sampling behaviour);
    /// otherwise a trace is sampled iff `mix(trace ^ mix(seed)) < threshold`.
    threshold: u64,
    always: bool,
}

impl TraceSampler {
    /// A sampler keeping roughly `rate` (clamped to `[0, 1]`) of traces.
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = if rate.is_nan() { 1.0 } else { rate.clamp(0.0, 1.0) };
        let always = rate >= 1.0;
        let threshold = if always { u64::MAX } else { (rate * u64::MAX as f64) as u64 };
        TraceSampler { seed: mix(seed), threshold, always }
    }

    /// `true` when every trace is sampled (rate ≥ 1.0).
    pub fn is_always(&self) -> bool {
        self.always
    }

    /// Whether `trace`'s interior spans should be retained.
    pub fn sampled(&self, trace: u64) -> bool {
        self.always || mix(trace ^ self.seed) < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_one_samples_everything() {
        let s = TraceSampler::new(7, 1.0);
        assert!(s.is_always());
        assert!((0..1000).all(|t| s.sampled(t)));
    }

    #[test]
    fn rate_zero_samples_nothing() {
        let s = TraceSampler::new(7, 0.0);
        assert!((0..1000).all(|t| !s.sampled(t)));
    }

    #[test]
    fn same_seed_and_rate_agree_across_instances() {
        let a = TraceSampler::new(42, 0.25);
        let b = TraceSampler::new(42, 0.25);
        assert!((0..4096).all(|t| a.sampled(t) == b.sampled(t)));
    }

    #[test]
    fn different_seeds_pick_different_sets() {
        let a = TraceSampler::new(1, 0.5);
        let b = TraceSampler::new(2, 0.5);
        assert!((0..4096).any(|t| a.sampled(t) != b.sampled(t)));
    }

    #[test]
    fn rate_is_honoured_in_expectation() {
        let s = TraceSampler::new(9, 0.1);
        let kept = (0..100_000u64).filter(|t| s.sampled(*t)).count();
        // 10% ± 1 percentage point over 100k uniform ids.
        assert!((9_000..=11_000).contains(&kept), "kept {kept}");
    }

    #[test]
    fn out_of_range_rates_clamp() {
        assert!(TraceSampler::new(0, 2.0).is_always());
        assert!(!TraceSampler::new(0, -1.0).sampled(3));
        assert!(TraceSampler::new(0, f64::NAN).is_always());
    }
}
