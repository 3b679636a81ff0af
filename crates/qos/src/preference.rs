//! Consumer preference profiles over QoS metrics.
//!
//! The paper stresses that a consumer's profile "shows the consumer's
//! preference over different QoS metrics (i.e. how these QoS metrics are
//! important to a consumer)" and that the registry computes overall ratings
//! *per consumer* from it. Preference heterogeneity is also the knob behind
//! the global-vs-personalized axis of Figure 4: when all consumers weight
//! metrics identically, a global reputation suffices; when they diverge,
//! personalized mechanisms win (experiment `exp_fig4_pers`).

use crate::metric::Metric;
use crate::value::QosVector;
use rand::Rng;
use std::collections::BTreeMap;

/// A normalized weighting over QoS metrics; weights sum to 1.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Preferences {
    weights: BTreeMap<Metric, f64>,
}

impl Preferences {
    /// Equal weight over the given metrics.
    ///
    /// ```
    /// use wsrep_qos::{preference::Preferences, metric::Metric};
    /// let p = Preferences::uniform([Metric::Price, Metric::Accuracy]);
    /// assert!((p.weight(Metric::Price) - 0.5).abs() < 1e-12);
    /// ```
    pub fn uniform<I: IntoIterator<Item = Metric>>(metrics: I) -> Self {
        let ms: Vec<Metric> = metrics.into_iter().collect();
        if ms.is_empty() {
            return Self::default();
        }
        let w = 1.0 / ms.len() as f64;
        Preferences {
            weights: ms.into_iter().map(|m| (m, w)).collect(),
        }
    }

    /// Build from explicit non-negative weights; they are renormalized to
    /// sum to 1. Entries with zero or negative weight are dropped.
    pub fn from_weights<I: IntoIterator<Item = (Metric, f64)>>(weights: I) -> Self {
        let filtered: Vec<(Metric, f64)> = weights.into_iter().filter(|&(_, w)| w > 0.0).collect();
        let total: f64 = filtered.iter().map(|&(_, w)| w).sum();
        if total <= 0.0 {
            return Self::default();
        }
        Preferences {
            weights: filtered.into_iter().map(|(m, w)| (m, w / total)).collect(),
        }
    }

    /// The weight for one metric (0 if unweighted).
    pub fn weight(&self, metric: Metric) -> f64 {
        self.weights.get(&metric).copied().unwrap_or(0.0)
    }

    /// Metrics with non-zero weight.
    pub fn metrics(&self) -> impl Iterator<Item = Metric> + '_ {
        self.weights.keys().copied()
    }

    /// Iterate `(metric, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Metric, f64)> + '_ {
        self.weights.iter().map(|(m, w)| (*m, *w))
    }

    /// Number of weighted metrics.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether no metric carries weight.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Utility of an *already normalized* QoS vector (entries in `\[0, 1\]`,
    /// higher better): the weighted sum over this profile's metrics.
    /// Missing metrics contribute 0.
    pub fn utility(&self, normalized: &QosVector) -> f64 {
        self.iter()
            .map(|(m, w)| w * normalized.get(m).unwrap_or(0.0))
            .sum()
    }

    /// Utility of a *raw* QoS vector, normalizing each metric against fixed
    /// reference bounds `(min, max)` supplied per metric. Useful for ground
    /// -truth utility where the simulator knows global bounds.
    pub fn utility_raw<F>(&self, raw: &QosVector, bounds: F) -> f64
    where
        F: Fn(Metric) -> (f64, f64),
    {
        self.iter()
            .map(|(m, w)| {
                let v = match raw.get(m) {
                    Some(v) => v,
                    None => return 0.0,
                };
                let (min, max) = bounds(m);
                w * crate::normalize::normalize_one(v, min, max, m.monotonicity())
            })
            .sum()
    }

    /// Cosine similarity between two preference profiles in `\[0, 1\]`.
    ///
    /// Used by personalized mechanisms (Histos, collaborative filtering)
    /// to find like-minded consumers.
    pub fn similarity(&self, other: &Preferences) -> f64 {
        let dot: f64 = self.iter().map(|(m, w)| w * other.weight(m)).sum();
        let na: f64 = self.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        let nb: f64 = other.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na * nb)).clamp(0.0, 1.0)
        }
    }

    /// Sample a random profile over `metrics` with controllable
    /// heterogeneity.
    ///
    /// `heterogeneity = 0` yields the uniform profile for every consumer;
    /// `heterogeneity = 1` yields sharply-peaked, near-single-metric
    /// profiles. Implemented as a symmetric Dirichlet draw via Gamma(α)
    /// sampling with `α = (1 - h) / h` (clamped), using the
    /// Marsaglia–Tsang method so we need only `rand`.
    pub fn sample<R: Rng + ?Sized, I: IntoIterator<Item = Metric>>(
        rng: &mut R,
        metrics: I,
        heterogeneity: f64,
    ) -> Self {
        let ms: Vec<Metric> = metrics.into_iter().collect();
        if ms.is_empty() {
            return Self::default();
        }
        let h = heterogeneity.clamp(0.0, 1.0);
        if h == 0.0 {
            return Self::uniform(ms);
        }
        let alpha = ((1.0 - h) / h).max(0.02);
        let draws: Vec<f64> = ms.iter().map(|_| sample_gamma(rng, alpha)).collect();
        Self::from_weights(ms.into_iter().zip(draws))
    }
}

/// Marsaglia–Tsang Gamma(alpha, 1) sampler; for `alpha < 1` uses the
/// boosting trick `Gamma(a) = Gamma(a + 1) * U^{1/a}`.
fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, alpha: f64) -> f64 {
    debug_assert!(alpha > 0.0);
    if alpha < 1.0 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return sample_gamma(rng, alpha + 1.0) * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_weights_sum_to_one() {
        let p = Preferences::uniform([Metric::Price, Metric::Accuracy, Metric::Latency]);
        let total: f64 = p.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((p.weight(Metric::Price) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn from_weights_renormalizes_and_drops_nonpositive() {
        let p = Preferences::from_weights([
            (Metric::Price, 2.0),
            (Metric::Accuracy, 2.0),
            (Metric::Latency, 0.0),
            (Metric::Throughput, -3.0),
        ]);
        assert_eq!(p.len(), 2);
        assert!((p.weight(Metric::Price) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_utility_is_zero() {
        let p = Preferences::default();
        let v = QosVector::from_pairs([(Metric::Price, 1.0)]);
        assert_eq!(p.utility(&v), 0.0);
        assert!(p.is_empty());
    }

    #[test]
    fn utility_weights_normalized_values() {
        let p = Preferences::from_weights([(Metric::Accuracy, 0.75), (Metric::Price, 0.25)]);
        let v = QosVector::from_pairs([(Metric::Accuracy, 1.0), (Metric::Price, 0.0)]);
        assert!((p.utility(&v) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn utility_raw_respects_monotonicity() {
        let p = Preferences::uniform([Metric::ResponseTime]);
        let fast = QosVector::from_pairs([(Metric::ResponseTime, 0.0)]);
        let slow = QosVector::from_pairs([(Metric::ResponseTime, 100.0)]);
        let bounds = |_| (0.0, 100.0);
        assert!(p.utility_raw(&fast, bounds) > p.utility_raw(&slow, bounds));
    }

    #[test]
    fn similarity_of_identical_profiles_is_one() {
        let p = Preferences::from_weights([(Metric::Price, 0.3), (Metric::Accuracy, 0.7)]);
        assert!((p.similarity(&p) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn similarity_of_disjoint_profiles_is_zero() {
        let a = Preferences::uniform([Metric::Price]);
        let b = Preferences::uniform([Metric::Accuracy]);
        assert_eq!(a.similarity(&b), 0.0);
    }

    #[test]
    fn zero_heterogeneity_sampling_is_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Preferences::sample(&mut rng, [Metric::Price, Metric::Accuracy], 0.0);
        assert!((p.weight(Metric::Price) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn high_heterogeneity_sampling_is_peaked() {
        let mut rng = StdRng::seed_from_u64(42);
        let metrics = [
            Metric::Price,
            Metric::Accuracy,
            Metric::Latency,
            Metric::Throughput,
        ];
        // Average max-weight over many draws should approach 1 at h≈1 and
        // 1/4 at h=0.
        let mut acc_peaked = 0.0;
        let mut acc_flat = 0.0;
        for _ in 0..200 {
            let peaked = Preferences::sample(&mut rng, metrics, 0.95);
            let flat = Preferences::sample(&mut rng, metrics, 0.05);
            acc_peaked += peaked.iter().map(|(_, w)| w).fold(0.0, f64::max);
            acc_flat += flat.iter().map(|(_, w)| w).fold(0.0, f64::max);
        }
        assert!(acc_peaked / 200.0 > acc_flat / 200.0 + 0.2);
    }

    #[test]
    fn sampled_weights_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(3);
        for h in [0.1, 0.5, 0.9] {
            let p = Preferences::sample(&mut rng, Metric::ALL_STANDARD, h);
            let total: f64 = p.iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "h={h} total={total}");
        }
    }
}
