//! Latent quality profiles: the ground truth a service actually delivers.
//!
//! A provider publishes an *advertised* [`QosVector`], but what consumers
//! experience comes from the service's latent [`QualityProfile`] — per-metric
//! means with jitter, sampled at each invocation. The gap between the two is
//! exactly the vulnerability the paper describes: "a provider may also
//! exaggerate its capability of providing good QoS on purpose to attract
//! consumers".

use crate::metric::{Metric, Monotonicity};
use crate::value::QosVector;
use rand::Rng;
use std::collections::BTreeMap;

/// Per-metric latent quality: mean and jitter of what is really delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricQuality {
    /// Mean delivered raw value.
    pub mean: f64,
    /// Standard deviation of delivered values around the mean.
    pub jitter: f64,
}

/// The true, hidden quality of a service: what invocations actually yield.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QualityProfile {
    qualities: BTreeMap<Metric, MetricQuality>,
}

impl QualityProfile {
    /// Empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(metric, mean, jitter)` triples.
    pub fn from_triples<I: IntoIterator<Item = (Metric, f64, f64)>>(triples: I) -> Self {
        QualityProfile {
            qualities: triples
                .into_iter()
                .map(|(m, mean, jitter)| (m, MetricQuality { mean, jitter }))
                .collect(),
        }
    }

    /// Set the latent quality of one metric.
    pub fn set(&mut self, metric: Metric, mean: f64, jitter: f64) -> &mut Self {
        self.qualities
            .insert(metric, MetricQuality { mean, jitter });
        self
    }

    /// Latent quality of one metric.
    pub fn get(&self, metric: Metric) -> Option<MetricQuality> {
        self.qualities.get(&metric).copied()
    }

    /// Metrics with a latent quality.
    pub fn metrics(&self) -> impl Iterator<Item = Metric> + '_ {
        self.qualities.keys().copied()
    }

    /// Number of metrics carried.
    pub fn len(&self) -> usize {
        self.qualities.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.qualities.is_empty()
    }

    /// The mean vector: expected observation, without jitter.
    pub fn means(&self) -> QosVector {
        self.qualities.iter().map(|(m, q)| (*m, q.mean)).collect()
    }

    /// Sample one observed invocation: per metric, a Gaussian draw around
    /// the mean (Box–Muller), clamped to the metric's sane range (non
    /// -negative; fraction metrics clamped to `\[0, 1\]`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> QosVector {
        self.qualities
            .iter()
            .map(|(&m, q)| {
                let raw = q.mean + q.jitter * gaussian(rng);
                (m, clamp_to_domain(m, raw))
            })
            .collect()
    }

    /// Shift every metric's mean *toward better quality* by `delta` in
    /// normalized units of the metric's own mean (e.g. `delta = 0.1` makes
    /// response time 10% lower and availability 10% higher, saturating at
    /// domain bounds). Negative `delta` degrades quality. Used by provider
    /// behaviour dynamics (improving/degrading/oscillating).
    pub fn drift(&mut self, delta: f64) {
        for (&m, q) in self.qualities.iter_mut() {
            let factor = match m.monotonicity() {
                Monotonicity::HigherBetter => 1.0 + delta,
                Monotonicity::LowerBetter => 1.0 - delta,
            };
            q.mean = clamp_to_domain(m, q.mean * factor.max(0.0));
        }
    }

    /// Exaggerated advertisement: the mean vector made better by `factor`
    /// (0 = honest, 0.5 = 50% better than truth on every metric).
    pub fn exaggerated(&self, factor: f64) -> QosVector {
        let mut adv = self.clone();
        adv.drift(factor);
        adv.means()
    }
}

impl FromIterator<(Metric, MetricQuality)> for QualityProfile {
    fn from_iter<T: IntoIterator<Item = (Metric, MetricQuality)>>(iter: T) -> Self {
        QualityProfile {
            qualities: iter.into_iter().collect(),
        }
    }
}

/// Clamp a raw value to the metric's meaningful domain: fraction-valued
/// metrics (availability, accuracy, …) stay in `\[0, 1\]`; everything else is
/// non-negative.
pub fn clamp_to_domain(metric: Metric, value: f64) -> f64 {
    if is_fraction_metric(metric) {
        value.clamp(0.0, 1.0)
    } else {
        value.max(0.0)
    }
}

/// Whether a metric's raw values are probabilities/fractions in `\[0, 1\]`.
pub fn is_fraction_metric(metric: Metric) -> bool {
    use Metric::*;
    matches!(
        metric,
        Availability
            | Accessibility
            | Accuracy
            | Reliability
            | Scalability
            | Stability
            | Robustness
            | DataIntegrity
            | TransactionalIntegrity
            | Authentication
            | Authorization
            | Traceability
            | NonRepudiation
            | Confidentiality
            | Encryption
            | Accountability
            | AppSpecific(_)
    )
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile() -> QualityProfile {
        QualityProfile::from_triples([
            (Metric::ResponseTime, 100.0, 10.0),
            (Metric::Availability, 0.95, 0.02),
        ])
    }

    #[test]
    fn means_reflect_construction() {
        let p = profile();
        assert_eq!(p.means().get(Metric::ResponseTime), Some(100.0));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn samples_stay_in_domain() {
        let p = profile();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let s = p.sample(&mut rng);
            let avail = s.get(Metric::Availability).unwrap();
            assert!((0.0..=1.0).contains(&avail));
            assert!(s.get(Metric::ResponseTime).unwrap() >= 0.0);
        }
    }

    #[test]
    fn sample_mean_approaches_latent_mean() {
        let p = profile();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 4000;
        let avg: f64 = (0..n)
            .map(|_| p.sample(&mut rng).get(Metric::ResponseTime).unwrap())
            .sum::<f64>()
            / n as f64;
        assert!((avg - 100.0).abs() < 2.0, "avg={avg}");
    }

    #[test]
    fn positive_drift_improves_both_orientations() {
        let mut p = profile();
        p.drift(0.1);
        // response time is lower-better: mean should drop
        assert!((p.get(Metric::ResponseTime).unwrap().mean - 90.0).abs() < 1e-9);
        // availability is higher-better: mean should rise, clamped at 1
        assert!(p.get(Metric::Availability).unwrap().mean > 0.95);
    }

    #[test]
    fn negative_drift_degrades() {
        let mut p = profile();
        p.drift(-0.2);
        assert!(p.get(Metric::ResponseTime).unwrap().mean > 100.0);
        assert!(p.get(Metric::Availability).unwrap().mean < 0.95);
    }

    #[test]
    fn drift_saturates_at_domain_bounds() {
        let mut p = QualityProfile::from_triples([(Metric::Availability, 0.99, 0.0)]);
        p.drift(0.5);
        assert_eq!(p.get(Metric::Availability).unwrap().mean, 1.0);
        let mut q = QualityProfile::from_triples([(Metric::ResponseTime, 10.0, 0.0)]);
        q.drift(2.0); // factor would go negative; clamped to zero
        assert_eq!(q.get(Metric::ResponseTime).unwrap().mean, 0.0);
    }

    #[test]
    fn exaggerated_advertisement_is_better_than_truth() {
        let p = profile();
        let adv = p.exaggerated(0.3);
        assert!(adv.get(Metric::ResponseTime).unwrap() < 100.0);
        assert!(adv.get(Metric::Availability).unwrap() >= 0.95);
        // original untouched
        assert_eq!(p.means().get(Metric::ResponseTime), Some(100.0));
    }

    #[test]
    fn honest_advertisement_equals_means() {
        let p = profile();
        assert_eq!(p.exaggerated(0.0), p.means());
    }
}
