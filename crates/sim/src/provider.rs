//! Providers, their services, and behaviour dynamics.
//!
//! Section 2 of the paper: providers advertise QoS that is "not an
//! agreement or obligation" and "may exaggerate its capability … on
//! purpose to attract consumers"; Section 3 stresses that trust is
//! *dynamic* because service quality changes. Both knobs live here: the
//! advertisement exaggeration factor and the [`Behavior`] that drifts the
//! latent quality over time.

use wsrep_core::id::{ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::profile::QualityProfile;
use wsrep_qos::value::QosVector;

/// How a provider's delivered quality evolves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Behavior {
    /// Quality stays where it started.
    Stable,
    /// Quality improves by `rate` (normalized drift) per round.
    Improving {
        /// Per-round improvement fraction.
        rate: f64,
    },
    /// Quality degrades by `rate` per round.
    Degrading {
        /// Per-round degradation fraction.
        rate: f64,
    },
    /// Milking cycles: good for half a `period`, bad for the other half —
    /// the classic oscillation attack on slow-moving reputation.
    Oscillating {
        /// Full cycle length in rounds.
        period: u64,
        /// Drift applied each round (sign flips per half-cycle).
        amplitude: f64,
    },
}

/// A service: its identity, its latent quality and its advertisement.
#[derive(Debug, Clone)]
pub struct Service {
    /// Service identity.
    pub id: ServiceId,
    /// Owning provider.
    pub provider: ProviderId,
    /// Function category (consumers search by category).
    pub category: u32,
    /// The latent delivered quality.
    pub quality: QualityProfile,
    /// The published QoS claim.
    pub advertised: QosVector,
}

/// A provider with one or more services.
#[derive(Debug, Clone)]
pub struct Provider {
    /// Provider identity.
    pub id: ProviderId,
    /// Services this provider publishes.
    pub services: Vec<ServiceId>,
    /// Quality dynamics applied to all its services.
    pub behavior: Behavior,
    /// Advertisement exaggeration: 0 = honest, 0.5 = claims 50% better.
    pub exaggeration: f64,
}

impl Provider {
    /// Advance one service's quality one round according to the behaviour.
    pub fn step_quality(&self, quality: &mut QualityProfile, now: Time) {
        match self.behavior {
            Behavior::Stable => {}
            Behavior::Improving { rate } => quality.drift(rate),
            Behavior::Degrading { rate } => quality.drift(-rate),
            Behavior::Oscillating { period, amplitude } => {
                let phase = now.round() % period.max(1);
                if phase < period / 2 {
                    quality.drift(amplitude);
                } else {
                    quality.drift(-amplitude);
                }
            }
        }
    }

    /// The advertisement this provider would publish for a quality.
    ///
    /// Exaggeration moves each claim a fraction of the way from the truth
    /// toward the *best possible* value of the metric's canonical range —
    /// strong exaggerators all claim near-perfect QoS, which is what makes
    /// advertised-QoS selection gameable: saturated claims carry no
    /// ranking information.
    pub fn advertise(&self, quality: &QualityProfile) -> QosVector {
        quality
            .means()
            .iter()
            .map(|(m, v)| {
                let (lo, hi) = metric_range(m);
                let best = match m.monotonicity() {
                    wsrep_qos::metric::Monotonicity::HigherBetter => hi,
                    wsrep_qos::metric::Monotonicity::LowerBetter => lo,
                };
                (m, v + self.exaggeration.clamp(0.0, 1.0) * (best - v))
            })
            .collect()
    }
}

/// Canonical raw-value ranges per metric used by world generation and
/// ground-truth normalization. `(worst-ish, best-ish)` in raw units —
/// orientation still comes from the metric's monotonicity.
pub fn metric_range(metric: Metric) -> (f64, f64) {
    use Metric::*;
    match metric {
        ProcessingTime => (5.0, 300.0),
        Throughput => (10.0, 1000.0),
        ResponseTime => (20.0, 800.0),
        Latency => (1.0, 200.0),
        Capacity => (10.0, 500.0),
        Price => (1.0, 20.0),
        // Fraction-valued metrics.
        _ => (0.4, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quality() -> QualityProfile {
        QualityProfile::from_triples([
            (Metric::ResponseTime, 200.0, 10.0),
            (Metric::Availability, 0.8, 0.02),
        ])
    }

    fn provider(behavior: Behavior, exaggeration: f64) -> Provider {
        Provider {
            id: ProviderId::new(0),
            services: vec![ServiceId::new(0)],
            behavior,
            exaggeration,
        }
    }

    #[test]
    fn stable_provider_never_drifts() {
        let p = provider(Behavior::Stable, 0.0);
        let mut q = quality();
        for t in 0..50 {
            p.step_quality(&mut q, Time::new(t));
        }
        assert_eq!(q.get(Metric::ResponseTime).unwrap().mean, 200.0);
    }

    #[test]
    fn improving_and_degrading_move_opposite_ways() {
        let up = provider(Behavior::Improving { rate: 0.01 }, 0.0);
        let down = provider(Behavior::Degrading { rate: 0.01 }, 0.0);
        let mut qu = quality();
        let mut qd = quality();
        for t in 0..20 {
            up.step_quality(&mut qu, Time::new(t));
            down.step_quality(&mut qd, Time::new(t));
        }
        assert!(qu.get(Metric::ResponseTime).unwrap().mean < 200.0);
        assert!(qd.get(Metric::ResponseTime).unwrap().mean > 200.0);
        assert!(qu.get(Metric::Availability).unwrap().mean > 0.8);
        assert!(qd.get(Metric::Availability).unwrap().mean < 0.8);
    }

    #[test]
    fn oscillator_swings_and_returns() {
        let p = provider(
            Behavior::Oscillating {
                period: 10,
                amplitude: 0.02,
            },
            0.0,
        );
        let mut q = quality();
        let mut best = f64::INFINITY;
        let mut worst = f64::NEG_INFINITY;
        for t in 0..40 {
            p.step_quality(&mut q, Time::new(t));
            let rt = q.get(Metric::ResponseTime).unwrap().mean;
            best = best.min(rt);
            worst = worst.max(rt);
        }
        assert!(best < 200.0 && worst > 150.0);
        assert!(worst - best > 10.0, "oscillation has real amplitude");
    }

    #[test]
    fn exaggerated_advertisement_beats_truth() {
        let p = provider(Behavior::Stable, 0.3);
        let q = quality();
        let ad = p.advertise(&q);
        assert!(ad.get(Metric::ResponseTime).unwrap() < 200.0);
        assert!(ad.get(Metric::Availability).unwrap() > 0.8);
    }

    #[test]
    fn honest_advertisement_equals_means() {
        let p = provider(Behavior::Stable, 0.0);
        let q = quality();
        assert_eq!(p.advertise(&q), q.means());
    }

    #[test]
    fn metric_ranges_are_sane() {
        for m in Metric::ALL_STANDARD {
            let (lo, hi) = metric_range(m);
            assert!(lo < hi, "{m}");
            assert!(lo >= 0.0);
        }
    }
}
