//! The two usage scenarios of Figure 1.
//!
//! **A — direct selection:** the consumer gets the result straight from
//! the web service (a weather report); selection is "mainly determined by
//! the properties of the web service itself".
//!
//! **B — mediated selection:** the web service is an intermediary (a
//! flight-booking site) to a *general service* (the flight). "The major
//! part of selecting a web service is decided by the general service
//! properties … the properties of the intermediary web service only play
//! a small part." This module models the composite interaction so
//! `exp_fig1` can measure how much of the consumer's utility each layer
//! explains, and how badly a selector that only looks at the intermediary
//! does.

use rand::Rng;
use wsrep_core::id::ServiceId;
use wsrep_qos::metric::Metric;
use wsrep_qos::profile::QualityProfile;
use wsrep_qos::value::QosVector;

/// A general service behind an intermediary (hotel, flight, …) with
/// application-specific quality metrics.
#[derive(Debug, Clone)]
pub struct GeneralService {
    /// Identity in the general-service namespace.
    pub id: ServiceId,
    /// Latent quality over `Metric::AppSpecific(_)` facets.
    pub quality: QualityProfile,
}

/// A mediated offering: an intermediary web service brokering one general
/// service.
#[derive(Debug, Clone)]
pub struct MediatedOffer {
    /// The intermediary web service (booking site).
    pub intermediary: ServiceId,
    /// The intermediary's own technical quality (response time, …).
    pub intermediary_quality: QualityProfile,
    /// The general service actually consumed.
    pub general: GeneralService,
}

/// How strongly the general service dominates composite satisfaction in
/// scenario B. The paper's claim is that the intermediary "only plays a
/// small part"; 0.8 means 80% of the utility is the general service's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediationWeights {
    /// Share of composite utility attributed to the general service.
    pub general_share: f64,
}

impl Default for MediationWeights {
    fn default() -> Self {
        MediationWeights { general_share: 0.8 }
    }
}

impl MediationWeights {
    /// Weights with an explicit general-service share in `\[0, 1\]`.
    ///
    /// # Panics
    ///
    /// Panics if the share is out of range.
    pub fn new(general_share: f64) -> Self {
        assert!((0.0..=1.0).contains(&general_share), "share in [0,1]");
        MediationWeights { general_share }
    }
}

/// The outcome of one mediated interaction.
#[derive(Debug, Clone, PartialEq)]
pub struct MediatedOutcome {
    /// What the consumer observed of the intermediary's technical QoS.
    pub intermediary_observed: QosVector,
    /// What the consumer observed of the general service.
    pub general_observed: QosVector,
    /// Normalized utility contributed by the intermediary layer.
    pub intermediary_utility: f64,
    /// Normalized utility contributed by the general service.
    pub general_utility: f64,
    /// The composite satisfaction in `\[0, 1\]`.
    pub composite: f64,
}

/// Execute one mediated interaction: sample both layers and combine.
///
/// `tech_bounds` normalizes intermediary metrics; general-service facets
/// are fraction-valued (`AppSpecific` metrics live in `\[0, 1\]`).
pub fn invoke_mediated<R, F>(
    rng: &mut R,
    offer: &MediatedOffer,
    weights: MediationWeights,
    tech_bounds: F,
) -> MediatedOutcome
where
    R: Rng + ?Sized,
    F: Fn(Metric) -> (f64, f64),
{
    let intermediary_observed = offer.intermediary_quality.sample(rng);
    let general_observed = offer.general.quality.sample(rng);

    let tech_metrics: Vec<Metric> = intermediary_observed.metrics().collect();
    let intermediary_utility = if tech_metrics.is_empty() {
        0.0
    } else {
        tech_metrics
            .iter()
            .map(|&m| {
                let (lo, hi) = tech_bounds(m);
                wsrep_qos::normalize::normalize_one(
                    intermediary_observed.get(m).unwrap_or(lo),
                    lo,
                    hi,
                    m.monotonicity(),
                )
            })
            .sum::<f64>()
            / tech_metrics.len() as f64
    };

    let gen_metrics: Vec<Metric> = general_observed.metrics().collect();
    let general_utility = if gen_metrics.is_empty() {
        0.0
    } else {
        gen_metrics
            .iter()
            .map(|&m| general_observed.get(m).unwrap_or(0.0))
            .sum::<f64>()
            / gen_metrics.len() as f64
    };

    let composite = weights.general_share * general_utility
        + (1.0 - weights.general_share) * intermediary_utility;

    MediatedOutcome {
        intermediary_observed,
        general_observed,
        intermediary_utility,
        general_utility,
        composite,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn offer(tech_good: bool, general_good: bool) -> MediatedOffer {
        let (rt, rt_j) = if tech_good {
            (30.0, 2.0)
        } else {
            (700.0, 10.0)
        };
        let gq = if general_good { 0.95 } else { 0.15 };
        MediatedOffer {
            intermediary: ServiceId::new(1),
            intermediary_quality: QualityProfile::from_triples([(Metric::ResponseTime, rt, rt_j)]),
            general: GeneralService {
                id: ServiceId::new(100),
                quality: QualityProfile::from_triples([
                    (Metric::AppSpecific(0), gq, 0.02),
                    (Metric::AppSpecific(1), gq, 0.02),
                ]),
            },
        }
    }

    fn bounds(m: Metric) -> (f64, f64) {
        crate::provider::metric_range(m)
    }

    fn mean_composite(offer: &MediatedOffer, weights: MediationWeights, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..200)
            .map(|_| invoke_mediated(&mut rng, offer, weights, bounds).composite)
            .sum::<f64>()
            / 200.0
    }

    #[test]
    fn general_service_dominates_composite_satisfaction() {
        let w = MediationWeights::default();
        // Great booking site, terrible flight…
        let bad_flight = mean_composite(&offer(true, false), w, 1);
        // …versus sluggish booking site, great flight.
        let good_flight = mean_composite(&offer(false, true), w, 2);
        assert!(
            good_flight > bad_flight + 0.3,
            "good general service must dominate: {good_flight} vs {bad_flight}"
        );
    }

    #[test]
    fn intermediary_still_plays_a_small_part() {
        let w = MediationWeights::default();
        let fast = mean_composite(&offer(true, true), w, 3);
        let slow = mean_composite(&offer(false, true), w, 4);
        assert!(fast > slow, "better intermediary still helps");
        assert!(fast - slow < 0.3, "but only a small part: {}", fast - slow);
    }

    #[test]
    fn weights_shift_the_attribution() {
        let tech_only = MediationWeights::new(0.0);
        let fast = mean_composite(&offer(true, false), tech_only, 5);
        let slow = mean_composite(&offer(false, true), tech_only, 6);
        assert!(fast > slow, "with share 0 the intermediary decides");
    }

    #[test]
    fn outcome_fields_are_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let out = invoke_mediated(
            &mut rng,
            &offer(true, true),
            MediationWeights::default(),
            bounds,
        );
        for v in [out.intermediary_utility, out.general_utility, out.composite] {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "share in [0,1]")]
    fn invalid_share_panics() {
        MediationWeights::new(1.5);
    }
}
