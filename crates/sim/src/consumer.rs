//! Consumers: preference profiles and rater behaviours.
//!
//! Section 3.1-Q3: "it is inevitable that some users may provide false
//! feedback to badmouth or raise the reputation of a service on purpose."
//! The [`RaterBehavior`] enum models exactly those populations; the
//! defenses live in `wsrep-robust`.

use rand::Rng;
use std::collections::BTreeSet;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;

/// How a consumer reports after an interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaterBehavior {
    /// Reports its true satisfaction and measurements.
    Honest,
    /// Rates the target providers' services with the maximum score
    /// regardless of experience (ballot stuffing).
    BallotStuffer {
        /// Providers whose services get inflated ratings.
        targets: BTreeSet<ProviderId>,
    },
    /// Rates the target providers' services with the minimum score
    /// (badmouthing), honest elsewhere.
    BadMouther {
        /// Providers whose services get trashed.
        targets: BTreeSet<ProviderId>,
    },
    /// Collusion ring: inflates ring providers, trashes everyone else.
    Collusive {
        /// The ring being promoted.
        ring: BTreeSet<ProviderId>,
    },
    /// Uniformly random scores (noise rater).
    Random,
}

/// A consumer in the market.
#[derive(Debug, Clone)]
pub struct Consumer {
    /// Identity (also the rater id on feedback).
    pub id: AgentId,
    /// QoS preference weights.
    pub prefs: Preferences,
    /// Rating behaviour.
    pub behavior: RaterBehavior,
}

impl Consumer {
    /// The consumer's *true* satisfaction with an observation, given the
    /// global bounds function (ground-truth normalization).
    pub fn satisfaction<F>(&self, observed: &QosVector, bounds: F) -> f64
    where
        F: Fn(Metric) -> (f64, f64),
    {
        self.prefs.utility_raw(observed, bounds)
    }

    /// Produce the feedback this consumer files after an interaction.
    ///
    /// Honest consumers report their satisfaction, the observed QoS values
    /// and per-facet ratings; dishonest ones distort the score (and, for
    /// QoS-reporting mechanisms, the claimed measurements) according to
    /// their behaviour.
    pub fn report<R, F>(
        &self,
        rng: &mut R,
        service: ServiceId,
        provider: ProviderId,
        observed: &QosVector,
        bounds: F,
        at: Time,
    ) -> Feedback
    where
        R: Rng + ?Sized,
        F: Fn(Metric) -> (f64, f64) + Copy,
    {
        let honest_score = self.satisfaction(observed, bounds);
        let (score, claimed) = match &self.behavior {
            RaterBehavior::Honest => (honest_score, observed.clone()),
            RaterBehavior::BallotStuffer { targets } => {
                if targets.contains(&provider) {
                    (1.0, best_case(observed, bounds))
                } else {
                    (honest_score, observed.clone())
                }
            }
            RaterBehavior::BadMouther { targets } => {
                if targets.contains(&provider) {
                    (0.0, worst_case(observed, bounds))
                } else {
                    (honest_score, observed.clone())
                }
            }
            RaterBehavior::Collusive { ring } => {
                if ring.contains(&provider) {
                    (1.0, best_case(observed, bounds))
                } else {
                    (0.0, worst_case(observed, bounds))
                }
            }
            RaterBehavior::Random => (rng.gen::<f64>(), observed.clone()),
        };
        let mut fb = Feedback::scored(self.id, service, score, at).with_observed(claimed);
        // Per-facet subjective ratings follow the (possibly distorted)
        // overall stance, one per metric the consumer cares about.
        for (m, _) in self.prefs.iter() {
            let facet = match &self.behavior {
                RaterBehavior::Honest => facet_score(observed, m, bounds),
                _ => score,
            };
            fb = fb.with_facet(m, facet);
        }
        fb
    }

    /// Whether this consumer reports honestly.
    pub fn is_honest(&self) -> bool {
        self.behavior == RaterBehavior::Honest
    }
}

fn facet_score<F>(observed: &QosVector, metric: Metric, bounds: F) -> f64
where
    F: Fn(Metric) -> (f64, f64),
{
    match observed.get(metric) {
        None => 0.5,
        Some(v) => {
            let (lo, hi) = bounds(metric);
            wsrep_qos::normalize::normalize_one(v, lo, hi, metric.monotonicity())
        }
    }
}

fn best_case<F>(observed: &QosVector, bounds: F) -> QosVector
where
    F: Fn(Metric) -> (f64, f64),
{
    observed
        .iter()
        .map(|(m, _)| {
            let (lo, hi) = bounds(m);
            let v = match m.monotonicity() {
                wsrep_qos::metric::Monotonicity::HigherBetter => hi,
                wsrep_qos::metric::Monotonicity::LowerBetter => lo,
            };
            (m, v)
        })
        .collect()
}

fn worst_case<F>(observed: &QosVector, bounds: F) -> QosVector
where
    F: Fn(Metric) -> (f64, f64),
{
    observed
        .iter()
        .map(|(m, _)| {
            let (lo, hi) = bounds(m);
            let v = match m.monotonicity() {
                wsrep_qos::metric::Monotonicity::HigherBetter => lo,
                wsrep_qos::metric::Monotonicity::LowerBetter => hi,
            };
            (m, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bounds(m: Metric) -> (f64, f64) {
        crate::provider::metric_range(m)
    }

    fn consumer(behavior: RaterBehavior) -> Consumer {
        Consumer {
            id: AgentId::new(0),
            prefs: Preferences::uniform([Metric::ResponseTime, Metric::Availability]),
            behavior,
        }
    }

    fn good_observation() -> QosVector {
        QosVector::from_pairs([(Metric::ResponseTime, 30.0), (Metric::Availability, 0.99)])
    }

    fn bad_observation() -> QosVector {
        QosVector::from_pairs([(Metric::ResponseTime, 750.0), (Metric::Availability, 0.45)])
    }

    #[test]
    fn honest_scores_track_quality() {
        let c = consumer(RaterBehavior::Honest);
        let mut rng = StdRng::seed_from_u64(1);
        let good = c.report(
            &mut rng,
            ServiceId::new(1),
            ProviderId::new(0),
            &good_observation(),
            bounds,
            Time::ZERO,
        );
        let bad = c.report(
            &mut rng,
            ServiceId::new(1),
            ProviderId::new(0),
            &bad_observation(),
            bounds,
            Time::ZERO,
        );
        assert!(good.score > 0.8);
        assert!(bad.score < 0.2);
        assert_eq!(good.observed, good_observation());
    }

    #[test]
    fn ballot_stuffer_inflates_targets_only() {
        let mut targets = BTreeSet::new();
        targets.insert(ProviderId::new(7));
        let c = consumer(RaterBehavior::BallotStuffer { targets });
        let mut rng = StdRng::seed_from_u64(2);
        let on_target = c.report(
            &mut rng,
            ServiceId::new(1),
            ProviderId::new(7),
            &bad_observation(),
            bounds,
            Time::ZERO,
        );
        let off_target = c.report(
            &mut rng,
            ServiceId::new(2),
            ProviderId::new(8),
            &bad_observation(),
            bounds,
            Time::ZERO,
        );
        assert_eq!(on_target.score, 1.0);
        assert!(off_target.score < 0.2);
        // The claimed measurements are also falsified for the target.
        assert!(on_target.observed.get(Metric::ResponseTime).unwrap() < 100.0);
    }

    #[test]
    fn badmouther_trashes_targets_only() {
        let mut targets = BTreeSet::new();
        targets.insert(ProviderId::new(7));
        let c = consumer(RaterBehavior::BadMouther { targets });
        let mut rng = StdRng::seed_from_u64(3);
        let on_target = c.report(
            &mut rng,
            ServiceId::new(1),
            ProviderId::new(7),
            &good_observation(),
            bounds,
            Time::ZERO,
        );
        assert_eq!(on_target.score, 0.0);
        assert!(on_target.observed.get(Metric::ResponseTime).unwrap() > 700.0);
    }

    #[test]
    fn colluders_polarize_everything() {
        let mut ring = BTreeSet::new();
        ring.insert(ProviderId::new(1));
        let c = consumer(RaterBehavior::Collusive { ring });
        let mut rng = StdRng::seed_from_u64(4);
        let friend = c.report(
            &mut rng,
            ServiceId::new(1),
            ProviderId::new(1),
            &bad_observation(),
            bounds,
            Time::ZERO,
        );
        let foe = c.report(
            &mut rng,
            ServiceId::new(2),
            ProviderId::new(2),
            &good_observation(),
            bounds,
            Time::ZERO,
        );
        assert_eq!(friend.score, 1.0);
        assert_eq!(foe.score, 0.0);
    }

    #[test]
    fn random_rater_is_noisy_but_bounded() {
        let c = consumer(RaterBehavior::Random);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let fb = c.report(
                &mut rng,
                ServiceId::new(1),
                ProviderId::new(0),
                &good_observation(),
                bounds,
                Time::ZERO,
            );
            assert!((0.0..=1.0).contains(&fb.score));
        }
    }

    #[test]
    fn facet_ratings_cover_preference_metrics() {
        let c = consumer(RaterBehavior::Honest);
        let mut rng = StdRng::seed_from_u64(6);
        let fb = c.report(
            &mut rng,
            ServiceId::new(1),
            ProviderId::new(0),
            &good_observation(),
            bounds,
            Time::ZERO,
        );
        assert!(fb.facet_ratings.contains_key(&Metric::ResponseTime));
        assert!(fb.facet_ratings.contains_key(&Metric::Availability));
        assert!(fb.facet_ratings[&Metric::ResponseTime] > 0.8);
    }

    #[test]
    fn is_honest_flags_behaviour() {
        assert!(consumer(RaterBehavior::Honest).is_honest());
        assert!(!consumer(RaterBehavior::Random).is_honest());
    }
}
