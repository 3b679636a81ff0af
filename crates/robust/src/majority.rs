//! Sen & Sajja's majority opinion — reference \[26\] of the survey
//! ("Robustness of reputation-based trust: boolean case", AAMAS 2002).
//!
//! Witnesses hold boolean opinions (good/bad); the asker queries a set of
//! them and follows the majority. Their analysis gives the number of
//! witnesses needed so that, with probability at least `confidence`, the
//! majority answer is correct when a fraction of witnesses lie. Both the
//! decision rule and the witness-count bound are implemented.

use crate::defense::UnfairRatingDefense;
use wsrep_core::id::{AgentId, SubjectId};
use wsrep_core::store::FeedbackStore;
use wsrep_core::trust::{evidence_confidence, TrustEstimate, TrustValue};

/// The majority-opinion defense.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MajorityOpinion {
    /// Score threshold separating a "good" from a "bad" boolean opinion.
    pub threshold: f64,
}

impl Default for MajorityOpinion {
    fn default() -> Self {
        MajorityOpinion { threshold: 0.5 }
    }
}

/// Probability that the majority of `n` independent witnesses is honest
/// when each is a liar with probability `liar_fraction`. Ties count as
/// failure (even `n` is pessimistic; Sen & Sajja use odd query sizes).
pub(crate) fn majority_correct_probability(n: usize, liar_fraction: f64) -> f64 {
    let p_honest = 1.0 - liar_fraction.clamp(0.0, 1.0);
    let mut prob = 0.0;
    for k in (n / 2 + 1)..=n {
        prob += binomial_pmf(n, k, p_honest);
    }
    prob
}

/// The smallest odd witness count achieving at least `confidence`
/// probability of a correct majority at the given liar fraction. `None`
/// when the liar fraction is ≥ 0.5 (no count suffices) or confidence is
/// unreachable within `cap`.
pub fn witnesses_needed(liar_fraction: f64, confidence: f64, cap: usize) -> Option<usize> {
    if liar_fraction >= 0.5 {
        return None;
    }
    let mut n = 1;
    while n <= cap {
        if majority_correct_probability(n, liar_fraction) >= confidence {
            return Some(n);
        }
        n += 2;
    }
    None
}

fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    // log-space to stay stable for larger n.
    let ln = ln_choose(n, k) + (k as f64) * p.ln() + ((n - k) as f64) * (1.0 - p).ln();
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    ln.exp()
}

fn ln_choose(n: usize, k: usize) -> f64 {
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

fn ln_factorial(n: usize) -> f64 {
    (1..=n).map(|i| (i as f64).ln()).sum()
}

impl UnfairRatingDefense for MajorityOpinion {
    fn name(&self) -> &'static str {
        "majority"
    }

    fn estimate(
        &self,
        store: &FeedbackStore,
        _observer: AgentId,
        subject: SubjectId,
    ) -> Option<TrustEstimate> {
        let mut good = 0usize;
        let mut bad = 0usize;
        for f in store.about(subject) {
            if f.score >= self.threshold {
                good += 1;
            } else {
                bad += 1;
            }
        }
        let total = good + bad;
        if total == 0 {
            return None;
        }
        // The boolean majority decision rendered as a trust value: strong
        // majorities map near the extremes, ties to neutral.
        let value = good as f64 / total as f64;
        Some(TrustEstimate::new(
            TrustValue::new(value),
            evidence_confidence(total, 4.0),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::feedback::Feedback;
    use wsrep_core::id::ServiceId;
    use wsrep_core::time::Time;

    #[test]
    fn more_witnesses_help_against_liars() {
        let p3 = majority_correct_probability(3, 0.3);
        let p11 = majority_correct_probability(11, 0.3);
        let p51 = majority_correct_probability(51, 0.3);
        assert!(p11 > p3);
        assert!(p51 > p11);
        assert!(p51 > 0.99);
    }

    #[test]
    fn half_liars_defeat_any_majority() {
        assert_eq!(witnesses_needed(0.5, 0.9, 1001), None);
        assert_eq!(witnesses_needed(0.6, 0.9, 1001), None);
    }

    #[test]
    fn witness_bound_grows_with_liar_fraction() {
        let easy = witnesses_needed(0.1, 0.95, 1001).unwrap();
        let hard = witnesses_needed(0.4, 0.95, 1001).unwrap();
        assert!(hard > easy, "{hard} > {easy}");
        assert!(easy >= 1);
    }

    #[test]
    fn no_liars_needs_one_witness() {
        assert_eq!(witnesses_needed(0.0, 0.99, 100), Some(1));
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let total: f64 = (0..=10).map(|k| binomial_pmf(10, k, 0.3)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn majority_estimate_follows_the_crowd() {
        let mut store = FeedbackStore::new();
        for i in 0..7 {
            store.push(Feedback::scored(
                AgentId::new(i),
                ServiceId::new(1),
                0.9,
                Time::ZERO,
            ));
        }
        for i in 7..10 {
            store.push(Feedback::scored(
                AgentId::new(i),
                ServiceId::new(1),
                0.0,
                Time::ZERO,
            ));
        }
        let est = MajorityOpinion::default()
            .estimate(&store, AgentId::new(99), ServiceId::new(1).into())
            .unwrap();
        assert!((est.value.get() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn empty_store_is_none() {
        assert!(MajorityOpinion::default()
            .estimate(
                &FeedbackStore::new(),
                AgentId::new(0),
                ServiceId::new(1).into()
            )
            .is_none());
    }
}
