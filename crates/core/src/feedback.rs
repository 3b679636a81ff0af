//! Consumer feedback: the raw material of every reputation mechanism.
//!
//! Section 2 of the paper distinguishes the two kinds of information a
//! consumer reports to the QoS registry after consuming a service:
//!
//! 1. *"quality information collected from actual execution monitoring,
//!    such as response time and execution time"* — here the
//!    [`Feedback::observed`] QoS vector, and
//! 2. *"ratings about the quality of the service, especially the QoS
//!    aspects like accuracy that can not be acquired through execution
//!    monitoring"* — here [`Feedback::facet_ratings`] plus the overall
//!    [`Feedback::score`].

use crate::id::{AgentId, SubjectId};
use crate::time::Time;
use std::collections::BTreeMap;
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;

/// One feedback report from a rater about a subject.
#[derive(Debug, Clone, PartialEq)]
pub struct Feedback {
    /// Who reports.
    pub rater: AgentId,
    /// What is being rated: a service, a provider, or another agent.
    pub subject: SubjectId,
    /// Overall satisfaction in `\[0, 1\]`.
    pub score: f64,
    /// Raw QoS values measured during the interaction, if any.
    pub observed: QosVector,
    /// Subjective per-metric ratings in `\[0, 1\]` for aspects that cannot be
    /// measured mechanically (accuracy, confidentiality, …).
    pub facet_ratings: BTreeMap<Metric, f64>,
    /// When the interaction happened.
    pub at: Time,
}

impl Feedback {
    /// A plain overall-score feedback with no per-metric detail.
    ///
    /// ```
    /// use wsrep_core::feedback::Feedback;
    /// use wsrep_core::id::{AgentId, ServiceId};
    /// use wsrep_core::time::Time;
    /// let fb = Feedback::scored(AgentId::new(1), ServiceId::new(2), 0.8, Time::new(3));
    /// assert_eq!(fb.score, 0.8);
    /// ```
    pub fn scored(rater: AgentId, subject: impl Into<SubjectId>, score: f64, at: Time) -> Self {
        Feedback {
            rater,
            subject: subject.into(),
            score: score.clamp(0.0, 1.0),
            observed: QosVector::new(),
            facet_ratings: BTreeMap::new(),
            at,
        }
    }

    /// Attach measured QoS values (builder style).
    pub fn with_observed(mut self, observed: QosVector) -> Self {
        self.observed = observed;
        self
    }

    /// Attach a subjective per-metric rating (builder style).
    pub fn with_facet(mut self, metric: Metric, rating: f64) -> Self {
        self.facet_ratings.insert(metric, rating.clamp(0.0, 1.0));
        self
    }

    /// Whether the rater was satisfied relative to `threshold`.
    pub(crate) fn is_positive(&self, threshold: f64) -> bool {
        self.score >= threshold
    }

    /// Map the score onto eBay's ternary scale: `+1` (score ≥ 2/3),
    /// `-1` (score ≤ 1/3), `0` otherwise.
    pub(crate) fn ebay_sign(&self) -> i8 {
        if self.score >= 2.0 / 3.0 {
            1
        } else if self.score <= 1.0 / 3.0 {
            -1
        } else {
            0
        }
    }

    /// Whether this report is a *complaint* in the Aberer–Despotovic sense
    /// (only negative experiences are filed; anything below the threshold
    /// becomes a complaint).
    pub(crate) fn is_complaint(&self, threshold: f64) -> bool {
        self.score < threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ServiceId;

    fn fb(score: f64) -> Feedback {
        Feedback::scored(AgentId::new(0), ServiceId::new(1), score, Time::ZERO)
    }

    #[test]
    fn score_is_clamped() {
        assert_eq!(fb(1.4).score, 1.0);
        assert_eq!(fb(-0.3).score, 0.0);
    }

    #[test]
    fn ebay_sign_buckets() {
        assert_eq!(fb(0.9).ebay_sign(), 1);
        assert_eq!(fb(0.5).ebay_sign(), 0);
        assert_eq!(fb(0.1).ebay_sign(), -1);
        assert_eq!(fb(2.0 / 3.0).ebay_sign(), 1);
        assert_eq!(fb(1.0 / 3.0).ebay_sign(), -1);
    }

    #[test]
    fn complaint_is_below_threshold() {
        assert!(fb(0.2).is_complaint(0.5));
        assert!(!fb(0.5).is_complaint(0.5));
    }

    #[test]
    fn builder_attaches_details() {
        let fb = fb(0.7)
            .with_observed(QosVector::from_pairs([(Metric::ResponseTime, 99.0)]))
            .with_facet(Metric::Accuracy, 2.0);
        assert_eq!(fb.observed.get(Metric::ResponseTime), Some(99.0));
        assert_eq!(fb.facet_ratings[&Metric::Accuracy], 1.0); // clamped
    }
}
