//! Amazon-style product reviews — reference \[2\].
//!
//! A *centralized, resource, global* system: items carry star ratings from
//! reviewers; the displayed reputation is an aggregate that weighs each
//! review by the reviewer's standing (Amazon surfaces "helpful" reviewers
//! and ranks them). We model reviewer standing as the fraction of helpful
//! votes their past reviews received.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::{ReputationMechanism, SubjectAccumulator};
use crate::trust::{TrustEstimate, WeightedMean};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;

/// One stored review.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Review {
    reviewer: AgentId,
    score: f64,
}

/// A reviewer's weight before any helpfulness vote.
const UNVOTED_WEIGHT: f64 = 0.5;

/// Amazon-style weighted review aggregation.
#[derive(Debug, Clone, Default)]
pub struct AmazonMechanism {
    reviews: BTreeMap<SubjectId, Vec<Review>>,
    /// Helpful/unhelpful votes per reviewer.
    helpfulness: BTreeMap<AgentId, (u64, u64)>,
    submitted: usize,
}

impl AmazonMechanism {
    /// Empty mechanism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a community vote on a reviewer's helpfulness ("Was this
    /// review helpful?").
    pub fn vote_helpful(&mut self, reviewer: AgentId, helpful: bool) {
        let e = self.helpfulness.entry(reviewer).or_insert((0, 0));
        if helpful {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }

    /// A reviewer's weight in `[0.25, 1]`: Laplace-smoothed helpful
    /// fraction, floored so unknown reviewers still count somewhat.
    pub(crate) fn reviewer_weight(&self, reviewer: AgentId) -> f64 {
        match self.helpfulness.get(&reviewer) {
            None => UNVOTED_WEIGHT,
            Some(&(h, u)) => ((h as f64 + 1.0) / ((h + u) as f64 + 2.0)).max(0.25),
        }
    }
}

impl ReputationMechanism for AmazonMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "amazon",
            display: "Amazon",
            centralization: Centralization::Centralized,
            subject: Subject::Resource,
            scope: Scope::Global,
            citation: "2",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        self.reviews
            .entry(feedback.subject)
            .or_default()
            .push(Review {
                reviewer: feedback.rater,
                score: feedback.score,
            });
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        let mut mean = WeightedMean::default();
        for r in self.reviews.get(&subject)? {
            mean.add(self.reviewer_weight(r.reviewer), r.score);
        }
        mean.estimate()
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }

    fn accumulator(&self) -> Option<Box<dyn SubjectAccumulator>> {
        Some(Box::new(AmazonAccumulator::default()))
    }
}

/// The Amazon fold. Helpfulness votes arrive out of band
/// ([`AmazonMechanism::vote_helpful`]), never through the feedback log,
/// so a replay through a fresh mechanism weighs every reviewer at the
/// unvoted weight; the fold keeps the same [`WeightedMean`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AmazonAccumulator {
    mean: WeightedMean,
}

impl SubjectAccumulator for AmazonAccumulator {
    fn absorb(&mut self, feedback: &Feedback) {
        self.mean.add(UNVOTED_WEIGHT, feedback.score);
    }

    fn estimate(&self) -> Option<TrustEstimate> {
        self.mean.estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ServiceId;
    use crate::time::Time;

    fn fb(rater: u64, score: f64) -> Feedback {
        Feedback::scored(AgentId::new(rater), ServiceId::new(1), score, Time::ZERO)
    }

    #[test]
    fn unweighted_reviews_average() {
        let mut m = AmazonMechanism::new();
        m.submit(&fb(0, 1.0));
        m.submit(&fb(1, 0.0));
        let est = m.global(ServiceId::new(1).into()).unwrap();
        assert!((est.value.get() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn helpful_reviewers_move_the_aggregate() {
        let mut m = AmazonMechanism::new();
        // Reviewer 0 is highly helpful, reviewer 1 widely unhelpful.
        for _ in 0..20 {
            m.vote_helpful(AgentId::new(0), true);
            m.vote_helpful(AgentId::new(1), false);
        }
        m.submit(&fb(0, 1.0));
        m.submit(&fb(1, 0.0));
        let est = m.global(ServiceId::new(1).into()).unwrap();
        assert!(est.value.get() > 0.7, "got {}", est.value);
    }

    #[test]
    fn unhelpful_reviewer_weight_is_floored() {
        let mut m = AmazonMechanism::new();
        for _ in 0..100 {
            m.vote_helpful(AgentId::new(1), false);
        }
        assert!(m.reviewer_weight(AgentId::new(1)) >= 0.25);
    }

    #[test]
    fn unknown_reviewer_weight_is_neutral() {
        let m = AmazonMechanism::new();
        assert_eq!(m.reviewer_weight(AgentId::new(9)), 0.5);
    }

    #[test]
    fn unreviewed_item_has_no_reputation() {
        let m = AmazonMechanism::new();
        assert_eq!(m.global(ServiceId::new(9).into()), None);
    }

    #[test]
    fn confidence_grows_with_reviews() {
        let mut m = AmazonMechanism::new();
        m.submit(&fb(0, 0.8));
        let low = m.global(ServiceId::new(1).into()).unwrap().confidence;
        for i in 1..30 {
            m.submit(&fb(i, 0.8));
        }
        let high = m.global(ServiceId::new(1).into()).unwrap().confidence;
        assert!(high > low);
    }
}
