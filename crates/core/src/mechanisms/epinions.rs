//! Epinions — reference \[8\].
//!
//! A *centralized, resource, global* review site whose distinguishing
//! feature is the **web of trust**: members explicitly trust or block
//! reviewers, and a reviewer's influence on displayed ratings grows with
//! how widely trusted they are. We aggregate item reviews weighted by each
//! reviewer's incoming trust degree in the member trust graph.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::{ReputationMechanism, SubjectAccumulator};
use crate::trust::{TrustEstimate, WeightedMean};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::{BTreeMap, BTreeSet};

/// Epinions-style review aggregation over a web of trust.
#[derive(Debug, Clone, Default)]
pub struct EpinionsMechanism {
    reviews: BTreeMap<SubjectId, Vec<(AgentId, f64)>>,
    /// trusters per reviewer (the web of trust, incoming edges).
    trusted_by: BTreeMap<AgentId, BTreeSet<AgentId>>,
    /// blockers per reviewer (Epinions' "block list").
    blocked_by: BTreeMap<AgentId, BTreeSet<AgentId>>,
    submitted: usize,
}

impl EpinionsMechanism {
    /// Empty mechanism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Member `who` adds `reviewer` to their web of trust.
    pub fn trust(&mut self, who: AgentId, reviewer: AgentId) {
        self.trusted_by.entry(reviewer).or_default().insert(who);
        if let Some(blockers) = self.blocked_by.get_mut(&reviewer) {
            blockers.remove(&who);
        }
    }

    /// Member `who` blocks `reviewer`.
    pub fn block(&mut self, who: AgentId, reviewer: AgentId) {
        self.blocked_by.entry(reviewer).or_default().insert(who);
        if let Some(trusters) = self.trusted_by.get_mut(&reviewer) {
            trusters.remove(&who);
        }
    }

    /// A reviewer's influence: saturating function of net incoming trust.
    pub(crate) fn influence(&self, reviewer: AgentId) -> f64 {
        let t = self
            .trusted_by
            .get(&reviewer)
            .map(BTreeSet::len)
            .unwrap_or(0) as f64;
        let b = self
            .blocked_by
            .get(&reviewer)
            .map(BTreeSet::len)
            .unwrap_or(0) as f64;
        influence_of((t - b).max(0.0))
    }
}

/// Influence from net incoming trust: 0 trusters → 0.2 baseline, then
/// saturating toward 1.
fn influence_of(net: f64) -> f64 {
    0.2 + 0.8 * net / (net + 3.0)
}

impl ReputationMechanism for EpinionsMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "epinions",
            display: "Epinions",
            centralization: Centralization::Centralized,
            subject: Subject::Resource,
            scope: Scope::Global,
            citation: "8",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        self.reviews
            .entry(feedback.subject)
            .or_default()
            .push((feedback.rater, feedback.score));
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        let mut mean = WeightedMean::default();
        for &(reviewer, score) in self.reviews.get(&subject)? {
            mean.add(self.influence(reviewer), score);
        }
        mean.estimate()
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }

    fn accumulator(&self) -> Option<Box<dyn SubjectAccumulator>> {
        Some(Box::new(EpinionsAccumulator::default()))
    }
}

/// The Epinions fold. Web-of-trust edges arrive out of band
/// ([`EpinionsMechanism::trust`] / [`EpinionsMechanism::block`]), never
/// through the feedback log, so a replay through a fresh mechanism gives
/// every reviewer the no-trusters baseline influence; the fold keeps the
/// same [`WeightedMean`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EpinionsAccumulator {
    mean: WeightedMean,
}

impl SubjectAccumulator for EpinionsAccumulator {
    fn absorb(&mut self, feedback: &Feedback) {
        self.mean.add(influence_of(0.0), feedback.score);
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
    fn widely_trusted_reviewer_dominates() {
        let mut m = EpinionsMechanism::new();
        for i in 10..25 {
            m.trust(AgentId::new(i), AgentId::new(0));
        }
        m.submit(&fb(0, 0.95)); // trusted reviewer: great
        m.submit(&fb(1, 0.05)); // unknown reviewer: awful
        let est = m.global(ServiceId::new(1).into()).unwrap();
        assert!(est.value.get() > 0.7, "got {}", est.value);
    }

    #[test]
    fn blocking_cancels_trust() {
        let mut m = EpinionsMechanism::new();
        m.trust(AgentId::new(5), AgentId::new(0));
        let before = m.influence(AgentId::new(0));
        m.block(AgentId::new(5), AgentId::new(0));
        let after = m.influence(AgentId::new(0));
        assert!(after < before);
        assert_eq!(after, 0.2); // back to baseline
    }

    #[test]
    fn influence_is_bounded() {
        let mut m = EpinionsMechanism::new();
        for i in 0..1000 {
            m.trust(AgentId::new(i), AgentId::new(0));
        }
        assert!(m.influence(AgentId::new(0)) <= 1.0);
        for i in 0..1000 {
            m.block(AgentId::new(i + 2000), AgentId::new(1));
        }
        assert!(m.influence(AgentId::new(1)) >= 0.2);
    }

    #[test]
    fn trust_then_block_is_idempotent_per_member() {
        let mut m = EpinionsMechanism::new();
        m.trust(AgentId::new(5), AgentId::new(0));
        m.trust(AgentId::new(5), AgentId::new(0));
        m.block(AgentId::new(5), AgentId::new(0));
        // One member's opinion counted once.
        assert_eq!(m.influence(AgentId::new(0)), 0.2);
    }

    #[test]
    fn plain_average_without_web_of_trust() {
        let mut m = EpinionsMechanism::new();
        m.submit(&fb(0, 1.0));
        m.submit(&fb(1, 0.0));
        let est = m.global(ServiceId::new(1).into()).unwrap();
        assert!((est.value.get() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unreviewed_subject_is_none() {
        assert_eq!(
            EpinionsMechanism::new().global(ServiceId::new(2).into()),
            None
        );
    }
}
