//! Manikrao & Prabhakar — "Dynamic Selection of Web Services with
//! Recommendation System" (NWeSP 2005), reference \[17\].
//!
//! *Centralized, resource, personalized.* Their selector combines a
//! recommendation-system core (user-based collaborative filtering over
//! service ratings) with a fallback for the sparse-data case: when the
//! requesting user has too little rating history for CF to find neighbors,
//! the system serves the community average and learns from the user's
//! subsequent feedback. That blend — CF prediction when available,
//! popularity prior otherwise, weighted by history size — is implemented
//! here on top of [`crate::mechanisms::cf`].

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::mechanisms::cf::{CfMechanism, Similarity};
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;

/// CF-backed recommender with a popularity fallback for sparse users.
#[derive(Debug)]
pub struct ManikraoMechanism {
    cf: CfMechanism,
    /// Ratings filed per user, to gauge how much CF can be trusted for them.
    user_history: BTreeMap<AgentId, usize>,
    /// How many own ratings make CF fully trusted (blend saturation).
    history_saturation: f64,
}

impl Default for ManikraoMechanism {
    fn default() -> Self {
        Self::new()
    }
}

impl ManikraoMechanism {
    /// Default: cosine similarity (their prototype's measure), saturation
    /// at 5 own ratings.
    pub fn new() -> Self {
        ManikraoMechanism {
            cf: CfMechanism::new(Similarity::Cosine),
            user_history: BTreeMap::new(),
            history_saturation: 5.0,
        }
    }

    /// How strongly the CF prediction is trusted for `observer` in `\[0,1\]`.
    pub(crate) fn cf_weight(&self, observer: AgentId) -> f64 {
        let n = self.user_history.get(&observer).copied().unwrap_or(0);
        evidence_confidence(n, self.history_saturation)
    }
}

impl ReputationMechanism for ManikraoMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "manikrao",
            display: "U. S. Manikrao & T. V. Prabhakar",
            centralization: Centralization::Centralized,
            subject: Subject::Resource,
            scope: Scope::Personalized,
            citation: "17",
            proposed_for_web_services: true,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        self.cf.submit(feedback);
        *self.user_history.entry(feedback.rater).or_insert(0) += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        self.cf.global(subject)
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        let global = self.cf.global(subject);
        let prediction = self.cf.predict(observer, subject);
        match (prediction, global) {
            (Some(p), Some(g)) => {
                // Blend by history confidence: sparse users lean on the
                // community average, experienced users on CF.
                let w = self.cf_weight(observer);
                Some(TrustEstimate::new(
                    g.value.blend(TrustValue::new(p), w),
                    g.confidence.max(w),
                ))
            }
            (Some(p), None) => Some(TrustEstimate::new(TrustValue::new(p), 0.5)),
            (None, g) => g,
        }
    }

    fn feedback_count(&self) -> usize {
        self.cf.feedback_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ServiceId;
    use crate::time::Time;

    fn fb(rater: u64, item: u64, score: f64) -> Feedback {
        Feedback::scored(AgentId::new(rater), ServiceId::new(item), score, Time::ZERO)
    }

    #[test]
    fn sparse_user_gets_community_view() {
        let mut m = ManikraoMechanism::new();
        for u in 0..6 {
            m.submit(&fb(u, 0, 0.8));
        }
        // Observer 99 has never rated: fallback to community average.
        let est = m
            .personalized(AgentId::new(99), ServiceId::new(0).into())
            .unwrap();
        assert!((est.value.get() - 0.8).abs() < 1e-9);
        assert_eq!(m.cf_weight(AgentId::new(99)), 0.0);
    }

    #[test]
    fn experienced_user_leans_on_cf() {
        let mut m = ManikraoMechanism::new();
        // Two camps over items 0..4, like the CF tests.
        for u in 0..8 {
            let loves_low = u % 2 == 0;
            for item in 0..4u64 {
                let good = (item < 2) == loves_low;
                m.submit(&fb(u, item, if good { 0.9 } else { 0.1 }));
            }
        }
        // Experienced even-camp user.
        for item in [0u64, 2, 0, 2, 0, 2, 0, 2] {
            m.submit(&fb(100, item, if item == 0 { 0.9 } else { 0.1 }));
        }
        assert!(m.cf_weight(AgentId::new(100)) > 0.5);
        let est = m
            .personalized(AgentId::new(100), ServiceId::new(1).into())
            .unwrap();
        // Community view of item 1 is ~0.5; CF should push it up.
        assert!(est.value.get() > 0.6, "got {}", est.value);
    }

    #[test]
    fn global_equals_cf_global() {
        let mut m = ManikraoMechanism::new();
        m.submit(&fb(0, 0, 0.6));
        m.submit(&fb(1, 0, 0.8));
        let est = m.global(ServiceId::new(0).into()).unwrap();
        assert!((est.value.get() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn unknown_item_is_none() {
        let m = ManikraoMechanism::new();
        assert_eq!(
            m.personalized(AgentId::new(0), ServiceId::new(9).into()),
            None
        );
    }
}
