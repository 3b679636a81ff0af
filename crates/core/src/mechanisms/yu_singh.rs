//! Yu & Singh — "Distributed Reputation Management for Electronic
//! Commerce" (Computational Intelligence 2002) and the large-scale P2P
//! follow-up, references \[35, 36\].
//!
//! *Decentralized, person/agent, personalized.* Each agent keeps a window
//! of recent interaction qualities per partner and turns it into a
//! **Dempster–Shafer belief mass** over {trustworthy, ¬trustworthy} using
//! upper/lower satisfaction thresholds. When local evidence is
//! insufficient, the agent queries **witnesses** located through referral
//! chains in its acquaintance network and combines their testimonies with
//! Dempster's rule.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::opinion::BeliefMass;
use crate::transitive::TrustGraph;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;

/// The Yu–Singh belief-based reputation mechanism.
#[derive(Debug)]
pub struct YuSinghMechanism {
    /// Lower satisfaction threshold ω_L: at or below → distrust evidence.
    lower: f64,
    /// Upper satisfaction threshold ω_U: at or above → trust evidence.
    upper: f64,
    /// History window per (observer, subject).
    window: usize,
    /// Own evidence needed before skipping the witness query.
    min_local: usize,
    /// Referral horizon in the acquaintance graph.
    horizon: usize,
    histories: BTreeMap<(AgentId, SubjectId), Vec<f64>>,
    acquaintances: TrustGraph,
    submitted: usize,
}

impl YuSinghMechanism {
    /// Thresholds (0.3, 0.7), window 10, 4 local interactions suffice,
    /// referral horizon 3.
    pub fn new() -> Self {
        YuSinghMechanism {
            lower: 0.3,
            upper: 0.7,
            window: 10,
            min_local: 4,
            horizon: 3,
            histories: BTreeMap::new(),
            acquaintances: TrustGraph::new(),
            submitted: 0,
        }
    }

    /// Declare an acquaintance edge: `from` knows (and somewhat trusts)
    /// `to`, enabling referrals through it.
    pub fn add_acquaintance(&mut self, from: AgentId, to: AgentId) {
        self.acquaintances.set(
            from,
            to,
            crate::opinion::Opinion::from_evidence(4.0, 0.0, 0.5),
        );
    }

    /// The belief mass `observer` assigns `subject` from local history.
    pub(crate) fn local_belief(&self, observer: AgentId, subject: SubjectId) -> BeliefMass {
        match self.histories.get(&(observer, subject)) {
            None => BeliefMass::vacuous(),
            Some(scores) => BeliefMass::from_scores(scores, self.lower, self.upper),
        }
    }

    /// Discount a testimony before combination: second-hand evidence keeps
    /// some uncommitted mass (Yu & Singh weigh witness testimony below
    /// first-hand experience), which also prevents two dogmatic witnesses
    /// from producing total conflict under Dempster's rule.
    fn discount(mass: BeliefMass, gamma: f64) -> BeliefMass {
        BeliefMass::new(
            mass.trust * gamma,
            mass.distrust * gamma,
            mass.unknown * gamma + (1.0 - gamma),
        )
    }

    /// The witnesses `observer` can reach for testimony about `subject`:
    /// agents within the referral horizon that have local evidence.
    pub(crate) fn witnesses(&self, observer: AgentId, subject: SubjectId) -> Vec<AgentId> {
        let reachable = if self.acquaintances.is_empty() {
            // Without an explicit acquaintance network every evidence
            // holder is reachable (fully-connected referral fallback).
            self.histories
                .keys()
                .filter(|&&(a, s)| s == subject && a != observer)
                .map(|&(a, _)| a)
                .collect()
        } else {
            self.acquaintances
                .reachable(observer, self.horizon)
                .into_iter()
                .collect::<Vec<_>>()
        };
        reachable
            .into_iter()
            .filter(|&w| {
                w != observer
                    && self
                        .histories
                        .get(&(w, subject))
                        .map(|h| !h.is_empty())
                        .unwrap_or(false)
            })
            .collect()
    }
}

impl ReputationMechanism for YuSinghMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "yu_singh",
            display: "B. Yu & M. Singh",
            centralization: Centralization::Decentralized,
            subject: Subject::PersonAgent,
            scope: Scope::Personalized,
            citation: "35, 36",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        let h = self
            .histories
            .entry((feedback.rater, feedback.subject))
            .or_default();
        h.push(feedback.score);
        if h.len() > self.window {
            let excess = h.len() - self.window;
            h.drain(0..excess);
        }
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        // Combine every agent's local mass with Dempster's rule.
        let mut combined: Option<BeliefMass> = None;
        let mut n = 0usize;
        for ((_, s), scores) in &self.histories {
            if *s != subject || scores.is_empty() {
                continue;
            }
            let mass = Self::discount(BeliefMass::from_scores(scores, self.lower, self.upper), 0.8);
            n += scores.len();
            combined = Some(match combined {
                None => mass,
                // On total conflict keep the earlier consensus.
                Some(c) => c.combine(&mass).unwrap_or(c),
            });
        }
        let mass = combined?;
        Some(TrustEstimate::new(
            TrustValue::new(mass.trust_score()),
            evidence_confidence(n, 5.0),
        ))
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        let own_scores = self
            .histories
            .get(&(observer, subject))
            .cloned()
            .unwrap_or_default();
        let local = self.local_belief(observer, subject);
        if own_scores.len() >= self.min_local {
            return Some(TrustEstimate::new(
                TrustValue::new(local.trust_score()),
                evidence_confidence(own_scores.len(), 3.0),
            ));
        }
        // Query witnesses through referrals and combine testimonies.
        let witnesses = self.witnesses(observer, subject);
        if witnesses.is_empty() && own_scores.is_empty() {
            return None;
        }
        let mut combined = local;
        let mut n = own_scores.len();
        for w in witnesses {
            let mass = Self::discount(self.local_belief(w, subject), 0.8);
            n += self.histories.get(&(w, subject)).map(Vec::len).unwrap_or(0);
            combined = combined.combine(&mass).unwrap_or(combined);
        }
        Some(TrustEstimate::new(
            TrustValue::new(combined.trust_score()),
            evidence_confidence(n, 5.0),
        ))
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }
}

impl Default for YuSinghMechanism {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn fb(rater: u64, subject: u64, score: f64) -> Feedback {
        Feedback::scored(
            AgentId::new(rater),
            AgentId::new(subject),
            score,
            Time::ZERO,
        )
    }

    fn s(i: u64) -> SubjectId {
        AgentId::new(i).into()
    }

    #[test]
    fn local_belief_buckets_by_thresholds() {
        let mut m = YuSinghMechanism::new();
        for score in [0.9, 0.9, 0.1, 0.5] {
            m.submit(&fb(0, 1, score));
        }
        let mass = m.local_belief(AgentId::new(0), s(1));
        assert!((mass.trust - 0.5).abs() < 1e-12);
        assert!((mass.distrust - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sufficient_local_evidence_skips_witnesses() {
        let mut m = YuSinghMechanism::new();
        for _ in 0..5 {
            m.submit(&fb(0, 1, 0.9));
        }
        // Hostile witnesses should not matter.
        for _ in 0..10 {
            m.submit(&fb(7, 1, 0.05));
        }
        let est = m.personalized(AgentId::new(0), s(1)).unwrap();
        assert!(est.value.get() > 0.8, "got {}", est.value);
    }

    #[test]
    fn witnesses_fill_in_for_newcomers() {
        let mut m = YuSinghMechanism::new();
        for w in 1..4 {
            for _ in 0..6 {
                m.submit(&fb(w, 9, 0.9));
            }
        }
        // Observer 0 has never interacted with 9.
        let est = m.personalized(AgentId::new(0), s(9)).unwrap();
        assert!(est.value.get() > 0.7, "got {}", est.value);
    }

    #[test]
    fn referral_horizon_limits_witnesses() {
        let mut m = YuSinghMechanism::new();
        // Chain 0 -> 1 -> 2 -> 3 -> 4; witness 4 holds the only evidence.
        for i in 0..4 {
            m.add_acquaintance(AgentId::new(i), AgentId::new(i + 1));
        }
        for _ in 0..6 {
            m.submit(&fb(4, 9, 0.9));
        }
        // Horizon 3 reaches only agents 1..3 → no witness with evidence.
        assert!(m.witnesses(AgentId::new(0), s(9)).is_empty());
        // From agent 1, the chain reaches 4.
        assert_eq!(m.witnesses(AgentId::new(1), s(9)), vec![AgentId::new(4)]);
    }

    #[test]
    fn window_drops_old_scores() {
        let mut m = YuSinghMechanism::new();
        for _ in 0..10 {
            m.submit(&fb(0, 1, 0.1));
        }
        for _ in 0..10 {
            m.submit(&fb(0, 1, 0.9));
        }
        // Window 10: only the good recent scores remain.
        let mass = m.local_belief(AgentId::new(0), s(1));
        assert_eq!(mass.trust, 1.0);
    }

    #[test]
    fn conflicting_testimony_lands_in_the_middle() {
        let mut m = YuSinghMechanism::new();
        for _ in 0..6 {
            m.submit(&fb(1, 9, 0.9));
            m.submit(&fb(2, 9, 0.1));
        }
        let est = m.personalized(AgentId::new(0), s(9)).unwrap();
        assert!((est.value.get() - 0.5).abs() < 0.25, "got {}", est.value);
    }

    #[test]
    fn no_evidence_anywhere_is_none() {
        let m = YuSinghMechanism::new();
        assert_eq!(m.personalized(AgentId::new(0), s(1)), None);
        assert_eq!(m.global(s(1)), None);
    }
}
