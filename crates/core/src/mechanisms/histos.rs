//! Histos — Zacharia, Moukas & Maes (HICSS-32), reference \[37\].
//!
//! The *personalized* sibling of Sporas: reputation is computed from the
//! rating graph rooted at the querying user. The most recent rating each
//! rater gave a ratee forms a directed edge; the personalized reputation of
//! `z` for observer `o` is a recursive weighted mean over the raters of
//! `z`, weighting each rater's rating by that rater's own personalized
//! reputation in `o`'s eyes, up to a recursion horizon.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::time::Time;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::{BTreeMap, BTreeSet};

/// Histos with a configurable recursion depth.
#[derive(Debug, Clone)]
pub struct HistosMechanism {
    /// Most recent rating per (rater, ratee) edge with its timestamp.
    edges: BTreeMap<AgentId, BTreeMap<SubjectId, (f64, Time)>>,
    /// Recursion horizon (the original uses breadth-first level expansion).
    max_depth: usize,
    submitted: usize,
}

impl Default for HistosMechanism {
    fn default() -> Self {
        Self::new()
    }
}

impl HistosMechanism {
    /// Histos with recursion depth 4.
    pub fn new() -> Self {
        Self::with_depth(4)
    }

    /// Histos with an explicit recursion depth (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `max_depth == 0`.
    pub(crate) fn with_depth(max_depth: usize) -> Self {
        assert!(max_depth > 0, "depth must be at least 1");
        HistosMechanism {
            edges: BTreeMap::new(),
            max_depth,
            submitted: 0,
        }
    }

    /// The raters that have rated `subject`, with their latest ratings.
    fn raters_of(&self, subject: SubjectId) -> impl Iterator<Item = (AgentId, f64)> + '_ {
        self.edges.iter().filter_map(move |(rater, rated)| {
            rated.get(&subject).map(|&(score, _)| (*rater, score))
        })
    }

    /// Personalized reputation of `subject` for `observer`, recursive.
    fn rep(
        &self,
        observer: AgentId,
        subject: SubjectId,
        depth: usize,
        on_path: &mut BTreeSet<SubjectId>,
    ) -> Option<f64> {
        // A direct, personal rating overrides everything — personal
        // experience is the root of the Histos graph.
        if let Some(&(score, _)) = self.edges.get(&observer).and_then(|r| r.get(&subject)) {
            return Some(score);
        }
        if depth == 0 {
            return None;
        }
        // Weighted mean over raters of `subject`, weighted by the rater's
        // own personalized reputation for the observer.
        let mut num = 0.0;
        let mut den = 0.0;
        for (rater, score) in self.raters_of(subject) {
            let rater_subject = SubjectId::Agent(rater);
            if rater_subject == subject || on_path.contains(&rater_subject) {
                continue;
            }
            on_path.insert(rater_subject);
            let weight = self
                .rep(observer, rater_subject, depth - 1, on_path)
                .unwrap_or(0.5); // unknown raters weigh neutrally
            on_path.remove(&rater_subject);
            num += weight * score;
            den += weight;
        }
        if den > 0.0 {
            Some(num / den)
        } else {
            None
        }
    }
}

impl ReputationMechanism for HistosMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "histos",
            display: "Histos",
            centralization: Centralization::Centralized,
            subject: Subject::PersonAgent,
            scope: Scope::Personalized,
            citation: "37",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        let edge = self
            .edges
            .entry(feedback.rater)
            .or_default()
            .entry(feedback.subject)
            .or_insert((feedback.score, feedback.at));
        // Keep only the most recent rating per pair, as Histos prescribes.
        if feedback.at >= edge.1 {
            *edge = (feedback.score, feedback.at);
        }
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        // The population view: plain mean of the latest rating per rater.
        let ratings: Vec<f64> = self.raters_of(subject).map(|(_, s)| s).collect();
        if ratings.is_empty() {
            return None;
        }
        let mean = ratings.iter().sum::<f64>() / ratings.len() as f64;
        Some(TrustEstimate::new(
            TrustValue::new(mean),
            evidence_confidence(ratings.len(), 3.0),
        ))
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        let mut on_path = BTreeSet::new();
        on_path.insert(SubjectId::Agent(observer));
        let value = self.rep(observer, subject, self.max_depth, &mut on_path)?;
        let n = self.raters_of(subject).count();
        Some(TrustEstimate::new(
            TrustValue::new(value),
            evidence_confidence(n.max(1), 3.0),
        ))
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ServiceId;

    fn fb(rater: u64, subject: SubjectId, score: f64, t: u64) -> Feedback {
        Feedback::scored(AgentId::new(rater), subject, score, Time::new(t))
    }

    #[test]
    fn direct_experience_dominates() {
        let mut m = HistosMechanism::new();
        let s: SubjectId = ServiceId::new(1).into();
        // Everyone else loves the service, but the observer had a bad time.
        for r in 1..6 {
            m.submit(&fb(r, s, 0.95, 0));
        }
        m.submit(&fb(0, s, 0.1, 1));
        let personal = m.personalized(AgentId::new(0), s).unwrap();
        assert!(personal.value.get() < 0.2);
        let global = m.global(s).unwrap();
        assert!(global.value.get() > 0.7);
    }

    #[test]
    fn newer_rating_replaces_older_per_pair() {
        let mut m = HistosMechanism::new();
        let s: SubjectId = ServiceId::new(1).into();
        m.submit(&fb(0, s, 0.2, 0));
        m.submit(&fb(0, s, 0.9, 5));
        let est = m.personalized(AgentId::new(0), s).unwrap();
        assert!((est.value.get() - 0.9).abs() < 1e-12);
        // Out-of-order old rating does not clobber the newer one.
        m.submit(&fb(0, s, 0.1, 2));
        let est = m.personalized(AgentId::new(0), s).unwrap();
        assert!((est.value.get() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn indirect_reputation_weights_by_rater_trust() {
        let mut m = HistosMechanism::new();
        let s: SubjectId = ServiceId::new(1).into();
        let trusted = AgentId::new(1);
        let distrusted = AgentId::new(2);
        // Observer 0 trusts rater 1, distrusts rater 2 (near-zero weight).
        m.submit(&fb(0, trusted.into(), 1.0, 0));
        m.submit(&fb(0, distrusted.into(), 0.0, 0));
        // Rater 1 says the service is bad; rater 2 says it is great.
        m.submit(&fb(1, s, 0.1, 1));
        m.submit(&fb(2, s, 0.9, 1));
        let est = m.personalized(AgentId::new(0), s).unwrap();
        // Weighted mean: (1.0*0.1 + 0.0*0.9) / 1.0 = 0.1.
        assert!(est.value.get() < 0.2, "got {}", est.value);
    }

    #[test]
    fn unknown_subject_yields_none() {
        let m = HistosMechanism::new();
        assert!(m
            .personalized(AgentId::new(0), ServiceId::new(9).into())
            .is_none());
        assert!(m.global(ServiceId::new(9).into()).is_none());
    }

    #[test]
    fn two_hop_chain_resolves() {
        let mut m = HistosMechanism::new();
        let s: SubjectId = ServiceId::new(1).into();
        // 0 rated 1; 1 rated 2; 2 rated the service.
        m.submit(&fb(0, AgentId::new(1).into(), 1.0, 0));
        m.submit(&fb(1, AgentId::new(2).into(), 1.0, 0));
        m.submit(&fb(2, s, 0.8, 0));
        let est = m.personalized(AgentId::new(0), s).unwrap();
        assert!((est.value.get() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn depth_limit_stops_resolution() {
        let mut m = HistosMechanism::with_depth(1);
        let s: SubjectId = ServiceId::new(1).into();
        m.submit(&fb(0, AgentId::new(1).into(), 1.0, 0));
        m.submit(&fb(1, AgentId::new(2).into(), 1.0, 0));
        m.submit(&fb(2, s, 0.8, 0));
        // Depth 1: rater 2's weight cannot be resolved (needs 2 hops), so
        // it falls back to the neutral 0.5 weight but still resolves.
        let est = m.personalized(AgentId::new(0), s).unwrap();
        assert!((est.value.get() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn rating_cycles_terminate() {
        let mut m = HistosMechanism::new();
        let a: SubjectId = AgentId::new(1).into();
        let b: SubjectId = AgentId::new(2).into();
        m.submit(&fb(1, b, 0.9, 0));
        m.submit(&fb(2, a, 0.9, 0));
        let s: SubjectId = ServiceId::new(5).into();
        m.submit(&fb(1, s, 0.7, 0));
        // Observer 0 with no direct edges: resolution walks the 1<->2 cycle
        // but must terminate.
        let est = m.personalized(AgentId::new(0), s);
        assert!(est.is_some());
    }

    #[test]
    fn classification_is_centralized_person_personalized() {
        let info = HistosMechanism::new().info();
        assert_eq!(info.scope, Scope::Personalized);
        assert_eq!(info.subject, Subject::PersonAgent);
    }
}
