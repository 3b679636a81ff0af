//! Maximilien & Singh's agent framework — references \[18–21\].
//!
//! *Centralized, resource, personalized*: service agents and consumer
//! agents share a QoS ontology; each service accumulates per-quality
//! reputation from agent reports, and a consumer agent matches that
//! multi-attribute reputation against its owner's preferences. The
//! framework's distinctive *explorer agents* (the multiagent paper \[19\])
//! re-probe services whose reputation went negative so that improved
//! services can recover; `wsrep_sim::monitor::explorer_targets` picks
//! those services from the reputations this mechanism answers.

use crate::facets::FacetedTrust;
use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::time::Time;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;
use wsrep_qos::preference::Preferences;

/// Per-service multi-attribute reputation with preference matching.
#[derive(Debug, Default)]
pub struct MaximilienMechanism {
    facets: BTreeMap<SubjectId, FacetedTrust>,
    overall: BTreeMap<SubjectId, Vec<(f64, Time)>>,
    profiles: BTreeMap<AgentId, Preferences>,
    now: Time,
    submitted: usize,
}

impl MaximilienMechanism {
    /// Empty mechanism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a consumer agent's preference profile (its slice of the
    /// QoS ontology).
    pub fn set_profile(&mut self, consumer: AgentId, prefs: Preferences) {
        self.profiles.insert(consumer, prefs);
    }
}

impl ReputationMechanism for MaximilienMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "maximilien",
            display: "E. M. Maximilien & M. P. Singh",
            centralization: Centralization::Centralized,
            subject: Subject::Resource,
            scope: Scope::Personalized,
            citation: "18-21",
            proposed_for_web_services: true,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        self.now = self.now.max(feedback.at);
        let facets = self.facets.entry(feedback.subject).or_default();
        // Subjective per-aspect ratings feed the ontology attributes.
        for (&metric, &rating) in &feedback.facet_ratings {
            facets.record(metric, rating, feedback.at);
        }
        self.overall
            .entry(feedback.subject)
            .or_default()
            .push((feedback.score, feedback.at));
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        let scores = self.overall.get(&subject)?;
        if scores.is_empty() {
            return None;
        }
        let mean = scores.iter().map(|&(s, _)| s).sum::<f64>() / scores.len() as f64;
        Some(TrustEstimate::new(
            TrustValue::new(mean),
            evidence_confidence(scores.len(), 3.0),
        ))
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        let prefs = match self.profiles.get(&observer) {
            Some(p) => p,
            None => return self.global(subject),
        };
        let facets = self.facets.get(&subject)?;
        if facets.is_empty() {
            return self.global(subject);
        }
        let faceted = facets.overall(prefs, self.now);
        // Blend the attribute-matched view with the overall satisfaction
        // mean, weighted by how much facet evidence exists.
        match self.global(subject) {
            Some(overall) => {
                let w = faceted.confidence;
                Some(TrustEstimate::new(
                    overall.value.blend(faceted.value, w),
                    overall.confidence.max(faceted.confidence),
                ))
            }
            None => Some(faceted),
        }
    }

    fn refresh(&mut self, now: Time) {
        self.now = now;
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ServiceId;
    use wsrep_qos::metric::Metric;

    fn fb(rater: u64, item: u64, score: f64, acc: f64, speed: f64, t: u64) -> Feedback {
        Feedback::scored(
            AgentId::new(rater),
            ServiceId::new(item),
            score,
            Time::new(t),
        )
        .with_facet(Metric::Accuracy, acc)
        .with_facet(Metric::ResponseTime, speed)
    }

    #[test]
    fn facets_develop_independently() {
        let mut m = MaximilienMechanism::new();
        for t in 0..5 {
            m.submit(&fb(t, 1, 0.5, 0.9, 0.1, t));
        }
        let facets = &m.facets[&ServiceId::new(1).into()];
        let facet = |metric| facets.facet(metric, m.now).unwrap().value.get();
        assert!(facet(Metric::Accuracy) > 0.8);
        assert!(facet(Metric::ResponseTime) < 0.2);
    }

    #[test]
    fn personalized_view_matches_agent_ontology_weights() {
        let mut m = MaximilienMechanism::new();
        for t in 0..10 {
            m.submit(&fb(t, 1, 0.5, 0.95, 0.05, t));
        }
        let s: SubjectId = ServiceId::new(1).into();
        m.set_profile(AgentId::new(100), Preferences::uniform([Metric::Accuracy]));
        m.set_profile(
            AgentId::new(101),
            Preferences::uniform([Metric::ResponseTime]),
        );
        let accuracy_first = m.personalized(AgentId::new(100), s).unwrap();
        let speed_first = m.personalized(AgentId::new(101), s).unwrap();
        assert!(accuracy_first.value.get() > speed_first.value.get());
    }

    #[test]
    fn profile_less_observer_sees_global() {
        let mut m = MaximilienMechanism::new();
        m.submit(&fb(0, 1, 0.7, 0.7, 0.7, 0));
        let s: SubjectId = ServiceId::new(1).into();
        assert_eq!(m.personalized(AgentId::new(9), s), m.global(s));
    }

    #[test]
    fn unknown_service_is_none() {
        let m = MaximilienMechanism::new();
        assert_eq!(m.global(ServiceId::new(9).into()), None);
    }
}
