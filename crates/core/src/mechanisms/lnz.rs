//! Liu, Ngu & Zeng — "QoS computation and policing in dynamic web service
//! selection" (WWW 2004), reference \[16\].
//!
//! The canonical *centralized, resource, personalized* QoS-registry
//! algorithm: consumers report observed QoS values; the registry arranges
//! all matching services into the normalization matrix (see
//! [`wsrep_qos::normalize`]) and returns a per-consumer weighted overall
//! rating. The "policing" part — only accepting reports from consumers who
//! actually executed the service — appears here as report counting per
//! (rater, subject).

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;
use wsrep_qos::metric::Metric;
use wsrep_qos::normalize::NormalizationMatrix;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;

/// The Liu–Ngu–Zeng QoS registry.
#[derive(Debug, Clone, Default)]
pub struct LnzMechanism {
    /// Running per-subject mean of reported QoS values (EMA).
    reported: BTreeMap<SubjectId, QosVector>,
    counts: BTreeMap<SubjectId, usize>,
    /// Per-consumer preference profiles (registered consumer profiles).
    profiles: BTreeMap<AgentId, Preferences>,
    submitted: usize,
}

impl LnzMechanism {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or update) a consumer's preference profile. Consumers
    /// without a profile are served the uniform-weight view.
    pub fn set_profile(&mut self, consumer: AgentId, prefs: Preferences) {
        self.profiles.insert(consumer, prefs);
    }

    /// The metrics any report has mentioned, in stable order.
    fn metrics(&self) -> Vec<Metric> {
        let mut ms: Vec<Metric> = self.reported.values().flat_map(|v| v.metrics()).collect();
        ms.sort();
        ms.dedup();
        ms
    }

    /// Compute the overall rating of every known subject under `prefs`,
    /// best first. This is the full "QoS computation" of the paper.
    pub(crate) fn rank(&self, prefs: &Preferences) -> Vec<(SubjectId, f64)> {
        let subjects: Vec<SubjectId> = self.reported.keys().copied().collect();
        let vectors: Vec<QosVector> = subjects.iter().map(|s| self.reported[s].clone()).collect();
        let metrics = self.metrics();
        let matrix = NormalizationMatrix::new(&vectors, &metrics);
        matrix
            .scores(prefs)
            .into_iter()
            .map(|sc| (subjects[sc.candidate], sc.score))
            .collect()
    }

    fn estimate_for(&self, prefs: &Preferences, subject: SubjectId) -> Option<TrustEstimate> {
        if !self.reported.contains_key(&subject) {
            return None;
        }
        let ranked = self.rank(prefs);
        let score = ranked.iter().find(|&&(s, _)| s == subject)?.1;
        let n = self.counts.get(&subject).copied().unwrap_or(0);
        Some(TrustEstimate::new(
            TrustValue::new(score),
            evidence_confidence(n, 3.0),
        ))
    }
}

impl ReputationMechanism for LnzMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "lnz",
            display: "Y. Liu & A. Ngu & L. Zeng",
            centralization: Centralization::Centralized,
            subject: Subject::Resource,
            scope: Scope::Personalized,
            citation: "16",
            proposed_for_web_services: true,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        if feedback.observed.is_empty() {
            // LNZ consumes measured QoS; a bare score carries no signal for
            // the matrix but still counts as an execution report.
        } else {
            let entry = self.reported.entry(feedback.subject).or_default();
            entry.ema_update(&feedback.observed, 0.2);
        }
        *self.counts.entry(feedback.subject).or_insert(0) += 1;
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        let metrics = self.metrics();
        let prefs = Preferences::uniform(metrics);
        self.estimate_for(&prefs, subject)
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        match self.profiles.get(&observer) {
            Some(prefs) => self.estimate_for(prefs, subject),
            None => self.global(subject),
        }
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ServiceId;
    use crate::time::Time;

    fn report(rater: u64, item: u64, rt: f64, price: f64) -> Feedback {
        Feedback::scored(AgentId::new(rater), ServiceId::new(item), 0.5, Time::ZERO).with_observed(
            QosVector::from_pairs([(Metric::ResponseTime, rt), (Metric::Price, price)]),
        )
    }

    fn seeded() -> LnzMechanism {
        let mut m = LnzMechanism::new();
        m.submit(&report(0, 0, 50.0, 10.0)); // fast, pricey
        m.submit(&report(1, 1, 200.0, 1.0)); // slow, cheap
        m
    }

    #[test]
    fn personalized_ranking_follows_profile() {
        let mut m = seeded();
        m.set_profile(
            AgentId::new(7),
            Preferences::from_weights([(Metric::ResponseTime, 0.9), (Metric::Price, 0.1)]),
        );
        m.set_profile(
            AgentId::new(8),
            Preferences::from_weights([(Metric::ResponseTime, 0.1), (Metric::Price, 0.9)]),
        );
        let fast = SubjectId::from(ServiceId::new(0));
        let cheap = SubjectId::from(ServiceId::new(1));
        let speedster_view = m.personalized(AgentId::new(7), fast).unwrap();
        let speedster_other = m.personalized(AgentId::new(7), cheap).unwrap();
        assert!(speedster_view.value > speedster_other.value);
        let saver_view = m.personalized(AgentId::new(8), cheap).unwrap();
        let saver_other = m.personalized(AgentId::new(8), fast).unwrap();
        assert!(saver_view.value > saver_other.value);
    }

    #[test]
    fn unknown_profile_gets_global_view() {
        let m = seeded();
        let fast = SubjectId::from(ServiceId::new(0));
        assert_eq!(m.personalized(AgentId::new(99), fast), m.global(fast));
    }

    #[test]
    fn rank_orders_best_first() {
        let m = seeded();
        let prefs = Preferences::uniform([Metric::ResponseTime]);
        let ranked = m.rank(&prefs);
        assert_eq!(ranked[0].0, SubjectId::from(ServiceId::new(0)));
        assert!(ranked[0].1 >= ranked[1].1);
    }

    #[test]
    fn reports_accumulate_via_ema() {
        let mut m = LnzMechanism::new();
        m.submit(&report(0, 0, 100.0, 5.0));
        m.submit(&report(1, 0, 200.0, 5.0));
        let stored = m.reported[&SubjectId::from(ServiceId::new(0))]
            .get(Metric::ResponseTime)
            .unwrap();
        assert!(stored > 100.0 && stored < 200.0);
    }

    #[test]
    fn unreported_subject_is_none() {
        let m = seeded();
        assert_eq!(m.global(ServiceId::new(42).into()), None);
    }

    #[test]
    fn bare_scores_count_but_carry_no_qos() {
        let mut m = LnzMechanism::new();
        m.submit(&Feedback::scored(
            AgentId::new(0),
            ServiceId::new(0),
            0.9,
            Time::ZERO,
        ));
        assert_eq!(m.feedback_count(), 1);
        assert_eq!(m.global(ServiceId::new(0).into()), None);
    }
}
