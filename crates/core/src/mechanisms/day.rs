//! Day — "A Framework for Autonomic Web Service Selection" (MSc thesis,
//! University of Saskatchewan 2005), reference \[6\].
//!
//! *Centralized, resource, personalized.* Day proposed two selection
//! engines: a **rule-based expert system** over QoS attributes and a
//! **naïve Bayesian network** that classifies services as
//! acceptable/unacceptable from discretized QoS evidence. Both live here:
//! [`RuleEngine`] evaluates consumer-authored rules against a service's
//! observed QoS facets, and the mechanism's trust estimate is the naive
//! Bayes posterior P(good | facts).

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;
use wsrep_qos::metric::Metric;

/// Discretization level of an observed facet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Bottom tercile (normalized value < 1/3).
    Low,
    /// Middle tercile.
    Medium,
    /// Top tercile (normalized value ≥ 2/3).
    High,
}

impl Level {
    /// Discretize a normalized `\[0, 1\]` value into terciles.
    pub(crate) fn of(value: f64) -> Level {
        if value < 1.0 / 3.0 {
            Level::Low
        } else if value < 2.0 / 3.0 {
            Level::Medium
        } else {
            Level::High
        }
    }
}

/// A rule: "metric must be at least `level`".
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Rule {
    /// The facet the rule constrains.
    pub metric: Metric,
    /// The minimum acceptable level.
    pub at_least: Level,
}

/// Day's rule-based expert system: all rules must pass.
#[derive(Debug, Clone, Default)]
pub struct RuleEngine {
    rules: Vec<Rule>,
}

impl RuleEngine {
    /// Empty rule set (accepts everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule (builder style).
    pub fn require(mut self, metric: Metric, at_least: Level) -> Self {
        self.rules.push(Rule { metric, at_least });
        self
    }

    /// Evaluate against per-facet normalized values. Missing facets fail
    /// their rule (no evidence, no pass).
    pub(crate) fn accepts(&self, facets: &BTreeMap<Metric, f64>) -> bool {
        self.rules.iter().all(|r| {
            facets
                .get(&r.metric)
                .map(|&v| Level::of(v) >= r.at_least)
                .unwrap_or(false)
        })
    }
}

/// Per-subject naive Bayes statistics.
#[derive(Debug, Clone, Default)]
struct Stats {
    good: f64,
    bad: f64,
    /// Per (metric, level): counts conditioned on class.
    facet_given_good: BTreeMap<(Metric, Level), f64>,
    facet_given_bad: BTreeMap<(Metric, Level), f64>,
    /// Most recent discretized facet profile of the subject.
    latest_facets: BTreeMap<Metric, Level>,
    n: usize,
}

/// Day's naive-Bayes service classifier.
#[derive(Debug, Clone, Default)]
pub struct DayMechanism {
    stats: BTreeMap<SubjectId, Stats>,
    /// Per-consumer rule sets for the expert-system path.
    rules: BTreeMap<AgentId, RuleEngine>,
    submitted: usize,
}

impl DayMechanism {
    /// Empty mechanism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a consumer's rule set.
    pub fn set_rules(&mut self, consumer: AgentId, rules: RuleEngine) {
        self.rules.insert(consumer, rules);
    }

    /// Expert-system verdict: does `subject`'s latest facet profile pass
    /// `consumer`'s rules? `None` if the consumer has no rules installed.
    pub(crate) fn rules_accept(&self, consumer: AgentId, subject: SubjectId) -> Option<bool> {
        let engine = self.rules.get(&consumer)?;
        let facets: BTreeMap<Metric, f64> = self
            .stats
            .get(&subject)
            .map(|s| {
                s.latest_facets
                    .iter()
                    .map(|(&m, &l)| {
                        let v = match l {
                            Level::Low => 0.2,
                            Level::Medium => 0.5,
                            Level::High => 0.8,
                        };
                        (m, v)
                    })
                    .collect()
            })
            .unwrap_or_default();
        Some(engine.accepts(&facets))
    }

    /// Naive Bayes posterior P(good | subject's latest facet evidence),
    /// with Laplace smoothing.
    pub(crate) fn posterior(&self, subject: SubjectId) -> Option<f64> {
        let st = self.stats.get(&subject)?;
        if st.n == 0 {
            return None;
        }
        let total = st.good + st.bad;
        let p_good = (st.good + 1.0) / (total + 2.0);
        let p_bad = (st.bad + 1.0) / (total + 2.0);
        let mut log_good = p_good.ln();
        let mut log_bad = p_bad.ln();
        for (&metric, &level) in &st.latest_facets {
            let key = (metric, level);
            let fg = st.facet_given_good.get(&key).copied().unwrap_or(0.0);
            let fb = st.facet_given_bad.get(&key).copied().unwrap_or(0.0);
            // Laplace over the 3 levels.
            log_good += ((fg + 1.0) / (st.good + 3.0)).ln();
            log_bad += ((fb + 1.0) / (st.bad + 3.0)).ln();
        }
        let good = log_good.exp();
        let bad = log_bad.exp();
        Some(good / (good + bad))
    }
}

impl ReputationMechanism for DayMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "day",
            display: "J. Day",
            centralization: Centralization::Centralized,
            subject: Subject::Resource,
            scope: Scope::Personalized,
            citation: "6",
            proposed_for_web_services: true,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        let st = self.stats.entry(feedback.subject).or_default();
        let good = feedback.is_positive(0.5);
        if good {
            st.good += 1.0;
        } else {
            st.bad += 1.0;
        }
        for (&metric, &rating) in &feedback.facet_ratings {
            let level = Level::of(rating);
            st.latest_facets.insert(metric, level);
            let table = if good {
                &mut st.facet_given_good
            } else {
                &mut st.facet_given_bad
            };
            *table.entry((metric, level)).or_insert(0.0) += 1.0;
        }
        st.n += 1;
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        let posterior = self.posterior(subject)?;
        let n = self.stats.get(&subject).map(|s| s.n).unwrap_or(0);
        Some(TrustEstimate::new(
            TrustValue::new(posterior),
            evidence_confidence(n, 4.0),
        ))
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        let base = self.global(subject)?;
        // The expert system acts as a personalized veto: a service failing
        // the consumer's rules is floored to distrust.
        match self.rules_accept(observer, subject) {
            Some(false) => Some(TrustEstimate::new(TrustValue::MIN, base.confidence)),
            _ => Some(base),
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

    fn fb(item: u64, score: f64, acc: f64) -> Feedback {
        Feedback::scored(AgentId::new(0), ServiceId::new(item), score, Time::ZERO)
            .with_facet(Metric::Accuracy, acc)
    }

    #[test]
    fn levels_discretize_terciles() {
        assert_eq!(Level::of(0.1), Level::Low);
        assert_eq!(Level::of(0.5), Level::Medium);
        assert_eq!(Level::of(0.9), Level::High);
        assert!(Level::High > Level::Low);
    }

    #[test]
    fn posterior_tracks_class_balance() {
        let mut m = DayMechanism::new();
        for _ in 0..2 {
            m.submit(&fb(1, 0.1, 0.1));
        }
        for _ in 0..10 {
            m.submit(&fb(1, 0.9, 0.9));
        }
        let p = m.posterior(ServiceId::new(1).into()).unwrap();
        assert!(p > 0.6, "got {p}");
    }

    #[test]
    fn facet_evidence_shifts_the_posterior() {
        let mut m = DayMechanism::new();
        // Good outcomes co-occur with high accuracy, bad with low.
        for _ in 0..10 {
            m.submit(&fb(1, 0.9, 0.9));
            m.submit(&fb(1, 0.1, 0.1));
        }
        // Latest evidence: high accuracy → should look good.
        m.submit(&fb(1, 0.9, 0.9));
        let p_high = m.posterior(ServiceId::new(1).into()).unwrap();
        // Now the latest evidence flips to low accuracy.
        m.submit(&fb(1, 0.1, 0.1));
        let p_low = m.posterior(ServiceId::new(1).into()).unwrap();
        assert!(p_high > p_low);
    }

    #[test]
    fn rules_all_must_pass() {
        let engine = RuleEngine::new()
            .require(Metric::Accuracy, Level::High)
            .require(Metric::ResponseTime, Level::Medium);
        let mut facets = BTreeMap::new();
        facets.insert(Metric::Accuracy, 0.9);
        facets.insert(Metric::ResponseTime, 0.5);
        assert!(engine.accepts(&facets));
        facets.insert(Metric::ResponseTime, 0.1);
        assert!(!engine.accepts(&facets));
    }

    #[test]
    fn missing_facet_fails_its_rule() {
        let engine = RuleEngine::new().require(Metric::Accuracy, Level::Low);
        assert!(!engine.accepts(&BTreeMap::new()));
        assert!(RuleEngine::new().accepts(&BTreeMap::new())); // vacuous
    }

    #[test]
    fn rule_veto_floors_personalized_trust() {
        let mut m = DayMechanism::new();
        for _ in 0..10 {
            m.submit(&fb(1, 0.9, 0.4)); // good service, medium accuracy
        }
        let s: SubjectId = ServiceId::new(1).into();
        m.set_rules(
            AgentId::new(5),
            RuleEngine::new().require(Metric::Accuracy, Level::High),
        );
        let vetoed = m.personalized(AgentId::new(5), s).unwrap();
        assert_eq!(vetoed.value, TrustValue::MIN);
        // An observer without rules sees the Bayes posterior.
        let plain = m.personalized(AgentId::new(6), s).unwrap();
        assert!(plain.value.get() > 0.6);
    }

    #[test]
    fn unknown_subject_is_none() {
        let m = DayMechanism::new();
        assert_eq!(m.posterior(ServiceId::new(9).into()), None);
        assert_eq!(m.global(ServiceId::new(9).into()), None);
    }
}
