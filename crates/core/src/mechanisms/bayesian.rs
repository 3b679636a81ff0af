//! Wang & Vassileva — "Trust and Reputation Model in Peer-to-Peer
//! Networks" (P2P 2003) and "Trust-Based Community Formation" (WI 2004),
//! references \[30, 31\] — the survey authors' own mechanism.
//!
//! *Decentralized, person/agent, personalized.* Every peer keeps a
//! **naïve Bayesian network** per partner: a root "the partner is
//! trustworthy (T)" with leaves for different aspects of interaction
//! quality (in the original, file type and download speed; here, QoS
//! facets). Trust in a partner for a given need is the posterior
//! `P(T = 1 | aspects the observer cares about were satisfying)`, learned
//! from the observer's own interactions; recommendations from other peers
//! fill in when personal evidence is thin.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;
use wsrep_qos::metric::Metric;

/// Per (observer, subject) naive-Bayes counts.
#[derive(Debug, Clone, Default)]
struct PairStats {
    /// Overall satisfying / unsatisfying interaction counts.
    good: f64,
    bad: f64,
    /// Per facet: (satisfying ∧ good, satisfying ∧ bad) counts.
    facet: BTreeMap<Metric, (f64, f64)>,
}

impl PairStats {
    fn n(&self) -> usize {
        (self.good + self.bad) as usize
    }

    /// Posterior P(T | facets in `cares` were satisfying), with Laplace
    /// smoothing. With no facet conditioning this is the smoothed prior.
    fn posterior(&self, cares: &[Metric]) -> f64 {
        let total = self.good + self.bad;
        let p_t = (self.good + 1.0) / (total + 2.0);
        let p_not = (self.bad + 1.0) / (total + 2.0);
        let mut log_t = p_t.ln();
        let mut log_not = p_not.ln();
        for m in cares {
            let (sat_good, sat_bad) = self.facet.get(m).copied().unwrap_or((0.0, 0.0));
            log_t += ((sat_good + 1.0) / (self.good + 2.0)).ln();
            log_not += ((sat_bad + 1.0) / (self.bad + 2.0)).ln();
        }
        let t = log_t.exp();
        let not = log_not.exp();
        t / (t + not)
    }
}

/// The Wang–Vassileva Bayesian-network trust model.
#[derive(Debug, Clone, Default)]
pub struct BayesianMechanism {
    pairs: BTreeMap<(AgentId, SubjectId), PairStats>,
    /// Per-observer trust in other peers *as recommenders*, learned from
    /// whether their recommendations matched later experience.
    recommender: BTreeMap<(AgentId, AgentId), (f64, f64)>,
    /// Facets each observer conditions on when asking for trust.
    cares: BTreeMap<AgentId, Vec<Metric>>,
    /// Personal evidence below which recommendations are consulted.
    min_own_evidence: usize,
    submitted: usize,
}

impl BayesianMechanism {
    /// Defaults: recommendations kick in below 3 own interactions.
    pub fn new() -> Self {
        BayesianMechanism {
            min_own_evidence: 3,
            ..Default::default()
        }
    }

    /// Set the QoS facets `observer` conditions its trust question on.
    pub fn set_cares(&mut self, observer: AgentId, metrics: Vec<Metric>) {
        self.cares.insert(observer, metrics);
    }

    /// Record the outcome of following `recommender`'s advice: did the
    /// recommended partner turn out good?
    pub fn judge_recommendation(&mut self, observer: AgentId, recommender: AgentId, good: bool) {
        let e = self
            .recommender
            .entry((observer, recommender))
            .or_insert((0.0, 0.0));
        if good {
            e.0 += 1.0;
        } else {
            e.1 += 1.0;
        }
    }

    /// Trust in `peer` as a recommender for `observer` (smoothed).
    pub(crate) fn recommender_trust(&self, observer: AgentId, peer: AgentId) -> f64 {
        match self.recommender.get(&(observer, peer)) {
            None => 0.5,
            Some(&(g, b)) => (g + 1.0) / (g + b + 2.0),
        }
    }

    fn own_posterior(&self, observer: AgentId, subject: SubjectId) -> Option<(f64, usize)> {
        let stats = self.pairs.get(&(observer, subject))?;
        let cares = self.cares.get(&observer).cloned().unwrap_or_default();
        Some((stats.posterior(&cares), stats.n()))
    }
}

impl ReputationMechanism for BayesianMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "wang_vassileva",
            display: "Y. Wang & J. Vassileva",
            centralization: Centralization::Decentralized,
            subject: Subject::PersonAgent,
            scope: Scope::Personalized,
            citation: "30, 31",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        let stats = self
            .pairs
            .entry((feedback.rater, feedback.subject))
            .or_default();
        let good = feedback.is_positive(0.5);
        if good {
            stats.good += 1.0;
        } else {
            stats.bad += 1.0;
        }
        for (&metric, &rating) in &feedback.facet_ratings {
            let satisfying = rating >= 0.5;
            let e = stats.facet.entry(metric).or_insert((0.0, 0.0));
            if satisfying {
                if good {
                    e.0 += 1.0;
                } else {
                    e.1 += 1.0;
                }
            }
        }
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        // Population view: evidence-weighted mean of every observer's own
        // posterior about the subject.
        let mut num = 0.0;
        let mut den = 0.0;
        let mut total_n = 0usize;
        for ((_, s), stats) in &self.pairs {
            if *s != subject {
                continue;
            }
            let n = stats.n();
            if n == 0 {
                continue;
            }
            num += n as f64 * stats.posterior(&[]);
            den += n as f64;
            total_n += n;
        }
        if den == 0.0 {
            return None;
        }
        Some(TrustEstimate::new(
            TrustValue::new(num / den),
            evidence_confidence(total_n, 4.0),
        ))
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        let own = self.own_posterior(observer, subject);
        if let Some((p, n)) = own {
            if n >= self.min_own_evidence {
                return Some(TrustEstimate::new(
                    TrustValue::new(p),
                    evidence_confidence(n, 3.0),
                ));
            }
        }
        // Thin personal evidence: pool own evidence with recommendations,
        // each recommendation weighted by recommender trust *and* its
        // evidence volume, so distrusted recommenders genuinely lose
        // influence rather than cancelling out in a ratio.
        let mut num = 0.0;
        let mut den = 0.0;
        for ((rec, s), stats) in &self.pairs {
            if *s != subject || *rec == observer || stats.n() == 0 {
                continue;
            }
            let w = self.recommender_trust(observer, *rec) * stats.n() as f64;
            num += w * stats.posterior(&[]);
            den += w;
        }
        match (own, den > 0.0) {
            (Some((p, n)), true) => {
                let w_own = n as f64;
                Some(TrustEstimate::new(
                    TrustValue::new((w_own * p + num) / (w_own + den)),
                    0.5,
                ))
            }
            (Some((p, n)), false) => Some(TrustEstimate::new(
                TrustValue::new(p),
                evidence_confidence(n, 3.0),
            )),
            (None, true) => Some(TrustEstimate::new(TrustValue::new(num / den), 0.3)),
            (None, false) => None,
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

    fn fb(rater: u64, subject: u64, score: f64) -> Feedback {
        Feedback::scored(
            AgentId::new(rater),
            ServiceId::new(subject),
            score,
            Time::ZERO,
        )
    }

    fn s(i: u64) -> SubjectId {
        ServiceId::new(i).into()
    }

    #[test]
    fn own_evidence_drives_the_posterior() {
        let mut m = BayesianMechanism::new();
        for _ in 0..8 {
            m.submit(&fb(0, 1, 0.9));
        }
        m.submit(&fb(0, 1, 0.1));
        let est = m.personalized(AgentId::new(0), s(1)).unwrap();
        assert!(est.value.get() > 0.7);
    }

    #[test]
    fn facet_conditioning_personalizes_the_answer() {
        let mut m = BayesianMechanism::new();
        // Interactions that were good always had satisfying accuracy;
        // bad ones never did.
        for _ in 0..6 {
            m.submit(&fb(0, 1, 0.9).with_facet(Metric::Accuracy, 0.9));
            m.submit(&fb(0, 1, 0.1).with_facet(Metric::Accuracy, 0.1));
        }
        let plain = m.personalized(AgentId::new(0), s(1)).unwrap();
        m.set_cares(AgentId::new(0), vec![Metric::Accuracy]);
        let conditioned = m.personalized(AgentId::new(0), s(1)).unwrap();
        // Conditioning on "accuracy was satisfying" shifts toward good.
        assert!(conditioned.value.get() > plain.value.get());
    }

    #[test]
    fn thin_evidence_consults_recommenders() {
        let mut m = BayesianMechanism::new();
        // Observer 0 has a single (good) interaction; peers 1, 2 have many
        // bad ones.
        m.submit(&fb(0, 5, 0.9));
        for _ in 0..10 {
            m.submit(&fb(1, 5, 0.1));
            m.submit(&fb(2, 5, 0.1));
        }
        let est = m.personalized(AgentId::new(0), s(5)).unwrap();
        assert!(
            est.value.get() < 0.7,
            "recommendations temper the single good experience: {}",
            est.value
        );
    }

    #[test]
    fn bad_recommenders_lose_influence() {
        let mut m = BayesianMechanism::new();
        m.submit(&fb(0, 5, 0.9));
        for _ in 0..10 {
            m.submit(&fb(1, 5, 0.1)); // peer 1 badmouths
        }
        for _ in 0..10 {
            m.judge_recommendation(AgentId::new(0), AgentId::new(1), false);
        }
        let with_distrust = m.personalized(AgentId::new(0), s(5)).unwrap();
        // A fresh mechanism where peer 1 is still trusted.
        let mut fresh = BayesianMechanism::new();
        fresh.submit(&fb(0, 5, 0.9));
        for _ in 0..10 {
            fresh.submit(&fb(1, 5, 0.1));
        }
        let with_trust = fresh.personalized(AgentId::new(0), s(5)).unwrap();
        assert!(with_distrust.value.get() > with_trust.value.get());
    }

    #[test]
    fn sufficient_own_evidence_ignores_the_crowd() {
        let mut m = BayesianMechanism::new();
        for _ in 0..5 {
            m.submit(&fb(0, 5, 0.9));
        }
        for _ in 0..50 {
            m.submit(&fb(1, 5, 0.1));
        }
        let est = m.personalized(AgentId::new(0), s(5)).unwrap();
        assert!(est.value.get() > 0.7, "got {}", est.value);
    }

    #[test]
    fn global_view_aggregates_all_observers() {
        let mut m = BayesianMechanism::new();
        for _ in 0..5 {
            m.submit(&fb(0, 5, 0.9));
            m.submit(&fb(1, 5, 0.1));
        }
        let est = m.global(s(5)).unwrap();
        assert!((est.value.get() - 0.5).abs() < 0.1);
    }

    #[test]
    fn unknown_subject_is_none() {
        let m = BayesianMechanism::new();
        assert_eq!(m.personalized(AgentId::new(0), s(9)), None);
        assert_eq!(m.global(s(9)), None);
    }
}
