//! Yolum & Singh — "Locating Trustworthy Services" (AP2PC 2002),
//! reference \[34\].
//!
//! *Decentralized, person/agent, personalized.* Agents locate services by
//! asking their neighbors; a neighbor either answers with a service it
//! knows (and its quality estimate) or **refers** the asker onward. Agents
//! adapt their neighbor set toward peers whose answers and referrals prove
//! useful, so the service-location graph self-organizes around trustworthy
//! paths. We model the agent network, referral-bounded search, and the
//! usefulness-driven neighbor weighting.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Referral-based service location.
#[derive(Debug, Default)]
pub struct YolumSinghMechanism {
    /// Each agent's local quality estimates for services it used.
    local: BTreeMap<AgentId, BTreeMap<SubjectId, (f64, usize)>>,
    /// Weighted neighbor links: sociability/expertise weight in \[0, 1\].
    neighbors: BTreeMap<AgentId, BTreeMap<AgentId, f64>>,
    /// Referral time-to-live.
    ttl: usize,
    submitted: usize,
}

impl YolumSinghMechanism {
    /// Referral TTL of 3.
    pub fn new() -> Self {
        YolumSinghMechanism {
            ttl: 3,
            ..Default::default()
        }
    }

    /// Link `from` to neighbor `to` with initial weight 0.5.
    pub fn add_neighbor(&mut self, from: AgentId, to: AgentId) {
        self.neighbors.entry(from).or_default().insert(to, 0.5);
    }

    /// Strengthen or weaken a neighbor link after a useful/useless answer
    /// (the paper's learning rule: agents "change their neighbors" toward
    /// useful ones).
    pub fn reinforce(&mut self, from: AgentId, to: AgentId, useful: bool) {
        let w = self
            .neighbors
            .entry(from)
            .or_default()
            .entry(to)
            .or_insert(0.5);
        if useful {
            *w = (*w + 0.1).min(1.0);
        } else {
            *w = (*w - 0.1).max(0.0);
        }
        // Snap float residue so fully-weakened links really reach zero.
        if *w < 1e-9 {
            *w = 0.0;
        }
    }

    /// Referral search: starting from `observer`'s neighbors, walk links
    /// (strong links first) up to the TTL, collecting answers about
    /// `subject`. Returns `(answers, agents_contacted)` where each answer
    /// is `(answering agent, estimate, evidence count, path weight)`.
    pub(crate) fn locate(
        &self,
        observer: AgentId,
        subject: SubjectId,
    ) -> (Vec<(AgentId, f64, usize, f64)>, usize) {
        let mut answers = Vec::new();
        let mut visited: BTreeSet<AgentId> = BTreeSet::new();
        visited.insert(observer);
        let mut queue: VecDeque<(AgentId, usize, f64)> = VecDeque::new();
        queue.push_back((observer, self.ttl, 1.0));
        let mut contacted = 0usize;
        while let Some((at, ttl, path_w)) = queue.pop_front() {
            if ttl == 0 {
                continue;
            }
            let Some(links) = self.neighbors.get(&at) else {
                continue;
            };
            let mut ordered: Vec<(&AgentId, &f64)> = links.iter().collect();
            ordered.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap_or(std::cmp::Ordering::Equal));
            for (&next, &w) in ordered {
                if w <= 0.0 || !visited.insert(next) {
                    continue;
                }
                contacted += 1;
                let carried = path_w * w;
                if let Some(&(est, n)) = self.local.get(&next).and_then(|t| t.get(&subject)) {
                    answers.push((next, est, n, carried));
                } else {
                    // No answer: the agent refers onward.
                    queue.push_back((next, ttl - 1, carried));
                }
            }
        }
        (answers, contacted)
    }
}

impl ReputationMechanism for YolumSinghMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "yolum_singh",
            display: "P. Yolum & M. Singh",
            centralization: Centralization::Decentralized,
            subject: Subject::PersonAgent,
            scope: Scope::Personalized,
            citation: "34",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        let e = self
            .local
            .entry(feedback.rater)
            .or_default()
            .entry(feedback.subject)
            .or_insert((0.5, 0));
        // Incremental mean.
        e.1 += 1;
        e.0 += (feedback.score - e.0) / e.1 as f64;
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        let mut num = 0.0;
        let mut den = 0.0;
        let mut total = 0usize;
        for table in self.local.values() {
            if let Some(&(est, n)) = table.get(&subject) {
                num += est * n as f64;
                den += n as f64;
                total += n;
            }
        }
        if den == 0.0 {
            return None;
        }
        Some(TrustEstimate::new(
            TrustValue::new(num / den),
            evidence_confidence(total, 4.0),
        ))
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        // Own table first.
        if let Some(&(est, n)) = self.local.get(&observer).and_then(|t| t.get(&subject)) {
            if n >= 3 {
                return Some(TrustEstimate::new(
                    TrustValue::new(est),
                    evidence_confidence(n, 3.0),
                ));
            }
        }
        let (answers, _) = self.locate(observer, subject);
        if answers.is_empty() {
            // Fall back to whatever little own evidence exists, else the
            // population view (isolated agents in the experiments).
            if let Some(&(est, n)) = self.local.get(&observer).and_then(|t| t.get(&subject)) {
                return Some(TrustEstimate::new(
                    TrustValue::new(est),
                    evidence_confidence(n, 3.0),
                ));
            }
            return None;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        let mut total = 0usize;
        for (_, est, n, path_w) in &answers {
            let w = path_w * *n as f64;
            num += w * est;
            den += w;
            total += n;
        }
        Some(TrustEstimate::new(
            TrustValue::new(num / den),
            evidence_confidence(total, 5.0),
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

    fn a(i: u64) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn locate_walks_referral_chains() {
        let mut m = YolumSinghMechanism::new();
        m.add_neighbor(a(0), a(1));
        m.add_neighbor(a(1), a(2));
        for _ in 0..4 {
            m.submit(&fb(2, 9, 0.9));
        }
        let (answers, contacted) = m.locate(a(0), s(9));
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].0, a(2));
        assert!(contacted >= 2);
        let est = m.personalized(a(0), s(9)).unwrap();
        assert!(est.value.get() > 0.8);
    }

    #[test]
    fn ttl_bounds_the_search() {
        let mut m = YolumSinghMechanism::new();
        // Chain of length 5; only the last agent knows the service.
        for i in 0..5 {
            m.add_neighbor(a(i), a(i + 1));
        }
        for _ in 0..4 {
            m.submit(&fb(5, 9, 0.9));
        }
        let (answers, _) = m.locate(a(0), s(9));
        assert!(answers.is_empty(), "TTL 3 cannot reach depth 5");
    }

    #[test]
    fn zero_weight_neighbors_are_pruned_from_search() {
        let mut m = YolumSinghMechanism::new();
        m.add_neighbor(a(0), a(1));
        for _ in 0..5 {
            m.reinforce(a(0), a(1), false);
        }
        assert_eq!(m.neighbors[&a(0)].get(&a(1)).copied(), Some(0.0));
        for _ in 0..4 {
            m.submit(&fb(1, 9, 0.9));
        }
        let (answers, _) = m.locate(a(0), s(9));
        assert!(answers.is_empty());
    }

    #[test]
    fn reinforcement_saturates() {
        let mut m = YolumSinghMechanism::new();
        m.add_neighbor(a(0), a(1));
        for _ in 0..20 {
            m.reinforce(a(0), a(1), true);
        }
        assert_eq!(m.neighbors[&a(0)].get(&a(1)).copied(), Some(1.0));
    }

    #[test]
    fn own_experience_dominates_when_sufficient() {
        let mut m = YolumSinghMechanism::new();
        m.add_neighbor(a(0), a(1));
        for _ in 0..5 {
            m.submit(&fb(0, 9, 0.2));
            m.submit(&fb(1, 9, 0.9));
        }
        let est = m.personalized(a(0), s(9)).unwrap();
        assert!(est.value.get() < 0.4);
    }

    #[test]
    fn answers_weighted_by_path_strength() {
        let mut m = YolumSinghMechanism::new();
        m.add_neighbor(a(0), a(1)); // will be reinforced
        m.add_neighbor(a(0), a(2)); // will be weakened
        for _ in 0..4 {
            m.reinforce(a(0), a(1), true);
            m.reinforce(a(0), a(2), false);
        }
        for _ in 0..4 {
            m.submit(&fb(1, 9, 0.9)); // strong neighbor praises
            m.submit(&fb(2, 9, 0.1)); // weak neighbor trashes
        }
        let est = m.personalized(a(0), s(9)).unwrap();
        assert!(est.value.get() > 0.6, "got {}", est.value);
    }

    #[test]
    fn no_route_and_no_evidence_is_none() {
        let m = YolumSinghMechanism::new();
        assert_eq!(m.personalized(a(0), s(1)), None);
        assert_eq!(m.global(s(1)), None);
    }
}
