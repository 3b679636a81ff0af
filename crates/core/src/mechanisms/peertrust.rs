//! PeerTrust — Xiong & Liu (IEEE TKDE 2004), reference \[33\].
//!
//! *Decentralized, person/agent, global.* A peer `u`'s trust is
//!
//! ```text
//! T(u) = α · Σ_i S(u,i) · Cr(p(u,i)) · TF(u,i)  +  β · CF(u)
//! ```
//!
//! over its recent transactions `i`: satisfaction `S`, the **credibility**
//! `Cr` of the reporting peer, an adaptive **transaction-context factor**
//! `TF`, and an optional community-context bonus `CF` for peers that file
//! feedback themselves (incentivizing participation). Credibility comes in
//! the paper's two flavours: TVM (use the reporter's own trust value) and
//! PSM (personalized similarity of rating behaviour), selectable here.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::time::Time;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;

/// Credibility measure for feedback sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Credibility {
    /// Trust-Value-based Measure: a reporter's credibility is its own
    /// (recursively computed) trust value.
    Tvm,
    /// Personalized Similarity Measure: credibility is rating-behaviour
    /// similarity with the querying peer over commonly rated subjects.
    Psm,
}

#[derive(Debug, Clone)]
struct Record {
    rater: AgentId,
    score: f64,
    at: Time,
}

/// The PeerTrust metric.
#[derive(Debug, Clone)]
pub struct PeerTrustMechanism {
    credibility: Credibility,
    /// Weight α of the satisfaction term.
    alpha: f64,
    /// Weight β of the community-context term.
    beta: f64,
    /// Sliding window length (recent transactions considered).
    window: u64,
    records: BTreeMap<SubjectId, Vec<Record>>,
    /// Ratings filed per agent (for the community factor + PSM).
    filed: BTreeMap<AgentId, BTreeMap<SubjectId, f64>>,
    now: Time,
    submitted: usize,
}

impl Default for PeerTrustMechanism {
    fn default() -> Self {
        Self::new()
    }
}

impl PeerTrustMechanism {
    /// PeerTrust with PSM credibility, `α = 0.9`, `β = 0.1`, window 200.
    pub fn new() -> Self {
        Self::with_params(Credibility::Psm, 0.9, 0.1, 200)
    }

    /// PeerTrust with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha + beta == 1` (within 1e-9) and `window > 0`.
    pub fn with_params(credibility: Credibility, alpha: f64, beta: f64, window: u64) -> Self {
        assert!((alpha + beta - 1.0).abs() < 1e-9, "alpha + beta must be 1");
        assert!(window > 0, "window must be positive");
        PeerTrustMechanism {
            credibility,
            alpha,
            beta,
            window,
            records: BTreeMap::new(),
            filed: BTreeMap::new(),
            now: Time::ZERO,
            submitted: 0,
        }
    }

    /// Rating-behaviour similarity between two raters (PSM): 1 − RMS
    /// difference over commonly rated subjects; neutral 0.5 without overlap.
    pub(crate) fn rating_similarity(&self, a: AgentId, b: AgentId) -> f64 {
        if a == b {
            return 1.0;
        }
        let (Some(ra), Some(rb)) = (self.filed.get(&a), self.filed.get(&b)) else {
            return 0.5;
        };
        let mut sq = 0.0;
        let mut n = 0usize;
        for (subject, &va) in ra {
            if let Some(&vb) = rb.get(subject) {
                sq += (va - vb) * (va - vb);
                n += 1;
            }
        }
        if n == 0 {
            0.5
        } else {
            1.0 - (sq / n as f64).sqrt()
        }
    }

    /// The community-context factor: participation ratio of an agent
    /// (how much feedback it files relative to the most active filer).
    fn community_factor(&self, subject: SubjectId) -> f64 {
        let SubjectId::Agent(agent) = subject else {
            return 0.0;
        };
        let mine = self.filed.get(&agent).map(BTreeMap::len).unwrap_or(0) as f64;
        let max = self.filed.values().map(BTreeMap::len).max().unwrap_or(0) as f64;
        if max == 0.0 {
            0.0
        } else {
            mine / max
        }
    }

    /// Simple trust value used for TVM credibility: windowed mean score of
    /// the reporter as a *subject* (one-level recursion, as the paper
    /// suggests for tractability).
    fn simple_trust(&self, agent: AgentId) -> f64 {
        let Some(records) = self.records.get(&SubjectId::Agent(agent)) else {
            return 0.5;
        };
        let recent: Vec<&Record> = records
            .iter()
            .filter(|r| self.now.since(r.at) < self.window)
            .collect();
        if recent.is_empty() {
            return 0.5;
        }
        recent.iter().map(|r| r.score).sum::<f64>() / recent.len() as f64
    }

    fn trust_for(&self, observer: Option<AgentId>, subject: SubjectId) -> Option<TrustEstimate> {
        let records = self.records.get(&subject)?;
        let recent: Vec<&Record> = records
            .iter()
            .filter(|r| self.now.since(r.at) < self.window)
            .collect();
        if recent.is_empty() {
            return None;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for r in &recent {
            let cr = match (self.credibility, observer) {
                (Credibility::Psm, Some(o)) => self.rating_similarity(o, r.rater),
                (Credibility::Psm, None) | (Credibility::Tvm, _) => self.simple_trust(r.rater),
            };
            num += cr * r.score;
            den += cr;
        }
        let satisfaction = if den > 0.0 { num / den } else { 0.5 };
        let value = self.alpha * satisfaction + self.beta * self.community_factor(subject);
        Some(TrustEstimate::new(
            TrustValue::new(value),
            evidence_confidence(recent.len(), 4.0),
        ))
    }
}

impl ReputationMechanism for PeerTrustMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "peertrust",
            display: "L. Xiong & L. Liu (PeerTrust)",
            centralization: Centralization::Decentralized,
            subject: Subject::PersonAgent,
            scope: Scope::Global,
            citation: "33",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        self.now = self.now.max(feedback.at);
        self.records
            .entry(feedback.subject)
            .or_default()
            .push(Record {
                rater: feedback.rater,
                score: feedback.score,
                at: feedback.at,
            });
        self.filed
            .entry(feedback.rater)
            .or_default()
            .insert(feedback.subject, feedback.score);
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        self.trust_for(None, subject)
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        self.trust_for(Some(observer), subject)
    }

    fn refresh(&mut self, now: Time) {
        self.now = self.now.max(now);
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(rater: u64, subject: u64, score: f64, t: u64) -> Feedback {
        Feedback::scored(
            AgentId::new(rater),
            AgentId::new(subject),
            score,
            Time::new(t),
        )
    }

    fn s(i: u64) -> SubjectId {
        AgentId::new(i).into()
    }

    #[test]
    fn satisfaction_mean_drives_trust() {
        let mut m = PeerTrustMechanism::new();
        for t in 0..10 {
            m.submit(&fb(t, 100, 0.9, t));
        }
        let est = m.global(s(100)).unwrap();
        assert!(est.value.get() > 0.7);
    }

    #[test]
    fn window_expires_old_transactions() {
        let mut m = PeerTrustMechanism::with_params(Credibility::Tvm, 0.9, 0.1, 10);
        m.submit(&fb(0, 100, 0.1, 0));
        m.submit(&fb(1, 100, 0.1, 1));
        // Much later, fresh good behaviour.
        for t in 100..110 {
            m.submit(&fb(t, 100, 0.95, t));
        }
        let est = m.global(s(100)).unwrap();
        assert!(
            est.value.get() > 0.8,
            "stale negatives expired: {}",
            est.value
        );
    }

    #[test]
    fn psm_discounts_dissimilar_raters() {
        let mut m = PeerTrustMechanism::new();
        // Observer 0 and rater 1 agree on subjects 10, 11; rater 2 disagrees.
        for (subj, score) in [(10u64, 0.9), (11, 0.8)] {
            m.submit(&fb(0, subj, score, 0));
            m.submit(&fb(1, subj, score, 0));
            m.submit(&fb(2, subj, 1.0 - score, 0));
        }
        assert!(
            m.rating_similarity(AgentId::new(0), AgentId::new(1))
                > m.rating_similarity(AgentId::new(0), AgentId::new(2))
        );
        // Rater 1 praises subject 50, rater 2 trashes it: observer 0 should
        // side with the similar rater.
        m.submit(&fb(1, 50, 0.95, 1));
        m.submit(&fb(2, 50, 0.05, 1));
        let est = m.personalized(AgentId::new(0), s(50)).unwrap();
        assert!(est.value.get() > 0.6, "got {}", est.value);
    }

    #[test]
    fn community_factor_rewards_participation() {
        let mut m = PeerTrustMechanism::with_params(Credibility::Tvm, 0.5, 0.5, 100);
        // Subjects 1 and 2 get identical satisfaction; 1 also files a lot
        // of feedback, 2 files none.
        for t in 0..5 {
            m.submit(&fb(10, 1, 0.6, t));
            m.submit(&fb(10, 2, 0.6, t));
        }
        for i in 0..10 {
            m.submit(&fb(1, 20 + i, 0.5, 5));
        }
        let active = m.global(s(1)).unwrap();
        let silent = m.global(s(2)).unwrap();
        assert!(active.value.get() > silent.value.get());
    }

    #[test]
    fn tvm_weights_by_reporter_trust() {
        let mut m = PeerTrustMechanism::with_params(Credibility::Tvm, 1.0, 0.0, 1000);
        // Reporter 1 is trusted (rated well), reporter 2 distrusted.
        for t in 0..5 {
            m.submit(&fb(50, 1, 0.95, t));
            m.submit(&fb(50, 2, 0.05, t));
        }
        // They disagree about subject 100.
        m.submit(&fb(1, 100, 0.9, 6));
        m.submit(&fb(2, 100, 0.1, 6));
        let est = m.global(s(100)).unwrap();
        assert!(
            est.value.get() > 0.6,
            "trusted reporter wins: {}",
            est.value
        );
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let mut m = PeerTrustMechanism::new();
        m.submit(&fb(0, 10, 0.9, 0));
        m.submit(&fb(1, 10, 0.2, 0));
        let ab = m.rating_similarity(AgentId::new(0), AgentId::new(1));
        let ba = m.rating_similarity(AgentId::new(1), AgentId::new(0));
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
        assert_eq!(m.rating_similarity(AgentId::new(0), AgentId::new(0)), 1.0);
    }

    #[test]
    fn unknown_subject_is_none() {
        let m = PeerTrustMechanism::new();
        assert_eq!(m.global(s(9)), None);
    }

    #[test]
    #[should_panic(expected = "alpha + beta must be 1")]
    fn mismatched_weights_panic() {
        PeerTrustMechanism::with_params(Credibility::Psm, 0.5, 0.2, 10);
    }
}
