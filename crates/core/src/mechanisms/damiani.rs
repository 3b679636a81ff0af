//! Damiani et al. — "A Reputation-Based Approach for Choosing Reliable
//! Resources in Peer-to-Peer Networks" (CCS 2002, XRep), reference \[4\].
//!
//! *Decentralized, person/agent, personalized.* Before downloading, a peer
//! **polls** the network about a resource/servent; peers that have an
//! opinion vote; the poller tallies the (optionally credibility-weighted)
//! votes and decides. Every peer keeps only *local* experience tables, so
//! each poller gets its own personalized answer depending on whom it can
//! reach. The flooding embodiment lives in `wsrep-net`; this module is the
//! vote bookkeeping and tallying.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::mechanism::ReputationMechanism;
use crate::trust::{evidence_confidence, TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::BTreeMap;

/// A peer's local binary opinion of a subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// Good experiences dominate.
    Plus,
    /// Bad experiences dominate.
    Minus,
}

/// XRep-style local experience tables with poll tallying.
#[derive(Debug, Clone, Default)]
pub struct DamianiMechanism {
    /// experience[peer][subject] = (good, bad) interaction counts.
    experience: BTreeMap<AgentId, BTreeMap<SubjectId, (u64, u64)>>,
    /// Poller-side credibility of other voters, learned from poll outcomes
    /// (vote agreed with the poller's eventual experience → credibility up).
    credibility: BTreeMap<AgentId, BTreeMap<AgentId, (u64, u64)>>,
    submitted: usize,
}

impl DamianiMechanism {
    /// Empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// The local vote `peer` would cast about `subject`, if any.
    pub fn vote_of(&self, peer: AgentId, subject: SubjectId) -> Option<Vote> {
        let &(good, bad) = self.experience.get(&peer)?.get(&subject)?;
        if good == bad {
            None // abstain on ties
        } else if good > bad {
            Some(Vote::Plus)
        } else {
            Some(Vote::Minus)
        }
    }

    /// Poller-side credibility of a voter in `\[0, 1\]`; 0.5 when unknown.
    pub fn voter_credibility(&self, poller: AgentId, voter: AgentId) -> f64 {
        match self.credibility.get(&poller).and_then(|c| c.get(&voter)) {
            None => 0.5,
            Some(&(agreed, disagreed)) => {
                (agreed as f64 + 1.0) / ((agreed + disagreed) as f64 + 2.0)
            }
        }
    }

    /// After a poll and a real interaction, the poller updates each
    /// voter's credibility by whether its vote matched the outcome.
    pub fn judge_vote(&mut self, poller: AgentId, voter: AgentId, vote: Vote, outcome_good: bool) {
        let agreed = (vote == Vote::Plus) == outcome_good;
        let e = self
            .credibility
            .entry(poller)
            .or_default()
            .entry(voter)
            .or_insert((0, 0));
        if agreed {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }

    /// Run a poll on behalf of `poller`: every peer with an opinion votes;
    /// votes are weighted by poller-side credibility. Returns
    /// `(weighted_plus, weighted_minus, voter_count)`.
    pub(crate) fn poll(&self, poller: AgentId, subject: SubjectId) -> (f64, f64, usize) {
        let mut plus = 0.0;
        let mut minus = 0.0;
        let mut voters = 0;
        for &peer in self.experience.keys() {
            if peer == poller {
                continue;
            }
            let Some(vote) = self.vote_of(peer, subject) else {
                continue;
            };
            let w = self.voter_credibility(poller, peer);
            match vote {
                Vote::Plus => plus += w,
                Vote::Minus => minus += w,
            }
            voters += 1;
        }
        (plus, minus, voters)
    }
}

impl ReputationMechanism for DamianiMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "damiani",
            display: "E. Damiani",
            centralization: Centralization::Decentralized,
            subject: Subject::PersonAgent,
            scope: Scope::Personalized,
            citation: "4",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        let e = self
            .experience
            .entry(feedback.rater)
            .or_default()
            .entry(feedback.subject)
            .or_insert((0, 0));
        if feedback.is_positive(0.5) {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        // Population view: unweighted vote tally.
        let mut plus = 0u64;
        let mut minus = 0u64;
        for &peer in self.experience.keys() {
            match self.vote_of(peer, subject) {
                Some(Vote::Plus) => plus += 1,
                Some(Vote::Minus) => minus += 1,
                None => {}
            }
        }
        let total = plus + minus;
        if total == 0 {
            return None;
        }
        Some(TrustEstimate::new(
            TrustValue::new(plus as f64 / total as f64),
            evidence_confidence(total as usize, 3.0),
        ))
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        // Own experience first (XRep consults local tables before polling).
        if let Some(vote) = self.vote_of(observer, subject) {
            let &(g, b) = self
                .experience
                .get(&observer)
                .and_then(|t| t.get(&subject))
                .expect("vote implies experience");
            let value = match vote {
                Vote::Plus => (g as f64 + 1.0) / ((g + b) as f64 + 2.0),
                Vote::Minus => (g as f64 + 1.0) / ((g + b) as f64 + 2.0),
            };
            return Some(TrustEstimate::new(
                TrustValue::new(value),
                evidence_confidence((g + b) as usize, 3.0),
            ));
        }
        let (plus, minus, voters) = self.poll(observer, subject);
        if voters == 0 {
            return None;
        }
        Some(TrustEstimate::new(
            TrustValue::new(plus / (plus + minus)),
            evidence_confidence(voters, 3.0),
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

    #[test]
    fn votes_follow_experience_majority() {
        let mut m = DamianiMechanism::new();
        m.submit(&fb(0, 1, 0.9));
        m.submit(&fb(0, 1, 0.9));
        m.submit(&fb(0, 1, 0.1));
        assert_eq!(m.vote_of(AgentId::new(0), s(1)), Some(Vote::Plus));
        m.submit(&fb(0, 1, 0.1));
        assert_eq!(m.vote_of(AgentId::new(0), s(1)), None); // tie abstains
    }

    #[test]
    fn poll_tallies_other_peers() {
        let mut m = DamianiMechanism::new();
        for r in 0..4 {
            m.submit(&fb(r, 1, 0.9));
        }
        m.submit(&fb(4, 1, 0.1));
        let (plus, minus, voters) = m.poll(AgentId::new(99), s(1));
        assert_eq!(voters, 5);
        assert!(plus > minus);
    }

    #[test]
    fn credibility_learning_downweights_liars() {
        let mut m = DamianiMechanism::new();
        let poller = AgentId::new(99);
        let liar = AgentId::new(1);
        // Liar votes Plus for things that turn out bad, repeatedly.
        for _ in 0..10 {
            m.judge_vote(poller, liar, Vote::Plus, false);
        }
        assert!(m.voter_credibility(poller, liar) < 0.2);
        // The liar's Plus vote now barely moves a poll.
        m.submit(&fb(1, 5, 0.9)); // liar claims subject 5 is good
        m.submit(&fb(2, 5, 0.1)); // honest peer says bad
        let est = m.personalized(poller, s(5)).unwrap();
        assert!(est.value.get() < 0.4, "got {}", est.value);
    }

    #[test]
    fn own_experience_short_circuits_polling() {
        let mut m = DamianiMechanism::new();
        // The crowd loves it; the observer had bad experiences.
        for r in 1..6 {
            m.submit(&fb(r, 1, 0.9));
        }
        m.submit(&fb(0, 1, 0.1));
        m.submit(&fb(0, 1, 0.1));
        let est = m.personalized(AgentId::new(0), s(1)).unwrap();
        assert!(est.value.get() < 0.5);
    }

    #[test]
    fn no_opinions_yields_none() {
        let m = DamianiMechanism::new();
        assert_eq!(m.global(s(1)), None);
        assert_eq!(m.personalized(AgentId::new(0), s(1)), None);
    }

    #[test]
    fn global_is_unweighted_majority() {
        let mut m = DamianiMechanism::new();
        m.submit(&fb(0, 1, 0.9));
        m.submit(&fb(1, 1, 0.9));
        m.submit(&fb(2, 1, 0.1));
        let est = m.global(s(1)).unwrap();
        assert!((est.value.get() - 2.0 / 3.0).abs() < 1e-9);
    }
}
