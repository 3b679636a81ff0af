//! Pujol, Sangüesa & Delgado — "Extracting reputation in multi agent
//! systems by means of social network topology" (AAMAS 2002), ref. \[24\].
//!
//! *Decentralized, person/agent, global.* NodeRanking infers reputation
//! purely from the **topology** of the social network — who is connected
//! to whom — without numeric ratings: an agent pointed to by well-regarded
//! agents is well-regarded. The ranking is a PageRank-flavoured recursive
//! authority measure that each node can compute from local knowledge.
//! Interactions (any feedback, positive or not) create social edges;
//! authority comes from the recursive rank.

use crate::feedback::Feedback;
use crate::id::SubjectId;
use crate::mechanism::ReputationMechanism;
use crate::time::Time;
use crate::trust::{TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// NodeRanking over the interaction-derived social graph.
#[derive(Debug, Clone)]
pub struct SocialMechanism {
    damping: f64,
    max_iter: usize,
    epsilon: f64,
    /// Directed social edges out of each node.
    out: BTreeMap<SubjectId, BTreeSet<SubjectId>>,
    nodes: BTreeSet<SubjectId>,
    cache: OnceLock<BTreeMap<SubjectId, f64>>,
    submitted: usize,
}

impl Default for SocialMechanism {
    fn default() -> Self {
        Self::new()
    }
}

impl SocialMechanism {
    /// NodeRanking with damping 0.85.
    pub fn new() -> Self {
        SocialMechanism {
            damping: 0.85,
            max_iter: 100,
            epsilon: 1e-9,
            out: BTreeMap::new(),
            nodes: BTreeSet::new(),
            cache: OnceLock::new(),
            submitted: 0,
        }
    }

    /// Add an explicit social edge.
    pub fn add_edge(&mut self, from: impl Into<SubjectId>, to: impl Into<SubjectId>) {
        let (from, to) = (from.into(), to.into());
        self.nodes.insert(from);
        self.nodes.insert(to);
        self.out.entry(from).or_default().insert(to);
        self.cache.take();
    }

    /// In-degree of a node (for the degree-baseline comparison).
    pub fn in_degree(&self, node: SubjectId) -> usize {
        self.out
            .values()
            .filter(|outs| outs.contains(&node))
            .count()
    }

    /// PageRank's damped iteration over the social edges, run at most
    /// once per change to the graph.
    fn ranks(&self) -> &BTreeMap<SubjectId, f64> {
        self.cache.get_or_init(|| {
            super::pagerank::damped_ranks(
                &self.nodes,
                &self.out,
                self.damping,
                self.epsilon,
                self.max_iter,
            )
        })
    }
}

impl ReputationMechanism for SocialMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "social",
            display: "Social-network topology analysis",
            centralization: Centralization::Decentralized,
            subject: Subject::PersonAgent,
            scope: Scope::Global,
            citation: "24",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        // Any interaction creates a social tie rater → subject; topology,
        // not the numeric score, is the signal (the paper's premise).
        let rater: SubjectId = feedback.rater.into();
        self.add_edge(rater, feedback.subject);
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        if !self.nodes.contains(&subject) {
            return None;
        }
        let ranks = self.ranks();
        let max = ranks.values().fold(f64::MIN, |a, &b| a.max(b));
        let v = ranks.get(&subject).copied()?;
        Some(TrustEstimate::new(
            TrustValue::new(if max > 0.0 { v / max } else { 0.0 }),
            1.0,
        ))
    }

    fn refresh(&mut self, _now: Time) {
        self.ranks();
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::AgentId;

    fn a(i: u64) -> SubjectId {
        AgentId::new(i).into()
    }

    #[test]
    fn hub_of_the_social_graph_ranks_highest() {
        let mut m = SocialMechanism::new();
        for i in 1..8 {
            m.add_edge(AgentId::new(i), AgentId::new(0));
        }
        m.add_edge(AgentId::new(1), AgentId::new(2));
        let hub = m.global(a(0)).unwrap();
        let other = m.global(a(2)).unwrap();
        assert_eq!(hub.value, TrustValue::MAX);
        assert!(other.value < hub.value);
    }

    #[test]
    fn interactions_create_ties_regardless_of_score() {
        let mut m = SocialMechanism::new();
        m.submit(&Feedback::scored(
            AgentId::new(1),
            AgentId::new(0),
            0.1, // even a bad interaction is a social tie here
            Time::ZERO,
        ));
        assert!(m.global(a(0)).is_some());
        assert_eq!(m.in_degree(a(0)), 1);
    }

    #[test]
    fn second_hand_standing_propagates() {
        let mut m = SocialMechanism::new();
        // 0 is a hub; 0 points at 5. Node 6 is pointed at by a nobody.
        for i in 1..6 {
            m.add_edge(AgentId::new(i), AgentId::new(0));
        }
        m.add_edge(AgentId::new(0), AgentId::new(50));
        m.add_edge(AgentId::new(40), AgentId::new(60));
        let via_hub = m.global(a(50)).unwrap();
        let via_nobody = m.global(a(60)).unwrap();
        assert!(via_hub.value > via_nobody.value);
    }

    #[test]
    fn unknown_node_is_none() {
        let m = SocialMechanism::new();
        assert_eq!(m.global(a(9)), None);
    }

    #[test]
    fn refresh_caches_ranks() {
        let mut m = SocialMechanism::new();
        m.add_edge(AgentId::new(0), AgentId::new(1));
        m.refresh(Time::ZERO);
        assert!(m.cache.get().is_some());
    }
}
