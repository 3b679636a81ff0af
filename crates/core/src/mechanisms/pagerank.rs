//! PageRank — Page, Brin, Motwani & Winograd, reference \[23\].
//!
//! The survey classifies Google's PageRank as a *centralized, resource,
//! global* reputation system: a page's standing derives from the standing
//! of the pages endorsing it. Here an endorsement edge is created whenever
//! a rater gives positive feedback about a subject; rank is the standard
//! damped power iteration over the endorsement graph.

use crate::feedback::Feedback;
use crate::id::SubjectId;
use crate::mechanism::ReputationMechanism;
use crate::trust::{TrustEstimate, TrustValue};
use crate::typology::{Centralization, MechanismInfo, Scope, Subject};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// The damped power iteration over an out-edge map, shared with the
/// NodeRanking of `social.rs`. Dangling nodes spread their rank
/// uniformly, keeping the distribution stochastic; ranks sum to 1.
pub(crate) fn damped_ranks(
    nodes: &BTreeSet<SubjectId>,
    out: &BTreeMap<SubjectId, BTreeSet<SubjectId>>,
    damping: f64,
    epsilon: f64,
    max_iter: usize,
) -> BTreeMap<SubjectId, f64> {
    let nodes: Vec<SubjectId> = nodes.iter().copied().collect();
    let n = nodes.len();
    if n == 0 {
        return BTreeMap::new();
    }
    let index: BTreeMap<SubjectId, usize> =
        nodes.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..max_iter {
        let mut next = vec![(1.0 - damping) / n as f64; n];
        let mut dangling = 0.0;
        for (i, node) in nodes.iter().enumerate() {
            match out.get(node) {
                Some(outs) if !outs.is_empty() => {
                    let share = damping * rank[i] / outs.len() as f64;
                    for o in outs {
                        next[index[o]] += share;
                    }
                }
                _ => dangling += damping * rank[i],
            }
        }
        let spread = dangling / n as f64;
        for v in next.iter_mut() {
            *v += spread;
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
        if delta < epsilon {
            break;
        }
    }
    nodes.into_iter().zip(rank).collect()
}

/// Damped PageRank over an endorsement graph.
#[derive(Debug, Clone)]
pub struct PageRankMechanism {
    /// Damping factor `d` (0.85 in the original paper).
    damping: f64,
    /// Convergence threshold on the L1 change per iteration.
    epsilon: f64,
    /// Hard cap on iterations.
    max_iter: usize,
    /// Endorsement edges: endorser → set of endorsed subjects.
    edges: BTreeMap<SubjectId, BTreeSet<SubjectId>>,
    /// All nodes ever seen (isolated nodes still get the base rank).
    nodes: BTreeSet<SubjectId>,
    /// Ranks of the current graph, computed at most once per change.
    cache: OnceLock<BTreeMap<SubjectId, f64>>,
    submitted: usize,
}

impl Default for PageRankMechanism {
    fn default() -> Self {
        Self::new()
    }
}

impl PageRankMechanism {
    /// PageRank with `d = 0.85`, `ε = 1e-9`, 200 iterations max.
    pub fn new() -> Self {
        Self::with_params(0.85, 1e-9, 200)
    }

    /// PageRank with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `damping` is outside `(0, 1)`.
    pub fn with_params(damping: f64, epsilon: f64, max_iter: usize) -> Self {
        assert!(damping > 0.0 && damping < 1.0, "damping must be in (0,1)");
        PageRankMechanism {
            damping,
            epsilon,
            max_iter,
            edges: BTreeMap::new(),
            nodes: BTreeSet::new(),
            cache: OnceLock::new(),
            submitted: 0,
        }
    }

    /// Add an explicit endorsement edge (used when building link graphs
    /// directly rather than from feedback).
    pub fn endorse(&mut self, from: impl Into<SubjectId>, to: impl Into<SubjectId>) {
        let (from, to) = (from.into(), to.into());
        self.nodes.insert(from);
        self.nodes.insert(to);
        self.edges.entry(from).or_default().insert(to);
        self.cache.take();
    }

    /// Run (or reuse) the power iteration and return all ranks. Ranks sum
    /// to 1 over all nodes.
    pub fn ranks(&self) -> &BTreeMap<SubjectId, f64> {
        self.cache.get_or_init(|| {
            damped_ranks(
                &self.nodes,
                &self.edges,
                self.damping,
                self.epsilon,
                self.max_iter,
            )
        })
    }
}

impl ReputationMechanism for PageRankMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            key: "pagerank",
            display: "Google PageRank",
            centralization: Centralization::Centralized,
            subject: Subject::Resource,
            scope: Scope::Global,
            citation: "23",
            proposed_for_web_services: false,
        }
    }

    fn submit(&mut self, feedback: &Feedback) {
        // Positive feedback endorses; other feedback only registers nodes.
        let rater: SubjectId = feedback.rater.into();
        self.nodes.insert(rater);
        self.nodes.insert(feedback.subject);
        if feedback.ebay_sign() == 1 {
            self.edges
                .entry(rater)
                .or_default()
                .insert(feedback.subject);
        }
        self.cache.take();
        self.submitted += 1;
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        if !self.nodes.contains(&subject) {
            return None;
        }
        let ranks = self.ranks();
        let max = ranks.values().fold(f64::MIN, |a, &b| a.max(b));
        let r = ranks.get(&subject).copied()?;
        // Normalize by the max rank so the best node maps to trust 1.
        let value = if max > 0.0 { r / max } else { 0.0 };
        Some(TrustEstimate::new(TrustValue::new(value), 1.0))
    }

    fn refresh(&mut self, _now: crate::time::Time) {
        self.ranks();
    }

    fn feedback_count(&self) -> usize {
        self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{AgentId, ServiceId};
    use crate::time::Time;

    fn s(i: u64) -> SubjectId {
        ServiceId::new(i).into()
    }

    #[test]
    fn ranks_sum_to_one() {
        let mut m = PageRankMechanism::new();
        m.endorse(ServiceId::new(0), ServiceId::new(1));
        m.endorse(ServiceId::new(1), ServiceId::new(2));
        m.endorse(ServiceId::new(2), ServiceId::new(0));
        let total: f64 = m.ranks().values().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn heavily_endorsed_node_outranks_others() {
        let mut m = PageRankMechanism::new();
        for i in 1..=5 {
            m.endorse(ServiceId::new(i), ServiceId::new(0));
        }
        m.endorse(ServiceId::new(1), ServiceId::new(2));
        let ranks = m.ranks();
        let hub = ranks[&s(0)];
        assert!(ranks.iter().all(|(&k, &v)| k == s(0) || v <= hub));
        let est = m.global(s(0)).unwrap();
        assert_eq!(est.value, TrustValue::MAX);
    }

    #[test]
    fn endorsement_from_important_node_counts_more() {
        let mut m = PageRankMechanism::new();
        // Node 0 is made important by many endorsements.
        for i in 10..20 {
            m.endorse(ServiceId::new(i), ServiceId::new(0));
        }
        // 0 endorses A; an unimportant node endorses B.
        m.endorse(ServiceId::new(0), ServiceId::new(100));
        m.endorse(ServiceId::new(50), ServiceId::new(101));
        let ranks = m.ranks();
        assert!(ranks[&s(100)] > ranks[&s(101)]);
    }

    #[test]
    fn feedback_builds_the_graph() {
        let mut m = PageRankMechanism::new();
        m.submit(&Feedback::scored(
            AgentId::new(0),
            ServiceId::new(1),
            0.9,
            Time::ZERO,
        ));
        m.submit(&Feedback::scored(
            AgentId::new(0),
            ServiceId::new(2),
            0.1, // negative: registers the node but adds no endorsement
            Time::ZERO,
        ));
        assert!(m.global(s(1)).unwrap().value.get() > m.global(s(2)).unwrap().value.get());
    }

    #[test]
    fn unknown_subject_is_none_and_empty_graph_is_empty() {
        let m = PageRankMechanism::new();
        assert_eq!(m.global(s(7)), None);
        assert!(m.ranks().is_empty());
    }

    #[test]
    fn dangling_nodes_do_not_leak_rank() {
        let mut m = PageRankMechanism::new();
        m.endorse(ServiceId::new(0), ServiceId::new(1)); // 1 is dangling
        let total: f64 = m.ranks().values().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "damping must be in (0,1)")]
    fn invalid_damping_panics() {
        PageRankMechanism::with_params(1.0, 1e-9, 10);
    }

    #[test]
    fn refresh_warms_the_cache() {
        let mut m = PageRankMechanism::new();
        m.endorse(ServiceId::new(0), ServiceId::new(1));
        m.refresh(Time::ZERO);
        assert!(m.cache.get().is_some());
        let est = m.global(s(1)).unwrap();
        assert!(est.value.get() > 0.0);
    }
}
