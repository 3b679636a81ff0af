//! Transitive trust networks (Jøsang, Gray & Kinateder — reference \[10\]).
//!
//! Section 3: "Trust can be transitive. For example, Alice trusts her
//! doctor and her doctor trusts an eye specialist. Then Alice can trust the
//! eye specialist." This module keeps a directed graph of subjective-logic
//! [`Opinion`]s between agents and derives indirect trust by discounting
//! along paths and fusing parallel paths — the simplification rules of the
//! cited paper.

use crate::id::AgentId;
use crate::opinion::Opinion;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A directed graph of trust opinions between agents.
#[derive(Debug, Clone, Default)]
pub struct TrustGraph {
    edges: BTreeMap<AgentId, BTreeMap<AgentId, Opinion>>,
}

impl TrustGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the direct opinion `from` holds about `to` (replacing any prior).
    pub fn set(&mut self, from: AgentId, to: AgentId, opinion: Opinion) {
        self.edges.entry(from).or_default().insert(to, opinion);
    }

    /// The direct opinion `from` holds about `to`, if any.
    pub fn direct(&self, from: AgentId, to: AgentId) -> Option<Opinion> {
        self.edges.get(&from)?.get(&to).copied()
    }

    /// Outgoing opinions of `from`.
    pub(crate) fn successors(
        &self,
        from: AgentId,
    ) -> impl Iterator<Item = (AgentId, Opinion)> + '_ {
        self.edges
            .get(&from)
            .into_iter()
            .flatten()
            .map(|(a, o)| (*a, *o))
    }

    /// Number of edges.
    pub(crate) fn len(&self) -> usize {
        self.edges.values().map(BTreeMap::len).sum()
    }

    /// Whether the graph has no edges.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Derive `source`'s opinion about `target` by enumerating all simple
    /// directed paths up to `max_hops`, discounting each path's opinions in
    /// sequence, and fusing the per-path results with the consensus
    /// operator. Returns `None` when no path exists.
    ///
    /// Path enumeration is exponential in the worst case; `max_hops` keeps
    /// it tame (the cited analysis recommends short chains anyway: trust
    /// dilutes quickly with distance).
    pub fn derive(&self, source: AgentId, target: AgentId, max_hops: usize) -> Option<Opinion> {
        if source == target {
            // Full self-trust by convention.
            return Some(Opinion {
                b: 1.0,
                d: 0.0,
                u: 0.0,
                a: 0.5,
            });
        }
        let mut path_opinions = Vec::new();
        let mut visited = BTreeSet::new();
        visited.insert(source);
        self.dfs(
            source,
            target,
            max_hops,
            None,
            &mut visited,
            &mut path_opinions,
        );
        if path_opinions.is_empty() {
            return None;
        }
        let mut fused = path_opinions[0];
        for op in &path_opinions[1..] {
            fused = fused.consensus(op);
        }
        Some(fused)
    }

    fn dfs(
        &self,
        at: AgentId,
        target: AgentId,
        hops_left: usize,
        carried: Option<Opinion>,
        visited: &mut BTreeSet<AgentId>,
        out: &mut Vec<Opinion>,
    ) {
        if hops_left == 0 {
            return;
        }
        for (next, op) in self.successors(at) {
            let combined = match carried {
                None => op,
                Some(c) => c.discount(&op),
            };
            if next == target {
                out.push(combined);
                continue;
            }
            if visited.contains(&next) {
                continue;
            }
            visited.insert(next);
            self.dfs(next, target, hops_left - 1, Some(combined), visited, out);
            visited.remove(&next);
        }
    }

    /// Agents reachable from `source` within `max_hops` (BFS) — the
    /// referral horizon used by decentralized witness search.
    pub(crate) fn reachable(&self, source: AgentId, max_hops: usize) -> BTreeSet<AgentId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([(source, 0usize)]);
        while let Some((at, d)) = queue.pop_front() {
            if d >= max_hops {
                continue;
            }
            for (next, _) in self.successors(at) {
                if next != source && seen.insert(next) {
                    queue.push_back((next, d + 1));
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::on_simplex;

    fn a(i: u64) -> AgentId {
        AgentId::new(i)
    }

    fn strong() -> Opinion {
        Opinion::from_evidence(18.0, 0.0, 0.5)
    }

    fn weak() -> Opinion {
        Opinion::from_evidence(2.0, 2.0, 0.5)
    }

    #[test]
    fn alice_doctor_specialist_chain() {
        // The paper's worked example: Alice -> doctor -> eye specialist.
        let mut g = TrustGraph::new();
        g.set(a(0), a(1), strong()); // Alice trusts doctor
        g.set(a(1), a(2), strong()); // doctor trusts specialist
        let derived = g.derive(a(0), a(2), 3).unwrap();
        assert!(on_simplex(derived.b, derived.d, derived.u));
        assert!(derived.expectation() > 0.6, "e={}", derived.expectation());
        // but weaker than the direct links
        assert!(derived.b < strong().b);
    }

    #[test]
    fn no_path_means_no_opinion() {
        let mut g = TrustGraph::new();
        g.set(a(0), a(1), strong());
        assert_eq!(g.derive(a(1), a(0), 3), None);
        assert_eq!(g.derive(a(0), a(9), 3), None);
    }

    #[test]
    fn hop_limit_cuts_long_chains() {
        let mut g = TrustGraph::new();
        for i in 0..5 {
            g.set(a(i), a(i + 1), strong());
        }
        assert!(g.derive(a(0), a(5), 5).is_some());
        assert_eq!(g.derive(a(0), a(5), 3), None);
    }

    #[test]
    fn parallel_paths_fuse_and_reduce_uncertainty() {
        let mut g = TrustGraph::new();
        // Two independent referral chains to the same target.
        g.set(a(0), a(1), strong());
        g.set(a(1), a(3), strong());
        g.set(a(0), a(2), strong());
        g.set(a(2), a(3), strong());
        let fused = g.derive(a(0), a(3), 3).unwrap();
        // Single-path derivation for comparison.
        let mut single = TrustGraph::new();
        single.set(a(0), a(1), strong());
        single.set(a(1), a(3), strong());
        let one = single.derive(a(0), a(3), 3).unwrap();
        assert!(fused.u < one.u, "two witnesses beat one");
    }

    #[test]
    fn weak_recommender_dilutes_trust() {
        let mut g = TrustGraph::new();
        g.set(a(0), a(1), weak());
        g.set(a(1), a(2), strong());
        let derived = g.derive(a(0), a(2), 3).unwrap();
        assert!(derived.u > 0.4, "weak first hop keeps uncertainty high");
    }

    #[test]
    fn self_trust_is_full() {
        let g = TrustGraph::new();
        let o = g.derive(a(7), a(7), 1).unwrap();
        assert_eq!(o.b, 1.0);
    }

    #[test]
    fn cycles_do_not_hang_or_inflate() {
        let mut g = TrustGraph::new();
        g.set(a(0), a(1), strong());
        g.set(a(1), a(0), strong());
        g.set(a(1), a(2), strong());
        let derived = g.derive(a(0), a(2), 4).unwrap();
        assert!(on_simplex(derived.b, derived.d, derived.u));
    }

    #[test]
    fn reachable_respects_horizon() {
        let mut g = TrustGraph::new();
        for i in 0..4 {
            g.set(a(i), a(i + 1), strong());
        }
        assert_eq!(g.reachable(a(0), 2).len(), 2);
        assert_eq!(g.reachable(a(0), 10).len(), 4);
        assert!(g.reachable(a(4), 3).is_empty());
    }
}
