//! Undirected neighbor graphs for unstructured overlays.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use wsrep_core::id::AgentId;

/// An undirected neighbor graph.
#[derive(Debug, Clone, Default)]
pub struct NeighborGraph {
    adj: BTreeMap<AgentId, BTreeSet<AgentId>>,
}

impl NeighborGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an undirected edge (adds missing endpoints).
    pub fn add_edge(&mut self, a: AgentId, b: AgentId) {
        if a == b {
            return;
        }
        self.adj.entry(a).or_default().insert(b);
        self.adj.entry(b).or_default().insert(a);
    }

    /// Neighbors of a node.
    pub(crate) fn neighbors(&self, node: AgentId) -> impl Iterator<Item = AgentId> + '_ {
        self.adj.get(&node).into_iter().flatten().copied()
    }

    /// Node count.
    pub(crate) fn len(&self) -> usize {
        self.adj.len()
    }

    /// A connected random graph: a ring over `nodes` (guaranteeing
    /// connectivity) plus `extra_per_node` random shortcut edges each —
    /// the usual small-world construction for unstructured P2P overlays.
    pub fn random_connected<R: Rng + ?Sized>(
        rng: &mut R,
        nodes: &[AgentId],
        extra_per_node: usize,
    ) -> Self {
        let mut g = NeighborGraph::new();
        if nodes.is_empty() {
            return g;
        }
        let mut order: Vec<AgentId> = nodes.to_vec();
        order.shuffle(rng);
        for w in 0..order.len() {
            g.add_edge(order[w], order[(w + 1) % order.len()]);
        }
        if nodes.len() > 2 {
            for &n in nodes {
                for _ in 0..extra_per_node {
                    let other = nodes[rng.gen_range(0..nodes.len())];
                    g.add_edge(n, other);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn a(i: u64) -> AgentId {
        AgentId::new(i)
    }

    fn edge_count(g: &NeighborGraph) -> usize {
        g.adj.values().map(BTreeSet::len).sum::<usize>() / 2
    }

    #[test]
    fn edges_are_undirected() {
        let mut g = NeighborGraph::new();
        g.add_edge(a(0), a(1));
        assert!(g.neighbors(a(0)).any(|n| n == a(1)));
        assert!(g.neighbors(a(1)).any(|n| n == a(0)));
        assert_eq!(edge_count(&g), 1);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = NeighborGraph::new();
        g.add_edge(a(0), a(0));
        assert_eq!(edge_count(&g), 0);
    }

    #[test]
    fn random_graph_is_connected() {
        let mut rng = StdRng::seed_from_u64(5);
        let nodes: Vec<AgentId> = (0..50).map(a).collect();
        let g = NeighborGraph::random_connected(&mut rng, &nodes, 2);
        assert_eq!(g.len(), 50);
        let mut seen = BTreeSet::from([a(0)]);
        let mut stack = vec![a(0)];
        while let Some(at) = stack.pop() {
            stack.extend(g.neighbors(at).filter(|&n| seen.insert(n)));
        }
        assert_eq!(seen.len(), 50);
    }
}
