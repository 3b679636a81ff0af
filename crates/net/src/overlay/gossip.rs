//! Push gossip (rumor spreading) — how decentralized reputation updates
//! (e.g. Wang–Vassileva community opinions) disseminate without a center.

use crate::overlay::graph::NeighborGraph;
use rand::seq::IteratorRandom;
use rand::Rng;
use std::collections::BTreeSet;
use wsrep_core::id::AgentId;

/// Result of a gossip run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipOutcome {
    /// Nodes that know the rumor at the end (including the source).
    pub informed: BTreeSet<AgentId>,
    /// Rounds executed.
    pub rounds: usize,
    /// Messages transmitted.
    pub messages: u64,
}

/// Spread a rumor from `source`: each round, every informed node pushes to
/// `fanout` random neighbors. Stops when everyone knows it, nothing changed
/// for a full round, or `max_rounds` elapse.
pub fn gossip<R: Rng + ?Sized>(
    rng: &mut R,
    graph: &NeighborGraph,
    source: AgentId,
    fanout: usize,
    max_rounds: usize,
) -> GossipOutcome {
    let mut informed: BTreeSet<AgentId> = BTreeSet::from([source]);
    let mut messages = 0u64;
    let total = graph.len();
    let mut rounds = 0;
    for _ in 0..max_rounds {
        if informed.len() >= total {
            break;
        }
        rounds += 1;
        let mut newly: BTreeSet<AgentId> = BTreeSet::new();
        for &node in &informed {
            let targets = graph.neighbors(node).choose_multiple(rng, fanout);
            for t in targets {
                messages += 1;
                if !informed.contains(&t) {
                    newly.insert(t);
                }
            }
        }
        if newly.is_empty() {
            break;
        }
        informed.extend(newly);
    }
    GossipOutcome {
        informed,
        rounds,
        messages,
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

    fn random_graph(n: u64, seed: u64) -> NeighborGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes: Vec<AgentId> = (0..n).map(a).collect();
        NeighborGraph::random_connected(&mut rng, &nodes, 2)
    }

    #[test]
    fn rumor_reaches_everyone_on_connected_graph() {
        let g = random_graph(60, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let out = gossip(&mut rng, &g, a(0), 3, 100);
        assert_eq!(out.informed.len(), 60);
    }

    #[test]
    fn spread_is_logarithmic_ish() {
        let g = random_graph(100, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let out = gossip(&mut rng, &g, a(0), 3, 100);
        assert!(out.rounds <= 20, "rounds={}", out.rounds);
    }

    #[test]
    fn higher_fanout_needs_fewer_rounds() {
        let g = random_graph(100, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let slow = gossip(&mut rng, &g, a(0), 1, 200);
        let fast = gossip(&mut rng, &g, a(0), 5, 200);
        assert!(fast.rounds <= slow.rounds);
    }

    #[test]
    fn isolated_source_stops_immediately() {
        // Other nodes exist, so the run does not end as "everyone
        // informed": it ends after one round with no progress.
        let mut g = NeighborGraph::new();
        g.add_edge(a(1), a(2));
        let mut rng = StdRng::seed_from_u64(13);
        let out = gossip(&mut rng, &g, a(0), 3, 10);
        assert_eq!(out.informed.len(), 1);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.messages, 0);
    }
}
