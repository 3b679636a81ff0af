//! TTL-bounded flooding — the Gnutella-style query primitive that XRep
//! polling (Damiani et al.) rides on.

use crate::overlay::graph::NeighborGraph;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wsrep_core::id::AgentId;

/// Result of one flood.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodOutcome {
    /// Nodes reached (excluding the source), with the hop count at which
    /// each was first reached.
    pub reached: BTreeMap<AgentId, usize>,
    /// Messages transmitted (every edge-crossing counts once).
    pub messages: u64,
}

/// Flood a query from `source` with the given TTL over `graph`. Each node
/// forwards the first copy it sees to all neighbors except the one it came
/// from; duplicate deliveries still cost a message (as in real flooding).
pub fn flood(graph: &NeighborGraph, source: AgentId, ttl: usize) -> FloodOutcome {
    let mut reached: BTreeMap<AgentId, usize> = BTreeMap::new();
    let mut messages = 0u64;
    if ttl == 0 {
        return FloodOutcome { reached, messages };
    }
    let mut forwarded: BTreeSet<AgentId> = BTreeSet::from([source]);
    let mut queue: VecDeque<(AgentId, AgentId, usize)> = VecDeque::new(); // (from, at, depth)
    for n in graph.neighbors(source) {
        messages += 1;
        queue.push_back((source, n, 1));
    }
    while let Some((from, at, depth)) = queue.pop_front() {
        reached.entry(at).or_insert(depth);
        if depth >= ttl || !forwarded.insert(at) {
            continue;
        }
        for n in graph.neighbors(at) {
            if n != from {
                // Duplicate deliveries still cost a message; the
                // `forwarded` check at dequeue stops re-forwarding.
                messages += 1;
                queue.push_back((at, n, depth + 1));
            }
        }
    }
    reached.remove(&source);
    FloodOutcome { reached, messages }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u64) -> AgentId {
        AgentId::new(i)
    }

    /// 0 - 1 - 2 - 3 line.
    fn line() -> NeighborGraph {
        let mut g = NeighborGraph::new();
        g.add_edge(a(0), a(1));
        g.add_edge(a(1), a(2));
        g.add_edge(a(2), a(3));
        g
    }

    #[test]
    fn ttl_limits_reach() {
        let g = line();
        let out = flood(&g, a(0), 2);
        assert!(out.reached.contains_key(&a(1)));
        assert!(out.reached.contains_key(&a(2)));
        assert!(!out.reached.contains_key(&a(3)));
        assert_eq!(out.reached[&a(1)], 1);
        assert_eq!(out.reached[&a(2)], 2);
    }

    #[test]
    fn full_ttl_reaches_everyone() {
        let g = line();
        let out = flood(&g, a(0), 10);
        assert_eq!(out.reached.len(), 3);
    }

    #[test]
    fn messages_grow_with_ttl() {
        let g = line();
        let short = flood(&g, a(0), 1);
        let long = flood(&g, a(0), 3);
        assert!(long.messages > short.messages);
        assert_eq!(short.messages, 1);
    }

    #[test]
    fn cycles_do_not_loop_forever() {
        let mut g = NeighborGraph::new();
        g.add_edge(a(0), a(1));
        g.add_edge(a(1), a(2));
        g.add_edge(a(2), a(0));
        let out = flood(&g, a(0), 10);
        assert_eq!(out.reached.len(), 2);
        assert!(out.messages < 20);
    }

    #[test]
    fn isolated_source_reaches_nobody() {
        let mut g = NeighborGraph::new();
        g.add_edge(a(1), a(2));
        let out = flood(&g, a(0), 5);
        assert!(out.reached.is_empty());
        assert_eq!(out.messages, 0);
    }
}
