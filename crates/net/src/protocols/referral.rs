//! Yu–Singh witness location through referral chains.
//!
//! An agent that lacks first-hand evidence about a subject asks its
//! acquaintances; each either *testifies* (it has evidence) or *refers*
//! the query to its own acquaintances, up to a depth bound. The survey
//! classifies Yu & Singh as decentralized/personalized precisely because
//! the witness set — and therefore the answer — depends on where in the
//! acquaintance network the asker sits.

use crate::overlay::graph::NeighborGraph;
use std::collections::{BTreeSet, VecDeque};
use wsrep_core::id::AgentId;

/// Result of a referral search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferralOutcome {
    /// Witnesses found, with the referral depth at which each was reached.
    pub witnesses: Vec<(AgentId, usize)>,
    /// Messages exchanged (queries + referrals + testimonies).
    pub messages: u64,
}

/// Search for witnesses about a subject from `asker`, where `has_evidence`
/// says whether a given agent can testify. Stops at `max_depth` or after
/// `enough` witnesses are found.
pub fn find_witnesses<F>(
    graph: &NeighborGraph,
    asker: AgentId,
    max_depth: usize,
    enough: usize,
    has_evidence: F,
) -> ReferralOutcome
where
    F: Fn(AgentId) -> bool,
{
    let mut witnesses = Vec::new();
    let mut messages = 0u64;
    let mut visited: BTreeSet<AgentId> = BTreeSet::from([asker]);
    let mut queue: VecDeque<(AgentId, usize)> = VecDeque::from([(asker, 0)]);
    while let Some((at, depth)) = queue.pop_front() {
        if depth >= max_depth || witnesses.len() >= enough {
            continue;
        }
        for n in graph.neighbors(at) {
            if !visited.insert(n) {
                continue;
            }
            messages += 1; // the query/referral hop
            if has_evidence(n) {
                messages += 1; // the testimony reply
                witnesses.push((n, depth + 1));
                if witnesses.len() >= enough {
                    break;
                }
            } else {
                queue.push_back((n, depth + 1));
            }
        }
    }
    ReferralOutcome {
        witnesses,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u64) -> AgentId {
        AgentId::new(i)
    }

    /// Chain 0-1-2-3-4 where only 3 and 4 hold evidence.
    fn chain() -> NeighborGraph {
        let mut g = NeighborGraph::new();
        for i in 0..4 {
            g.add_edge(a(i), a(i + 1));
        }
        g
    }

    #[test]
    fn witnesses_found_through_referrals() {
        let g = chain();
        let out = find_witnesses(&g, a(0), 5, 10, |p| p == a(3) || p == a(4));
        assert_eq!(out.witnesses, vec![(a(3), 3)]);
        // 4 never reached: 3 testifies and does not refer onward.
        assert!(out.messages >= 4);
    }

    #[test]
    fn depth_bound_limits_search() {
        let g = chain();
        let out = find_witnesses(&g, a(0), 2, 10, |p| p == a(3));
        assert!(out.witnesses.is_empty());
    }

    #[test]
    fn enough_witnesses_stops_early() {
        // Star: everyone adjacent to the asker has evidence.
        let mut g = NeighborGraph::new();
        for i in 1..10 {
            g.add_edge(a(0), a(i));
        }
        let out = find_witnesses(&g, a(0), 3, 2, |_| true);
        assert_eq!(out.witnesses.len(), 2);
        assert!(out.messages <= 6);
    }

    #[test]
    fn witnesses_do_not_refer_onward() {
        // 0 - 1(witness) - 2(witness): 2 unreachable because 1 testifies.
        let mut g = NeighborGraph::new();
        g.add_edge(a(0), a(1));
        g.add_edge(a(1), a(2));
        let out = find_witnesses(&g, a(0), 5, 10, |p| p != a(0));
        assert_eq!(out.witnesses, vec![(a(1), 1)]);
    }

    #[test]
    fn isolated_asker_finds_nothing() {
        let mut g = NeighborGraph::new();
        g.add_edge(a(1), a(2));
        let out = find_witnesses(&g, a(0), 3, 5, |_| true);
        assert!(out.witnesses.is_empty());
        assert_eq!(out.messages, 0);
    }
}
