//! A Chord-like ring DHT with finger-table routing.
//!
//! Distributed EigenTrust stores each peer's trust vector at score
//! managers located via a DHT; this ring provides the `O(log n)` lookup
//! with hop counting so the experiments can report routing cost.

use std::collections::BTreeMap;
use wsrep_core::id::AgentId;

/// Identifier-space size: 64-bit ring.
const M: u32 = 64;

/// A Chord-like ring built over a static node set.
#[derive(Debug, Clone)]
pub struct ChordRing {
    /// key → node, sorted by key (the ring).
    ring: BTreeMap<u64, AgentId>,
    /// Finger tables: node key → list of (start, successor node key).
    fingers: BTreeMap<u64, Vec<u64>>,
}

/// Deterministic 64-bit mix (splitmix64) used as the consistent hash.
pub fn hash_key(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChordRing {
    /// Build a ring over the given nodes.
    pub fn new<I: IntoIterator<Item = AgentId>>(nodes: I) -> Self {
        let ring: BTreeMap<u64, AgentId> =
            nodes.into_iter().map(|n| (hash_key(n.raw()), n)).collect();
        let mut chord = ChordRing {
            ring,
            fingers: BTreeMap::new(),
        };
        chord.rebuild_fingers();
        chord
    }

    fn rebuild_fingers(&mut self) {
        let keys: Vec<u64> = self.ring.keys().copied().collect();
        self.fingers.clear();
        for &k in &keys {
            let mut table = Vec::with_capacity(M as usize);
            for i in 0..M {
                let start = k.wrapping_add(1u64.wrapping_shl(i));
                table.push(self.successor_key(start));
            }
            self.fingers.insert(k, table);
        }
    }

    /// The ring key of a node.
    pub(crate) fn node_key(&self, node: AgentId) -> u64 {
        hash_key(node.raw())
    }

    fn successor_key(&self, key: u64) -> u64 {
        *self
            .ring
            .range(key..)
            .next()
            .map(|(k, _)| k)
            .unwrap_or_else(|| self.ring.keys().next().expect("non-empty ring"))
    }

    /// Route from a specific node to the owner of `key`.
    pub fn route_from(&self, start: AgentId, key: u64) -> Option<Vec<AgentId>> {
        if self.ring.is_empty() {
            return None;
        }
        let target_key = self.successor_key(key);
        let mut at = self.node_key(start);
        if !self.ring.contains_key(&at) {
            return None;
        }
        let mut path = vec![self.ring[&at]];
        let mut hops = 0;
        while at != target_key && hops < 2 * M {
            hops += 1;
            let table = &self.fingers[&at];
            // Pick the farthest finger that does not overshoot the target
            // (clockwise distance).
            let mut best = self.successor_key(at.wrapping_add(1));
            let mut best_dist = clockwise(at, best);
            let target_dist = clockwise(at, target_key);
            for &f in table {
                let d = clockwise(at, f);
                if d <= target_dist && d > best_dist {
                    best = f;
                    best_dist = d;
                }
            }
            if best == at {
                break;
            }
            at = best;
            path.push(self.ring[&at]);
        }
        Some(path)
    }
}

/// Clockwise distance from `a` to `b` on the 2^64 ring.
fn clockwise(a: u64, b: u64) -> u64 {
    b.wrapping_sub(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u64) -> AgentId {
        AgentId::new(i)
    }

    fn ring(n: u64) -> ChordRing {
        ChordRing::new((0..n).map(a))
    }

    /// The node responsible for `key`: its successor on the ring.
    fn successor(r: &ChordRing, key: u64) -> AgentId {
        r.ring[&r.successor_key(key)]
    }

    #[test]
    fn successor_owns_keys_consistently() {
        let r = ring(16);
        for probe in [0u64, 42, u64::MAX / 2, u64::MAX] {
            let owner = successor(&r, probe);
            // Owner must be a ring member.
            assert!(r.ring.values().any(|&n| n == owner));
        }
    }

    #[test]
    fn node_key_routes_to_itself() {
        let r = ring(16);
        for i in 0..16 {
            let owner = successor(&r, r.node_key(a(i)));
            assert_eq!(owner, a(i));
        }
    }

    #[test]
    fn routing_terminates_at_the_owner() {
        let r = ring(64);
        for probe in [7u64, 999, u64::MAX - 3] {
            let owner = successor(&r, probe);
            let path = r.route_from(a(0), probe).unwrap();
            assert_eq!(*path.last().unwrap(), owner, "probe {probe}");
        }
    }

    #[test]
    fn hop_count_is_logarithmic() {
        let r = ring(256);
        let mut worst = 0usize;
        for probe in (0..100u64).map(|i| hash_key(i * 7919)) {
            let path = r.route_from(a(0), probe).unwrap();
            worst = worst.max(path.len() - 1);
        }
        // log2(256) = 8; allow slack for the greedy variant.
        assert!(worst <= 16, "worst hops = {worst}");
    }

    #[test]
    fn route_from_unknown_node_is_none() {
        let r = ring(8);
        assert!(r.route_from(a(999), 5).is_none());
    }

    #[test]
    fn empty_ring_behaves() {
        let r = ChordRing::new(std::iter::empty());
        assert!(r.ring.is_empty());
        assert!(r.route_from(a(0), 1).is_none());
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(hash_key(42), hash_key(42));
        let mut keys: Vec<u64> = (0..100).map(hash_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 100);
    }
}
