//! P-Grid — the binary prefix trie of Aberer et al., the structure both
//! Aberer–Despotovic complaint storage and the Vu et al. decentralized QoS
//! registries are built on.
//!
//! Every peer is responsible for a binary key prefix; together the
//! prefixes partition the key space. Each peer keeps, for every bit of its
//! prefix, a reference to a peer on the *other* side of that split, which
//! makes greedy prefix-correcting routing resolve any key in at most
//! `prefix length` hops. The survey calls this structure "complicated and
//! hard to implement" and "involving a lot of communication" — claims
//! `exp_fig4_cost` and `exp_p2p` quantify with the hop counting here.

use std::collections::BTreeMap;
use wsrep_core::id::AgentId;

/// A static P-Grid over a peer set.
#[derive(Debug, Clone)]
pub struct PGrid {
    /// peer → its binary prefix (as a bit string of 0/1 chars).
    prefixes: BTreeMap<AgentId, String>,
    /// prefix → owning peer.
    by_prefix: BTreeMap<String, AgentId>,
    /// Routing tables: peer → per-level reference peer (one per bit of its
    /// prefix, pointing into the complementary subtree at that level).
    refs: BTreeMap<AgentId, Vec<AgentId>>,
    depth: usize,
}

/// A key in the binary key space: the first `depth` bits of a 64-bit hash.
pub(crate) fn key_bits(key: u64, depth: usize) -> String {
    (0..depth)
        .map(|i| {
            if key & (1u64 << (63 - i)) != 0 {
                '1'
            } else {
                '0'
            }
        })
        .collect()
}

impl PGrid {
    /// Build a balanced P-Grid over the peers: depth `⌈log2 n⌉`, peers
    /// assigned prefixes in sorted order (deterministic).
    pub fn new(peers: &[AgentId]) -> Self {
        let n = peers.len();
        let depth = if n <= 1 {
            0
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        };
        let mut sorted = peers.to_vec();
        sorted.sort();
        let mut prefixes = BTreeMap::new();
        let mut by_prefix = BTreeMap::new();
        for (i, &peer) in sorted.iter().enumerate() {
            // Peer i owns the prefix = i in binary over `depth` bits.
            let prefix: String = (0..depth)
                .map(|b| {
                    if i & (1usize << (depth - 1 - b)) != 0 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            prefixes.insert(peer, prefix.clone());
            by_prefix.insert(prefix, peer);
        }
        let mut grid = PGrid {
            prefixes,
            by_prefix,
            refs: BTreeMap::new(),
            depth,
        };
        grid.build_refs(&sorted);
        grid
    }

    fn build_refs(&mut self, peers: &[AgentId]) {
        for &peer in peers {
            let prefix = self.prefixes[&peer].clone();
            let mut table = Vec::with_capacity(prefix.len());
            for level in 0..prefix.len() {
                // Complement bit `level`, keep earlier bits, find any peer
                // under that complementary prefix.
                let mut target: String = prefix[..level].to_string();
                let flipped = if &prefix[level..=level] == "0" {
                    '1'
                } else {
                    '0'
                };
                target.push(flipped);
                let reference = self
                    .by_prefix
                    .range(target.clone()..)
                    .find(|(p, _)| p.starts_with(&target))
                    .map(|(_, &peer)| peer)
                    .unwrap_or(peer);
                table.push(reference);
            }
            self.refs.insert(peer, table);
        }
    }

    /// The trie depth (prefix length).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The peer responsible for a key.
    pub(crate) fn responsible(&self, key: u64) -> Option<AgentId> {
        if self.by_prefix.is_empty() {
            return None;
        }
        let bits = key_bits(key, self.depth);
        // Exact prefix match, else the lexicographically nearest (handles
        // non-power-of-two populations where some prefixes are unassigned).
        if let Some(&p) = self.by_prefix.get(&bits) {
            return Some(p);
        }
        self.by_prefix
            .range(..=bits)
            .next_back()
            .or_else(|| self.by_prefix.iter().next())
            .map(|(_, &p)| p)
    }

    /// Greedy prefix-correcting routing from `start` toward the owner of
    /// `key`. Returns the peer path (start included). At most `depth` hops
    /// on a balanced grid.
    pub fn route_from(&self, start: AgentId, key: u64) -> Option<Vec<AgentId>> {
        if !self.prefixes.contains_key(&start) {
            return None;
        }
        let target = self.responsible(key)?;
        let bits = key_bits(key, self.depth);
        let mut at = start;
        let mut path = vec![at];
        let mut guard = 0;
        while at != target && guard <= self.depth + 2 {
            guard += 1;
            let prefix = &self.prefixes[&at];
            // First bit where our prefix disagrees with the key.
            let mismatch = prefix.chars().zip(bits.chars()).position(|(a, b)| a != b);
            let Some(level) = mismatch else {
                break; // we own a prefix of the key: we are responsible
            };
            let next = self.refs[&at][level];
            if next == at {
                break; // no reference into that subtree (unbalanced grid)
            }
            at = next;
            path.push(at);
        }
        Some(path)
    }

    /// Number of peers.
    pub(crate) fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// All peers.
    pub(crate) fn peers(&self) -> impl Iterator<Item = AgentId> + '_ {
        self.prefixes.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u64) -> AgentId {
        AgentId::new(i)
    }

    fn grid(n: u64) -> PGrid {
        let peers: Vec<AgentId> = (0..n).map(a).collect();
        PGrid::new(&peers)
    }

    #[test]
    fn prefixes_partition_the_key_space_for_powers_of_two() {
        let g = grid(8);
        assert_eq!(g.depth(), 3);
        let mut prefixes: Vec<&str> = g.prefixes.values().map(String::as_str).collect();
        prefixes.sort();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 8);
        assert!(prefixes.iter().all(|p| p.len() == 3));
    }

    #[test]
    fn responsibility_is_deterministic_and_total() {
        let g = grid(8);
        for key in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
            let p1 = g.responsible(key).unwrap();
            let p2 = g.responsible(key).unwrap();
            assert_eq!(p1, p2);
        }
    }

    #[test]
    fn routing_reaches_the_responsible_peer() {
        let g = grid(16);
        for i in 0..50u64 {
            let key = crate::overlay::chord::hash_key(i);
            let owner = g.responsible(key).unwrap();
            for start in [a(0), a(7), a(15)] {
                let path = g.route_from(start, key).unwrap();
                assert_eq!(*path.last().unwrap(), owner, "key {key} from {start}");
                assert!(path.len() - 1 <= g.depth(), "hops exceed depth");
            }
        }
    }

    #[test]
    fn non_power_of_two_populations_still_route() {
        let g = grid(11);
        for i in 0..30u64 {
            let key = crate::overlay::chord::hash_key(i * 31);
            let path = g.route_from(a(3), key).unwrap();
            assert!(!path.is_empty());
            assert!(path.len() - 1 <= g.depth() + 2);
        }
    }

    #[test]
    fn single_peer_owns_everything() {
        let g = grid(1);
        assert_eq!(g.depth(), 0);
        assert_eq!(g.responsible(12345), Some(a(0)));
        assert_eq!(g.route_from(a(0), 99).unwrap(), vec![a(0)]);
    }

    #[test]
    fn empty_grid_behaves() {
        let g = PGrid::new(&[]);
        assert_eq!(g.responsible(5), None);
    }

    #[test]
    fn unknown_start_is_none() {
        let g = grid(4);
        assert!(g.route_from(a(99), 5).is_none());
    }

    #[test]
    fn key_bits_extracts_msb_first() {
        assert_eq!(key_bits(0, 3), "000");
        assert_eq!(key_bits(u64::MAX, 4), "1111");
        assert_eq!(key_bits(1u64 << 63, 2), "10");
    }
}
