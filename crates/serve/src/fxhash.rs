//! A word-at-a-time multiply-xor hasher for the registry's hot maps.
//!
//! The read path probes one or two hash maps per query; the standard
//! library's SipHash costs more than the rest of the probe combined for
//! the 8–16 byte keys used here (`SubjectId`, `ServiceId`, category ids).
//! This is the Firefox/rustc "Fx" construction — `h = (h <<< 5 ^ word) ·
//! K` per word — which is not DoS-resistant but is 5–10× cheaper and
//! mixes well for the dense numeric ids this crate hashes. Nothing
//! outside the serve crate's internal maps uses it, so there is no
//! attacker-controlled key material to worry about: subjects and
//! categories come out of the registry's own id space.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplicative constant (the golden-ratio based one used by rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `std::collections::HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// The streaming state: one u64 folded word by word.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// One-shot hash of any `Hash` value — the shard routers use this.
#[inline]
pub fn hash_one<T: Hash>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::id::{ServiceId, SubjectId};

    #[test]
    fn equal_keys_hash_equal_and_shards_spread() {
        let a: SubjectId = ServiceId::new(7).into();
        let b: SubjectId = ServiceId::new(7).into();
        assert_eq!(hash_one(&a), hash_one(&b));

        // Dense ids must not all collapse into one shard of a
        // power-of-two split.
        let mut seen = std::collections::HashSet::new();
        for raw in 0..64u64 {
            let s: SubjectId = ServiceId::new(raw).into();
            seen.insert(hash_one(&s) % 16);
        }
        assert!(
            seen.len() >= 8,
            "64 dense ids landed in {} shards",
            seen.len()
        );
    }

    #[test]
    fn fx_map_behaves_like_a_map() {
        let mut map: FxHashMap<SubjectId, u64> = FxHashMap::default();
        for raw in 0..100u64 {
            map.insert(ServiceId::new(raw).into(), raw);
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map.get(&ServiceId::new(42).into()), Some(&42));
    }
}
