//! The replicated key-value state machine.
//!
//! Every protocol node applies its committed write sequence to a
//! [`KvStore`]. The store tracks a version counter per key so the
//! consistency checkers can reconstruct which write a read observed.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use bytes::Bytes;

use crate::op::Key;

/// A versioned value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Versioned {
    /// Monotonic per-key version, starting at 1 for the first write.
    pub version: u64,
    /// The value.
    pub value: Bytes,
}

/// In-memory key-value store with per-key versions.
///
/// Every replica applies every committed write, so the index is a hash
/// table. It keeps the default randomly keyed hasher so clients cannot
/// choose keys that collide.
#[derive(Clone, Debug, Default)]
pub struct KvStore {
    map: HashMap<Key, Versioned>,
    applied_writes: u64,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Applies a write; returns the new version of the key.
    pub fn put(&mut self, key: Key, value: Bytes) -> u64 {
        self.applied_writes += 1;
        match self.map.entry(key) {
            Entry::Occupied(mut e) => {
                let v = e.get_mut();
                v.version += 1;
                v.value = value;
                v.version
            }
            Entry::Vacant(e) => e.insert(Versioned { version: 1, value }).version,
        }
    }

    /// Reads the current value of a key.
    pub fn get(&self, key: Key) -> Option<&Versioned> {
        self.map.get(&key)
    }

    /// Reads just the value bytes.
    pub fn get_value(&self, key: Key) -> Option<Bytes> {
        self.map.get(&key).map(|v| v.value.clone())
    }

    /// Total writes applied over the store's lifetime.
    pub fn applied_writes(&self) -> u64 {
        self.applied_writes
    }

    /// Number of distinct keys present.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A digest of the full store state, for cheap cross-replica agreement
    /// checks (FNV-1a over keys, versions, and values in key order, so it
    /// does not depend on the hash index's layout).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| *k);
        for (k, v) in entries {
            mix(&k.to_le_bytes());
            mix(&v.version.to_le_bytes());
            mix(&v.value);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn put_get_and_versions() {
        let mut s = KvStore::new();
        assert!(s.get(1).is_none());
        assert_eq!(s.put(1, Bytes::from_static(b"a")), 1);
        assert_eq!(s.put(1, Bytes::from_static(b"b")), 2);
        assert_eq!(s.put(2, Bytes::from_static(b"c")), 1);
        let v = s.get(1).unwrap();
        assert_eq!(v.version, 2);
        assert_eq!(v.value, Bytes::from_static(b"b"));
        assert_eq!(s.applied_writes(), 3);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn digest_detects_divergence() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.put(1, Bytes::from_static(b"x"));
        b.put(1, Bytes::from_static(b"x"));
        assert_eq!(a.digest(), b.digest());
        b.put(2, Bytes::from_static(b"y"));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_sensitive_to_versions() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.put(1, Bytes::from_static(b"x"));
        b.put(1, Bytes::from_static(b"other"));
        b.put(1, Bytes::from_static(b"x"));
        // Same final value, different version history.
        assert_ne!(a.digest(), b.digest());
    }

    /// SplitMix64, so the op streams (and the pinned digest below) depend
    /// on no RNG crate.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drives a [`KvStore`] and a `BTreeMap` reference model with the same
    /// seeded stream of puts (3 in 4) and gets over `keys` keys, checking
    /// after every op that both agree on the op's key, on a random probe
    /// key, on `len` and on `applied_writes`.
    fn run_against_model(seed: u64, keys: u64, ops: usize) -> KvStore {
        let mut store = KvStore::new();
        let mut model: BTreeMap<Key, Versioned> = BTreeMap::new();
        let mut writes = 0u64;
        let mut rng = seed;
        for _ in 0..ops {
            let r = splitmix(&mut rng);
            let key = splitmix(&mut rng) % keys;
            if !r.is_multiple_of(4) {
                let len = (r >> 8) as usize % 24;
                let value = Bytes::from((0..len).map(|i| (r >> (i % 8)) as u8).collect::<Vec<_>>());
                let m = model.entry(key).or_insert(Versioned {
                    version: 0,
                    value: Bytes::new(),
                });
                m.version += 1;
                m.value = value.clone();
                assert_eq!(store.put(key, value), m.version);
                writes += 1;
            }
            let probe = splitmix(&mut rng) % keys;
            for k in [key, probe] {
                assert_eq!(store.get(k), model.get(&k), "key {k}");
                assert_eq!(store.get_value(k), model.get(&k).map(|v| v.value.clone()));
            }
            assert_eq!(store.len(), model.len());
            assert_eq!(store.applied_writes(), writes);
        }
        store
    }

    #[test]
    fn matches_model_on_16_hot_keys() {
        let store = run_against_model(1, 16, 20_000);
        assert_eq!(store.len(), 16);
    }

    #[test]
    fn matches_model_on_1m_keys() {
        run_against_model(2, 1 << 20, 40_000);
    }

    /// Pinned from the `BTreeMap`-indexed store this one replaced: the
    /// digest is a cross-replica agreement check, so it must not depend on
    /// the index's iteration order.
    #[test]
    fn digest_is_pinned() {
        let store = run_against_model(3, 1 << 10, 5_000);
        assert_eq!(store.digest(), 0x2372_CBAB_008F_F443);
    }
}
