//! A minimal Fx-style hasher for the hot scheduling tables.
//!
//! The head node's `Cache`/`Estimate` tables are probed once or more per
//! task, and Table III of the paper budgets the whole per-job scheduling
//! cost in tens of microseconds. SipHash (std's default) is the single
//! largest cost in that loop for small integer keys, so we use the same
//! multiply-rotate construction as `rustc-hash` — implemented here in ~30
//! lines rather than pulling in an extra dependency. HashDoS is not a
//! concern: all keys are internally generated ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Firefox/rustc Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for small internally-generated keys.
#[derive(Default, Clone)]
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
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn distinct_keys_usually_hash_distinctly() {
        let hashes: HashSet<u64, BuildHasherDefault<FxHasher>> =
            (0u64..10_000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn equal_keys_hash_equal() {
        assert_eq!(hash_of(&(3u32, 7u64)), hash_of(&(3u32, 7u64)));
    }

    #[test]
    fn map_basic_operations() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.remove(&2), Some("two"));
        assert!(!m.contains_key(&2));
    }

    #[test]
    fn uneven_byte_lengths_do_not_collide_trivially() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
    }
}
