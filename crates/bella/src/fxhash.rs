//! A minimal Fx-style hasher for integer-keyed sets.
//!
//! The Rust performance guide recommends `rustc-hash` for hot maps with
//! integer keys; rather than pull a dependency for ten lines, the
//! multiply-rotate algorithm is inlined here. k-mer codes are already
//! well-mixed 2-bit packings. The hottest set is the reliable k-mer
//! set, probed once per k-mer of every read; k-mer *counting* sorts
//! instead of hashing (see [`crate::kmer_count`]).

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state.
#[derive(Default, Clone, Copy)]
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
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashSet` keyed with FxHash.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn map_roundtrip() {
        let mut m: HashMap<u64, u32, BuildHasherDefault<FxHasher>> = HashMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 2654435761, i as u32);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m[&(i * 2654435761)], i as u32);
        }
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let h = |v: u64| {
            let mut hh = FxHasher::default();
            hh.write_u64(v);
            hh.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(1), h(2));
        // Low bits of sequential keys must differ (table-index quality).
        let mask = 0xFFF;
        let set: FxHashSet<u64> = (0..512u64).map(|v| h(v) & mask).collect();
        assert!(set.len() > 350, "low-bit collisions: {}", 512 - set.len());
    }

    #[test]
    fn byte_writes_consistent() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3]);
        assert_ne!(c.finish(), a.finish());
    }
}
