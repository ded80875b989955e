//! Deterministic hashing for cache keys and fingerprints.
//!
//! `std`'s default `HashMap` hasher is seeded randomly per process (DoS
//! hardening), so the same key hashes differently across runs. That is fine
//! for in-memory lookups but useless for anything observable: cache shard
//! assignment, logged key fingerprints, or cross-run comparisons. This
//! module provides a fixed-seed FNV-1a 64-bit [`Hasher`] so that every
//! `Hash` type in the workspace (e.g. [`crate::Query`],
//! [`crate::RankedList`]) has one stable `u64` identity.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// FNV-1a offset basis (64-bit): the state of a hash before any input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte-wise 64-bit FNV-1a over `bytes`, continuing from `state`: pass
/// [`FNV_OFFSET`] to start a hash, or a previous result to extend it.
/// Every byte-wise FNV-1a in the workspace (snapshot checksums and
/// fingerprints, stream labels, [`StableHasher`]) is this function.
pub const fn fnv1a_from(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// A 64-bit FNV-1a [`Hasher`] with no per-process seed: the same bytes
/// always produce the same hash, in every run, on every platform.
#[derive(Clone, Debug)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(FNV_OFFSET)
    }
}

impl Hasher for StableHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_from(self.0, bytes);
    }
}

/// `BuildHasher` plugging [`StableHasher`] into `HashMap`/`HashSet`.
pub type StableBuildHasher = BuildHasherDefault<StableHasher>;

/// The stable 64-bit hash of any [`Hash`] value.
pub fn stable_hash64<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = StableHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntityId, Query, UltraClassId};

    #[test]
    fn same_value_same_hash() {
        assert_eq!(stable_hash64("abc"), stable_hash64("abc"));
        assert_ne!(stable_hash64("abc"), stable_hash64("abd"));
    }

    #[test]
    fn known_fnv_vectors() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(StableHasher::default().finish(), 0xcbf2_9ce4_8422_2325);
        // The published 64-bit FNV-1a test vectors.
        assert_eq!(fnv1a_from(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_from(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Continuing a hash equals hashing the concatenation.
        assert_eq!(
            fnv1a_from(fnv1a_from(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a_from(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn queries_hash_stably() {
        let q = || {
            Query::new(
                UltraClassId::new(3),
                vec![EntityId::new(1), EntityId::new(2)],
                vec![EntityId::new(9)],
            )
        };
        assert_eq!(stable_hash64(&q()), stable_hash64(&q()));
        let mut other = q();
        other.pos_seeds.push(EntityId::new(4));
        assert_ne!(stable_hash64(&q()), stable_hash64(&other));
    }
}
