//! Deterministic randomness plumbing.
//!
//! Every stochastic step in the workspace (world generation, training-batch
//! shuffling, seed sampling, the simulated GPT-4 annotator, …) derives its RNG
//! from a single `u64` world seed plus a stream label. This guarantees that
//! (a) the whole pipeline is reproducible bit-for-bit from one number, and
//! (b) changing one component's consumption of random numbers does not
//! perturb any other component.

use crate::stable::{fnv1a_from, FNV_OFFSET};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// The RNG used throughout the workspace.
///
/// ChaCha12 is seedable from a `u64`, portable across platforms and Rust
/// versions (unlike `StdRng`, whose algorithm is unspecified), and fast
/// enough for our workloads.
pub type UltraRng = ChaCha12Rng;

/// Mixes a seed with a stream label using the SplitMix64 finalizer.
///
/// SplitMix64 is a bijective avalanche mix: distinct `(seed, stream)` pairs
/// map to well-separated outputs even when seeds are small consecutive
/// integers (0, 1, 2, …) as they typically are in tests and sweeps.
#[inline]
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent RNG stream from `(seed, stream)`.
///
/// `stream` should be a per-component constant (e.g. hash of a static name)
/// so that components draw from disjoint streams.
pub fn derive_rng(seed: u64, stream: u64) -> UltraRng {
    UltraRng::seed_from_u64(mix_seed(seed, stream))
}

/// Hashes a static component name into a stream label (FNV-1a).
pub const fn stream_label(name: &str) -> u64 {
    fnv1a_from(FNV_OFFSET, name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn mix_seed_separates_consecutive_seeds() {
        let a = mix_seed(0, 0);
        let b = mix_seed(1, 0);
        let c = mix_seed(0, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn derive_rng_is_deterministic() {
        let mut r1 = derive_rng(1234, stream_label("world"));
        let mut r2 = derive_rng(1234, stream_label("world"));
        let xs: Vec<u64> = (0..8).map(|_| r1.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| r2.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_streams_do_not_collide() {
        let mut r1 = derive_rng(1234, stream_label("world"));
        let mut r2 = derive_rng(1234, stream_label("queries"));
        let x: u64 = r1.gen();
        let y: u64 = r2.gen();
        assert_ne!(x, y);
    }

    #[test]
    fn stream_label_is_stable_const() {
        const LBL: u64 = stream_label("corpus");
        assert_eq!(LBL, stream_label("corpus"));
        assert_ne!(LBL, stream_label("corpus2"));
    }
}
