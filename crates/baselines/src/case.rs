//! CaSE (Yu et al., SIGIR 2019): one-shot corpus-based set expansion
//! combining lexical features with distributed representations.
//!
//! The distributed half uses deterministic random-projection embeddings of
//! the tf-idf profiles (no training — CaSE predates contextual encoders),
//! blended with the exact lexical cosine. Positive seeds only.

use crate::profiles::ContextProfiles;
use ultra_core::{EntityId, Query, RankedList};
use ultra_data::World;

/// CaSE baseline.
pub struct CaSE {
    profiles: ContextProfiles,
    dense: Vec<Vec<f32>>,
    /// Blend weight of the lexical score (1 − α for the dense score).
    pub alpha: f32,
    /// Output list size.
    pub top_k: usize,
}

/// Dimensionality of the random-projection embeddings.
const DENSE_DIM: usize = 64;

/// Deterministic ±1 pseudo-random projection row for a token (SplitMix-ish
/// per-component hashing).
fn projection(token: u32, component: usize) -> f32 {
    let mut z = (token as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(component as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 31;
    if z & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

impl CaSE {
    /// Builds profiles and projected embeddings.
    pub fn new(world: &World) -> Self {
        let profiles = ContextProfiles::build(world);
        let dense = world
            .entities
            .iter()
            .map(|e| {
                let mut v = vec![0.0f32; DENSE_DIM];
                for &(t, w) in profiles.vector(e.id) {
                    for (c, vc) in v.iter_mut().enumerate() {
                        *vc += w * projection(t, c);
                    }
                }
                v
            })
            .collect();
        Self {
            profiles,
            dense,
            alpha: 0.5,
            top_k: 200,
        }
    }

    fn dense_cosine(&self, a: EntityId, b: EntityId) -> f32 {
        ultra_nn::cosine(&self.dense[a.index()], &self.dense[b.index()])
    }

    /// Expands one query.
    pub fn expand(&self, world: &World, query: &Query) -> RankedList {
        let entries: Vec<(EntityId, f32)> = world
            .entities
            .iter()
            .filter(|e| !query.is_seed(e.id))
            .map(|e| {
                let lex = self.profiles.seed_score(e.id, &query.pos_seeds);
                let dense = query
                    .pos_seeds
                    .iter()
                    .map(|&s| self.dense_cosine(e.id, s))
                    .sum::<f32>()
                    / query.pos_seeds.len().max(1) as f32;
                (e.id, self.alpha * lex + (1.0 - self.alpha) * dense)
            })
            .collect();
        RankedList::top_k(entries, self.top_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_data::WorldConfig;

    #[test]
    fn projection_is_deterministic_and_signed() {
        for t in 0..50u32 {
            for c in 0..8 {
                let p = projection(t, c);
                assert!(p == 1.0 || p == -1.0);
                assert_eq!(p, projection(t, c));
            }
        }
    }

    #[test]
    fn case_prefers_classmates() {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let case = CaSE::new(&w);
        let (u, q) = w.queries().next().unwrap();
        let out = case.expand(&w, q);
        let same_class = out
            .entities()
            .take(20)
            .filter(|e| w.entity(*e).class == Some(u.fine))
            .count();
        assert!(same_class >= 8, "top-20 in-class: {same_class}");
    }

    #[test]
    fn dense_and_lexical_agree_roughly() {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let case = CaSE::new(&w);
        let c0 = &w.classes[0].entities;
        let c1 = &w.classes[1].entities;
        // Random projections approximately preserve profile cosine.
        let lex_within = case.profiles.cosine(c0[0], c0[1]);
        let dense_within = case.dense_cosine(c0[0], c0[1]);
        let dense_across = case.dense_cosine(c0[0], c1[0]);
        assert!(dense_within > dense_across);
        assert!((lex_within - dense_within).abs() < 0.4);
    }
}
