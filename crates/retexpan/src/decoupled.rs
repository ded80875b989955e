//! Extension: decoupled base/attribute representations.
//!
//! Section 6.2 (point 2) sketches a future direction: "decoupling the base
//! semantics of entities from the ultra-fine-grained attribute semantics,
//! similar to the Mix-of-Expert approach, where distinct features represent
//! different perspectives of the semantics".
//!
//! This module implements an unsupervised version of that idea. The
//! preliminary list `L₀` is (by construction) dominated by one fine-grained
//! class, so the mean representation over its head estimates the class's
//! *base semantics* direction. Subtracting it leaves a *residual* vector in
//! which attribute distinctions — the part of the signal not shared by the
//! whole class — carry relatively more weight. Scoring candidates by a
//! blend of full-space and residual-space similarity sharpens
//! ultra-fine-grained ranking without any extra supervision.

use crate::pipeline::RetExpan;
use ultra_core::{rerank_by_negatives, EntityId, Query, RankedList};
use ultra_data::World;
use ultra_nn::cosine;
use ultra_par::Pool;

/// RetExpan with residual-subspace re-scoring.
pub struct DecoupledRetExpan {
    /// The underlying trained RetExpan.
    pub base: RetExpan,
    /// Blend weight of the residual-space score (0 = plain RetExpan).
    pub residual_weight: f32,
    /// How many of `L₀`'s head entities estimate the class centroid.
    pub centroid_head: usize,
}

impl DecoupledRetExpan {
    /// Wraps a trained RetExpan with default extension parameters.
    pub fn new(base: RetExpan) -> Self {
        Self {
            base,
            residual_weight: 0.5,
            centroid_head: 30,
        }
    }

    /// Residual of one entity against a class centroid.
    fn residual(&self, e: EntityId, centroid: &[f32]) -> Vec<f32> {
        self.base
            .reps
            .row(e)
            .iter()
            .zip(centroid)
            .map(|(x, c)| x - c)
            .collect()
    }

    /// Mean residual-space similarity of `e` to a seed set.
    fn residual_seed_score(&self, e: EntityId, seeds: &[EntityId], centroid: &[f32]) -> f32 {
        if seeds.is_empty() {
            return 0.0;
        }
        let re = self.residual(e, centroid);
        seeds
            .iter()
            .map(|&s| cosine(&re, &self.residual(s, centroid)))
            .sum::<f32>()
            / seeds.len() as f32
    }

    /// Full pipeline: preliminary expansion → blended full/residual
    /// re-scoring → segmented negative re-ranking in residual space.
    pub fn expand(&self, world: &World, query: &Query) -> RankedList {
        let l0 = self.base.preliminary_list(world, query, None);
        if l0.is_empty() {
            return l0;
        }
        // Base-semantics direction: mean representation of L₀'s head.
        let head: Vec<EntityId> = l0.entities().take(self.centroid_head).collect();
        let centroid = self.base.reps.centroid(&head);

        // `sco^pos` in the full space is L₀'s own score. Residual-space
        // scores have no factorized form (each candidate's residual depends
        // on the centroid), so fan the per-entity work out instead;
        // map_ordered keeps output order = list order.
        let w = self.residual_weight;
        let pool = Pool::global();
        let cands: Vec<EntityId> = l0.entities().collect();
        let residual_scores = pool.map_ordered(&cands, |&e| {
            self.residual_seed_score(e, &query.pos_seeds, &centroid)
        });
        let rescored = RankedList::from_scores(
            l0.entries()
                .iter()
                .zip(&residual_scores)
                .map(|(&(e, full), &residual)| (e, (1.0 - w) * full + w * residual))
                .collect(),
        );
        if !self.base.config.rerank || query.neg_seeds.is_empty() {
            return rescored;
        }
        let cands: Vec<EntityId> = rescored.entities().collect();
        let neg = pool.map_ordered(&cands, |&e| {
            self.residual_seed_score(e, &query.neg_seeds, &centroid)
        });
        rerank_by_negatives(&rescored, self.base.config.segment_len, &neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RetExpanConfig;
    use ultra_data::WorldConfig;
    use ultra_embed::EncoderConfig;

    fn setup() -> (World, DecoupledRetExpan) {
        let world = World::generate(WorldConfig::tiny()).unwrap();
        let base = RetExpan::train(
            &world,
            EncoderConfig {
                epochs: 6,
                dim: 48,
                neg_samples: 48,
                max_sentences_per_entity: 10,
                ..EncoderConfig::default()
            },
            RetExpanConfig::default(),
        );
        (world, DecoupledRetExpan::new(base))
    }

    #[test]
    fn zero_weight_reduces_to_plain_order_of_l0() {
        let (world, mut dec) = setup();
        dec.residual_weight = 0.0;
        let (_u, q) = world.queries().next().unwrap();
        let plain = dec.base.expand(&world, q);
        let dec_out = dec.expand(&world, q);
        // Same membership (both are re-rankings of the same L0).
        let mut a: Vec<_> = plain.entities().collect();
        let mut b: Vec<_> = dec_out.entities().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn residual_is_representation_minus_centroid() {
        let (world, dec) = setup();
        let e = world.classes[0].entities[0];
        let centroid = dec.base.reps.centroid(&[e]);
        let r = dec.residual(e, &centroid);
        assert!(r.iter().all(|x| x.abs() < 1e-6), "self-residual is zero");
    }

    #[test]
    fn expansion_runs_and_excludes_seeds() {
        let (world, dec) = setup();
        for (_u, q) in world.queries().take(5) {
            let out = dec.expand(&world, q);
            assert!(!out.is_empty());
            for s in q.all_seeds() {
                assert_eq!(out.rank_of(s), None);
            }
        }
    }
}
