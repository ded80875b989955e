//! ProbExpan (Li et al., SIGIR 2022): entity representations read out as
//! probability distributions over the candidate vocabulary.
//!
//! Shares RetExpan's trained encoder but represents each entity by the
//! (sparse top-k) softmax distribution at the `[MASK]` position instead of
//! the hidden state — the read-out the paper blames for ProbExpan's gap:
//! "the probability distribution, as a discrete metric in the probability
//! space, inherently offers relatively coarser granularity" (Section 6.2
//! point 2). The Table 5 bolt-on adds negative-seed segmented re-ranking
//! on top ("thanks to the high scalability, it was also integrated into
//! ProbExpan").

use ultra_core::{rerank_by_negatives, EntityId, Query, RankedList};
use ultra_data::World;
use ultra_embed::{EncoderConfig, EntityEncoder};

/// ProbExpan baseline.
pub struct ProbExpan {
    /// Sparse distribution per entity (sorted by entity index).
    dists: Vec<Vec<(u32, f32)>>,
    norms: Vec<f32>,
    /// Output list size.
    pub top_k: usize,
    /// Whether the Table 5 negative-seed re-ranking bolt-on is active.
    pub neg_rerank: bool,
    /// Re-ranking segment length.
    pub segment_len: usize,
}

/// Sparsity of the stored distributions.
const DIST_TOP_K: usize = 100;

impl ProbExpan {
    /// Trains the shared encoder and materialises the distribution
    /// representations.
    pub fn train(world: &World, enc_cfg: EncoderConfig) -> Self {
        let mut encoder = EntityEncoder::new(world, enc_cfg);
        encoder.train_entity_prediction(world);
        Self::from_encoder(world, &encoder)
    }

    /// Builds the distribution read-out from an already-trained encoder
    /// (lets experiments share one training run with RetExpan).
    pub fn from_encoder(world: &World, encoder: &EntityEncoder) -> Self {
        let reps = encoder.entity_embeddings(world);
        let mut dists = Vec::with_capacity(world.num_entities());
        let mut norms = Vec::with_capacity(world.num_entities());
        for e in &world.entities {
            let d = encoder.entity_distribution(reps.row(e.id), DIST_TOP_K);
            let norm = d.iter().map(|(_, p)| p * p).sum::<f32>().sqrt();
            dists.push(d);
            norms.push(norm);
        }
        Self {
            dists,
            norms,
            top_k: 200,
            neg_rerank: false,
            segment_len: 20,
        }
    }

    /// Cosine between two sparse distributions.
    fn dist_cosine(&self, a: EntityId, b: EntityId) -> f32 {
        let (na, nb) = (self.norms[a.index()], self.norms[b.index()]);
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        crate::profiles::sparse_dot(&self.dists[a.index()], &self.dists[b.index()]) / (na * nb)
    }

    /// Mean distribution similarity to a seed set.
    pub fn seed_score(&self, e: EntityId, seeds: &[EntityId]) -> f32 {
        if seeds.is_empty() {
            return 0.0;
        }
        seeds.iter().map(|&s| self.dist_cosine(e, s)).sum::<f32>() / seeds.len() as f32
    }

    /// Expands one query. Plain ProbExpan uses positive seeds only; with
    /// [`neg_rerank`](Self::neg_rerank) the Table 5 bolt-on re-ranks by
    /// negative-seed distribution similarity.
    pub fn expand(&self, world: &World, query: &Query) -> RankedList {
        let entries: Vec<(EntityId, f32)> = world
            .entities
            .iter()
            .filter(|e| !query.is_seed(e.id))
            .map(|e| (e.id, self.seed_score(e.id, &query.pos_seeds)))
            .collect();
        let l0 = RankedList::top_k(entries, self.top_k);
        if !self.neg_rerank || query.neg_seeds.is_empty() {
            return l0;
        }
        let neg: Vec<f32> = l0
            .entities()
            .map(|e| self.seed_score(e, &query.neg_seeds))
            .collect();
        rerank_by_negatives(&l0, self.segment_len, &neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_data::WorldConfig;
    use ultra_eval::evaluate_method_filtered;

    fn quick_cfg() -> EncoderConfig {
        EncoderConfig {
            epochs: 3,
            neg_samples: 48,
            max_sentences_per_entity: 12,
            ..EncoderConfig::default()
        }
    }

    #[test]
    fn distributions_are_sparse_and_normalized_enough() {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let pe = ProbExpan::train(&w, quick_cfg());
        for e in w.entities.iter().take(20) {
            let d = &pe.dists[e.id.index()];
            assert!(d.len() <= DIST_TOP_K);
            let mass: f32 = d.iter().map(|(_, p)| p).sum();
            assert!(mass > 0.0 && mass <= 1.0 + 1e-4);
        }
    }

    #[test]
    fn probexpan_finds_classmates_but_lags_on_attributes() {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let pe = ProbExpan::train(&w, quick_cfg());
        let r = evaluate_method_filtered(&w, |u| u.fine.index() < 4, |_u, q| pe.expand(&w, q));
        assert!(r.pos_map[0] > 1.0, "PosMAP@10 = {:.2}", r.pos_map[0]);
    }

    #[test]
    fn neg_rerank_bolt_on_changes_the_ranking() {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let mut pe = ProbExpan::train(&w, quick_cfg());
        let (_u, q) = w.queries().next().unwrap();
        let plain: Vec<_> = pe.expand(&w, q).entities().collect();
        pe.neg_rerank = true;
        let reranked: Vec<_> = pe.expand(&w, q).entities().collect();
        assert_eq!(plain.len(), reranked.len());
        let mut a = plain.clone();
        let mut b = reranked.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "rerank permutes, never adds/removes");
    }
}
