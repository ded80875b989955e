//! Extension: dynamic (query-adaptive) retrieval augmentation.
//!
//! Section 6.4.2 closes with: "the supplementary knowledge retrieved for
//! each entity is static across different sentences and does not adapt to
//! the entity's context… Crafting dynamic and ultra-fine-grained retrieval
//! strategies deserves further exploration."
//!
//! This module explores exactly that. Instead of baking one static prefix
//! into every context at training time, knowledge is consulted *per query*
//! at scoring time: the query's over-represented context tokens are
//! inferred from the seeds' sentences (positive and negative separately),
//! and each candidate's knowledge text is scored against them. Only the
//! knowledge that the *current* query cares about influences the ranking —
//! the paper's "ultra-fine-grained retrieval" hypothesis.

use crate::pipeline::RetExpan;
use std::collections::HashMap;
use ultra_core::{rerank_by_negatives, top_k, EntityId, Query, RankedList, TokenId};
use ultra_data::World;
use ultra_par::Pool;

/// RetExpan with query-adaptive knowledge scoring.
pub struct DynamicRaRetExpan {
    /// The underlying trained RetExpan (no static augmentation needed).
    pub base: RetExpan,
    /// Weight of the knowledge-match bonus.
    pub knowledge_weight: f32,
    /// How many query tokens to infer per polarity.
    pub query_tokens: usize,
}

impl DynamicRaRetExpan {
    /// Wraps a trained RetExpan.
    pub fn new(base: RetExpan) -> Self {
        Self {
            base,
            knowledge_weight: 0.35,
            query_tokens: 6,
        }
    }

    /// Infers the tokens over-represented around a seed set: counts over
    /// the seeds' sentences and introductions, normalized by a global
    /// sentence frequency estimate over the seeds' fine-grained
    /// neighbourhood (`L₀`).
    fn infer_query_tokens(
        &self,
        world: &World,
        seeds: &[EntityId],
        background: &[EntityId],
    ) -> Vec<TokenId> {
        let count_tokens = |ids: &[EntityId]| -> (HashMap<TokenId, f64>, f64) {
            let mut counts: HashMap<TokenId, f64> = HashMap::new();
            let mut total = 0.0f64;
            for &e in ids {
                for &sid in world.corpus.sentences_of(e) {
                    for &t in &world.corpus.sentence(sid).tokens {
                        if world.entity_of_mention(t).is_none() {
                            *counts.entry(t).or_insert(0.0) += 1.0;
                            total += 1.0;
                        }
                    }
                }
                for &t in world.knowledge.intro_of(e) {
                    *counts.entry(t).or_insert(0.0) += 1.0;
                    total += 1.0;
                }
            }
            (counts, total.max(1.0))
        };
        let (seed_counts, seed_total) = count_tokens(seeds);
        let (bg_counts, bg_total) = count_tokens(background);
        let scored: Vec<(TokenId, f64)> = seed_counts
            .into_iter()
            // Tokens seen fewer than 3 times around the seeds are sampling
            // noise, not query semantics.
            .filter(|(_, c)| *c >= 3.0)
            .map(|(t, c)| {
                let p_seed = c / seed_total;
                let p_bg = (bg_counts.get(&t).copied().unwrap_or(0.0) + 0.5) / bg_total;
                (t, (p_seed / p_bg).ln())
            })
            .collect();
        top_k(scored, self.query_tokens)
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    }

    /// Knowledge-match bonus: fraction of the query tokens present in the
    /// candidate's introduction + Wikidata text.
    fn knowledge_match(&self, world: &World, e: EntityId, query_tokens: &[TokenId]) -> f32 {
        if query_tokens.is_empty() {
            return 0.0;
        }
        let hits = query_tokens
            .iter()
            .filter(|t| {
                world.knowledge.intro_of(e).contains(t)
                    || world.knowledge.wikidata_of(e).contains(t)
            })
            .count();
        hits as f32 / query_tokens.len() as f32
    }

    /// Full pipeline with query-adaptive knowledge bonuses.
    pub fn expand(&self, world: &World, query: &Query) -> RankedList {
        let l0 = self.base.preliminary_list(world, query, None);
        if l0.is_empty() {
            return l0;
        }
        // Background for PMI normalization: the fine-grained neighbourhood.
        let background: Vec<EntityId> = l0.entities().take(50).collect();
        let q_pos = self.infer_query_tokens(world, &query.pos_seeds, &background);
        let q_neg = self.infer_query_tokens(world, &query.neg_seeds, &background);

        // `sco^pos` is L₀'s own score: the preliminary stage ranks by it.
        let w = self.knowledge_weight;
        let rescored = RankedList::from_scores(
            l0.entries()
                .iter()
                .map(|&(e, pos)| (e, pos + w * self.knowledge_match(world, e, &q_pos)))
                .collect(),
        );
        if !self.base.config.rerank || query.neg_seeds.is_empty() {
            return rescored;
        }
        let cands: Vec<EntityId> = rescored.entities().collect();
        let neg = self
            .base
            .reps
            .seed_scores(&cands, &query.neg_seeds, &Pool::global());
        let neg: Vec<f32> = cands
            .iter()
            .zip(neg)
            .map(|(&e, s)| s + w * self.knowledge_match(world, e, &q_neg))
            .collect();
        rerank_by_negatives(&rescored, self.base.config.segment_len, &neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RetExpanConfig;
    use ultra_data::WorldConfig;
    use ultra_embed::EncoderConfig;

    fn setup() -> (World, DynamicRaRetExpan) {
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
        (world, DynamicRaRetExpan::new(base))
    }

    #[test]
    fn inferred_query_tokens_are_informative() {
        let (world, dyn_ra) = setup();
        let (u, q) = world.queries().next().unwrap();
        let l0 = dyn_ra.base.preliminary_list(&world, q, None);
        let background: Vec<EntityId> = l0.entities().take(50).collect();
        let toks = dyn_ra.infer_query_tokens(&world, &q.pos_seeds, &background);
        assert_eq!(toks.len(), dyn_ra.query_tokens);
        // At least one inferred token is a topic or marker of the class.
        let topics = &world.lexicon.class_topics[u.fine.index()];
        let informative = toks.iter().any(|t| {
            topics.contains(t) || world.lexicon.markers.iter().any(|m| m.pool.contains(t))
        });
        assert!(informative, "inferred tokens should include class signal");
    }

    #[test]
    fn knowledge_match_is_bounded() {
        let (world, dyn_ra) = setup();
        let e = world.classes[0].entities[0];
        let intro = world.knowledge.intro_of(e).to_vec();
        assert!((dyn_ra.knowledge_match(&world, e, &intro) - 1.0).abs() < 1e-6);
        assert_eq!(dyn_ra.knowledge_match(&world, e, &[]), 0.0);
    }

    #[test]
    fn expansion_runs_and_excludes_seeds() {
        let (world, dyn_ra) = setup();
        for (_u, q) in world.queries().take(5) {
            let out = dyn_ra.expand(&world, q);
            assert!(!out.is_empty());
            for s in q.all_seeds() {
                assert_eq!(out.rank_of(s), None);
            }
        }
    }
}
