//! Sentence-level token↔entity co-occurrence index.
//!
//! Transformer LLMs condition generation on *every* prompt token; an n-gram
//! window cannot. This index restores long-range prompt conditioning for
//! the substitute model: `P(token t appears in a sentence mentioning e)`
//! plays the role of the attention weight between a distant prompt token
//! and a candidate entity. Chain-of-thought and retrieval-augmentation
//! conditioning both score through it.

use std::collections::HashMap;
use ultra_core::{top_k, EntityId, TokenId};
use ultra_data::World;

/// Smoothed per-entity token co-occurrence probabilities.
#[derive(Clone, Debug)]
pub struct CoocIndex {
    /// `counts[t] → (entity → #sentences of e containing t)`.
    counts: HashMap<TokenId, HashMap<u32, u32>>,
    /// Sentences per entity.
    sentence_count: Vec<u32>,
    /// Global unigram sentence frequency of each token (for PMI).
    token_sentences: HashMap<TokenId, u32>,
    total_sentences: u32,
}

impl CoocIndex {
    /// Builds the index over a world's corpus.
    pub fn build(world: &World) -> Self {
        let mut counts: HashMap<TokenId, HashMap<u32, u32>> = HashMap::new();
        let mut sentence_count = vec![0u32; world.num_entities()];
        let mut token_sentences: HashMap<TokenId, u32> = HashMap::new();
        let mut uniq: Vec<TokenId> = Vec::new();
        for s in world.corpus.sentences() {
            uniq.clear();
            uniq.extend_from_slice(&s.tokens);
            uniq.sort_unstable();
            uniq.dedup();
            for &t in uniq.iter() {
                *token_sentences.entry(t).or_insert(0) += 1;
            }
            for &(_, e) in &s.mentions {
                sentence_count[e.index()] += 1;
                for &t in uniq.iter() {
                    *counts.entry(t).or_default().entry(e.0).or_insert(0) += 1;
                }
            }
        }
        Self {
            counts,
            sentence_count,
            token_sentences,
            total_sentences: world.corpus.len() as u32,
        }
    }

    /// Smoothed probability that a sentence mentioning `e` contains `t`.
    pub fn prob(&self, e: EntityId, t: TokenId) -> f64 {
        let n = self.sentence_count[e.index()] as f64;
        let c = self
            .counts
            .get(&t)
            .and_then(|m| m.get(&e.0))
            .copied()
            .unwrap_or(0) as f64;
        (c + 0.25) / (n + 1.0)
    }

    /// Mean log conditioning score of `e` under a set of tokens.
    pub fn condition_logscore(&self, e: EntityId, tokens: &[TokenId]) -> f64 {
        if tokens.is_empty() {
            return 0.0;
        }
        tokens.iter().map(|&t| self.prob(e, t).ln()).sum::<f64>() / tokens.len() as f64
    }

    /// Pointwise mutual information of `t` with an entity set: how much
    /// more often `t` appears near these entities than its base rate. The
    /// chain-of-thought "reasoning" step surfaces high-PMI tokens.
    pub fn pmi(&self, entities: &[EntityId], t: TokenId) -> f64 {
        if entities.is_empty() || self.total_sentences == 0 {
            return 0.0;
        }
        let mut hits = 0.0f64;
        let mut total = 0.0f64;
        for &e in entities {
            let n = self.sentence_count[e.index()] as f64;
            total += n;
            hits += self
                .counts
                .get(&t)
                .and_then(|m| m.get(&e.0))
                .copied()
                .unwrap_or(0) as f64;
        }
        if total == 0.0 {
            return 0.0;
        }
        let p_cond = (hits + 0.25) / (total + 1.0);
        let base = self.token_sentences.get(&t).copied().unwrap_or(0) as f64;
        let p_base = (base + 0.25) / (self.total_sentences as f64 + 1.0);
        (p_cond / p_base).ln()
    }

    /// Tokens seen in sentences of `entities`, ranked by PMI, excluding
    /// any token in `exclude` (mention tokens, etc.). Ties break by token
    /// id for determinism.
    pub fn top_pmi_tokens(
        &self,
        world: &World,
        entities: &[EntityId],
        k: usize,
        exclude: &[TokenId],
    ) -> Vec<TokenId> {
        let mut seen: Vec<TokenId> = Vec::new();
        for &e in entities {
            for &sid in world.corpus.sentences_of(e) {
                seen.extend_from_slice(&world.corpus.sentence(sid).tokens);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        let scored: Vec<(TokenId, f64)> = seen
            .into_iter()
            .filter(|t| !exclude.contains(t) && world.entity_of_mention(*t).is_none())
            .map(|t| (t, self.pmi(entities, t)))
            .collect();
        top_k(scored, k).into_iter().map(|(t, _)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_data::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::tiny()).unwrap()
    }

    #[test]
    fn entity_cooccurs_with_its_class_topics() {
        let w = world();
        let idx = CoocIndex::build(&w);
        let class = &w.classes[0];
        let e = class.entities[0];
        let own: f64 = w.lexicon.class_topics[0]
            .iter()
            .map(|&t| idx.prob(e, t))
            .sum();
        let other: f64 = w.lexicon.class_topics[5]
            .iter()
            .map(|&t| idx.prob(e, t))
            .sum();
        assert!(own > other, "own-topic mass {own:.4} vs foreign {other:.4}");
    }

    #[test]
    fn pmi_surfaces_class_topics_for_seed_sets() {
        let w = world();
        let idx = CoocIndex::build(&w);
        let u = &w.ultra_classes[0];
        let fine = u.fine.index();
        let seeds = &u.queries[0].pos_seeds;
        let top = idx.top_pmi_tokens(&w, seeds, 6, &[]);
        let topic_or_marker = top
            .iter()
            .filter(|t| {
                w.lexicon.class_topics[fine].contains(t)
                    || w.lexicon.markers.iter().any(|m| m.pool.contains(t))
            })
            .count();
        assert!(
            topic_or_marker >= 3,
            "top PMI tokens should be topics/markers, got {topic_or_marker}/6"
        );
    }

    #[test]
    fn condition_logscore_prefers_matching_entities() {
        let w = world();
        let idx = CoocIndex::build(&w);
        let u = &w.ultra_classes[0];
        // Condition on a ground-truth positive marker.
        let (aid, val) = u.pos.required[0];
        let marker = w.lexicon.markers_of(aid.index(), val.index())[0];
        let p = u.pos_targets[0];
        let n = u.neg_targets[0];
        assert!(
            idx.condition_logscore(p, &[marker]) > idx.condition_logscore(n, &[marker]),
            "positive target should co-occur more with the positive marker"
        );
    }

    #[test]
    fn empty_condition_is_neutral() {
        let w = world();
        let idx = CoocIndex::build(&w);
        assert_eq!(idx.condition_logscore(w.entities[0].id, &[]), 0.0);
    }
}
