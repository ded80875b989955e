//! BM25 hard-negative auditing (Section 4.2).
//!
//! The paper mines hard negative candidates with "BM25-based search":
//! distractors whose contexts score highly against in-class entity contexts
//! join the candidate vocabulary. Our generator *plants* hard negatives by
//! construction (topic-sharing distractors); this module provides the BM25
//! machinery to verify that the planted entities are indeed the ones a
//! BM25 search would mine. No binary runs it: the audit is this module's
//! unit tests, which check that property of world generation.

use crate::world::World;
use std::collections::BTreeMap;
use ultra_core::{top_k, ClassId, EntityId, TokenId};
use ultra_text::{Bm25Index, Bm25Params};

/// A BM25 view of the corpus: one pseudo-document per entity
/// (concatenation of its sentences, mention tokens removed).
pub struct EntityBm25 {
    index: Bm25Index,
    /// Entity behind each document index.
    doc_entity: Vec<EntityId>,
    /// Per-entity pseudo-document (kept for query construction).
    docs: Vec<Vec<TokenId>>,
}

impl EntityBm25 {
    /// Builds the per-entity BM25 index.
    pub fn build(world: &World) -> Self {
        let mut docs: Vec<Vec<TokenId>> = vec![Vec::new(); world.num_entities()];
        for s in world.corpus.sentences() {
            for &(pos, e) in &s.mentions {
                let doc = &mut docs[e.index()];
                for (i, &t) in s.tokens.iter().enumerate() {
                    if i != pos {
                        doc.push(t);
                    }
                }
            }
        }
        let doc_entity: Vec<EntityId> = world.entities.iter().map(|e| e.id).collect();
        let index = Bm25Index::build(docs.iter().map(Vec::as_slice), Bm25Params::default());
        Self {
            index,
            doc_entity,
            docs,
        }
    }

    /// The `k` entities most BM25-similar to `entity`'s contexts,
    /// excluding the entity itself.
    pub fn similar_entities(&self, entity: EntityId, k: usize) -> Vec<(EntityId, f32)> {
        let query = &self.docs[entity.index()];
        self.index
            .search(query, k + 1)
            .into_iter()
            .map(|(doc, score)| (self.doc_entity[doc], score))
            .filter(|(e, _)| *e != entity)
            .take(k)
            .collect()
    }

    /// Mines hard-negative candidates for one fine-grained class: the
    /// out-of-class entities ranked highest by BM25 against a sample of
    /// class members. Returns `(entity, aggregated score)`, best first.
    pub fn mine_hard_negatives(
        &self,
        world: &World,
        class: ClassId,
        sample: usize,
        k: usize,
    ) -> Vec<(EntityId, f32)> {
        let members = &world.classes[class.index()].entities;
        let mut scores: BTreeMap<EntityId, f32> = BTreeMap::new();
        for &m in members.iter().take(sample) {
            for (e, s) in self.similar_entities(m, 50) {
                if world.entity(e).class.is_none() {
                    *scores.entry(e).or_insert(0.0) += s;
                }
            }
        }
        top_k(scores.into_iter().collect(), k)
    }

    /// Audit: what fraction of the generator's planted hard negatives for
    /// `class` are recovered among the top BM25-mined candidates?
    pub fn audit_planted_hard_negatives(&self, world: &World, class: ClassId) -> f64 {
        let planted: Vec<EntityId> = world
            .hard_negative_ids
            .iter()
            .copied()
            .filter(|&e| {
                // A planted hard negative belongs to `class` iff its
                // sentences carry that class's topics.
                let topics = &world.lexicon.class_topics[class.index()];
                world.corpus.sentences_of(e).iter().any(|&sid| {
                    world
                        .corpus
                        .sentence(sid)
                        .tokens
                        .iter()
                        .any(|t| topics.contains(t))
                })
            })
            .collect();
        if planted.is_empty() {
            return 0.0;
        }
        let mined = self.mine_hard_negatives(world, class, 12, planted.len() * 3);
        let mined_set: std::collections::HashSet<EntityId> =
            mined.into_iter().map(|(e, _)| e).collect();
        planted.iter().filter(|e| mined_set.contains(e)).count() as f64 / planted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn setup() -> (World, EntityBm25) {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let idx = EntityBm25::build(&w);
        (w, idx)
    }

    #[test]
    fn similar_entities_prefer_classmates() {
        let (w, idx) = setup();
        let e = w.classes[1].entities[0];
        let sims = idx.similar_entities(e, 10);
        assert!(!sims.is_empty());
        let classmates = sims
            .iter()
            .filter(|(s, _)| w.entity(*s).class == w.entity(e).class)
            .count();
        assert!(
            classmates * 2 >= sims.len(),
            "classmates should dominate BM25 neighbours: {classmates}/{}",
            sims.len()
        );
    }

    #[test]
    fn mined_hard_negatives_are_out_of_class() {
        let (w, idx) = setup();
        let mined = idx.mine_hard_negatives(&w, ultra_core::ClassId::new(0), 8, 10);
        for (e, score) in &mined {
            assert!(w.entity(*e).class.is_none());
            assert!(*score > 0.0);
        }
    }

    #[test]
    fn planted_hard_negatives_are_recovered_by_bm25() {
        let (w, idx) = setup();
        let recall = idx.audit_planted_hard_negatives(&w, ultra_core::ClassId::new(0));
        assert!(
            recall >= 0.5,
            "BM25 should recover most planted hard negatives, got {recall:.2}"
        );
    }
}
