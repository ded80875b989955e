//! World generation: entities, attribute assignments, and the corpus.

use crate::config::WorldConfig;
use crate::knowledge::KnowledgeBase;
use crate::lexicon::Lexicon;
use crate::lists::{self, ListDoc, ListKind};
use crate::names::NameFactory;
use crate::ultra;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use ultra_core::rng::{derive_rng, stream_label, UltraRng};
use ultra_core::{
    AttrConstraint, AttributeId, AttributeSchema, AttributeValueId, ClassId, Corpus, Entity,
    EntityId, FineClass, Query, Result, Sentence, TokenId, UltraClass, UltraError,
};
use ultra_text::Vocab;

/// A fully generated UltraWiki-style world: vocabulary `V`, corpus `D`,
/// semantic classes, queries, and side knowledge.
#[derive(Clone, Debug)]
pub struct World {
    /// Generation configuration (kept for provenance).
    pub config: WorldConfig,
    /// Interned token vocabulary.
    pub vocab: Vocab,
    /// Global attribute schemas.
    pub attributes: Vec<AttributeSchema>,
    /// Fine-grained semantic classes.
    pub classes: Vec<FineClass>,
    /// Candidate entity vocabulary `V` (in-class + distractors + hard
    /// negatives), densely indexed by [`EntityId`].
    pub entities: Vec<Entity>,
    /// The sentence corpus `D`.
    pub corpus: Corpus,
    /// Ultra-fine-grained semantic classes with their queries.
    pub ultra_classes: Vec<UltraClass>,
    /// Per-entity canonical mention token (one token per entity).
    pub mention_tokens: Vec<TokenId>,
    /// Per-entity tokenized surface form (word tokens, for the generation
    /// trie and LM streams).
    pub name_tokens: Vec<Vec<TokenId>>,
    /// Entity introductions and Wikidata-style records.
    pub knowledge: KnowledgeBase,
    /// Token pools (exposed for tests, the oracle, and knowledge text).
    pub lexicon: Lexicon,
    /// Ids of BM25-style hard-negative distractors.
    pub hard_negative_ids: Vec<EntityId>,
    /// Wikipedia-style list documents (class lists + attribute-value lists).
    pub list_docs: Vec<ListDoc>,
    /// The list separator token (a comma analogue).
    pub list_sep: TokenId,
    mention_to_entity: HashMap<TokenId, EntityId>,
}

impl World {
    /// Generates a world from the configuration. Deterministic in
    /// `config.seed`.
    pub fn generate(config: WorldConfig) -> Result<Self> {
        if config.classes.is_empty() {
            return Err(UltraError::InvalidConfig("no classes configured".into()));
        }
        if config.seeds_min < 1 || config.seeds_max < config.seeds_min {
            return Err(UltraError::InvalidConfig("bad seed range".into()));
        }
        if config.n_thred < config.seeds_max + 1 {
            return Err(UltraError::InvalidConfig(
                "n_thred must exceed seeds_max so targets remain after seed removal".into(),
            ));
        }

        let mut vocab = Vocab::new();
        let mut factory = NameFactory::new();
        let mut rng_names = derive_rng(config.seed, stream_label("names"));
        let mut rng_attrs = derive_rng(config.seed, stream_label("attrs"));
        let mut rng_corpus = derive_rng(config.seed, stream_label("corpus"));

        // ── Attribute schemas ────────────────────────────────────────────
        let mut attributes = Vec::new();
        let mut class_attr_ids: Vec<Vec<AttributeId>> = Vec::new();
        for spec in &config.classes {
            let mut ids = Vec::new();
            for a in &spec.attrs {
                let id = AttributeId::from_index(attributes.len());
                let values = (0..a.cardinality)
                    .map(|_| factory.unique_value_name(&mut rng_names))
                    .collect();
                attributes.push(AttributeSchema {
                    id,
                    name: a.name.to_string(),
                    values,
                    signal_rate: a.signal_rate,
                });
                ids.push(id);
            }
            class_attr_ids.push(ids);
        }

        // ── Entities ─────────────────────────────────────────────────────
        // Per-class affix words ("Port …", "… Airport") shared across ~40%
        // of a class's entity names, so names overlap in token space as
        // real-world names do (see NameFactory::unique_affixed_name).
        let class_affixes: Vec<Vec<String>> = (0..config.classes.len())
            .map(|_| {
                (0..4)
                    .map(|_| factory.unique_value_name(&mut rng_names))
                    .collect()
            })
            .collect();
        let mut entities: Vec<Entity> = Vec::new();
        let mut classes: Vec<FineClass> = Vec::new();
        for (ci, spec) in config.classes.iter().enumerate() {
            let class_id = ClassId::from_index(ci);
            let mut members = Vec::with_capacity(spec.entities);
            // Zipf frequency weights over a shuffled rank permutation, so
            // entity id order carries no frequency information.
            let mut ranks: Vec<usize> = (0..spec.entities).collect();
            ranks.shuffle(&mut rng_attrs);
            let norm: f64 = (0..spec.entities)
                .map(|r| 1.0 / ((r + 1) as f64).powf(config.zipf_exponent))
                .sum::<f64>()
                / spec.entities as f64;
            for &rank in ranks.iter() {
                let id = EntityId::from_index(entities.len());
                let attrs = class_attr_ids[ci]
                    .iter()
                    .map(|&aid| {
                        let card = attributes[aid.index()].cardinality();
                        (
                            aid,
                            AttributeValueId(sample_zipf_value(card, &mut rng_attrs)),
                        )
                    })
                    .collect();
                let weight = (1.0 / ((rank + 1) as f64).powf(config.zipf_exponent)) / norm;
                let name = {
                    let roll: f64 = rng_names.gen();
                    let pool = &class_affixes[ci];
                    if roll < 0.2 {
                        let affix = &pool[rng_names.gen_range(0..pool.len())];
                        factory.unique_affixed_name(&mut rng_names, affix, true)
                    } else if roll < 0.4 {
                        let affix = &pool[rng_names.gen_range(0..pool.len())];
                        factory.unique_affixed_name(&mut rng_names, affix, false)
                    } else {
                        factory.unique_entity_name(&mut rng_names)
                    }
                };
                entities.push(Entity {
                    id,
                    name,
                    class: Some(class_id),
                    attrs,
                    freq_weight: weight,
                });
                members.push(id);
            }
            classes.push(FineClass {
                id: class_id,
                name: spec.name.to_string(),
                coarse: spec.coarse,
                attributes: class_attr_ids[ci].clone(),
                entities: members,
            });
        }
        // Plain distractors (each tied to a random topic group).
        let mut distractor_group: HashMap<u32, usize> = HashMap::new();
        for _ in 0..config.distractors {
            let id = EntityId::from_index(entities.len());
            distractor_group.insert(id.0, rng_attrs.gen_range(0..Lexicon::DISTRACTOR_GROUPS));
            entities.push(Entity {
                id,
                name: factory.unique_entity_name(&mut rng_names),
                class: None,
                attrs: Vec::new(),
                freq_weight: 0.4,
            });
        }
        // Hard negatives: distractors whose sentences share a class topic.
        let mut hard_negative_ids = Vec::new();
        let mut hard_neg_class: HashMap<u32, usize> = HashMap::new();
        for ci in 0..config.classes.len() {
            for _ in 0..config.hard_negatives_per_class {
                let id = EntityId::from_index(entities.len());
                hard_neg_class.insert(id.0, ci);
                distractor_group.insert(id.0, rng_attrs.gen_range(0..Lexicon::DISTRACTOR_GROUPS));
                entities.push(Entity {
                    id,
                    name: factory.unique_entity_name(&mut rng_names),
                    class: None,
                    attrs: Vec::new(),
                    freq_weight: 0.6,
                });
                hard_negative_ids.push(id);
            }
        }

        // ── Lexicon, mention tokens, name tokens ─────────────────────────
        let lexicon = Lexicon::build(
            &config,
            &attributes,
            &mut vocab,
            &mut factory,
            &mut rng_names,
        );
        let mut mention_tokens = Vec::with_capacity(entities.len());
        let mut name_tokens = Vec::with_capacity(entities.len());
        let mut mention_to_entity = HashMap::new();
        for e in &entities {
            let canonical = e.name.to_lowercase().replace(' ', "_");
            let tok = vocab.intern(&canonical);
            mention_tokens.push(tok);
            mention_to_entity.insert(tok, e.id);
            let words = ultra_text::Tokenizer::encode_interning(&mut vocab, &e.name);
            name_tokens.push(words);
        }

        // ── Corpus ───────────────────────────────────────────────────────
        let mut corpus = Corpus::with_entities(entities.len());
        for e in &entities {
            let n_sent = match (e.class, hard_neg_class.get(&e.id.0)) {
                (Some(_), _) => {
                    ((config.sentences_per_entity * e.freq_weight).round() as usize).clamp(3, 150)
                }
                (None, Some(_)) => rng_corpus.gen_range(4..=6),
                (None, None) => rng_corpus.gen_range(2..=3),
            };
            for _ in 0..n_sent {
                let sentence = synthesize_sentence(
                    e,
                    &config,
                    &attributes,
                    &lexicon,
                    mention_tokens[e.id.index()],
                    hard_neg_class.get(&e.id.0).copied(),
                    distractor_group.get(&e.id.0).copied(),
                    &mut rng_corpus,
                );
                corpus.push(sentence);
            }
        }

        // ── Knowledge ────────────────────────────────────────────────────
        let mut rng_know = derive_rng(config.seed, stream_label("knowledge"));
        let knowledge = KnowledgeBase::build(
            &entities,
            &classes,
            &attributes,
            &lexicon,
            &distractor_group,
            &hard_neg_class,
            &mut rng_know,
        );

        // ── Wikipedia-style lists ────────────────────────────────────────
        let mut rng_lists = derive_rng(config.seed, stream_label("lists"));
        let list_sep = vocab.intern(",");
        let mut groups: Vec<(ListKind, Vec<EntityId>)> = Vec::new();
        for class in &classes {
            groups.push((ListKind::Class(class.id), class.entities.clone()));
            for &aid in &class.attributes {
                let card = attributes[aid.index()].cardinality();
                for v in 0..card {
                    let val = AttributeValueId(v as u16);
                    let members: Vec<EntityId> = class
                        .entities
                        .iter()
                        .copied()
                        .filter(|&e| entities[e.index()].value_of(aid) == Some(val))
                        .collect();
                    groups.push((ListKind::Value(aid, val), members));
                }
            }
        }
        let list_docs = lists::generate_lists(&groups, &name_tokens, list_sep, &mut rng_lists);

        let mut world = World {
            config,
            vocab,
            attributes,
            classes,
            entities,
            corpus,
            ultra_classes: Vec::new(),
            mention_tokens,
            name_tokens,
            knowledge,
            lexicon,
            hard_negative_ids,
            list_docs,
            list_sep,
            mention_to_entity,
        };

        // ── Ultra-fine-grained classes + queries ─────────────────────────
        let mut rng_ultra = derive_rng(world.config.seed, stream_label("ultra"));
        world.ultra_classes = ultra::generate_ultra_classes(&world, &mut rng_ultra)?;
        Ok(world)
    }

    /// Entity lookup.
    #[inline]
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.index()]
    }

    /// Number of candidate entities `|V|`.
    #[inline]
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Stable FNV-1a fingerprint of the generated content: entity names,
    /// corpus sentences, list documents, and query structure. Two worlds
    /// agree on this value iff they would drive every downstream consumer
    /// (encoder training, LM streams, tries, BM25) identically — the
    /// snapshot loader compares it against the value recorded at build
    /// time to detect profile/seed mismatches and generator drift.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = ultra_core::StableHasher::default();
        h.write_u64(self.vocab.len() as u64);
        h.write_u64(self.num_entities() as u64);
        h.write_u64(self.list_sep.index() as u64);
        for name in &self.name_tokens {
            h.write_u64(name.len() as u64);
            for t in name {
                h.write_u64(t.index() as u64);
            }
        }
        for s in self.corpus.sentences() {
            h.write_u64(s.tokens.len() as u64);
            for t in &s.tokens {
                h.write_u64(t.index() as u64);
            }
            for (pos, e) in &s.mentions {
                h.write_u64(*pos as u64);
                h.write_u64(e.index() as u64);
            }
        }
        for d in &self.list_docs {
            h.write_u64(d.tokens.len() as u64);
            for t in &d.tokens {
                h.write_u64(t.index() as u64);
            }
        }
        h.write_u64(self.ultra_classes.len() as u64);
        for u in &self.ultra_classes {
            h.write_u64(u.queries.len() as u64);
            for q in &u.queries {
                for e in &q.pos_seeds {
                    h.write_u64(e.index() as u64);
                }
                h.write_u64(u64::MAX); // seed-set delimiter
                for e in &q.neg_seeds {
                    h.write_u64(e.index() as u64);
                }
            }
        }
        h.finish()
    }

    /// Entity behind a canonical mention token, if any.
    pub fn entity_of_mention(&self, token: TokenId) -> Option<EntityId> {
        self.mention_to_entity.get(&token).copied()
    }

    /// Finds an entity by (case-insensitive) surface form.
    pub fn entity_by_name(&self, name: &str) -> Option<EntityId> {
        let lower = name.to_lowercase();
        self.entities
            .iter()
            .find(|e| e.name.to_lowercase() == lower)
            .map(|e| e.id)
    }

    /// All `(ultra class, query)` pairs, class order then query order.
    pub fn queries(&self) -> impl Iterator<Item = (&UltraClass, &Query)> {
        self.ultra_classes
            .iter()
            .flat_map(|u| u.queries.iter().map(move |q| (u, q)))
    }

    /// Corpus sentences with mention tokens expanded into name-word tokens —
    /// the training stream for the generative LM, whose decoding must walk
    /// multi-token entity names (Figure 6).
    pub fn lm_sentences(&self) -> Vec<Vec<TokenId>> {
        self.corpus
            .sentences()
            .iter()
            .map(|s| self.expand_mentions(s))
            .collect()
    }

    /// Human-readable description of an ultra class with attribute and
    /// value names resolved, e.g.
    /// `"China cities [<province>=Kronai | NOT <prefecture>=Shuolin]"`.
    pub fn describe_ultra(&self, u: &UltraClass) -> String {
        let fmt = |c: &AttrConstraint| {
            c.required
                .iter()
                .map(|&(a, v)| {
                    let schema = &self.attributes[a.index()];
                    format!("{}={}", schema.name, schema.value_name(v))
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{} [{} | NOT {}]",
            self.classes[u.fine.index()].name,
            fmt(&u.pos),
            fmt(&u.neg)
        )
    }

    /// The generative LM's *base* pre-training documents: all class-level
    /// lists plus the even copies of the attribute-value lists — the share
    /// of world knowledge a general LLM already holds before seeing corpus
    /// `D` (LLaMA's pre-training corpus contains Wikipedia, so most
    /// attribute facts are not new to it).
    pub fn base_lm_docs(&self) -> Vec<Vec<TokenId>> {
        self.list_docs
            .iter()
            .filter(|d| match d.kind {
                ListKind::Class(_) => true,
                ListKind::Value(_, _) => d.copy < 4,
            })
            .map(|d| d.tokens.clone())
            .collect()
    }

    /// The *further pre-training* documents — corpus `D`: entity-labelled
    /// sentences (mentions expanded) plus the odd copies of the
    /// attribute-value lists. Removing these is the Table 3
    /// "- Further pretrain" ablation, which therefore weakens (but does not
    /// erase) the LM's ultra-fine-grained knowledge.
    pub fn further_pretrain_docs(&self) -> Vec<Vec<TokenId>> {
        let mut docs = self.lm_sentences();
        docs.extend(
            self.list_docs
                .iter()
                .filter(|d| matches!(d.kind, ListKind::Value(_, _)) && d.copy >= 4)
                .map(|d| d.tokens.clone()),
        );
        docs
    }

    /// Expands one sentence's mention tokens into entity name words.
    pub fn expand_mentions(&self, s: &Sentence) -> Vec<TokenId> {
        let mut out = Vec::with_capacity(s.tokens.len() + 2);
        for (i, &tok) in s.tokens.iter().enumerate() {
            if let Some(e) = s.mentions.iter().find(|(p, _)| *p == i).map(|(_, e)| *e) {
                out.extend_from_slice(&self.name_tokens[e.index()]);
            } else {
                out.push(tok);
            }
        }
        out
    }
}

/// Zipf-skewed value pick: low-index values are more common, mirroring
/// real attribute distributions (big provinces have more cities).
fn sample_zipf_value(cardinality: usize, rng: &mut UltraRng) -> u16 {
    let weights: Vec<f64> = (0..cardinality)
        .map(|i| 1.0 / ((i + 1) as f64).powf(0.8))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i as u16;
        }
        x -= w;
    }
    (cardinality - 1) as u16
}

/// Synthesizes one sentence for `entity`.
#[allow(clippy::too_many_arguments)]
fn synthesize_sentence(
    entity: &Entity,
    cfg: &WorldConfig,
    attributes: &[AttributeSchema],
    lexicon: &Lexicon,
    mention: TokenId,
    hard_neg_class: Option<usize>,
    distractor_group: Option<usize>,
    rng: &mut UltraRng,
) -> Sentence {
    let len = (cfg.sentence_len as i64 + rng.gen_range(-3..=4)).max(6) as usize;
    let mut tokens: Vec<TokenId> = Vec::with_capacity(len);

    match (entity.class, hard_neg_class) {
        (Some(class), _) => {
            // In-class entity: topics + attribute markers + filler.
            let class_idx = class.index();
            for _ in 0..rng.gen_range(2..=3) {
                tokens.push(lexicon.sample_topic(class_idx, rng));
            }
            for &(aid, val) in &entity.attrs {
                let schema = &attributes[aid.index()];
                if rng.gen_bool(schema.signal_rate) {
                    let emitted = if rng.gen_bool(cfg.marker_noise) {
                        // Annotation/world noise: marker of a random value.
                        AttributeValueId(rng.gen_range(0..schema.cardinality()) as u16)
                    } else {
                        val
                    };
                    // A signalled attribute contributes two marker tokens —
                    // real sentences rarely name an attribute value with a
                    // single isolated word ("…in northern Henan province…").
                    tokens.push(lexicon.sample_marker(aid.index(), emitted.index(), rng));
                    tokens.push(lexicon.sample_marker(aid.index(), emitted.index(), rng));
                }
            }
        }
        (None, Some(class_idx)) => {
            // Hard negative: shares the class topic (BM25-similar) but
            // carries no attribute markers.
            for _ in 0..rng.gen_range(2..=3) {
                tokens.push(lexicon.sample_topic(class_idx, rng));
            }
            let group = distractor_group.unwrap_or(0);
            tokens.push(lexicon.sample_distractor_topic(group, rng));
        }
        (None, None) => {
            let group = distractor_group.unwrap_or(0);
            for _ in 0..rng.gen_range(2..=3) {
                tokens.push(lexicon.sample_distractor_topic(group, rng));
            }
        }
    }

    while tokens.len() + 1 < len {
        tokens.push(lexicon.sample_filler(rng));
    }
    // Place the mention at a random position.
    let pos = rng.gen_range(0..=tokens.len());
    tokens.insert(pos, mention);
    Sentence {
        tokens,
        mentions: vec![(pos, entity.id)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        World::generate(WorldConfig::tiny()).expect("tiny world generates")
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_world();
        let b = tiny_world();
        assert_eq!(a.num_entities(), b.num_entities());
        assert_eq!(a.corpus.len(), b.corpus.len());
        assert_eq!(
            a.entities.iter().map(|e| &e.name).collect::<Vec<_>>(),
            b.entities.iter().map(|e| &e.name).collect::<Vec<_>>()
        );
        assert_eq!(a.ultra_classes.len(), b.ultra_classes.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny_world();
        let b = World::generate(WorldConfig::tiny().with_seed(7)).unwrap();
        assert_ne!(
            a.entities.iter().map(|e| &e.name).collect::<Vec<_>>(),
            b.entities.iter().map(|e| &e.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_in_class_entity_has_sentences_and_attrs() {
        let w = tiny_world();
        for class in &w.classes {
            for &e in &class.entities {
                assert!(w.corpus.mention_count(e) >= 3, "entity {e:?} underspoken");
                let ent = w.entity(e);
                assert_eq!(ent.attrs.len(), class.attributes.len());
            }
        }
    }

    #[test]
    fn mention_tokens_round_trip() {
        let w = tiny_world();
        for e in &w.entities {
            let tok = w.mention_tokens[e.id.index()];
            assert_eq!(w.entity_of_mention(tok), Some(e.id));
        }
    }

    #[test]
    fn sentences_reference_their_entity() {
        let w = tiny_world();
        let e = w.classes[0].entities[0];
        for &sid in w.corpus.sentences_of(e) {
            let s = w.corpus.sentence(sid);
            assert!(s.mentions.iter().any(|(_, me)| *me == e));
            let (pos, _) = s.mentions[0];
            assert_eq!(s.tokens[pos], w.mention_tokens[e.index()]);
        }
    }

    #[test]
    fn in_class_sentences_carry_topic_tokens() {
        let w = tiny_world();
        let class = &w.classes[1];
        let e = class.entities[0];
        let topic = &w.lexicon.class_topics[1];
        let mut hits = 0;
        for &sid in w.corpus.sentences_of(e) {
            let s = w.corpus.sentence(sid);
            if s.tokens.iter().any(|t| topic.contains(t)) {
                hits += 1;
            }
        }
        assert_eq!(hits, w.corpus.mention_count(e), "every sentence has topics");
    }

    #[test]
    fn attribute_markers_appear_at_roughly_signal_rate() {
        let w = World::generate(WorldConfig::small()).unwrap();
        let class = &w.classes[0];
        let aid = class.attributes[0];
        let rate = w.attributes[aid.index()].signal_rate;
        let mut with_marker = 0usize;
        let mut total = 0usize;
        let pool = w.lexicon.marker_pool(aid.index());
        for &e in &class.entities {
            for &sid in w.corpus.sentences_of(e) {
                total += 1;
                if w.corpus
                    .sentence(sid)
                    .tokens
                    .iter()
                    .any(|t| pool.contains(t))
                {
                    with_marker += 1;
                }
            }
        }
        let observed = with_marker as f64 / total as f64;
        assert!(
            (observed - rate).abs() < 0.08,
            "observed marker rate {observed:.3} vs configured {rate:.3}"
        );
    }

    #[test]
    fn hard_negatives_share_class_topics() {
        let w = tiny_world();
        assert!(!w.hard_negative_ids.is_empty());
        let all_topics: Vec<&Vec<TokenId>> = w.lexicon.class_topics.iter().collect();
        let hn = w.hard_negative_ids[0];
        let mut topic_hits = 0;
        for &sid in w.corpus.sentences_of(hn) {
            let s = w.corpus.sentence(sid);
            if s.tokens
                .iter()
                .any(|t| all_topics.iter().any(|pool| pool.contains(t)))
            {
                topic_hits += 1;
            }
        }
        assert!(topic_hits > 0, "hard negatives look like class members");
    }

    #[test]
    fn lm_sentences_expand_mentions_into_name_words() {
        let w = tiny_world();
        // Pick a multi-word entity so expansion visibly differs from the
        // canonical mention token (single-word names expand to themselves).
        let e = w
            .entities
            .iter()
            .find(|e| e.name.contains(' '))
            .expect("a multi-word entity exists")
            .id;
        let sid = w.corpus.sentences_of(e)[0];
        let s = w.corpus.sentence(sid);
        let expanded = w.expand_mentions(s);
        let name = &w.name_tokens[e.index()];
        assert!(name.len() >= 2);
        // The expansion contains the name words contiguously.
        let found = expanded
            .windows(name.len())
            .any(|win| win == name.as_slice());
        assert!(found);
        // And no canonical mention token survives.
        assert!(!expanded.contains(&w.mention_tokens[e.index()]));
        assert_eq!(expanded.len(), s.tokens.len() + name.len() - 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = WorldConfig::tiny();
        cfg.classes.clear();
        assert!(World::generate(cfg).is_err());
        let mut cfg2 = WorldConfig::tiny();
        cfg2.n_thred = 3; // < seeds_max + 1
        assert!(World::generate(cfg2).is_err());
    }

    #[test]
    fn entity_by_name_is_case_insensitive() {
        let w = tiny_world();
        let e = &w.entities[0];
        assert_eq!(w.entity_by_name(&e.name.to_uppercase()), Some(e.id));
        assert_eq!(w.entity_by_name("No Such Entity Xyz"), None);
    }
}
