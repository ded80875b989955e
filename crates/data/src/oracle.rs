//! The simulated knowledge-LLM ("GPT-4") oracle.
//!
//! The paper uses GPT-4 twice: as a *baseline expander* (prompted with
//! positive and negative seeds) and as an *annotator* that classifies
//! candidate entities for contrastive-pair mining (Appendix A, Table 13).
//! This oracle simulates the three behaviours the paper's analysis depends
//! on (Section 6.2 point 6):
//!
//! 1. **broad but frequency-skewed knowledge** — the oracle knows an entity
//!    with probability growing in its corpus frequency, so long-tail classes
//!    (monuments, phone brands) have spotty coverage;
//! 2. **imperfect attribute beliefs** — known entities' attribute values are
//!    right only with `attr_accuracy`, which injects exactly the annotation
//!    noise Table 7 discusses;
//! 3. **hallucination** — generated rankings intersperse fabricated entity
//!    names that exist nowhere in the candidate vocabulary.

use crate::names::NameFactory;
use crate::world::World;
use rand::Rng;
use std::collections::{BTreeMap, HashSet};
use ultra_core::rng::{derive_rng, stream_label, UltraRng};
use ultra_core::{top_k, AttributeId, AttributeValueId, ClassId, EntityId};

/// Oracle noise parameters.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Base probability of knowing an entity at all.
    pub base_know: f64,
    /// Additional knowledge probability granted to the most frequent
    /// entities (scaled by normalized log frequency).
    pub know_slope: f64,
    /// Probability a known entity's believed attribute value is correct.
    pub attr_accuracy: f64,
    /// Probability a known entity's believed fine class is correct.
    pub class_accuracy: f64,
    /// Probability of emitting a fabricated entity at each output rank.
    pub hallucination_rate: f64,
    /// Probability of flipping an annotation decision (labelling noise).
    pub label_noise: f64,
    /// Oracle RNG seed (independent of the world seed).
    pub seed: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            base_know: 0.30,
            know_slope: 0.42,
            attr_accuracy: 0.87,
            class_accuracy: 0.95,
            hallucination_rate: 0.09,
            label_noise: 0.05,
            seed: 0xC0FFEE,
        }
    }
}

/// One entry of a generative oracle ranking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleEntry {
    /// A real candidate entity.
    Known(EntityId),
    /// A fabricated surface form not present in the vocabulary.
    Hallucinated(String),
}

/// The simulated GPT-4.
#[derive(Clone, Debug)]
pub struct KnowledgeOracle {
    cfg: OracleConfig,
    known: Vec<bool>,
    believed_class: Vec<Option<ClassId>>,
    believed_attrs: Vec<Vec<(AttributeId, AttributeValueId)>>,
    class_members: Vec<Vec<EntityId>>,
    real_names: HashSet<String>,
}

impl KnowledgeOracle {
    /// Derives the oracle's full (noisy) belief state from a world.
    pub fn new(world: &World, cfg: OracleConfig) -> Self {
        let mut rng = derive_rng(cfg.seed, stream_label("oracle-beliefs"));
        let max_freq = world
            .entities
            .iter()
            .map(|e| world.corpus.mention_count(e.id))
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        let mut known = Vec::with_capacity(world.num_entities());
        let mut believed_class = Vec::with_capacity(world.num_entities());
        let mut believed_attrs = Vec::with_capacity(world.num_entities());
        let num_classes = world.classes.len();
        for e in &world.entities {
            let freq = world.corpus.mention_count(e.id) as f64;
            let p = (cfg.base_know + cfg.know_slope * ((1.0 + freq).ln() / (1.0 + max_freq).ln()))
                .clamp(0.0, 0.98);
            let k = rng.gen_bool(p);
            known.push(k);
            if !k {
                believed_class.push(None);
                believed_attrs.push(Vec::new());
                continue;
            }
            let bc = match e.class {
                Some(c) if rng.gen_bool(cfg.class_accuracy) => Some(c),
                Some(_) => Some(ClassId::from_index(rng.gen_range(0..num_classes))),
                None => None,
            };
            believed_class.push(bc);
            let attrs = e
                .attrs
                .iter()
                .map(|&(aid, val)| {
                    if rng.gen_bool(cfg.attr_accuracy) {
                        (aid, val)
                    } else {
                        let card = world.attributes[aid.index()].cardinality();
                        (aid, AttributeValueId(rng.gen_range(0..card) as u16))
                    }
                })
                .collect();
            believed_attrs.push(attrs);
        }
        // Membership index by *believed* class.
        let mut class_members = vec![Vec::new(); num_classes];
        for (i, bc) in believed_class.iter().enumerate() {
            if let Some(c) = bc {
                class_members[c.index()].push(EntityId::from_index(i));
            }
        }
        let real_names = world
            .entities
            .iter()
            .map(|e| e.name.to_lowercase())
            .collect();
        Self {
            cfg,
            known,
            believed_class,
            believed_attrs,
            class_members,
            real_names,
        }
    }

    /// Whether the oracle knows the entity at all.
    #[inline]
    pub fn knows(&self, e: EntityId) -> bool {
        self.known[e.index()]
    }

    /// The oracle's believed value for `(entity, attribute)`, if known.
    pub fn believed_value(&self, e: EntityId, attr: AttributeId) -> Option<AttributeValueId> {
        self.believed_attrs[e.index()]
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, v)| *v)
    }

    /// Infers the attribute values shared by a seed set, from the oracle's
    /// *beliefs*: for each attribute, the modal believed value if at least
    /// two thirds of the known seeds agree on it.
    pub fn infer_shared_values(&self, seeds: &[EntityId]) -> Vec<(AttributeId, AttributeValueId)> {
        let mut counts: BTreeMap<(AttributeId, AttributeValueId), usize> = BTreeMap::new();
        let mut known_seeds = 0usize;
        for &s in seeds {
            if !self.knows(s) {
                continue;
            }
            known_seeds += 1;
            for &(a, v) in &self.believed_attrs[s.index()] {
                *counts.entry((a, v)).or_insert(0) += 1;
            }
        }
        if known_seeds == 0 {
            return Vec::new();
        }
        let threshold = (2 * known_seeds).div_ceil(3);
        let mut best: BTreeMap<AttributeId, (AttributeValueId, usize)> = BTreeMap::new();
        for ((a, v), c) in counts {
            let slot = best.entry(a).or_insert((v, 0));
            if c > slot.1 {
                *slot = (v, c);
            }
        }
        let mut shared: Vec<_> = best
            .into_iter()
            .filter(|(_, (_, c))| *c >= threshold)
            .map(|(a, (v, _))| (a, v))
            .collect();
        shared.sort_unstable_by_key(|(a, _)| *a);
        shared
    }

    /// The believed fine class of the majority of known seeds.
    pub fn infer_class(&self, seeds: &[EntityId]) -> Option<ClassId> {
        let mut counts: BTreeMap<ClassId, usize> = BTreeMap::new();
        for &s in seeds {
            if let Some(c) = self.believed_class[s.index()] {
                *counts.entry(c).or_insert(0) += 1;
            }
        }
        counts.into_iter().max_by_key(|(_, c)| *c).map(|(c, _)| c)
    }

    /// Annotator mode (Table 13): for each candidate, decides whether it is
    /// consistent with the seed set's (inferred) shared attribute values.
    /// Unknown candidates are labelled inconsistent; every decision flips
    /// with `label_noise`.
    pub fn classify_consistent(
        &self,
        seeds: &[EntityId],
        candidates: &[EntityId],
        rng: &mut UltraRng,
    ) -> Vec<bool> {
        let shared = self.infer_shared_values(seeds);
        candidates
            .iter()
            .map(|&c| {
                let verdict = self.knows(c)
                    && !shared.is_empty()
                    && shared
                        .iter()
                        .all(|&(a, v)| self.believed_value(c, a) == Some(v));
                if rng.gen_bool(self.cfg.label_noise) {
                    !verdict
                } else {
                    verdict
                }
            })
            .collect()
    }

    /// Baseline-expander mode: ranks entities the oracle believes match the
    /// positive seeds' shared values while avoiding the negative seeds'
    /// shared values, interspersing hallucinated names.
    pub fn expand(
        &self,
        pos_seeds: &[EntityId],
        neg_seeds: &[EntityId],
        k: usize,
        rng: &mut UltraRng,
    ) -> Vec<OracleEntry> {
        let Some(class) = self.infer_class(pos_seeds) else {
            return self.hallucination_filler(k, rng);
        };
        let pos_shared = self.infer_shared_values(pos_seeds);
        let neg_shared = self.infer_shared_values(neg_seeds);
        let scored: Vec<(EntityId, f64)> = self.class_members[class.index()]
            .iter()
            .filter(|e| !pos_seeds.contains(e) && !neg_seeds.contains(e))
            .map(|&e| {
                let mut score = 0.0f64;
                for &(a, v) in &pos_shared {
                    if self.believed_value(e, a) == Some(v) {
                        score += 1.0;
                    }
                }
                for &(a, v) in &neg_shared {
                    if self.believed_value(e, a) == Some(v) {
                        score -= 1.2;
                    }
                }
                score += rng.gen_range(0.0..0.25); // sampling temperature
                (e, score)
            })
            .collect();
        let mut factory = NameFactory::new();
        let mut known = top_k(scored, k).into_iter();
        (0..k)
            .map(|_| {
                let drawn = if rng.gen_bool(self.cfg.hallucination_rate) {
                    None
                } else {
                    known.next()
                };
                match drawn {
                    Some((e, _)) => OracleEntry::Known(e),
                    None => OracleEntry::Hallucinated(self.fresh_fake_name(&mut factory, rng)),
                }
            })
            .collect()
    }

    fn hallucination_filler(&self, k: usize, rng: &mut UltraRng) -> Vec<OracleEntry> {
        let mut factory = NameFactory::new();
        (0..k)
            .map(|_| OracleEntry::Hallucinated(self.fresh_fake_name(&mut factory, rng)))
            .collect()
    }

    fn fresh_fake_name(&self, factory: &mut NameFactory, rng: &mut UltraRng) -> String {
        loop {
            let name = factory.unique_entity_name(rng);
            if !self.real_names.contains(&name.to_lowercase()) {
                return name;
            }
        }
    }

    /// Converts an oracle ranking into `(entity, score)` pairs where
    /// hallucinations are assigned fresh out-of-vocabulary ids starting at
    /// `vocab_size`. Metrics treat them as irrelevant entries occupying
    /// their rank — faithful to the paper's observation that hallucinations
    /// cannot be post-filtered away.
    pub fn to_ranked_entries(entries: &[OracleEntry], vocab_size: usize) -> Vec<(EntityId, f32)> {
        let mut next_fake = vocab_size as u32;
        entries
            .iter()
            .enumerate()
            .map(|(rank, entry)| {
                let id = match entry {
                    OracleEntry::Known(e) => *e,
                    OracleEntry::Hallucinated(_) => {
                        let id = EntityId::new(next_fake);
                        next_fake += 1;
                        id
                    }
                };
                (id, 1.0 - rank as f32 / entries.len().max(1) as f32)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn setup() -> (World, KnowledgeOracle) {
        let world = World::generate(WorldConfig::tiny()).unwrap();
        let oracle = KnowledgeOracle::new(&world, OracleConfig::default());
        (world, oracle)
    }

    #[test]
    fn oracle_knows_frequent_entities_more_often() {
        let (world, oracle) = setup();
        let mut freq_known = (0usize, 0usize);
        let mut rare_known = (0usize, 0usize);
        for e in &world.entities {
            if e.class.is_none() {
                continue;
            }
            let freq = world.corpus.mention_count(e.id);
            let bucket = if freq >= 15 {
                &mut freq_known
            } else if freq <= 4 {
                &mut rare_known
            } else {
                continue;
            };
            bucket.1 += 1;
            if oracle.knows(e.id) {
                bucket.0 += 1;
            }
        }
        if freq_known.1 > 10 && rare_known.1 > 10 {
            let hi = freq_known.0 as f64 / freq_known.1 as f64;
            let lo = rare_known.0 as f64 / rare_known.1 as f64;
            assert!(hi > lo, "frequent {hi:.2} should beat rare {lo:.2}");
        }
    }

    #[test]
    fn infer_shared_values_finds_true_common_attribute() {
        let (world, oracle) = setup();
        // Take an ultra class; its positive seeds share the pos values.
        let u = &world.ultra_classes[0];
        let q = &u.queries[0];
        let shared = oracle.infer_shared_values(&q.pos_seeds);
        // The oracle's inference is noisy but should usually include the
        // defining positive attribute. Weak assertion: inference is subset
        // of attributes of the fine class.
        let class_attrs = &world.classes[u.fine.index()].attributes;
        for (a, _) in shared {
            assert!(class_attrs.contains(&a));
        }
    }

    #[test]
    fn classify_consistent_is_mostly_right_on_clean_entities() {
        let (world, oracle) = setup();
        let mut rng = derive_rng(5, 0);
        let u = &world.ultra_classes[0];
        let q = &u.queries[0];
        let pos: Vec<EntityId> = u
            .pos_targets
            .iter()
            .filter(|e| !q.is_seed(**e))
            .copied()
            .collect();
        let neg: Vec<EntityId> = u.neg_targets.to_vec();
        let pos_labels = oracle.classify_consistent(&q.pos_seeds, &pos, &mut rng);
        let neg_labels = oracle.classify_consistent(&q.pos_seeds, &neg, &mut rng);
        let pos_rate = pos_labels.iter().filter(|b| **b).count() as f64 / pos.len() as f64;
        let neg_rate = neg_labels.iter().filter(|b| **b).count() as f64 / neg.len() as f64;
        assert!(
            pos_rate > neg_rate,
            "true positives labelled consistent more often: {pos_rate:.2} vs {neg_rate:.2}"
        );
    }

    #[test]
    fn expansion_contains_hallucinations_and_is_deterministic() {
        let (world, oracle) = setup();
        let u = &world.ultra_classes[0];
        let q = &u.queries[0];
        let mut r1 = derive_rng(7, 0);
        let mut r2 = derive_rng(7, 0);
        let a = oracle.expand(&q.pos_seeds, &q.neg_seeds, 50, &mut r1);
        let b = oracle.expand(&q.pos_seeds, &q.neg_seeds, 50, &mut r2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(a.iter().any(|e| matches!(e, OracleEntry::Hallucinated(_))));
        // No seed leaks into the expansion.
        for entry in &a {
            if let OracleEntry::Known(e) = entry {
                assert!(!q.is_seed(*e));
            }
        }
    }

    #[test]
    fn to_ranked_entries_gives_fakes_out_of_vocab_ids() {
        let entries = vec![
            OracleEntry::Known(EntityId::new(3)),
            OracleEntry::Hallucinated("Fake City".into()),
            OracleEntry::Known(EntityId::new(5)),
        ];
        let ranked = KnowledgeOracle::to_ranked_entries(&entries, 100);
        assert_eq!(ranked[0].0, EntityId::new(3));
        assert_eq!(ranked[1].0, EntityId::new(100));
        assert_eq!(ranked[2].0, EntityId::new(5));
        assert!(ranked[0].1 > ranked[1].1 && ranked[1].1 > ranked[2].1);
    }
}
