//! Contrastive-pair mining with the simulated GPT-4 annotator
//! (Section 5.1.2 "Ultra-fine-grained Training Data", Appendix A Table 13).
//!
//! For each query: take the top-`T` of the preliminary list `L₀`, ask the
//! annotator which candidates are attribute-consistent with the positive
//! seeds (→ `L_pos`) and which with the negative seeds (→ `L_neg`), merge
//! the seeds themselves in, and sample out-of-class entities as `L̄₀`.

use crate::pipeline::RetExpan;
use rand::seq::SliceRandom;
use ultra_core::rng::{derive_rng, stream_label};
use ultra_core::EntityId;
use ultra_data::{KnowledgeOracle, World};
use ultra_embed::{MinedLists, QueryLists};

/// Mines `L_pos`/`L_neg`/`L̄₀` for every query.
///
/// * `t_examine` — how many of `L₀`'s top entities the annotator reviews
///   (the paper prompts GPT-4 on the top-T of `L₀`).
/// * `list_cap` — `|L_pos|` and `|L_neg|` caps (paper: 10, Figure 7 sweeps
///   it).
pub fn mine_lists(
    world: &World,
    ret: &RetExpan,
    oracle: &KnowledgeOracle,
    t_examine: usize,
    list_cap: usize,
) -> MinedLists {
    let mut rng = derive_rng(world.config.seed, stream_label("mining"));
    let mut queries = Vec::new();
    for u in &world.ultra_classes {
        for q in &u.queries {
            let l0 = ret.preliminary_list(world, q, None);
            let cands: Vec<EntityId> = l0.entities().take(t_examine).collect();
            let pos_labels = oracle.classify_consistent(&q.pos_seeds, &cands, &mut rng);
            let neg_labels = oracle.classify_consistent(&q.neg_seeds, &cands, &mut rng);
            // Seeds are known members of their lists; mined candidates are
            // appended after them ("will be merged with S^pos (S^neg) to
            // form L_pos (L_neg)").
            let mut l_pos: Vec<EntityId> = q.pos_seeds.clone();
            let mut l_neg: Vec<EntityId> = q.neg_seeds.clone();
            for (i, &c) in cands.iter().enumerate() {
                if pos_labels[i] && !neg_labels[i] && l_pos.len() < list_cap {
                    l_pos.push(c);
                } else if neg_labels[i] && !pos_labels[i] && l_neg.len() < list_cap {
                    l_neg.push(c);
                }
            }
            // L̄₀: entities from other fine-grained classes.
            let mut outside: Vec<EntityId> = world
                .classes
                .iter()
                .filter(|c| c.id != u.fine)
                .flat_map(|c| c.entities.iter().copied())
                .collect();
            outside.shuffle(&mut rng);
            outside.truncate(list_cap);
            queries.push(QueryLists {
                ultra: u.id,
                l_pos,
                l_neg,
                outside,
            });
        }
    }
    MinedLists { queries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RetExpanConfig;
    use ultra_data::{OracleConfig, WorldConfig};
    use ultra_embed::EncoderConfig;

    #[test]
    fn mined_lists_cover_every_query_and_respect_caps() {
        let world = World::generate(WorldConfig::tiny()).unwrap();
        let ret = RetExpan::train(
            &world,
            EncoderConfig {
                epochs: 1,
                neg_samples: 32,
                max_sentences_per_entity: 8,
                ..EncoderConfig::default()
            },
            RetExpanConfig::default(),
        );
        let oracle = KnowledgeOracle::new(&world, OracleConfig::default());
        let mined = mine_lists(&world, &ret, &oracle, 30, 10);
        let total_queries: usize = world.ultra_classes.iter().map(|u| u.queries.len()).sum();
        assert_eq!(mined.queries.len(), total_queries);
        for (ql, (u, q)) in mined.queries.iter().zip(world.queries()) {
            assert_eq!(ql.ultra, u.id);
            assert!(ql.l_pos.len() <= 10.max(q.pos_seeds.len()));
            assert!(ql.l_neg.len() <= 10.max(q.neg_seeds.len()));
            // Seeds are always included.
            for s in &q.pos_seeds {
                assert!(ql.l_pos.contains(s));
            }
            for s in &q.neg_seeds {
                assert!(ql.l_neg.contains(s));
            }
            // No entity sits in both lists beyond the seeds.
            for e in &ql.l_pos {
                if !q.pos_seeds.contains(e) {
                    assert!(!ql.l_neg.contains(e), "entity in both mined lists");
                }
            }
            // Outside entities really are outside the fine class.
            for e in &ql.outside {
                assert_ne!(world.entity(*e).class, Some(u.fine));
            }
        }
    }

    #[test]
    fn mining_is_deterministic() {
        let world = World::generate(WorldConfig::tiny()).unwrap();
        let ret = RetExpan::train(
            &world,
            EncoderConfig {
                epochs: 0,
                ..EncoderConfig::default()
            },
            RetExpanConfig::default(),
        );
        let oracle = KnowledgeOracle::new(&world, OracleConfig::default());
        let a = mine_lists(&world, &ret, &oracle, 20, 10);
        let b = mine_lists(&world, &ret, &oracle, 20, 10);
        assert_eq!(a.queries.len(), b.queries.len());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.l_pos, y.l_pos);
            assert_eq!(x.l_neg, y.l_neg);
        }
    }
}
