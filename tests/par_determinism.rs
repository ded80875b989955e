//! Thread-count invariance: the `ultra-par` execution layer must produce
//! *byte-identical* output at every worker count, not merely statistically
//! equivalent output. Chunk boundaries are a pure function of input length
//! and reductions combine in a fixed tree order, so `threads=1` and
//! `threads=8` walk the same arithmetic — these tests pin that contract at
//! the pipeline level, where a violation would actually corrupt results.

use ultrawiki::embed::contrastive::train_contrastive;
use ultrawiki::prelude::*;

fn world() -> World {
    World::generate(WorldConfig::tiny().with_seed(42)).expect("world generation")
}

fn quick_encoder() -> EncoderConfig {
    EncoderConfig {
        epochs: 2,
        dim: 32,
        neg_samples: 16,
        max_sentences_per_entity: 6,
        ..EncoderConfig::default()
    }
}

/// Raw IEEE-754 bits of every `(entity, score)` pair in query order — any
/// last-ulp drift between thread counts fails the comparison.
fn run_fingerprint(world: &World, expand: impl Fn(&Query) -> RankedList) -> String {
    world
        .queries()
        .map(|(_, q)| {
            expand(q)
                .entries()
                .iter()
                .map(|(e, s)| format!("{}:{:08x}", e.index(), s.to_bits()))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn ranked_lists_are_byte_identical_at_every_thread_count() {
    let world = world();
    let model = RetExpan::train(&world, quick_encoder(), RetExpanConfig::default());
    let mut prints = Vec::new();
    for threads in [1usize, 2, 8] {
        set_threads(threads);
        prints.push((
            threads,
            run_fingerprint(&world, |q| model.expand(&world, q)),
        ));
    }
    set_threads(0);
    assert!(!prints[0].1.is_empty(), "fingerprint must cover queries");
    for (threads, fp) in &prints[1..] {
        assert_eq!(
            &prints[0].1, fp,
            "RetExpan output diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn contrastive_loss_curves_are_bit_identical_at_every_thread_count() {
    let world = world();
    let model = RetExpan::train(&world, quick_encoder(), RetExpanConfig::default());
    let oracle = KnowledgeOracle::new(&world, OracleConfig::default());
    let mined = mine_lists(&world, &model, &oracle, 10, 5);
    let pair_cfg = PairConfig::default();

    let mut curves = Vec::new();
    for threads in [1usize, 2, 8] {
        set_threads(threads);
        let mut enc = model.encoder.clone();
        let losses = train_contrastive(&mut enc, &world, &mined, &pair_cfg);
        curves.push((threads, losses));
    }
    set_threads(0);
    let (_, base) = &curves[0];
    assert!(!base.is_empty(), "training must run at least one batch");
    for (threads, losses) in &curves[1..] {
        assert_eq!(base.len(), losses.len());
        for (i, (a, b)) in base.iter().zip(losses).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "loss curve bit-diverged at batch {i} between 1 and {threads} threads \
                 ({a} vs {b})"
            );
        }
    }
}

mod fused_training_props {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use ultrawiki::core::TokenId;
    use ultrawiki::embed::{contrastive_batch_step_pooled, ContrastiveExample};
    use ultrawiki::nn::TrainWorkspaces;

    /// One shared frozen base; every case mutates clones only.
    fn base_encoder() -> &'static (World, EntityEncoder) {
        static BASE: OnceLock<(World, EntityEncoder)> = OnceLock::new();
        BASE.get_or_init(|| {
            let w = world();
            let enc = EntityEncoder::new(&w, quick_encoder());
            (w, enc)
        })
    }

    type RawExample = (Vec<u32>, Vec<u32>, Vec<Vec<u32>>, u8);

    fn raw_batches() -> impl Strategy<Value = Vec<RawExample>> {
        let bag = || prop::collection::vec(0u32..10_000, 1..8);
        prop::collection::vec(
            (bag(), bag(), prop::collection::vec(bag(), 1..5), 0u8..3),
            1..13,
        )
    }

    fn build_examples(raw: &[RawExample], vocab: usize) -> Vec<ContrastiveExample> {
        let tok = |t: u32| TokenId::new(t % vocab as u32);
        raw.iter()
            .map(|(a, p, ns, wmode)| {
                let neg_bags: Vec<Vec<TokenId>> = ns
                    .iter()
                    .map(|b| b.iter().map(|&t| tok(t)).collect())
                    .collect();
                let weights = if *wmode == 0 {
                    None
                } else {
                    Some(
                        (0..neg_bags.len())
                            .map(|k| 1.0 + f32::from(*wmode) * 0.25 * (k as f32 + 1.0))
                            .collect(),
                    )
                };
                ContrastiveExample {
                    anchor_bag: a.iter().map(|&t| tok(t)).collect(),
                    pos_bag: p.iter().map(|&t| tok(t)).collect(),
                    neg_bags,
                    weights,
                }
            })
            .collect()
    }

    proptest! {
        /// The fused batched gradient step through the persistent worker
        /// team — at one thread (no workers: every chunk runs inline) and
        /// at several — must be bitwise identical to the per-example
        /// reference step, across batch sizes, negative counts,
        /// weighted/unweighted examples, and *repeated workspace reuse*
        /// (the middle half-batch step shrinks every buffer, so stale rows
        /// would leak into the third step if reuse were unsound).
        #[test]
        fn fused_batched_step_is_bit_identical_to_reference(raw in raw_batches()) {
            let (w, base) = base_encoder();
            let examples = build_examples(&raw, w.vocab.len());
            let half = &examples[..examples.len().div_ceil(2)];

            let mut enc_ref = base.clone();
            let ref_losses = [
                enc_ref.contrastive_batch_step_reference(&examples),
                enc_ref.contrastive_batch_step_reference(half),
                enc_ref.contrastive_batch_step_reference(&examples),
            ];
            let ref_fp = enc_ref.params_fingerprint();

            for threads in [1usize, 2, 8] {
                let pool = Pool::new(threads);
                let mut enc_pool = base.clone();
                let mut wss = TrainWorkspaces::new(4);
                let pool_losses = [
                    contrastive_batch_step_pooled(&mut enc_pool, &examples, &pool, &mut wss),
                    contrastive_batch_step_pooled(&mut enc_pool, half, &pool, &mut wss),
                    contrastive_batch_step_pooled(&mut enc_pool, &examples, &pool, &mut wss),
                ];
                for (a, b) in ref_losses.iter().zip(&pool_losses) {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "pooled loss diverged at {} threads: {} vs {}",
                        threads,
                        a,
                        b
                    );
                }
                prop_assert_eq!(
                    enc_pool.params_fingerprint(),
                    ref_fp,
                    "params diverged at {} threads",
                    threads
                );
            }
        }
    }
}

#[test]
fn parallel_eval_matches_sequential_eval_bitwise() {
    let world = world();
    let model = RetExpan::train(&world, quick_encoder(), RetExpanConfig::default());
    let seq = evaluate_method(&world, |_u, q| model.expand(&world, q));
    for threads in [1usize, 2, 8] {
        let par = evaluate_method_par(&world, &Pool::new(threads), |_u, q| model.expand(&world, q));
        assert_eq!(seq.num_queries, par.num_queries);
        for k in 0..seq.pos_map.len() {
            assert_eq!(
                seq.pos_map[k].to_bits(),
                par.pos_map[k].to_bits(),
                "pos MAP@{k} diverged at {threads} threads"
            );
            assert_eq!(
                seq.neg_map[k].to_bits(),
                par.neg_map[k].to_bits(),
                "neg MAP@{k} diverged at {threads} threads"
            );
        }
    }
}
