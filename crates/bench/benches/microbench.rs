//! Criterion micro-benchmarks of the performance-critical kernels:
//! context encoding, BM25 search, trie-constrained beam steps, segmented
//! negative-seed re-ranking, and end-to-end per-query expansion of both
//! frameworks.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;
use ultra_core::rerank_by_negatives;
use ultra_data::{World, WorldConfig};
use ultra_embed::{EncoderConfig, EntityEncoder};
use ultra_genexpan::{GenExpan, GenExpanConfig};
use ultra_lm::{BeamParams, NgramLm, TrieDecoder};
use ultra_retexpan::{RetExpan, RetExpanConfig};
use ultra_text::{Bm25Index, Bm25Params, PrefixTrie};

fn bench_world() -> World {
    World::generate(WorldConfig::tiny()).expect("world")
}

fn bench_encoding(c: &mut Criterion) {
    let world = bench_world();
    let enc = EntityEncoder::new(
        &world,
        EncoderConfig {
            epochs: 0,
            ..EncoderConfig::default()
        },
    );
    let e = world.classes[0].entities[0];
    let sid = world.corpus.sentences_of(e)[0];
    let sentence = world.corpus.sentence(sid);
    c.bench_function("encode_context_bag", |b| {
        b.iter(|| {
            let bag = enc.context_bag(&world, sentence, e);
            std::hint::black_box(enc.encode_bag(&bag))
        })
    });
}

fn bench_bm25(c: &mut Criterion) {
    let world = bench_world();
    let docs: Vec<&[ultra_core::TokenId]> = world
        .corpus
        .sentences()
        .iter()
        .map(|s| s.tokens.as_slice())
        .collect();
    let index = Bm25Index::build(docs.iter().copied(), Bm25Params::default());
    let query = world
        .corpus
        .sentence(ultra_core::SentenceId::new(0))
        .tokens
        .clone();
    c.bench_function("bm25_search_top20", |b| {
        b.iter(|| std::hint::black_box(index.search(&query, 20)))
    });
}

fn bench_beam(c: &mut Criterion) {
    let world = bench_world();
    let mut lm = NgramLm::new(
        5,
        ultra_lm::Smoothing::AbsoluteDiscount(0.75),
        world.vocab.len(),
    );
    let docs = world.further_pretrain_docs();
    lm.train(docs.iter().map(Vec::as_slice));
    let mut trie = PrefixTrie::new();
    for e in &world.entities {
        trie.insert(&world.name_tokens[e.id.index()], e.id);
    }
    // The decoder GenExpan builds: the prompt ends in the separator, so
    // this times the sparse root step serving runs.
    let decoder = TrieDecoder::new(Arc::new(lm), trie, world.list_sep);
    let q = &world.ultra_classes[0].queries[0];
    let mut prompt = Vec::new();
    for &s in q.pos_seeds.iter().take(3) {
        prompt.extend_from_slice(&world.name_tokens[s.index()]);
        prompt.push(world.list_sep);
    }
    c.bench_function("constrained_beam_40", |b| {
        b.iter(|| std::hint::black_box(decoder.constrained(&prompt, BeamParams::default())))
    });
}

/// The re-rank every method runs: `sco^neg` batch-scored in list order,
/// then sorted within segments of 20.
fn bench_rerank(c: &mut Criterion) {
    let list: ultra_core::RankedList = (0..200u32)
        .map(|i| (ultra_core::EntityId::new(i), 200.0 - i as f32))
        .collect();
    let neg: Vec<f32> = list.entities().map(|e| (e.0 % 17) as f32).collect();
    c.bench_function("rerank_by_negatives_200", |b| {
        b.iter(|| std::hint::black_box(rerank_by_negatives(&list, 20, &neg)))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let world = bench_world();
    let ret = RetExpan::train(
        &world,
        EncoderConfig {
            epochs: 2,
            dim: 48,
            neg_samples: 48,
            ..EncoderConfig::default()
        },
        RetExpanConfig::default(),
    );
    let gen = GenExpan::train(&world, GenExpanConfig::default());
    let (u, q) = world.queries().next().unwrap();
    c.bench_function("retexpan_expand_query", |b| {
        b.iter_batched(
            || q.clone(),
            |q| std::hint::black_box(ret.expand(&world, &q)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("genexpan_expand_query", |b| {
        b.iter_batched(
            || q.clone(),
            |q| std::hint::black_box(gen.expand(&world, u, &q)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_encoding, bench_bm25, bench_beam, bench_rerank, bench_end_to_end
}
criterion_main!(benches);
