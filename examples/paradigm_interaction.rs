//! Section 6.5's exploration: the retrieval-based and generation-based
//! paradigms reinforce each other. RetExpan recalls a wide candidate pool;
//! GenExpan re-expands inside it (and vice versa).
//!
//! ```sh
//! cargo run --release --example paradigm_interaction
//! ```

use ultrawiki::prelude::*;

fn main() {
    let world = World::generate(WorldConfig::small()).expect("world generation");
    let ret = RetExpan::train(&world, EncoderConfig::default(), RetExpanConfig::default());
    let gen = GenExpan::train(&world, GenExpanConfig::default());

    // Wide-recall RetExpan: no rerank, big top-k.
    let mut recall = ret.clone();
    recall.config.top_k = world.num_entities() / 10;
    recall.config.rerank = false;

    let solo_ret = evaluate_method(&world, |_u, q| ret.expand(&world, q));
    let solo_gen = evaluate_method(&world, |u, q| gen.expand(&world, u, q));
    let composed = evaluate_method(&world, |u, q| {
        let pool: Vec<EntityId> = recall
            .preliminary_list(&world, q, None)
            .entities()
            .collect();
        gen.restricted_to(&world, &pool).expand(&world, u, q)
    });
    let composed_rev = evaluate_method(&world, |u, q| {
        let pool: Vec<EntityId> = gen
            .expand(&world, u, q)
            .entities()
            .filter(|e| e.index() < world.num_entities())
            .collect();
        ret.expand_restricted(&world, q, Some(&pool))
    });

    println!("CombMAP avg over {} queries:", solo_ret.num_queries);
    println!("  RetExpan alone        {:.2}", solo_ret.avg_comb_map());
    println!("  GenExpan alone        {:.2}", solo_gen.avg_comb_map());
    println!("  RetExpan -> GenExpan  {:.2}", composed.avg_comb_map());
    println!("  GenExpan -> RetExpan  {:.2}", composed_rev.avg_comb_map());
    println!(
        "\nEach paradigm contributes what the other lacks: dense-similarity \
         recall (retrieval) and knowledge-guided precision (generation)."
    );
}
