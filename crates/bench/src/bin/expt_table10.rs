//! Table 10 — interaction of the two paradigms: model A recalls the top
//! 1000 candidates, model B runs restricted to them.

use std::collections::BTreeMap;
use ultra_bench::{dump_json, fmt, world_from_env, Suite};
use ultra_core::EntityId;
use ultra_eval::{evaluate_method, MetricReport, TableWriter};
use ultra_genexpan::GenExpan;

/// Recall budget handed from model A to model B (the paper uses 1000;
/// scaled down with the small profile's vocabulary).
fn recall_budget(num_entities: usize) -> usize {
    (num_entities / 10).clamp(200, 1000)
}

fn main() {
    let mut suite = Suite::new(world_from_env());
    let budget = recall_budget(suite.world.num_entities());
    eprintln!("[table10] recall budget = {budget}");
    let mut t = TableWriter::new(fmt::map_headers());
    let mut json: BTreeMap<String, MetricReport> = BTreeMap::new();

    // Plain RetExpan and GenExpan.
    let ret = suite.retexpan();
    let gen = suite.genexpan();
    let r = evaluate_method(&suite.world, |_u, q| ret.expand(&suite.world, q));
    fmt::push_map_rows(&mut t, "RetExpan", &r);
    json.insert("RetExpan".into(), r);
    let r = evaluate_method(&suite.world, |u, q| gen.expand(&suite.world, u, q));
    fmt::push_map_rows(&mut t, "GenExpan", &r);
    json.insert("GenExpan".into(), r);

    // RetExpan + GenExpan: RetExpan recalls, a pooled GenExpan expands.
    // (The candidate pool differs per query, so the trained GenExpan is
    // restricted per query: a trie over the recalled entities, same LM.)
    let mut wide_ret = (*ret).clone();
    wide_ret.config.top_k = budget;
    wide_ret.config.rerank = false;
    let r = evaluate_method(&suite.world, |u, q| {
        let pool: Vec<EntityId> = wide_ret
            .preliminary_list(&suite.world, q, None)
            .entities()
            .collect();
        gen.restricted_to(&suite.world, &pool)
            .expand(&suite.world, u, q)
    });
    fmt::push_map_rows(&mut t, "RetExpan + GenExpan", &r);
    json.insert("RetExpan + GenExpan".into(), r);

    // GenExpan + RetExpan: GenExpan recalls (large target), RetExpan
    // re-scores within the recalled pool.
    let mut wide_gen: GenExpan = (*gen).clone();
    wide_gen.config.target_size = budget;
    wide_gen.config.max_rounds = 80;
    wide_gen.config.rerank = false;
    let r = evaluate_method(&suite.world, |u, q| {
        let pool: Vec<EntityId> = wide_gen
            .expand(&suite.world, u, q)
            .entities()
            .filter(|e| e.index() < suite.world.num_entities())
            .collect();
        ret.expand_restricted(&suite.world, q, Some(&pool))
    });
    fmt::push_map_rows(&mut t, "GenExpan + RetExpan", &r);
    json.insert("GenExpan + RetExpan".into(), r);

    println!("\nTable 10 — Paradigm interaction (MAP)");
    println!("{}", t.render());
    dump_json("table10", &json);
}
