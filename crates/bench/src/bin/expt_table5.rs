//! Table 5 — ablation of the negative-seed entity re-ranking module:
//! ProbExpan gains the bolt-on, RetExpan and GenExpan lose theirs, with
//! Δ rows.

use std::collections::BTreeMap;
use ultra_baselines::ProbExpan;
use ultra_bench::{dump_json, fmt, world_from_env, Suite};
use ultra_eval::{evaluate_method, MetricReport, TableWriter};
use ultra_genexpan::GenExpan;
use ultra_retexpan::RetExpan;

fn main() {
    let mut suite = Suite::new(world_from_env());
    let mut t = TableWriter::new(fmt::map_headers());
    let mut json: BTreeMap<String, MetricReport> = BTreeMap::new();

    // ProbExpan: plain vs + neg rerank.
    let encoder = suite.encoder();
    let mut pe = ProbExpan::from_encoder(&suite.world, &encoder);
    let plain = evaluate_method(&suite.world, |_u, q| pe.expand(&suite.world, q));
    pe.neg_rerank = true;
    let rr = evaluate_method(&suite.world, |_u, q| pe.expand(&suite.world, q));
    fmt::push_map_rows(&mut t, "ProbExpan", &plain);
    fmt::push_map_rows(&mut t, "+ Neg Rerank", &rr);
    fmt::push_delta_rows(&mut t, "Δ", &plain, &rr);
    json.insert("ProbExpan".into(), plain);
    json.insert("ProbExpan + Neg Rerank".into(), rr);

    // RetExpan: with vs without rerank.
    let ret = suite.retexpan();
    let with = evaluate_method(&suite.world, |_u, q| ret.expand(&suite.world, q));
    let mut no_rr: RetExpan = (*ret).clone();
    no_rr.config.rerank = false;
    let without = evaluate_method(&suite.world, |_u, q| no_rr.expand(&suite.world, q));
    fmt::push_map_rows(&mut t, "RetExpan (Ours)", &with);
    fmt::push_map_rows(&mut t, "- Neg Rerank", &without);
    fmt::push_delta_rows(&mut t, "Δ", &with, &without);
    json.insert("RetExpan".into(), with);
    json.insert("RetExpan - Neg Rerank".into(), without);

    // GenExpan: with vs without rerank.
    let gen = suite.genexpan();
    let with = evaluate_method(&suite.world, |u, q| gen.expand(&suite.world, u, q));
    let mut no_rr: GenExpan = (*gen).clone();
    no_rr.config.rerank = false;
    let without = evaluate_method(&suite.world, |u, q| no_rr.expand(&suite.world, u, q));
    fmt::push_map_rows(&mut t, "GenExpan (Ours)", &with);
    fmt::push_map_rows(&mut t, "- Neg Rerank", &without);
    fmt::push_delta_rows(&mut t, "Δ", &with, &without);
    json.insert("GenExpan".into(), with);
    json.insert("GenExpan - Neg Rerank".into(), without);

    println!("\nTable 5 — Negative-seed re-ranking ablation (MAP)");
    println!("{}", t.render());
    dump_json("table5", &json);
}
