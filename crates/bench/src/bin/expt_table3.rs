//! Table 3 — module ablations: RetExpan without entity prediction;
//! GenExpan without the prefix constraint and without further pre-training.
//! Reported as CombMAP@{10,20,50,100} + Avg.

use std::collections::BTreeMap;
use ultra_bench::{dump_json, fmt, methods, world_from_env, Suite};
use ultra_embed::EncoderConfig;
use ultra_eval::{evaluate_method, MetricReport, TableWriter};
use ultra_genexpan::{GenExpan, GenExpanConfig};
use ultra_retexpan::{RetExpan, RetExpanConfig};

fn main() {
    let mut suite = Suite::new(world_from_env());
    let mut t = TableWriter::new(vec!["Method", "C@10", "C@20", "C@50", "C@100", "Avg"]);
    let mut json: BTreeMap<String, MetricReport> = BTreeMap::new();

    // RetExpan and its entity-prediction ablation (untrained encoder =
    // random-projection bag features, the analogue of skipping the
    // entity-prediction fine-tuning on top of raw features).
    let ret = suite.retexpan();
    let r = evaluate_method(&suite.world, |_u, q| ret.expand(&suite.world, q));
    fmt::push_comb_row(&mut t, "RetExpan", &r);
    json.insert("RetExpan".into(), r);

    let no_ep = RetExpan::train(
        &suite.world,
        EncoderConfig {
            epochs: 0,
            ..EncoderConfig::default()
        },
        RetExpanConfig::default(),
    );
    let r = evaluate_method(&suite.world, |_u, q| no_ep.expand(&suite.world, q));
    fmt::push_comb_row(&mut t, "- Entity prediction", &r);
    json.insert("RetExpan - Entity prediction".into(), r);

    // GenExpan and its ablations.
    let gen = suite.genexpan();
    let r = evaluate_method(&suite.world, |u, q| gen.expand(&suite.world, u, q));
    fmt::push_comb_row(&mut t, "GenExpan", &r);
    json.insert("GenExpan".into(), r);

    let unconstrained = methods::genexpan_with(&mut suite, |g| g.config.constrained = false);
    let r = evaluate_method(&suite.world, |u, q| {
        unconstrained.expand(&suite.world, u, q)
    });
    fmt::push_comb_row(&mut t, "- Prefix constrain", &r);
    json.insert("GenExpan - Prefix constrain".into(), r);

    let no_pretrain = GenExpan::train(
        &suite.world,
        GenExpanConfig {
            further_pretrain: false,
            ..GenExpanConfig::default()
        },
    );
    let r = evaluate_method(&suite.world, |u, q| no_pretrain.expand(&suite.world, u, q));
    fmt::push_comb_row(&mut t, "- Further pretrain", &r);
    json.insert("GenExpan - Further pretrain".into(), r);

    println!("\nTable 3 — Module ablations (CombMAP)");
    println!("{}", t.render());
    dump_json("table3", &json);
}
