//! Future-work extensions (beyond the paper's tables):
//!
//! * **hard-negative weighting** in contrastive learning — reproduces the
//!   Section 6.2 claim that "directly increasing the weights of negative
//!   terms … is ineffective" because mined lists contain annotation errors;
//! * **decoupled base/attribute representations** — the MoE-inspired
//!   direction of Section 6.2;
//! * **dynamic retrieval augmentation** — the query-adaptive knowledge
//!   strategy called for in Section 6.4.2, compared against the paper's
//!   static RA.

use std::collections::BTreeMap;
use ultra_bench::{dump_json, fmt, methods, world_from_env, Suite};
use ultra_embed::{Augmentation, PairConfig};
use ultra_eval::{evaluate_method, MetricReport, TableWriter};
use ultra_retexpan::{DecoupledRetExpan, DynamicRaRetExpan};

fn main() {
    let mut suite = Suite::new(world_from_env());
    let mut json: BTreeMap<String, MetricReport> = BTreeMap::new();

    // ── (a) Hard-negative weighting ──────────────────────────────────────
    let mut t = TableWriter::new(fmt::map_headers());
    for weight in [1.0f32, 2.0, 4.0] {
        let pc = PairConfig {
            hard_weight: weight,
            ..PairConfig::default()
        };
        let model = methods::retexpan_contrast(&mut suite, &pc);
        let r = evaluate_method(&suite.world, |_u, q| model.expand(&suite.world, q));
        let label = format!("+Contrast (hard x{weight})");
        fmt::push_map_rows(&mut t, &label, &r);
        json.insert(label, r);
    }
    println!("\nExtension (a) — amplifying hard negatives in InfoNCE (MAP)");
    println!("{}", t.render());

    // ── (b) Decoupled representations ────────────────────────────────────
    let base = suite.retexpan();
    let mut t = TableWriter::new(fmt::map_headers());
    let r = evaluate_method(&suite.world, |_u, q| base.expand(&suite.world, q));
    fmt::push_map_rows(&mut t, "RetExpan", &r);
    json.insert("RetExpan".into(), r);
    for w in [0.3f32, 0.5, 0.7] {
        let mut dec = DecoupledRetExpan::new((*base).clone());
        dec.residual_weight = w;
        let r = evaluate_method(&suite.world, |_u, q| dec.expand(&suite.world, q));
        let label = format!("Decoupled (w={w})");
        fmt::push_map_rows(&mut t, &label, &r);
        json.insert(label, r);
    }
    println!("Extension (b) — decoupled base/attribute representations (MAP)");
    println!("{}", t.render());

    // ── (c) Dynamic vs static retrieval augmentation ─────────────────────
    let mut t = TableWriter::new(fmt::map_headers());
    let static_ra = methods::retexpan_ra(&mut suite, Augmentation::Introduction);
    let r = evaluate_method(&suite.world, |_u, q| static_ra.expand(&suite.world, q));
    fmt::push_map_rows(&mut t, "Static RA (paper)", &r);
    json.insert("Static RA".into(), r);
    let dyn_ra = DynamicRaRetExpan::new((*base).clone());
    let r = evaluate_method(&suite.world, |_u, q| dyn_ra.expand(&suite.world, q));
    fmt::push_map_rows(&mut t, "Dynamic RA (ext)", &r);
    json.insert("Dynamic RA".into(), r);
    println!("Extension (c) — static vs dynamic retrieval augmentation (MAP)");
    println!("{}", t.render());

    dump_json("extensions", &json);
}
