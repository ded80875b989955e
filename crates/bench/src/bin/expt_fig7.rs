//! Figure 7 — parameter analysis: label smoothing η and segment length l
//! (RetExpan); mined-list size |L_pos|=|L_neg| (contrastive strategy);
//! Top-p and segment length (GenExpan).

use std::collections::BTreeMap;
use ultra_bench::{dump_json, methods, world_from_env, Suite};
use ultra_embed::{EncoderConfig, PairConfig};
use ultra_eval::{evaluate_method, MetricReport, TableWriter};
use ultra_retexpan::{RetExpan, RetExpanConfig};

fn main() {
    let mut suite = Suite::new(world_from_env());
    let mut json: BTreeMap<String, MetricReport> = BTreeMap::new();

    // (a) Label smoothing η.
    let mut t = TableWriter::new(vec!["eta", "PosMAP", "NegMAP", "CombMAP"]);
    for eta in [0.0f32, 0.05, 0.075, 0.15, 0.3] {
        let model = RetExpan::train(
            &suite.world,
            EncoderConfig::default().with_eta(eta),
            RetExpanConfig::default(),
        );
        let r = evaluate_method(&suite.world, |_u, q| model.expand(&suite.world, q));
        t.row(vec![
            format!("{eta}"),
            format!("{:.2}", r.avg_pos_map()),
            format!("{:.2}", r.avg_neg_map()),
            format!("{:.2}", r.avg_comb_map()),
        ]);
        json.insert(format!("eta={eta}"), r);
    }
    println!("\nFigure 7a — RetExpan label smoothing η");
    println!("{}", t.render());

    // (b) Segment length l for RetExpan (0 = naive global re-rank).
    let ret = suite.retexpan();
    let mut t = TableWriter::new(vec!["l", "PosMAP", "NegMAP", "CombMAP"]);
    for l in [5usize, 10, 20, 50, 100, 0] {
        let mut model: RetExpan = (*ret).clone();
        model.config.segment_len = l;
        let r = evaluate_method(&suite.world, |_u, q| model.expand(&suite.world, q));
        let label = if l == 0 {
            "global".to_string()
        } else {
            l.to_string()
        };
        t.row(vec![
            label.clone(),
            format!("{:.2}", r.avg_pos_map()),
            format!("{:.2}", r.avg_neg_map()),
            format!("{:.2}", r.avg_comb_map()),
        ]);
        json.insert(format!("ret_l={label}"), r);
    }
    println!("Figure 7b — RetExpan re-ranking segment length l");
    println!("{}", t.render());

    // (c) Mined-list size |L_pos| = |L_neg|.
    let mut t = TableWriter::new(vec!["|L|", "PosMAP", "NegMAP", "CombMAP"]);
    for cap in [5usize, 10, 20, 40] {
        let model = methods::retexpan_contrast_sized(&mut suite, &PairConfig::default(), cap);
        let r = evaluate_method(&suite.world, |_u, q| model.expand(&suite.world, q));
        t.row(vec![
            cap.to_string(),
            format!("{:.2}", r.avg_pos_map()),
            format!("{:.2}", r.avg_neg_map()),
            format!("{:.2}", r.avg_comb_map()),
        ]);
        json.insert(format!("list_cap={cap}"), r);
    }
    println!("Figure 7c — Contrastive mined-list size");
    println!("{}", t.render());

    // (d) GenExpan Top-p.
    let mut t = TableWriter::new(vec!["top-p", "PosMAP", "NegMAP", "CombMAP"]);
    for p in [0.5f64, 0.6, 0.7, 0.8, 0.9] {
        let model = methods::genexpan_with(&mut suite, |g| g.config.top_p_frac = p);
        let r = evaluate_method(&suite.world, |u, q| model.expand(&suite.world, u, q));
        t.row(vec![
            format!("{p}"),
            format!("{:.2}", r.avg_pos_map()),
            format!("{:.2}", r.avg_neg_map()),
            format!("{:.2}", r.avg_comb_map()),
        ]);
        json.insert(format!("top_p={p}"), r);
    }
    println!("Figure 7d — GenExpan Top-p");
    println!("{}", t.render());

    // (e) GenExpan segment length.
    let mut t = TableWriter::new(vec!["l", "PosMAP", "NegMAP", "CombMAP"]);
    for l in [5usize, 10, 20, 50, 0] {
        let model = methods::genexpan_with(&mut suite, |g| g.config.segment_len = l);
        let r = evaluate_method(&suite.world, |u, q| model.expand(&suite.world, u, q));
        let label = if l == 0 {
            "global".to_string()
        } else {
            l.to_string()
        };
        t.row(vec![
            label.clone(),
            format!("{:.2}", r.avg_pos_map()),
            format!("{:.2}", r.avg_neg_map()),
            format!("{:.2}", r.avg_comb_map()),
        ]);
        json.insert(format!("gen_l={label}"), r);
    }
    println!("Figure 7e — GenExpan re-ranking segment length l");
    println!("{}", t.render());

    dump_json("fig7", &json);
}
