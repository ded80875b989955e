//! Table 2 — main experiment: all baselines and both proposed frameworks
//! with their enhancement strategies, reported as Pos↑/Neg↓/Comb↑ ×
//! MAP/P @ {10,20,50,100} + Avg.

use std::collections::BTreeMap;
use ultra_bench::{dump_json, world_from_env, Method, Suite};
use ultra_eval::{MetricReport, TableWriter};

fn main() {
    let mut suite = Suite::new(world_from_env());
    let mut table = TableWriter::new(vec![
        "Method", "Type", "M@10", "M@20", "M@50", "M@100", "P@10", "P@20", "P@50", "P@100", "Avg",
    ]);
    let mut json: BTreeMap<String, MetricReport> = BTreeMap::new();
    for method in Method::ALL {
        let report = method.evaluate(&mut suite);
        push_block(&mut table, method.name(), &report);
        json.insert(method.name().to_string(), report);
    }
    println!("\nTable 2 — Main experiment results");
    println!("{}", table.render());
    dump_json("table2", &json);
}

fn push_block(table: &mut TableWriter, name: &str, r: &MetricReport) {
    let fmt = |v: f64| format!("{v:.2}");
    let row = |map: &[f64; 4], p: &[f64; 4], avg: f64| {
        let mut cells = vec![];
        cells.extend(map.iter().map(|&v| fmt(v)));
        cells.extend(p.iter().map(|&v| fmt(v)));
        cells.push(fmt(avg));
        cells
    };
    let mut pos = vec![name.to_string(), "Pos ↑".into()];
    pos.extend(row(&r.pos_map, &r.pos_p, r.avg_pos()));
    table.row(pos);
    let mut neg = vec![String::new(), "Neg ↓".into()];
    neg.extend(row(&r.neg_map, &r.neg_p, r.avg_neg()));
    table.row(neg);
    let mut comb = vec![String::new(), "Comb ↑".into()];
    comb.extend(row(&r.comb_map, &r.comb_p, r.avg_comb()));
    table.row(comb);
}
