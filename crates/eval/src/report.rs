//! Aggregated metric reports shaped like the paper's result tables.

use crate::metrics::QueryEval;
use serde::{Deserialize, Serialize};

/// Macro-averaged metrics of one method — one Table 2 block
/// (Pos ↑ / Neg ↓ / Comb ↑ × MAP / P × @{10,20,50,100} + row averages).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricReport {
    /// `MAP@K`.
    pub pos_map: [f64; 4],
    /// `NegMAP@K` (lower is better).
    pub neg_map: [f64; 4],
    /// `P@K`.
    pub pos_p: [f64; 4],
    /// `NegP@K` (lower is better).
    pub neg_p: [f64; 4],
    /// `CombMAP@K = (MAP@K + 100 − NegMAP@K)/2`.
    pub comb_map: [f64; 4],
    /// `CombP@K = (P@K + 100 − NegP@K)/2`.
    pub comb_p: [f64; 4],
    /// Number of queries aggregated.
    pub num_queries: usize,
}

impl MetricReport {
    /// Aggregates per-query evaluations by macro-averaging (Eq. 8 averages
    /// AP over the query set `Q`).
    pub fn aggregate(per_query: &[QueryEval]) -> MetricReport {
        let n = per_query.len().max(1) as f64;
        let mut r = MetricReport {
            num_queries: per_query.len(),
            ..MetricReport::default()
        };
        for q in per_query {
            for i in 0..4 {
                r.pos_map[i] += q.pos_map[i] / n;
                r.neg_map[i] += q.neg_map[i] / n;
                r.pos_p[i] += q.pos_p[i] / n;
                r.neg_p[i] += q.neg_p[i] / n;
            }
        }
        for i in 0..4 {
            r.comb_map[i] = (r.pos_map[i] + 100.0 - r.neg_map[i]) / 2.0;
            r.comb_p[i] = (r.pos_p[i] + 100.0 - r.neg_p[i]) / 2.0;
        }
        r
    }

    /// Row average across the 8 MAP+P columns (the paper's `Avg` column).
    pub fn avg_pos(&self) -> f64 {
        (self.pos_map.iter().sum::<f64>() + self.pos_p.iter().sum::<f64>()) / 8.0
    }

    /// Average of the Neg row.
    pub fn avg_neg(&self) -> f64 {
        (self.neg_map.iter().sum::<f64>() + self.neg_p.iter().sum::<f64>()) / 8.0
    }

    /// Average of the Comb row.
    pub fn avg_comb(&self) -> f64 {
        (self.comb_map.iter().sum::<f64>() + self.comb_p.iter().sum::<f64>()) / 8.0
    }

    /// MAP-only averages (several analysis tables report MAP only).
    pub fn avg_pos_map(&self) -> f64 {
        self.pos_map.iter().sum::<f64>() / 4.0
    }

    /// MAP-only Neg average.
    pub fn avg_neg_map(&self) -> f64 {
        self.neg_map.iter().sum::<f64>() / 4.0
    }

    /// MAP-only Comb average.
    pub fn avg_comb_map(&self) -> f64 {
        self.comb_map.iter().sum::<f64>() / 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qe(pos: f64, neg: f64) -> QueryEval {
        QueryEval {
            pos_map: [pos; 4],
            neg_map: [neg; 4],
            pos_p: [pos; 4],
            neg_p: [neg; 4],
        }
    }

    #[test]
    fn aggregate_macro_averages() {
        let r = MetricReport::aggregate(&[qe(100.0, 0.0), qe(0.0, 100.0)]);
        assert!((r.pos_map[0] - 50.0).abs() < 1e-9);
        assert!((r.neg_map[0] - 50.0).abs() < 1e-9);
        assert!((r.comb_map[0] - 50.0).abs() < 1e-9);
        assert_eq!(r.num_queries, 2);
    }

    #[test]
    fn comb_rewards_high_pos_low_neg() {
        let good = MetricReport::aggregate(&[qe(80.0, 10.0)]);
        let bad = MetricReport::aggregate(&[qe(80.0, 60.0)]);
        assert!(good.avg_comb() > bad.avg_comb());
        assert!((good.comb_map[0] - 85.0).abs() < 1e-9);
    }

    #[test]
    fn empty_aggregate_is_all_fifty_comb() {
        let r = MetricReport::aggregate(&[]);
        assert_eq!(r.num_queries, 0);
        assert!((r.comb_map[0] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = MetricReport::aggregate(&[qe(62.5, 12.5), qe(40.0, 5.0)]);
        let json = serde_json::to_string(&r).expect("serialize");
        let back: MetricReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, r);
    }
}
