//! The evaluation harness: runs an expansion function over a world's
//! queries and aggregates metrics.

use crate::metrics::QueryEval;
use crate::report::MetricReport;
use std::collections::HashSet;
use ultra_core::{EntityId, Query, RankedList, UltraClass};
use ultra_data::World;
use ultra_par::Pool;

/// Seed-free ground truth for one query: `(P, N)`.
///
/// Seeds are part of the input, not of the answer, so they are removed from
/// both target sets; the harness also removes them from the ranked list.
pub fn ground_truth_for(
    ultra: &UltraClass,
    query: &Query,
) -> (HashSet<EntityId>, HashSet<EntityId>) {
    let pos = ultra
        .pos_targets
        .iter()
        .copied()
        .filter(|e| !query.is_seed(*e))
        .collect();
    let neg = ultra
        .neg_targets
        .iter()
        .copied()
        .filter(|e| !query.is_seed(*e))
        .collect();
    (pos, neg)
}

/// Evaluates `expand` on every query of the world.
///
/// The expansion function receives `(ultra class, query)` and returns a
/// ranked candidate list; seeds are stripped from the result before
/// scoring (methods may also strip them themselves).
pub fn evaluate_method<F>(world: &World, expand: F) -> MetricReport
where
    F: FnMut(&UltraClass, &Query) -> RankedList,
{
    evaluate_method_filtered(world, |_| true, expand)
}

/// Like [`evaluate_method`], restricted to ultra classes passing `keep` —
/// the partitioned comparisons of Tables 4 and 6.
pub fn evaluate_method_filtered<P, F>(world: &World, keep: P, mut expand: F) -> MetricReport
where
    P: Fn(&UltraClass) -> bool,
    F: FnMut(&UltraClass, &Query) -> RankedList,
{
    let mut evals = Vec::new();
    for u in &world.ultra_classes {
        if !keep(u) {
            continue;
        }
        for q in &u.queries {
            let seeds: Vec<EntityId> = q.all_seeds().collect();
            let list = expand(u, q).without(&seeds);
            let (pos, neg) = ground_truth_for(u, q);
            evals.push(QueryEval::compute(&list, &pos, &neg));
        }
    }
    MetricReport::aggregate(&evals)
}

/// Parallel [`evaluate_method`]: every `(class, query)` pair is expanded and
/// scored on its own `ultra-par` work item. Requires `Fn` (no per-call
/// mutation) because calls run concurrently; results aggregate in query
/// order, so the report is byte-identical to the sequential harness at any
/// thread count.
pub fn evaluate_method_par<F>(world: &World, pool: &Pool, expand: F) -> MetricReport
where
    F: Fn(&UltraClass, &Query) -> RankedList + Sync,
{
    evaluate_method_filtered_par(world, pool, |_| true, expand)
}

/// Parallel [`evaluate_method_filtered`]; see [`evaluate_method_par`].
pub fn evaluate_method_filtered_par<P, F>(
    world: &World,
    pool: &Pool,
    keep: P,
    expand: F,
) -> MetricReport
where
    P: Fn(&UltraClass) -> bool,
    F: Fn(&UltraClass, &Query) -> RankedList + Sync,
{
    let pairs: Vec<(&UltraClass, &Query)> = world
        .ultra_classes
        .iter()
        .filter(|u| keep(u))
        .flat_map(|u| u.queries.iter().map(move |q| (u, q)))
        .collect();
    // Queries are heavyweight (a full expansion each), so fan out per item
    // rather than in length-derived chunks.
    let evals = pool.map_ordered_each(&pairs, |&(u, q)| {
        let seeds: Vec<EntityId> = q.all_seeds().collect();
        let list = expand(u, q).without(&seeds);
        let (pos, neg) = ground_truth_for(u, q);
        QueryEval::compute(&list, &pos, &neg)
    });
    MetricReport::aggregate(&evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_data::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::tiny()).unwrap()
    }

    /// An oracle expander that ranks all positive targets first — the
    /// ceiling every real method sits below.
    fn oracle_expand(u: &UltraClass, _q: &Query) -> RankedList {
        let mut entries: Vec<(EntityId, f32)> = Vec::new();
        for (i, &e) in u.pos_targets.iter().enumerate() {
            entries.push((e, 1000.0 - i as f32));
        }
        for (i, &e) in u.neg_targets.iter().enumerate() {
            entries.push((e, -(i as f32)));
        }
        RankedList::from_scores(entries)
    }

    #[test]
    fn oracle_expander_scores_perfect_pos_map() {
        let w = world();
        let r = evaluate_method(&w, oracle_expand);
        assert!(r.pos_map[0] > 99.0, "PosMAP@10 = {}", r.pos_map[0]);
        assert!(r.num_queries > 0);
    }

    #[test]
    fn reversed_oracle_scores_high_neg_metrics() {
        let w = world();
        let r = evaluate_method(&w, |u, q| {
            let l = oracle_expand(u, q);
            // Reverse: negative targets first.
            let mut entries = l.entries().to_vec();
            entries.reverse();
            let n = entries.len() as f32;
            RankedList::from_sorted(
                entries
                    .into_iter()
                    .enumerate()
                    .map(|(i, (e, _))| (e, n - i as f32))
                    .collect(),
            )
        });
        assert!(r.neg_map[0] > 50.0, "NegMAP@10 = {}", r.neg_map[0]);
        assert!(r.avg_comb() < 60.0);
    }

    #[test]
    fn seeds_are_excluded_from_scoring() {
        let w = world();
        // An expander that returns ONLY the seeds should score zero.
        let r = evaluate_method(&w, |_u, q| {
            RankedList::from_scores(q.all_seeds().map(|e| (e, 1.0)).collect())
        });
        assert_eq!(r.pos_map[0], 0.0);
        assert_eq!(r.neg_map[0], 0.0);
    }

    #[test]
    fn filtered_evaluation_restricts_queries() {
        let w = world();
        let all = evaluate_method(&w, oracle_expand);
        let some = evaluate_method_filtered(&w, |u| u.arity() == (1, 1), oracle_expand);
        assert!(some.num_queries <= all.num_queries);
        assert!(some.num_queries > 0);
    }

    #[test]
    fn parallel_harness_matches_sequential_at_any_thread_count() {
        let w = world();
        let seq = evaluate_method(&w, oracle_expand);
        for t in [1usize, 2, 8] {
            let par = evaluate_method_par(&w, &Pool::new(t), oracle_expand);
            assert_eq!(par.num_queries, seq.num_queries);
            for (a, b) in seq.pos_map.iter().zip(&par.pos_map) {
                assert_eq!(a.to_bits(), b.to_bits(), "PosMAP diverged at {t} threads");
            }
            for (a, b) in seq.neg_map.iter().zip(&par.neg_map) {
                assert_eq!(a.to_bits(), b.to_bits(), "NegMAP diverged at {t} threads");
            }
            let filt = evaluate_method_filtered_par(&w, &Pool::new(t), |u| u.arity() == (1, 1), {
                oracle_expand
            });
            let filt_seq = evaluate_method_filtered(&w, |u| u.arity() == (1, 1), oracle_expand);
            assert_eq!(filt.num_queries, filt_seq.num_queries);
        }
    }

    #[test]
    fn ground_truth_excludes_seeds() {
        let w = world();
        let u = &w.ultra_classes[0];
        let q = &u.queries[0];
        let (pos, neg) = ground_truth_for(u, q);
        for s in q.all_seeds() {
            assert!(!pos.contains(&s));
            assert!(!neg.contains(&s));
        }
        assert_eq!(pos.len(), u.pos_targets.len() - q.pos_seeds.len());
    }
}
