//! Segmented entity re-ranking with negative seed entities
//! (Section 5.1.1 "Entity Re-ranking", shared by RetExpan and GenExpan).
//!
//! Naively re-sorting the whole preliminary list ascending by `sco^neg`
//! "introduces a significant number of noisy entities": irrelevant entities
//! have *low* similarity to the negative seeds too, so a global sort floats
//! them to the top. Segmented re-ranking instead splits the list into
//! `⌈|L₀|/l⌉` consecutive segments and sorts only *within* each segment, so
//! re-ranking stays local and the preliminary (positive) ranking's coarse
//! structure survives.

use crate::ids::EntityId;
use crate::ranking::RankedList;

/// Re-ranks `list` in segments of `segment_len`, ordering each segment by
/// ascending negative score (entities most similar to the negative seeds
/// sink to the bottom of their segment). `neg[i]` is `sco^neg` of the
/// list's `i`-th entry, so callers batch-score the list in its own order.
///
/// `segment_len == 0` or `segment_len >= list.len()` degrades to the naive
/// global re-rank the paper warns about (used by the Figure 7 `l` sweep).
/// Returned scores are fresh rank-encoding values (`len-rank`), since the
/// re-ranked order no longer reflects the original similarity scores.
pub fn rerank_by_negatives(list: &RankedList, segment_len: usize, neg: &[f32]) -> RankedList {
    debug_assert_eq!(neg.len(), list.len(), "one negative score per entry");
    let mut scored: Vec<(EntityId, f32)> = list.entities().zip(neg.iter().copied()).collect();
    let n = scored.len();
    let seg = if segment_len == 0 {
        n.max(1)
    } else {
        segment_len
    };
    for chunk in scored.chunks_mut(seg) {
        // Ascending by neg similarity; entity id breaks ties for
        // determinism.
        chunk.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    }
    RankedList::from_sorted(
        scored
            .into_iter()
            .enumerate()
            .map(|(i, (e, _))| (e, (n - i) as f32))
            .collect(),
    )
}

/// [`rerank_by_negatives`] with `sco^neg` given per entity.
///
/// No library code calls it; it stays because `servebench` imports it.
pub fn segmented_rerank<F>(list: &RankedList, segment_len: usize, neg_score: F) -> RankedList
where
    F: Fn(EntityId) -> f32,
{
    let neg: Vec<f32> = list.entities().map(neg_score).collect();
    rerank_by_negatives(list, segment_len, &neg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eid(x: u32) -> EntityId {
        EntityId::new(x)
    }

    fn list(ids: &[u32]) -> RankedList {
        RankedList::from_sorted(
            ids.iter()
                .enumerate()
                .map(|(i, &x)| (eid(x), 100.0 - i as f32))
                .collect(),
        )
    }

    #[test]
    fn reranking_is_local_to_segments() {
        // neg score = entity id; segment 2.
        let l = list(&[3, 1, 4, 2]);
        let r = segmented_rerank(&l, 2, |e| e.0 as f32);
        let got: Vec<u32> = r.entities().map(|e| e.0).collect();
        // Segment [3,1] → [1,3]; segment [4,2] → [2,4].
        assert_eq!(got, vec![1, 3, 2, 4]);
    }

    #[test]
    fn zero_segment_len_is_global_sort() {
        let l = list(&[3, 1, 4, 2]);
        let r = segmented_rerank(&l, 0, |e| e.0 as f32);
        let got: Vec<u32> = r.entities().map(|e| e.0).collect();
        assert_eq!(got, vec![1, 2, 3, 4]);
    }

    #[test]
    fn segment_one_is_identity() {
        let l = list(&[3, 1, 4, 2]);
        let r = segmented_rerank(&l, 1, |e| e.0 as f32);
        let got: Vec<u32> = r.entities().map(|e| e.0).collect();
        assert_eq!(got, vec![3, 1, 4, 2]);
    }

    #[test]
    fn high_neg_similarity_sinks_within_segment() {
        let l = list(&[10, 11, 12, 13]);
        // Entity 10 is very similar to negative seeds.
        let r = segmented_rerank(&l, 4, |e| if e.0 == 10 { 9.0 } else { 0.0 });
        assert_eq!(r.rank_of(eid(10)), Some(3));
    }

    #[test]
    fn output_preserves_membership_and_length() {
        let l = list(&[5, 6, 7, 8, 9]);
        let r = segmented_rerank(&l, 3, |_| 0.0);
        assert_eq!(r.len(), 5);
        for e in l.entities() {
            assert!(r.rank_of(e).is_some());
        }
    }

    #[test]
    fn scores_are_read_in_list_order() {
        let l = list(&[3, 1, 4, 2]);
        let r = rerank_by_negatives(&l, 2, &[0.5, 0.9, 0.2, 0.1]);
        let got: Vec<u32> = r.entities().map(|e| e.0).collect();
        assert_eq!(got, vec![3, 1, 2, 4]);
    }

    #[test]
    fn empty_list_is_fine() {
        let r = segmented_rerank(&RankedList::default(), 10, |_| 0.0);
        assert!(r.is_empty());
    }
}
