//! The one ranked cut. MAP and NegMAP read list positions, so the
//! tie-break is part of the result.

use std::cmp::Ordering;

/// A score [`top_k`] ranks by, larger first.
pub trait Score: Copy {
    /// A total order: `total_cmp` for floats, value for counts.
    fn total_order(&self, other: &Self) -> Ordering;
}

macro_rules! impl_score {
    ($($t:ty => $cmp:ident),*) => {$(
        impl Score for $t {
            fn total_order(&self, other: &Self) -> Ordering {
                self.$cmp(other)
            }
        }
    )*};
}
impl_score!(f32 => total_cmp, f64 => total_cmp, u32 => cmp);

/// The best `k` of `pairs`, best first: score descending, then key
/// ascending. Keys are entity or token ids, or input positions where ties
/// keep input order (the beam prunes). A repeated key keeps only its best
/// entry. Entries equal under this order are bitwise equal, so no ranked
/// byte depends on how a sort places ties. Selects before it sorts.
pub fn top_k<K: Ord + Copy, S: Score>(mut pairs: Vec<(K, S)>, k: usize) -> Vec<(K, S)> {
    let rank = |a: &(K, S), b: &(K, S)| b.1.total_order(&a.1).then_with(|| a.0.cmp(&b.0));
    let n = k.min(pairs.len());
    if n < pairs.len() {
        pairs.select_nth_unstable_by(n, rank);
    }
    // `n` distinct keys in the cut are each their key's best entry.
    // Otherwise keep each key's best entry and cut again.
    pairs[..n].sort_unstable_by_key(|p| p.0);
    if pairs[..n].windows(2).any(|w| w[0].0 == w[1].0) {
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.total_order(&a.1)));
        pairs.dedup_by_key(|p| p.0);
        return top_k(pairs, k);
    }
    pairs.truncate(n);
    pairs.sort_unstable_by(rank);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference cut: a full stable sort by score descending then key
    /// ascending, the first occurrence of each key, truncated to `k`.
    fn reference<S: Copy>(
        mut pairs: Vec<(u32, S)>,
        k: usize,
        cmp: fn(&S, &S) -> Ordering,
    ) -> Vec<(u32, S)> {
        pairs.sort_by(|a, b| cmp(&b.1, &a.1).then_with(|| a.0.cmp(&b.0)));
        let mut seen = std::collections::BTreeSet::new();
        pairs.retain(|p| seen.insert(p.0));
        pairs.truncate(k);
        pairs
    }

    /// A handful of scores, so ties are common, with both zeros and both
    /// NaN signs.
    const PALETTE: [f32; 8] = [
        1.0,
        0.5,
        0.0,
        -0.0,
        f32::NAN,
        -f32::NAN,
        -1.0,
        f32::INFINITY,
    ];

    proptest! {
        #[test]
        fn top_k_matches_a_stable_full_sort(
            raw in prop::collection::vec((0u32..1000, 0usize..8), 0..40),
            narrow_keys in 0u8..2,
            cut in 0usize..5,
        ) {
            let key = |x: u32| if narrow_keys == 1 { x % 6 } else { x };
            let len = raw.len();
            let k = [0, 1, len.saturating_sub(1), len, len + 5][cut];

            let f32s: Vec<(u32, f32)> = raw.iter().map(|&(x, v)| (key(x), PALETTE[v])).collect();
            let bits32 = |v: Vec<(u32, f32)>| -> Vec<(u32, u32)> {
                v.into_iter().map(|(x, s)| (x, s.to_bits())).collect()
            };
            prop_assert_eq!(
                bits32(top_k(f32s.clone(), k)),
                bits32(reference(f32s.clone(), k, f32::total_cmp))
            );

            let f64s: Vec<(u32, f64)> = f32s.iter().map(|&(x, s)| (x, f64::from(s))).collect();
            let bits64 = |v: Vec<(u32, f64)>| -> Vec<(u32, u64)> {
                v.into_iter().map(|(x, s)| (x, s.to_bits())).collect()
            };
            prop_assert_eq!(
                bits64(top_k(f64s.clone(), k)),
                bits64(reference(f64s, k, f64::total_cmp))
            );

            let counts: Vec<(u32, u32)> = raw.iter().map(|&(x, v)| (key(x), v as u32)).collect();
            prop_assert_eq!(top_k(counts.clone(), k), reference(counts, k, u32::cmp));
        }
    }

    #[test]
    fn a_duplicate_in_the_cut_is_replaced_from_past_it() {
        let got = top_k(vec![(7u32, 0.8f32), (1, 0.9), (7, 0.95), (2, 0.5)], 2);
        assert_eq!(got, vec![(7, 0.95), (1, 0.9)]);
        let got = top_k(vec![(7u32, 0.8f32), (7, 0.95), (2, 0.5)], 2);
        assert_eq!(got, vec![(7, 0.95), (2, 0.5)]);
    }

    #[test]
    fn ties_break_by_ascending_key() {
        let got = top_k(vec![(3u32, 1.0f64), (0, 1.0), (2, 2.0), (1, 1.0)], 3);
        assert_eq!(got, vec![(2, 2.0), (0, 1.0), (1, 1.0)]);
    }
}
