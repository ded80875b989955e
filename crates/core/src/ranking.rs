//! Ranked expansion results.

use crate::ids::EntityId;
use crate::topk::top_k;
use serde::{Deserialize, Serialize};

/// A ranked list of candidate entities with scores, best first.
///
/// This is the output of every expansion framework and the input of every
/// metric. The invariant — scores non-increasing, entities unique — is
/// enforced by the constructors and checked by property tests.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RankedList {
    entries: Vec<(EntityId, f32)>,
}

/// Equality is *bit-exact*: two lists are equal iff they rank the same
/// entities in the same order with byte-identical IEEE-754 scores. This is
/// the determinism contract's notion of "the same output" (see
/// `tests/determinism.rs`), and it makes `Eq`/`Hash` lawful even though the
/// score type is `f32` (`NaN` compares equal to itself bit-wise, `0.0` and
/// `-0.0` differ — both stricter than float value equality, never weaker
/// for the finite, deterministic scores the constructors guarantee).
impl PartialEq for RankedList {
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(&other.entries)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }
}

impl Eq for RankedList {}

impl std::hash::Hash for RankedList {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.entries.len().hash(state);
        for (e, s) in &self.entries {
            e.hash(state);
            s.to_bits().hash(state);
        }
    }
}

impl RankedList {
    /// Every entity of unsorted `(entity, score)` pairs once, at its best
    /// score: [`Self::top_k`] with no cut.
    pub fn from_scores(scores: Vec<(EntityId, f32)>) -> Self {
        Self::top_k(scores, usize::MAX)
    }

    /// The best `k` entities of unsorted `(entity, score)` pairs, ranked by
    /// [`top_k`]: the list `from_scores(scores).truncated(k)` gives.
    pub fn top_k(scores: Vec<(EntityId, f32)>, k: usize) -> Self {
        Self {
            entries: top_k(scores, k),
        }
    }

    /// Builds a ranked list from pairs already sorted best-first.
    ///
    /// Debug builds assert the ordering invariant.
    pub fn from_sorted(entries: Vec<(EntityId, f32)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].1 >= w[1].1),
            "RankedList::from_sorted requires non-increasing scores"
        );
        Self { entries }
    }

    /// Number of ranked entities.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ranked `(entity, score)` pairs, best first.
    #[inline]
    pub fn entries(&self) -> &[(EntityId, f32)] {
        &self.entries
    }

    /// The ranked entities, best first, without scores.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.entries.iter().map(|(e, _)| *e)
    }

    /// The top-`k` prefix as a new list.
    pub fn truncated(&self, k: usize) -> RankedList {
        RankedList {
            entries: self.entries.iter().take(k).copied().collect(),
        }
    }

    /// Removes the given entities (typically the query's seeds) preserving
    /// order.
    pub fn without(&self, exclude: &[EntityId]) -> RankedList {
        RankedList {
            entries: self
                .entries
                .iter()
                .filter(|(e, _)| !exclude.contains(e))
                .copied()
                .collect(),
        }
    }

    /// Rank (0-based) of an entity, if present.
    pub fn rank_of(&self, e: EntityId) -> Option<usize> {
        self.entries.iter().position(|(x, _)| *x == e)
    }

    /// Consumes the list, returning the underlying pairs.
    pub fn into_entries(self) -> Vec<(EntityId, f32)> {
        self.entries
    }

    /// Debug-build invariant check for pipeline exit points: every score
    /// finite, scores non-increasing, no duplicate entity ids.
    ///
    /// `context` names the producing pipeline for the assertion message.
    /// Compiles to nothing in release builds.
    pub fn debug_validate(&self, context: &str) {
        debug_assert!(
            self.entries.iter().all(|(_, s)| s.is_finite()),
            "{context}: ranked list contains a non-finite score"
        );
        debug_assert!(
            self.entries.windows(2).all(|w| w[0].1 >= w[1].1),
            "{context}: ranked-list scores are not non-increasing"
        );
        debug_assert!(
            {
                let mut seen = std::collections::HashSet::with_capacity(self.entries.len());
                self.entries.iter().all(|(e, _)| seen.insert(*e))
            },
            "{context}: ranked list contains a duplicate entity id"
        );
        let _ = context; // referenced only by the debug-build assertions
    }
}

impl FromIterator<(EntityId, f32)> for RankedList {
    fn from_iter<T: IntoIterator<Item = (EntityId, f32)>>(iter: T) -> Self {
        Self::from_scores(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eid(x: u32) -> EntityId {
        EntityId::new(x)
    }

    #[test]
    fn from_scores_sorts_descending_with_stable_ties() {
        let l = RankedList::from_scores(vec![(eid(3), 0.5), (eid(1), 0.9), (eid(2), 0.5)]);
        let got: Vec<_> = l.entities().collect();
        assert_eq!(got, vec![eid(1), eid(2), eid(3)]);
    }

    #[test]
    fn from_scores_deduplicates_keeping_best() {
        let l = RankedList::from_scores(vec![(eid(1), 0.2), (eid(1), 0.9), (eid(2), 0.5)]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.rank_of(eid(1)), Some(0));
        assert_eq!(l.entries()[0].1, 0.9);
    }

    #[test]
    fn truncated_and_without() {
        let l = RankedList::from_scores(vec![(eid(1), 3.0), (eid(2), 2.0), (eid(3), 1.0)]);
        assert_eq!(l.truncated(2).len(), 2);
        let w = l.without(&[eid(2)]);
        let got: Vec<_> = w.entities().collect();
        assert_eq!(got, vec![eid(1), eid(3)]);
    }

    #[test]
    fn top_k_is_the_truncated_full_list() {
        let scores = vec![(eid(4), 0.5), (eid(1), 0.9), (eid(2), 0.5), (eid(4), 0.7)];
        for k in 0..5 {
            let want = RankedList::from_scores(scores.clone()).truncated(k);
            assert_eq!(RankedList::top_k(scores.clone(), k), want);
        }
    }

    #[test]
    fn rank_of_missing_is_none() {
        let l = RankedList::from_scores(vec![(eid(1), 1.0)]);
        assert_eq!(l.rank_of(eid(9)), None);
    }

    #[test]
    fn equality_and_hashing_are_bit_exact() {
        use crate::stable::stable_hash64;
        let a = RankedList::from_scores(vec![(eid(1), 1.0), (eid(2), 0.5)]);
        let b = RankedList::from_scores(vec![(eid(1), 1.0), (eid(2), 0.5)]);
        assert_eq!(a, b);
        assert_eq!(stable_hash64(&a), stable_hash64(&b));
        let c = RankedList::from_scores(vec![(eid(1), 1.0), (eid(2), 0.5000001)]);
        assert_ne!(a, c);
        assert_ne!(stable_hash64(&a), stable_hash64(&c));
        // Bit-exact equality is reflexive even for NaN scores, keeping `Eq`
        // lawful on lists that escaped the finite-score invariant.
        let n = RankedList::from_scores(vec![(eid(1), f32::NAN)]);
        assert_eq!(n, n.clone());
    }

    #[test]
    fn handles_nan_scores_without_panicking() {
        let l = RankedList::from_scores(vec![(eid(1), f32::NAN), (eid(2), 1.0)]);
        assert_eq!(l.len(), 2);
    }
}
