//! Sparse tf-idf context profiles — the classic distributional
//! representation the probability-based baselines operate on.

use std::collections::HashMap;
use ultra_core::{top_k, EntityId, TokenId};
use ultra_data::World;

/// Per-entity sparse tf-idf vectors over co-occurring context tokens.
#[derive(Clone, Debug)]
pub struct ContextProfiles {
    /// `vectors[e]` = sorted `(token, weight)` pairs.
    vectors: Vec<Vec<(u32, f32)>>,
    norms: Vec<f32>,
}

/// Skip-gram context window radius. The classic distributional methods
/// (SetExpan's skip-grams, CaSE's lexical features) extract features from a
/// window around the mention, not the whole sentence — one concrete reason
/// full-sentence contextual encoders out-represent them.
pub const CONTEXT_WINDOW: usize = 4;

impl ContextProfiles {
    /// Builds profiles from the corpus: token counts within
    /// [`CONTEXT_WINDOW`] of each mention (the mention token itself
    /// excluded), weighted by idf over entities.
    pub fn build(world: &World) -> Self {
        let n_entities = world.num_entities();
        let mut counts: Vec<HashMap<u32, u32>> = vec![HashMap::new(); n_entities];
        let mut df: HashMap<u32, u32> = HashMap::new();
        for s in world.corpus.sentences() {
            for &(pos, e) in &s.mentions {
                let slot = &mut counts[e.index()];
                let lo = pos.saturating_sub(CONTEXT_WINDOW);
                let hi = (pos + CONTEXT_WINDOW + 1).min(s.tokens.len());
                for (i, &t) in s.tokens.iter().enumerate().take(hi).skip(lo) {
                    if i == pos {
                        continue;
                    }
                    *slot.entry(t.0).or_insert(0) += 1;
                }
            }
        }
        for slot in &counts {
            for &t in slot.keys() {
                *df.entry(t).or_insert(0) += 1;
            }
        }
        let n = n_entities as f32;
        let mut vectors = Vec::with_capacity(n_entities);
        let mut norms = Vec::with_capacity(n_entities);
        for slot in counts {
            let mut vec: Vec<(u32, f32)> = slot
                .into_iter()
                .map(|(t, c)| {
                    let idf = (n / (1.0 + df[&t] as f32)).ln().max(0.0);
                    (t, (1.0 + (c as f32).ln()) * idf)
                })
                .collect();
            vec.sort_unstable_by_key(|(t, _)| *t);
            let norm = vec.iter().map(|(_, w)| w * w).sum::<f32>().sqrt();
            vectors.push(vec);
            norms.push(norm);
        }
        Self { vectors, norms }
    }

    /// Sparse profile of one entity.
    #[inline]
    pub fn vector(&self, e: EntityId) -> &[(u32, f32)] {
        &self.vectors[e.index()]
    }

    /// Cosine similarity between two entities' profiles.
    pub fn cosine(&self, a: EntityId, b: EntityId) -> f32 {
        let (na, nb) = (self.norms[a.index()], self.norms[b.index()]);
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        sparse_dot(&self.vectors[a.index()], &self.vectors[b.index()]) / (na * nb)
    }

    /// Mean cosine to a seed set.
    pub fn seed_score(&self, e: EntityId, seeds: &[EntityId]) -> f32 {
        if seeds.is_empty() {
            return 0.0;
        }
        seeds.iter().map(|&s| self.cosine(e, s)).sum::<f32>() / seeds.len() as f32
    }

    /// The `k` strongest features (tokens) of an entity.
    pub fn top_features(&self, e: EntityId, k: usize) -> Vec<(TokenId, f32)> {
        let v: Vec<(TokenId, f32)> = self.vectors[e.index()]
            .iter()
            .map(|&(t, w)| (TokenId::new(t), w))
            .collect();
        top_k(v, k)
    }

    /// Weighted overlap between an entity's profile and a feature set.
    pub fn feature_overlap(&self, e: EntityId, features: &[(TokenId, f32)]) -> f32 {
        let vec = &self.vectors[e.index()];
        let mut s = 0.0f32;
        for &(t, w) in features {
            if let Ok(idx) = vec.binary_search_by_key(&t.0, |(x, _)| *x) {
                s += w * vec[idx].1;
            }
        }
        let norm = self.norms[e.index()];
        if norm == 0.0 {
            0.0
        } else {
            s / norm
        }
    }
}

/// Dot product of two sorted sparse vectors.
pub fn sparse_dot(a: &[(u32, f32)], b: &[(u32, f32)]) -> f32 {
    let (mut i, mut j, mut s) = (0usize, 0usize, 0.0f32);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                s += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_data::WorldConfig;

    fn setup() -> (World, ContextProfiles) {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let p = ContextProfiles::build(&w);
        (w, p)
    }

    #[test]
    fn sparse_dot_aligns_indices() {
        let a = [(1u32, 2.0f32), (3, 1.0), (5, 4.0)];
        let b = [(2u32, 9.0f32), (3, 2.0), (5, 0.5)];
        assert_eq!(sparse_dot(&a, &b), 1.0 * 2.0 + 4.0 * 0.5);
    }

    #[test]
    fn same_class_profiles_are_more_similar() {
        let (w, p) = setup();
        let c0 = &w.classes[0].entities;
        let c5 = &w.classes[5].entities;
        let mut within = 0.0;
        let mut across = 0.0;
        for i in 0..6 {
            within += p.cosine(c0[i], c0[i + 1]);
            across += p.cosine(c0[i], c5[i]);
        }
        assert!(within > across, "within {within:.3} vs across {across:.3}");
    }

    #[test]
    fn top_features_of_class_members_include_topics() {
        let (w, p) = setup();
        let e = w.classes[2].entities[0];
        let feats = p.top_features(e, 12);
        let topics = &w.lexicon.class_topics[2];
        let hits = feats.iter().filter(|(t, _)| topics.contains(t)).count();
        assert!(hits >= 1, "expected topic features, got {hits}");
    }

    #[test]
    fn feature_overlap_is_zero_for_disjoint_features() {
        let (w, p) = setup();
        let e = w.classes[0].entities[0];
        let bogus = [(TokenId::new(u32::MAX - 1), 1.0f32)];
        assert_eq!(p.feature_overlap(e, &bogus), 0.0);
    }
}
