//! SetExpan (Shen et al., ECML-PKDD 2017): corpus-based set expansion via
//! context feature selection and rank ensemble.
//!
//! Faithful algorithmic skeleton: (1) select the context features most
//! shared by the seed set; (2) build an ensemble of rankings, each over a
//! random subset of the selected features; (3) aggregate by mean reciprocal
//! rank. Positive seeds only — the original method has no notion of
//! negative seeds, which is why it cannot express ultra-fine-grained
//! classes (its role in Table 2).

use crate::profiles::ContextProfiles;
use rand::seq::SliceRandom;
use ultra_core::rng::{derive_rng, mix_seed};
use ultra_core::{top_k, EntityId, Query, RankedList, TokenId};
use ultra_data::World;

/// SetExpan configuration + prebuilt profiles.
pub struct SetExpan {
    profiles: ContextProfiles,
    /// Features selected from the seed set.
    pub selected_features: usize,
    /// Ensemble size `T`.
    pub ensembles: usize,
    /// Fraction of features sampled per ensemble member (the paper of
    /// SetExpan uses α = 0.63).
    pub feature_frac: f64,
    /// Output list size.
    pub top_k: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl SetExpan {
    /// Builds profiles for a world.
    pub fn new(world: &World) -> Self {
        Self {
            profiles: ContextProfiles::build(world),
            selected_features: 60,
            ensembles: 12,
            feature_frac: 0.63,
            top_k: 200,
            seed: 0x5E7E,
        }
    }

    /// Context features shared by the positive seeds, scored by summed
    /// weight, strongest first.
    fn seed_features(&self, query: &Query) -> Vec<(TokenId, f32)> {
        let mut merged: std::collections::BTreeMap<u32, f32> = std::collections::BTreeMap::new();
        for &s in &query.pos_seeds {
            for (t, w) in self.profiles.top_features(s, self.selected_features) {
                *merged.entry(t.0).or_insert(0.0) += w;
            }
        }
        let feats: Vec<(TokenId, f32)> = merged
            .into_iter()
            .map(|(t, w)| (TokenId::new(t), w))
            .collect();
        top_k(feats, self.selected_features)
    }

    /// Expands one query (negative seeds ignored by design).
    pub fn expand(&self, world: &World, query: &Query) -> RankedList {
        let features = self.seed_features(query);
        if features.is_empty() {
            return RankedList::default();
        }
        let mut rng = derive_rng(self.seed, mix_seed(query.ultra.0 as u64, 3));
        let mut mrr: Vec<f32> = vec![0.0; world.num_entities()];
        for _ in 0..self.ensembles {
            let mut sampled = features.clone();
            sampled.shuffle(&mut rng);
            sampled.truncate(((features.len() as f64) * self.feature_frac).ceil() as usize);
            // Rank candidates by overlap with the sampled feature set.
            let scores: Vec<(EntityId, f32)> = world
                .entities
                .iter()
                .filter(|e| !query.is_seed(e.id))
                .map(|e| (e.id, self.profiles.feature_overlap(e.id, &sampled)))
                .collect();
            for (rank, (e, s)) in top_k(scores, self.top_k * 2).into_iter().enumerate() {
                if s > 0.0 {
                    mrr[e.index()] += 1.0 / (rank as f32 + 10.0);
                }
            }
        }
        let entries: Vec<(EntityId, f32)> = mrr
            .into_iter()
            .enumerate()
            .filter(|(_, s)| *s > 0.0)
            .map(|(i, s)| (EntityId::from_index(i), s))
            .collect();
        RankedList::top_k(entries, self.top_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_data::WorldConfig;
    use ultra_eval::evaluate_method_filtered;

    #[test]
    fn setexpan_recalls_fine_grained_classmates() {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let se = SetExpan::new(&w);
        let (u, q) = w.queries().next().unwrap();
        let out = se.expand(&w, q);
        assert!(!out.is_empty());
        let same_class = out
            .entities()
            .take(20)
            .filter(|e| w.entity(*e).class == Some(u.fine))
            .count();
        assert!(
            same_class >= 8,
            "top-20 should be mostly in-class, got {same_class}"
        );
    }

    #[test]
    fn setexpan_is_deterministic_and_ignores_neg_seeds() {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let se = SetExpan::new(&w);
        let (_u, q) = w.queries().next().unwrap();
        let a: Vec<_> = se.expand(&w, q).entities().collect();
        let b: Vec<_> = se.expand(&w, q).entities().collect();
        assert_eq!(a, b);
        // Negative seeds carry no semantics for SetExpan: they are only
        // excluded from the candidate pool (which shifts ranks below them),
        // so membership of the head barely changes and no negative-seed
        // *avoidance* occurs.
        let mut q2 = q.clone();
        q2.neg_seeds.clear();
        let c: std::collections::HashSet<_> = se
            .expand(&w, &q2)
            .entities()
            .filter(|e| !q.is_seed(*e))
            .take(30)
            .collect();
        let a_set: std::collections::HashSet<_> =
            a.into_iter().filter(|e| !q.is_seed(*e)).take(30).collect();
        let overlap = a_set.intersection(&c).count();
        assert!(overlap >= 24, "head membership mostly stable: {overlap}/30");
    }

    #[test]
    fn setexpan_scores_modestly_on_ultra_metrics() {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let se = SetExpan::new(&w);
        let r = evaluate_method_filtered(&w, |u| u.fine.index() < 4, |_u, q| se.expand(&w, q));
        // Fine-grained recall without attribute awareness: some Pos signal,
        // non-trivial Neg intrusion.
        assert!(r.pos_map[0] > 0.5, "PosMAP@10 = {:.2}", r.pos_map[0]);
    }
}
