//! CGExpan-style class-guided expansion (Zhang et al., ACL 2020).
//!
//! CGExpan probes a language model for the target class *name* and uses it
//! to guide expansion. The analogue here: infer the class-indicative
//! context features shared across the positive seeds (the "generated class
//! name"), then score candidates by seed similarity boosted by affinity to
//! those class features. Positive seeds only, fine-grained by design —
//! exactly the conceptual-level guidance the paper argues is insufficient
//! for Ultra-ESE.

use crate::profiles::ContextProfiles;
use ultra_core::{top_k, EntityId, Query, RankedList, TokenId};
use ultra_data::World;

/// CGExpan baseline.
pub struct CgExpan {
    profiles: ContextProfiles,
    /// Number of class-name features probed from the seeds.
    pub class_features: usize,
    /// Class-guidance boost weight.
    pub beta: f32,
    /// Output list size.
    pub top_k: usize,
}

impl CgExpan {
    /// Builds profiles for a world.
    pub fn new(world: &World) -> Self {
        Self {
            profiles: ContextProfiles::build(world),
            class_features: 8,
            beta: 0.5,
            top_k: 200,
        }
    }

    /// "Generates the class name": the features present in *every* seed's
    /// top profile — class-topic tokens by construction.
    fn probe_class_features(&self, query: &Query) -> Vec<(TokenId, f32)> {
        let mut merged: std::collections::BTreeMap<u32, (f32, usize)> =
            std::collections::BTreeMap::new();
        for &s in &query.pos_seeds {
            for (t, w) in self.profiles.top_features(s, 40) {
                let slot = merged.entry(t.0).or_insert((0.0, 0));
                slot.0 += w;
                slot.1 += 1;
            }
        }
        let quorum = query.pos_seeds.len().max(1);
        let feats: Vec<(TokenId, f32)> = merged
            .into_iter()
            .filter(|(_, (_, n))| *n >= quorum) // shared by every seed
            .map(|(t, (w, _))| (TokenId::new(t), w))
            .collect();
        top_k(feats, self.class_features)
    }

    /// Expands one query.
    pub fn expand(&self, world: &World, query: &Query) -> RankedList {
        let class_feats = self.probe_class_features(query);
        let entries: Vec<(EntityId, f32)> = world
            .entities
            .iter()
            .filter(|e| !query.is_seed(e.id))
            .map(|e| {
                let sim = self.profiles.seed_score(e.id, &query.pos_seeds);
                let guidance = self.profiles.feature_overlap(e.id, &class_feats);
                (e.id, sim + self.beta * guidance)
            })
            .collect();
        RankedList::top_k(entries, self.top_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_data::WorldConfig;

    #[test]
    fn probed_class_features_are_topic_like() {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let cg = CgExpan::new(&w);
        let (u, q) = w.queries().next().unwrap();
        let feats = cg.probe_class_features(q);
        assert!(!feats.is_empty());
        let topics = &w.lexicon.class_topics[u.fine.index()];
        let markers: Vec<_> = w
            .lexicon
            .markers
            .iter()
            .flat_map(|m| m.pool.iter())
            .collect();
        let informative = feats
            .iter()
            .filter(|(t, _)| topics.contains(t) || markers.contains(&t))
            .count();
        assert!(
            informative * 2 >= feats.len(),
            "class probe should surface topics/markers: {informative}/{}",
            feats.len()
        );
    }

    #[test]
    fn class_guidance_beats_plain_similarity_on_fine_recall() {
        let w = World::generate(WorldConfig::tiny()).unwrap();
        let cg = CgExpan::new(&w);
        let (u, q) = w.queries().next().unwrap();
        let guided = cg.expand(&w, q);
        let in_class = guided
            .entities()
            .take(30)
            .filter(|e| w.entity(*e).class == Some(u.fine))
            .count();
        assert!(in_class >= 15, "guided top-30 in-class: {in_class}");
    }
}
