//! The [`CandidateSource`] seam between the RetExpan preliminary stage and
//! whatever generates its candidate set.
//!
//! Both implementations return `(entity, score)` pairs whose scores come
//! from the factorized Eq. 4 kernel in `ultra-embed` — a pure function of
//! `(entity, seed set)` — so for any entity both sources produce the same
//! score bits. They differ only in *which* entities they score:
//! [`Exhaustive`] scores all of them, [`IvfSource`] scores the members of
//! the probed inverted lists. Sources may include the query's own seeds;
//! the pipeline filters them, exactly as the pre-index code did.

use crate::ivf::IvfIndex;
use std::sync::Arc;
use ultra_core::EntityId;
use ultra_embed::EntityEmbeddings;
use ultra_par::Pool;

/// A strategy for producing the scored candidate pool of the preliminary
/// expansion stage.
pub trait CandidateSource: Send + Sync {
    /// Short wire label for logs and `/metrics` (e.g. `"exhaustive"`,
    /// `"ivf(nlist=316,nprobe=8)"`).
    fn name(&self) -> String;

    /// Scored candidates for a positive-seed set. Scores are bit-identical
    /// to [`EntityEmbeddings::seed_scores_all`] for every returned entity;
    /// the caller filters seeds and ranks.
    fn scored_candidates(
        &self,
        reps: &EntityEmbeddings,
        seeds: &[EntityId],
        pool: &Pool,
    ) -> Vec<(EntityId, f32)>;
}

/// The original O(N) path: score every entity with the blocked batch
/// kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct Exhaustive;

impl CandidateSource for Exhaustive {
    fn name(&self) -> String {
        "exhaustive".to_string()
    }

    fn scored_candidates(
        &self,
        reps: &EntityEmbeddings,
        seeds: &[EntityId],
        pool: &Pool,
    ) -> Vec<(EntityId, f32)> {
        reps.seed_scores_all(seeds, pool)
            .into_iter()
            .enumerate()
            .map(|(i, s)| (EntityId::from_index(i), s))
            .collect()
    }
}

/// IVF-backed source: probe the `nprobe` best-matching inverted lists and
/// score only their members (with the exact per-subset kernel, so scored
/// entities carry exhaustive-identical score bits).
#[derive(Clone, Debug)]
pub struct IvfSource {
    index: Arc<IvfIndex>,
    nprobe: usize,
}

impl IvfSource {
    /// Wraps a built index with a probe width (`0` = all lists).
    pub fn new(index: Arc<IvfIndex>, nprobe: usize) -> Self {
        Self { index, nprobe }
    }
}

impl CandidateSource for IvfSource {
    fn name(&self) -> String {
        if self.nprobe == 0 || self.nprobe >= self.index.nlist() {
            format!("ivf(nlist={},nprobe=all)", self.index.nlist())
        } else {
            format!("ivf(nlist={},nprobe={})", self.index.nlist(), self.nprobe)
        }
    }

    fn scored_candidates(
        &self,
        reps: &EntityEmbeddings,
        seeds: &[EntityId],
        pool: &Pool,
    ) -> Vec<(EntityId, f32)> {
        let Some(query) = reps.seed_query(seeds) else {
            // Empty seed set: mirror the exhaustive convention exactly —
            // every entity, score 0.
            return (0..reps.len())
                .map(|i| (EntityId::from_index(i), 0.0))
                .collect();
        };
        let cands = self.index.candidates(&query, self.nprobe);
        let scores = reps.seed_scores(&cands, seeds, pool);
        cands.into_iter().zip(scores).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::IvfConfig;
    use ultra_nn::Matrix;

    fn reps(n: usize, dim: usize) -> EntityEmbeddings {
        let data: Vec<f32> = (0..n * dim).map(|i| ((i * 31 % 17) as f32).sin()).collect();
        EntityEmbeddings::new(Matrix::from_vec(n, dim, data))
    }

    fn seeds() -> Vec<EntityId> {
        vec![EntityId::new(2), EntityId::new(9), EntityId::new(30)]
    }

    #[test]
    fn exhaustive_source_scores_everything_in_id_order() {
        let r = reps(64, 12);
        let pool = Pool::new(2);
        let scored = Exhaustive.scored_candidates(&r, &seeds(), &pool);
        assert_eq!(scored.len(), 64);
        let expect = r.seed_scores_all(&seeds(), &pool);
        for (i, (e, s)) in scored.iter().enumerate() {
            assert_eq!(e.index(), i);
            assert_eq!(s.to_bits(), expect[i].to_bits());
        }
    }

    #[test]
    fn ivf_full_probe_matches_exhaustive_bitwise_as_a_set() {
        let r = reps(120, 12);
        let pool = Pool::new(2);
        let index = Arc::new(IvfIndex::build(&r, &IvfConfig::default(), &pool));
        let full = IvfSource::new(index, 0);
        let mut ivf = full.scored_candidates(&r, &seeds(), &pool);
        let mut exh = Exhaustive.scored_candidates(&r, &seeds(), &pool);
        ivf.sort_by_key(|&(e, _)| e);
        exh.sort_by_key(|&(e, _)| e);
        assert_eq!(ivf.len(), exh.len());
        for ((ea, sa), (eb, sb)) in ivf.iter().zip(&exh) {
            assert_eq!(ea, eb);
            assert_eq!(sa.to_bits(), sb.to_bits(), "score bits diverged at {ea}");
        }
    }

    #[test]
    fn narrow_probe_returns_a_strict_subset_with_exact_scores() {
        let r = reps(200, 12);
        let pool = Pool::new(1);
        let cfg = IvfConfig {
            nlist: 10,
            ..IvfConfig::default()
        };
        let index = Arc::new(IvfIndex::build(&r, &cfg, &pool));
        let narrow = IvfSource::new(index, 2);
        let scored = narrow.scored_candidates(&r, &seeds(), &pool);
        assert!(!scored.is_empty());
        assert!(scored.len() < 200, "nprobe=2 of 10 lists must prune");
        let all = r.seed_scores_all(&seeds(), &pool);
        for (e, s) in scored {
            assert!(e.index() < 200);
            assert_eq!(s.to_bits(), all[e.index()].to_bits());
        }
    }

    #[test]
    fn empty_seed_sets_match_exhaustive_convention() {
        let r = reps(30, 8);
        let pool = Pool::new(1);
        let index = Arc::new(IvfIndex::build(&r, &IvfConfig::default(), &pool));
        let src = IvfSource::new(index, 1);
        let scored = src.scored_candidates(&r, &[], &pool);
        assert_eq!(scored.len(), 30);
        assert!(scored.iter().all(|&(_, s)| s == 0.0));
    }

    #[test]
    fn names_describe_the_operating_point() {
        let r = reps(100, 8);
        let pool = Pool::new(1);
        let cfg = IvfConfig {
            nlist: 10,
            ..IvfConfig::default()
        };
        let index = Arc::new(IvfIndex::build(&r, &cfg, &pool));
        assert_eq!(Exhaustive.name(), "exhaustive");
        assert_eq!(
            IvfSource::new(index.clone(), 4).name(),
            "ivf(nlist=10,nprobe=4)"
        );
        assert_eq!(IvfSource::new(index, 0).name(), "ivf(nlist=10,nprobe=all)");
    }
}
