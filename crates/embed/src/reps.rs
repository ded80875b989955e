//! Entity representation matrix with similarity helpers.
//!
//! Scoring is the expansion hot path: a preliminary list ranks *every*
//! candidate against every seed. The Eq. 4 mean-of-cosines factorizes as
//!
//! ```text
//! sco(e) = (1/|S|) Σ_s cos(h(e), h(s))
//!        = ⟨ h(e)/‖h(e)‖ , (1/|S|) Σ_s h(s)/‖h(s)‖ ⟩
//! ```
//!
//! so the per-candidate cost drops from `|S|` cosines to one dot product
//! against a precomputed *seed query vector*, with inverse norms cached at
//! construction. [`seed_scores_all`](EntityEmbeddings::seed_scores_all) and
//! [`seed_scores`](EntityEmbeddings::seed_scores) run that kernel blocked
//! and in parallel through `ultra-par`; the scalar
//! [`seed_score`](EntityEmbeddings::seed_score) uses the same factorized
//! formula, so batch and scalar paths agree bit-for-bit for the same seed
//! set.

use ultra_core::EntityId;
use ultra_nn::{cosine, dot_unrolled, Matrix};
use ultra_par::Pool;

/// Dense per-entity representations (`num_entities × dim`) with cached
/// inverse row norms.
#[derive(Clone, Debug)]
pub struct EntityEmbeddings {
    mat: Matrix,
    /// `1/‖row‖` per entity; `0` for zero rows so never-mentioned entities
    /// score 0 (mirroring [`cosine`]'s zero-vector convention).
    inv_norms: Vec<f32>,
}

/// Work threshold (multiply-adds) below which the blocked kernels keep one
/// worker: scoped-thread startup (~100µs/worker) exceeds an entire small
/// matvec, so spawning would *cost* wall-clock at any core count. Purely a
/// scheduling decision — scores are bit-identical either way, because the
/// single-worker path walks the same fixed chunks in the same order.
const MIN_PARALLEL_MULS: usize = 4_000_000;

impl EntityEmbeddings {
    /// Wraps a representation matrix, caching inverse row norms.
    pub fn new(mat: Matrix) -> Self {
        let inv_norms = (0..mat.rows())
            .map(|r| {
                let row = mat.row(r);
                let n = dot_unrolled(row, row).sqrt();
                if n > 0.0 {
                    1.0 / n
                } else {
                    0.0
                }
            })
            .collect();
        Self { mat, inv_norms }
    }

    /// Representation dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.mat.cols()
    }

    /// Number of entities represented.
    #[inline]
    pub fn len(&self) -> usize {
        self.mat.rows()
    }

    /// Whether the matrix is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mat.rows() == 0
    }

    /// Serializes the representation matrix: `rows`/`cols` as `u32` LE
    /// followed by row-major `f32` bit patterns. Inverse norms are *not*
    /// stored — [`from_bytes`](Self::from_bytes) recomputes them through
    /// the identical [`new`](Self::new) path, so the reconstructed
    /// embeddings score bit-identically to the originals.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ultra_core::ByteWriter::new();
        w.u32(self.mat.rows() as u32);
        w.u32(self.mat.cols() as u32);
        for &v in self.mat.as_slice() {
            w.f32(v);
        }
        w.finish()
    }

    /// Strict inverse of [`to_bytes`](Self::to_bytes): the payload must
    /// contain exactly `rows × cols` finite floats — any shortfall or
    /// surplus, and any NaN or infinite cell (which would poison every
    /// cosine it enters), is a typed
    /// [`UltraError::Corrupt`](ultra_core::UltraError::Corrupt), never a
    /// panic.
    pub fn from_bytes(bytes: &[u8]) -> ultra_core::Result<Self> {
        let corrupt = |msg: String| ultra_core::UltraError::Corrupt(format!("embeddings: {msg}"));
        let mut r = ultra_core::ByteReader::new(bytes, "embeddings");
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        let count = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt(format!("{rows}x{cols} overflows")))?;
        let _ = r.check_count(count as u64, 4, "matrix cells")?;
        let mut data = Vec::with_capacity(count);
        for i in 0..count {
            let v = r.f32()?;
            if !v.is_finite() {
                return Err(corrupt(format!(
                    "row {} column {} is {v}",
                    i / cols,
                    i % cols
                )));
            }
            data.push(v);
        }
        r.expect_end()?;
        Ok(Self::new(Matrix::from_vec(rows, cols, data)))
    }

    /// One entity's representation.
    #[inline]
    pub fn row(&self, e: EntityId) -> &[f32] {
        self.mat.row(e.index())
    }

    /// Cosine similarity between two entities.
    #[inline]
    pub fn sim(&self, a: EntityId, b: EntityId) -> f32 {
        cosine(self.row(a), self.row(b))
    }

    /// The cached inverse row norm (`0` for zero rows). Index builders use
    /// this to normalize rows with exactly the weights the scoring kernel
    /// applies.
    #[inline]
    pub fn inv_norm(&self, e: EntityId) -> f32 {
        self.inv_norms[e.index()]
    }

    /// The seed query vector `(1/|S|) Σ_s h(s)/‖h(s)‖`; `None` if `seeds`
    /// is empty. Dotting a normalized candidate against it computes Eq. 4's
    /// mean seed similarity in one pass.
    pub fn seed_query(&self, seeds: &[EntityId]) -> Option<Vec<f32>> {
        if seeds.is_empty() {
            return None;
        }
        let mut q = vec![0.0f32; self.dim()];
        let inv = 1.0 / seeds.len() as f32;
        for &s in seeds {
            let w = self.inv_norms[s.index()] * inv;
            if w == 0.0 {
                continue;
            }
            for (qi, &x) in q.iter_mut().zip(self.row(s)) {
                *qi += w * x;
            }
        }
        Some(q)
    }

    /// Scores one entity against a prebuilt [`seed_query`](Self::seed_query)
    /// vector.
    #[inline]
    pub fn score_against(&self, query: &[f32], e: EntityId) -> f32 {
        self.inv_norms[e.index()] * dot_unrolled(self.row(e), query)
    }

    /// Mean similarity of `e` to a seed set — `sco^pos` / `sco^neg` of
    /// Eq. 4: `(1/|S|) Σ cos(h(e), h(e'))`, computed via the factorized
    /// seed-query form (see module docs). Returns 0 for an empty seed set.
    pub fn seed_score(&self, e: EntityId, seeds: &[EntityId]) -> f32 {
        match self.seed_query(seeds) {
            None => 0.0,
            Some(q) => self.score_against(&q, e),
        }
    }

    /// Downgrades `pool` to one worker when the kernel over `items` rows is
    /// too small to amortize thread spawn (see [`MIN_PARALLEL_MULS`]).
    fn effective_pool(&self, items: usize, pool: &Pool) -> Pool {
        if items.saturating_mul(self.dim()) < MIN_PARALLEL_MULS {
            Pool::new(1)
        } else {
            *pool
        }
    }

    /// [`seed_score`](Self::seed_score) for every entity, blocked over
    /// contiguous row ranges and parallelized on `pool`. Output index `i`
    /// is entity `i`'s score; bit-identical at any thread count. Rows are
    /// dispatched as index ranges (`Pool::ranges_map_ordered`), so scoring
    /// N entities allocates no N-sized scratch beyond the output itself.
    // ultra-lint: hot
    pub fn seed_scores_all(&self, seeds: &[EntityId], pool: &Pool) -> Vec<f32> {
        let Some(q) = self.seed_query(seeds) else {
            return vec![0.0; self.len()];
        };
        self.effective_pool(self.len(), pool)
            .ranges_map_ordered(self.len(), |rows| {
                let mut block = self.mat.score_batch(&q, rows.clone());
                for (s, r) in block.iter_mut().zip(rows) {
                    *s *= self.inv_norms[r];
                }
                block
            })
    }

    /// [`seed_score`](Self::seed_score) for an arbitrary entity subset,
    /// parallelized on `pool`. Output order matches `entities`.
    pub fn seed_scores(&self, entities: &[EntityId], seeds: &[EntityId], pool: &Pool) -> Vec<f32> {
        let Some(q) = self.seed_query(seeds) else {
            return vec![0.0; entities.len()];
        };
        self.effective_pool(entities.len(), pool)
            .map_ordered(entities, |&e| self.score_against(&q, e))
    }

    /// Mean representation of a set (used by class-level heat maps).
    pub fn centroid(&self, entities: &[EntityId]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim()];
        for &e in entities {
            for (a, &x) in acc.iter_mut().zip(self.row(e)) {
                *a += x;
            }
        }
        if !entities.is_empty() {
            let inv = 1.0 / entities.len() as f32;
            acc.iter_mut().for_each(|a| *a *= inv);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eid(x: u32) -> EntityId {
        EntityId::new(x)
    }

    fn embeddings() -> EntityEmbeddings {
        EntityEmbeddings::new(Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]))
    }

    #[test]
    fn seed_score_averages_cosines() {
        let r = embeddings();
        // e2 ∥ e0, ⊥ e1 → mean = 0.5.
        let s = r.seed_score(eid(2), &[eid(0), eid(1)]);
        assert!((s - 0.5).abs() < 1e-6);
        assert_eq!(r.seed_score(eid(0), &[]), 0.0);
    }

    #[test]
    fn factorized_score_matches_mean_of_cosines() {
        // Random-ish matrix including a zero row (never-mentioned entity).
        let mut data = Vec::new();
        for i in 0..40 {
            data.push(((i * 37 % 19) as f32 - 9.0) * 0.11);
        }
        for d in data.iter_mut().take(8).skip(4) {
            *d = 0.0; // entity 1 is a zero row
        }
        let r = EntityEmbeddings::new(Matrix::from_vec(10, 4, data));
        let seeds = [eid(0), eid(1), eid(7)];
        for e in 0..10u32 {
            let fast = r.seed_score(eid(e), &seeds);
            let naive: f32 = seeds
                .iter()
                .map(|&s| cosine(r.row(eid(e)), r.row(s)))
                .sum::<f32>()
                / seeds.len() as f32;
            assert!((fast - naive).abs() < 1e-5, "entity {e}: {fast} vs {naive}");
        }
        // Zero-row entity scores 0 exactly.
        assert_eq!(r.seed_score(eid(1), &seeds), 0.0);
    }

    #[test]
    fn batch_paths_match_scalar_path_bitwise_at_any_thread_count() {
        let data: Vec<f32> = (0..50 * 6).map(|i| ((i * 13 % 29) as f32).sin()).collect();
        let r = EntityEmbeddings::new(Matrix::from_vec(50, 6, data));
        let seeds = [eid(3), eid(17), eid(44)];
        let scalar: Vec<u32> = (0..50)
            .map(|e| r.seed_score(eid(e), &seeds).to_bits())
            .collect();
        for t in [1usize, 2, 8] {
            let pool = Pool::new(t);
            let all: Vec<u32> = r
                .seed_scores_all(&seeds, &pool)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(all, scalar, "seed_scores_all diverged at {t} threads");
            let subset: Vec<EntityId> = (0..50).rev().map(eid).collect();
            let sub: Vec<u32> = r
                .seed_scores(&subset, &seeds, &pool)
                .iter()
                .map(|s| s.to_bits())
                .collect();
            let expect: Vec<u32> = subset
                .iter()
                .map(|&e| r.seed_score(e, &seeds).to_bits())
                .collect();
            assert_eq!(sub, expect, "seed_scores diverged at {t} threads");
        }
    }

    #[test]
    fn above_threshold_matrices_parallelize_and_stay_bitwise_stable() {
        // Big enough that `effective_pool` keeps the caller's worker count
        // (the small-matrix tests above all take the one-worker downgrade).
        let (rows, dim) = (45_000usize, 96usize);
        assert!(rows * dim >= MIN_PARALLEL_MULS);
        let data: Vec<f32> = (0..rows * dim)
            .map(|i| ((i % 251) as f32 - 125.0) * 1e-2)
            .collect();
        let r = EntityEmbeddings::new(Matrix::from_vec(rows, dim, data));
        let seeds = [eid(1), eid(40_000)];
        let base: Vec<u32> = r
            .seed_scores_all(&seeds, &Pool::new(1))
            .iter()
            .map(|s| s.to_bits())
            .collect();
        for t in [2usize, 8] {
            let bits: Vec<u32> = r
                .seed_scores_all(&seeds, &Pool::new(t))
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(bits, base, "parallel scoring diverged at {t} threads");
        }
    }

    #[test]
    fn empty_seed_sets_score_zero_everywhere() {
        let r = embeddings();
        let pool = Pool::new(2);
        assert_eq!(r.seed_scores_all(&[], &pool), vec![0.0; 3]);
        assert_eq!(r.seed_scores(&[eid(0)], &[], &pool), vec![0.0]);
    }

    #[test]
    fn centroid_is_elementwise_mean() {
        let r = embeddings();
        let c = r.centroid(&[eid(0), eid(1)]);
        assert_eq!(c, vec![0.5, 0.5]);
        assert_eq!(r.centroid(&[]), vec![0.0, 0.0]);
    }

    #[test]
    fn sim_is_symmetric() {
        let r = embeddings();
        assert_eq!(r.sim(eid(0), eid(2)), r.sim(eid(2), eid(0)));
    }

    #[test]
    fn byte_round_trip_is_canonical_and_score_identical() {
        let r = embeddings();
        let bytes = r.to_bytes();
        let back = EntityEmbeddings::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.to_bytes(), bytes, "re-serialization must be canonical");
        assert_eq!((back.len(), back.dim()), (r.len(), r.dim()));
        let pool = Pool::new(1);
        let a = r.seed_scores_all(&[eid(0), eid(1)], &pool);
        let b = back.seed_scores_all(&[eid(0), eid(1)], &pool);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn truncated_and_padded_payloads_are_typed_errors() {
        let bytes = embeddings().to_bytes();
        for cut in [0, 3, 7, bytes.len() - 1] {
            assert!(EntityEmbeddings::from_bytes(&bytes[..cut]).is_err());
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(EntityEmbeddings::from_bytes(&padded).is_err());
        // Non-finite cells.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = bytes.clone();
            poisoned[8 + 4 * 5..8 + 4 * 6].copy_from_slice(&bad.to_le_bytes());
            assert!(matches!(
                EntityEmbeddings::from_bytes(&poisoned),
                Err(ultra_core::UltraError::Corrupt(msg)) if msg.contains("row 2 column 1")
            ));
        }
        // A hostile header cannot trigger a huge allocation.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(EntityEmbeddings::from_bytes(&hostile).is_err());
    }
}
