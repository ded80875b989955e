//! Deterministically constructed IVF index over entity embeddings.
//!
//! # Determinism policy
//!
//! Every step of construction is a pure function of `(embeddings, config)`:
//!
//! * **Seeding.** Initial centroids are entity rows selected by a
//!   `mix_seed` (SplitMix64) walk over the config seed — no `Instant`, no
//!   process-seeded RNG, no pointer values.
//! * **Fixed iterations.** k-means runs exactly `kmeans_iters` rounds; no
//!   data-dependent convergence test (float comparisons against a moving
//!   threshold would make the round count platform-sensitive).
//! * **Id-ordered ties and updates.** Assignment uses a strict `>`
//!   comparison, so an entity equidistant from several centroids always
//!   lands in the lowest-indexed list; centroid updates accumulate entity
//!   rows in ascending entity-id order on a single thread, so float sums
//!   see one fixed association. Assignment itself is data-parallel through
//!   `ultra-par`'s ordered-chunk kernels — each entity's nearest centroid
//!   is a pure per-item function, so the assignment vector is identical at
//!   any thread count.
//! * **Sorted inverted lists.** Lists are filled by one ascending id scan,
//!   so each list is sorted by entity id and the lists partition `0..N`.
//!
//! Two builds over the same embeddings therefore serialize
//! ([`IvfIndex::to_bytes`]) to the same bytes, at any `ULTRA_THREADS`.
//!
//! # Why `nprobe = all` ≡ exhaustive
//!
//! The inverted lists partition the entity set, so probing all lists
//! yields every entity exactly once. Scores come from the same factorized
//! seed-query kernel the exhaustive path uses (a pure function of
//! `(entity, seed set)`), and `RankedList::from_scores` orders by
//! `(score desc, id asc)` regardless of input order — so identical
//! candidate *sets* produce byte-identical ranked lists.

use ultra_core::{mix_seed, top_k, EntityId};
use ultra_embed::EntityEmbeddings;
use ultra_nn::dot_unrolled;
use ultra_par::Pool;

/// IVF build/probe parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of inverted lists (coarse clusters); `0` = `round(sqrt(N))`.
    pub nlist: usize,
    /// Lists probed per query; `0` = all lists (exact, byte-identical to
    /// the exhaustive path).
    pub nprobe: usize,
    /// Exact k-means round count (fixed, never convergence-tested).
    pub kmeans_iters: usize,
    /// Seed for the centroid-initialization walk.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            nlist: 0,
            nprobe: 8,
            kmeans_iters: 6,
            seed: 0xA55,
        }
    }
}

impl IvfConfig {
    /// Strict validation for *resolved* configurations — the form persisted
    /// in snapshots, where the `0` placeholders ("auto" / "all lists") must
    /// already have been replaced by concrete values. Returns a typed
    /// [`UltraError`](ultra_core::UltraError) instead of relying on any
    /// downstream behaviour: `nlist = 0` would build an index with no
    /// lists and `nprobe = 0` would silently mean "all", both of which a
    /// persisted artifact must spell out explicitly.
    pub fn validate_resolved(&self) -> ultra_core::Result<()> {
        use ultra_core::UltraError;
        if self.nlist == 0 {
            return Err(UltraError::InvalidConfig(
                "ivf: resolved nlist must be non-zero (0 = auto is a build-time placeholder)"
                    .into(),
            ));
        }
        if self.nprobe == 0 {
            return Err(UltraError::InvalidConfig(
                "ivf: resolved nprobe must be non-zero (0 = all-lists is a probe-time placeholder)"
                    .into(),
            ));
        }
        if self.nprobe > self.nlist {
            return Err(UltraError::InvalidConfig(format!(
                "ivf: nprobe {} exceeds nlist {}",
                self.nprobe, self.nlist
            )));
        }
        Ok(())
    }

    /// The concrete list count for an `n`-entity world.
    pub fn effective_nlist(&self, n: usize) -> usize {
        let auto = if self.nlist == 0 {
            (n as f64).sqrt().round() as usize
        } else {
            self.nlist
        };
        auto.clamp(1, n.max(1))
    }
}

/// A built IVF index: spherical k-means centroids plus id-sorted inverted
/// lists partitioning the entity set.
#[derive(Clone, Debug)]
pub struct IvfIndex {
    dim: usize,
    num_entities: usize,
    config: IvfConfig,
    /// `nlist × dim`, row-major; every row unit-length (or zero).
    centroids: Vec<f32>,
    /// One list per centroid, each ascending by entity id; the lists
    /// partition `0..num_entities`.
    lists: Vec<Vec<EntityId>>,
}

impl IvfIndex {
    /// Trains the coarse quantizer and fills the inverted lists. See the
    /// module docs for the determinism policy; `pool` only affects
    /// scheduling, never bytes.
    pub fn build(reps: &EntityEmbeddings, config: &IvfConfig, pool: &Pool) -> IvfIndex {
        let n = reps.len();
        let dim = reps.dim();
        let nlist = if n == 0 { 0 } else { config.effective_nlist(n) };
        if n == 0 || nlist == 0 || dim == 0 {
            return IvfIndex {
                dim,
                num_entities: n,
                config: config.clone(),
                centroids: Vec::new(),
                lists: vec![Vec::new(); nlist],
            };
        }

        // Unit-normalized rows (zero rows stay zero), so cluster geometry
        // matches the cosine scoring the retrieval kernel performs.
        let mut units = vec![0.0f32; n * dim];
        for i in 0..n {
            let e = EntityId::from_index(i);
            let w = reps.inv_norm(e);
            if w == 0.0 {
                continue;
            }
            for (u, &x) in units[i * dim..(i + 1) * dim].iter_mut().zip(reps.row(e)) {
                *u = w * x;
            }
        }

        // Seeded, duplicate-free centroid initialization: a SplitMix64 walk
        // over the config seed, falling back to a sequential sweep if the
        // walk keeps re-hitting chosen rows (guaranteed to terminate since
        // nlist <= n).
        let mut centroids = vec![0.0f32; nlist * dim];
        let mut used = vec![false; n];
        let mut picked = 0usize;
        let mut step = 0u64;
        let walk_budget = (n as u64).saturating_mul(16);
        while picked < nlist {
            let cand = if step < walk_budget {
                (mix_seed(config.seed, step) % n as u64) as usize
            } else {
                (step - walk_budget) as usize % n
            };
            step += 1;
            if used[cand] {
                continue;
            }
            used[cand] = true;
            centroids[picked * dim..(picked + 1) * dim]
                .copy_from_slice(&units[cand * dim..(cand + 1) * dim]);
            picked += 1;
        }

        // Fixed-iteration spherical k-means: parallel pure-per-item
        // assignment, then a sequential id-ordered centroid update.
        for _ in 0..config.kmeans_iters {
            let assign = assign_all(&units, &centroids, dim, nlist, pool);
            let mut sums = vec![0.0f32; nlist * dim];
            let mut counts = vec![0u32; nlist];
            for (i, &c) in assign.iter().enumerate() {
                let c = c as usize;
                counts[c] += 1;
                for (s, &u) in sums[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(&units[i * dim..(i + 1) * dim])
                {
                    *s += u;
                }
            }
            for c in 0..nlist {
                if counts[c] == 0 {
                    continue; // empty cluster keeps its previous centroid
                }
                let sum = &sums[c * dim..(c + 1) * dim];
                let norm = dot_unrolled(sum, sum).sqrt();
                if norm > 0.0 {
                    let inv = 1.0 / norm;
                    for (dst, &s) in centroids[c * dim..(c + 1) * dim].iter_mut().zip(sum) {
                        *dst = inv * s;
                    }
                }
            }
        }

        // Final assignment under the converged centroids; ascending id scan
        // keeps every inverted list sorted by entity id.
        let assign = assign_all(&units, &centroids, dim, nlist, pool);
        let mut lists = vec![Vec::new(); nlist];
        for (i, &c) in assign.iter().enumerate() {
            lists[c as usize].push(EntityId::from_index(i));
        }

        IvfIndex {
            dim,
            num_entities: n,
            config: config.clone(),
            centroids,
            lists,
        }
    }

    /// Embedding dimensionality the index was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed entities.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// The id-sorted inverted lists (partitioning `0..num_entities`).
    pub fn lists(&self) -> &[Vec<EntityId>] {
        &self.lists
    }

    /// List ids in probe order for `query`: descending `query · centroid`,
    /// ties broken by ascending list id.
    pub fn probe_order(&self, query: &[f32]) -> Vec<u32> {
        let nlist = self.nlist();
        let mut scores = vec![0.0f32; nlist];
        score_centroids(query, &self.centroids, self.dim, &mut scores);
        let scored: Vec<(u32, f32)> = (0..nlist as u32).zip(scores).collect();
        top_k(scored, nlist).into_iter().map(|(l, _)| l).collect()
    }

    /// Concatenated members of the top-`nprobe` lists for `query`
    /// (`nprobe = 0` or `>= nlist` probes everything, covering each entity
    /// exactly once). Candidates are *not* scored here — callers feed them
    /// to the exact scoring kernel.
    pub fn candidates(&self, query: &[f32], nprobe: usize) -> Vec<EntityId> {
        let nlist = self.nlist();
        let probe = if nprobe == 0 {
            nlist
        } else {
            nprobe.min(nlist)
        };
        let order = self.probe_order(query);
        let mut out = Vec::new();
        for &l in order.iter().take(probe) {
            out.extend_from_slice(&self.lists[l as usize]);
        }
        out
    }

    /// Canonical little-endian serialization — the byte-reproducibility
    /// witness: two builds on the same embeddings must produce identical
    /// bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            24 + self.centroids.len() * 4 + self.num_entities * 4 + self.lists.len() * 4,
        );
        out.extend_from_slice(b"UANN");
        out.extend_from_slice(&1u32.to_le_bytes()); // format version
        out.extend_from_slice(&(self.dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.num_entities as u32).to_le_bytes());
        out.extend_from_slice(&(self.lists.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.config.seed.to_le_bytes());
        out.extend_from_slice(&(self.config.kmeans_iters as u32).to_le_bytes());
        for &c in &self.centroids {
            out.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        for list in &self.lists {
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for e in list {
                out.extend_from_slice(&(e.index() as u32).to_le_bytes());
            }
        }
        out
    }

    /// Strict inverse of [`to_bytes`](Self::to_bytes): validates the magic,
    /// format version, centroid count, and that the inverted lists are
    /// each strictly ascending and together partition `0..num_entities`
    /// exactly — so a loaded index can never silently drop or duplicate a
    /// candidate. Every failure is a typed
    /// [`UltraError::Corrupt`](ultra_core::UltraError::Corrupt); the method
    /// never panics and never allocates more than the payload justifies.
    ///
    /// The reconstructed [`IvfConfig`] records the *resolved* `nlist` and
    /// the stored build seed / k-means rounds; `nprobe` is probe-time
    /// configuration not present in the image and is restored as `0`
    /// ("all lists") — callers pass their own probe width to
    /// [`candidates`](Self::candidates).
    pub fn from_bytes(bytes: &[u8]) -> ultra_core::Result<IvfIndex> {
        use ultra_core::{ByteReader, UltraError};
        let corrupt = |msg: &str| UltraError::Corrupt(format!("uann: {msg}"));
        let mut r = ByteReader::new(bytes, "uann");
        if r.take(4)? != b"UANN" {
            return Err(corrupt("bad magic"));
        }
        let version = r.u32()?;
        if version != 1 {
            return Err(corrupt(&format!("unsupported format version {version}")));
        }
        let dim = r.u32()? as usize;
        let num_entities = r.u32()? as usize;
        let nlist = r.u32()? as usize;
        let seed = r.u64()?;
        let kmeans_iters = r.u32()? as usize;
        let centroid_cells = nlist
            .checked_mul(dim)
            .ok_or_else(|| corrupt("centroid shape overflows"))?;
        let _ = r.check_count(centroid_cells as u64, 4, "centroid cells")?;
        let mut centroids = Vec::with_capacity(centroid_cells);
        for _ in 0..centroid_cells {
            centroids.push(r.f32()?);
        }
        // The list-length prefixes alone need 4 bytes per list, and every
        // entity id 4 more — bound both before allocating.
        let _ = r.check_count(nlist as u64, 4, "inverted lists")?;
        let _ = r.check_count(num_entities as u64, 0, "entities")?;
        if num_entities > 0 && r.remaining() / 4 < num_entities {
            return Err(corrupt("entity ids exceed remaining payload"));
        }
        let mut seen = vec![false; num_entities];
        let mut total = 0usize;
        let mut lists = Vec::with_capacity(nlist);
        for l in 0..nlist {
            let declared = u64::from(r.u32()?);
            let len = r.check_count(declared, 4, "list members")?;
            let mut list = Vec::with_capacity(len);
            let mut prev: Option<u32> = None;
            for _ in 0..len {
                let id = r.u32()?;
                if prev.is_some_and(|p| p >= id) {
                    return Err(corrupt(&format!("list {l} not strictly ascending")));
                }
                prev = Some(id);
                let idx = id as usize;
                if idx >= num_entities {
                    return Err(corrupt(&format!("entity id {id} out of range")));
                }
                if seen[idx] {
                    return Err(corrupt(&format!("entity id {id} appears twice")));
                }
                seen[idx] = true;
                total += 1;
                list.push(EntityId::new(id));
            }
            lists.push(list);
        }
        if total != num_entities {
            return Err(corrupt(&format!(
                "lists cover {total} of {num_entities} entities"
            )));
        }
        r.expect_end()?;
        Ok(IvfIndex {
            dim,
            num_entities,
            config: IvfConfig {
                nlist,
                nprobe: 0,
                kmeans_iters,
                seed,
            },
            centroids,
            lists,
        })
    }

    /// FNV-1a over [`to_bytes`](Self::to_bytes) — a compact reproducibility
    /// fingerprint for logs and CI.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &self.to_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Nearest centroid per entity, dispatched as ordered index ranges; the
/// per-item function is pure, so the result is thread-count independent.
fn assign_all(units: &[f32], centroids: &[f32], dim: usize, nlist: usize, pool: &Pool) -> Vec<u32> {
    let n = units.len() / dim.max(1);
    pool.ranges_map_ordered(n, |rows| {
        rows.map(|i| nearest_centroid(&units[i * dim..(i + 1) * dim], centroids, dim, nlist))
            .collect()
    })
}

/// Index of the centroid with the largest dot product against `unit`.
/// Strict `>` resolves ties to the lowest centroid index.
// ultra-lint: hot
fn nearest_centroid(unit: &[f32], centroids: &[f32], dim: usize, nlist: usize) -> u32 {
    let mut best = 0u32;
    let mut best_dot = f32::NEG_INFINITY;
    for c in 0..nlist {
        let d = dot_unrolled(unit, &centroids[c * dim..(c + 1) * dim]);
        if d > best_dot {
            best_dot = d;
            best = c as u32;
        }
    }
    best
}

/// `query · centroid` for every centroid, into a pre-sized buffer.
// ultra-lint: hot
fn score_centroids(query: &[f32], centroids: &[f32], dim: usize, out: &mut [f32]) {
    for (c, s) in out.iter_mut().enumerate() {
        *s = dot_unrolled(query, &centroids[c * dim..(c + 1) * dim]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_nn::Matrix;

    /// A deterministic toy embedding set with visible cluster structure:
    /// four directional clusters in 8 dims.
    fn clustered_reps(n: usize) -> EntityEmbeddings {
        let dim = 8;
        let mut data = vec![0.0f32; n * dim];
        for i in 0..n {
            let cluster = i % 4;
            data[i * dim + cluster * 2] = 1.0;
            // Small deterministic perturbation so rows inside a cluster
            // differ without crossing clusters.
            data[i * dim + cluster * 2 + 1] = 0.05 * ((i / 4) % 7) as f32;
        }
        EntityEmbeddings::new(Matrix::from_vec(n, dim, data))
    }

    #[test]
    fn lists_partition_the_entity_set() {
        let reps = clustered_reps(101);
        let cfg = IvfConfig {
            nlist: 7,
            ..IvfConfig::default()
        };
        let index = IvfIndex::build(&reps, &cfg, &Pool::new(1));
        let mut seen = [false; 101];
        for list in index.lists() {
            // Sorted ascending by id.
            assert!(list.windows(2).all(|w| w[0] < w[1]));
            for e in list {
                assert!(!seen[e.index()], "entity {e} appears twice");
                seen[e.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every entity is indexed");
    }

    #[test]
    fn build_is_byte_reproducible_across_threads() {
        let reps = clustered_reps(240);
        let cfg = IvfConfig {
            nlist: 9,
            ..IvfConfig::default()
        };
        let a = IvfIndex::build(&reps, &cfg, &Pool::new(1));
        let b = IvfIndex::build(&reps, &cfg, &Pool::new(1));
        let c = IvfIndex::build(&reps, &cfg, &Pool::new(4));
        assert_eq!(a.to_bytes(), b.to_bytes(), "rebuild diverged");
        assert_eq!(a.to_bytes(), c.to_bytes(), "thread count changed bytes");
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn probing_all_lists_covers_everything_once() {
        let reps = clustered_reps(57);
        let index = IvfIndex::build(&reps, &IvfConfig::default(), &Pool::new(2));
        let q = vec![0.3f32; 8];
        let mut ids: Vec<usize> = index.candidates(&q, 0).iter().map(|e| e.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..57).collect::<Vec<_>>());
        // nprobe >= nlist behaves like "all" too.
        assert_eq!(
            index.candidates(&q, index.nlist() + 3).len(),
            index.num_entities()
        );
    }

    #[test]
    fn probe_order_ranks_matching_centroids_first() {
        let reps = clustered_reps(200);
        let cfg = IvfConfig {
            nlist: 4,
            ..IvfConfig::default()
        };
        let index = IvfIndex::build(&reps, &cfg, &Pool::new(1));
        // A query aligned with cluster 0's direction: the top probed list
        // should contain predominantly cluster-0 entities (ids ≡ 0 mod 4).
        let mut q = vec![0.0f32; 8];
        q[0] = 1.0;
        let order = index.probe_order(&q);
        assert_eq!(order.len(), 4);
        let top = &index.lists()[order[0] as usize];
        assert!(!top.is_empty());
        let in_cluster = top.iter().filter(|e| e.index() % 4 == 0).count();
        assert!(
            in_cluster * 2 > top.len(),
            "top probed list should be dominated by the matching cluster"
        );
    }

    #[test]
    fn empty_and_degenerate_inputs_build_empty_indexes() {
        let empty = EntityEmbeddings::new(Matrix::from_vec(0, 4, Vec::new()));
        let index = IvfIndex::build(&empty, &IvfConfig::default(), &Pool::new(1));
        assert_eq!(index.num_entities(), 0);
        assert!(index.candidates(&[0.0; 4], 0).is_empty());
        // All-zero rows still index (into list 0 by the tie rule).
        let zeros = EntityEmbeddings::new(Matrix::from_vec(5, 4, vec![0.0; 20]));
        let index = IvfIndex::build(
            &zeros,
            &IvfConfig {
                nlist: 2,
                ..IvfConfig::default()
            },
            &Pool::new(1),
        );
        let total: usize = index.lists().iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn auto_nlist_tracks_sqrt_n() {
        let cfg = IvfConfig::default();
        assert_eq!(cfg.effective_nlist(100), 10);
        assert_eq!(cfg.effective_nlist(1), 1);
        assert_eq!(cfg.effective_nlist(0), 1);
        let fixed = IvfConfig {
            nlist: 999,
            ..IvfConfig::default()
        };
        assert_eq!(fixed.effective_nlist(10), 10, "nlist clamps to N");
    }
}
