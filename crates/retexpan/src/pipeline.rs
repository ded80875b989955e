//! The RetExpan pipeline: representation → expansion → re-ranking.

use ultra_ann::{AnnSpec, CandidateSource};
use ultra_core::{rerank_by_negatives, EntityId, Query, RankedList};
use ultra_data::World;
use ultra_embed::{EncoderConfig, EntityEmbeddings, EntityEncoder};
use ultra_par::Pool;

/// RetExpan pipeline configuration.
#[derive(Clone, Debug)]
pub struct RetExpanConfig {
    /// Size of the preliminary expansion list `L₀`.
    pub top_k: usize,
    /// Re-ranking segment length `l` (Figure 7 sweeps this; `0` = naive
    /// global re-rank).
    pub segment_len: usize,
    /// Whether negative-seed re-ranking runs at all (Table 5 ablation).
    pub rerank: bool,
    /// Candidate source for the preliminary stage: exhaustive scoring
    /// (default; the paper's exact path) or a deterministic IVF index
    /// (`ultra-ann`). With `nprobe = 0` ("all") the IVF output is
    /// byte-identical to exhaustive.
    pub ann: AnnSpec,
}

impl Default for RetExpanConfig {
    fn default() -> Self {
        Self {
            top_k: 200,
            segment_len: 20,
            rerank: true,
            ann: AnnSpec::Exhaustive,
        }
    }
}

/// A trained RetExpan instance: encoder plus cached entity representations.
pub struct RetExpan {
    /// The trained entity encoder.
    pub encoder: EntityEncoder,
    /// Cached per-entity representations.
    pub reps: EntityEmbeddings,
    /// Pipeline configuration.
    pub config: RetExpanConfig,
    /// Candidate source built from `config.ann` over `reps`; rebuilt
    /// whenever the representations change.
    source: Box<dyn CandidateSource>,
}

impl RetExpan {
    /// Trains the encoder (entity prediction task) and caches entity
    /// representations. This is the plain RetExpan of Table 2; apply
    /// [`refresh_reps`](Self::refresh_reps) after any further training
    /// (e.g. contrastive).
    pub fn train(world: &World, enc_cfg: EncoderConfig, config: RetExpanConfig) -> Self {
        let mut encoder = EntityEncoder::new(world, enc_cfg);
        encoder.train_entity_prediction(world);
        Self::from_encoder(world, encoder, config)
    }

    /// Reassembles a pipeline from previously persisted parts (snapshot
    /// load). No training and no index build happen here: the candidate
    /// source starts as [`Exhaustive`](ultra_ann::Exhaustive) and the caller
    /// installs the deserialized index via [`set_source`](Self::set_source).
    pub fn from_parts(
        encoder: EntityEncoder,
        reps: EntityEmbeddings,
        config: RetExpanConfig,
    ) -> Self {
        Self {
            encoder,
            reps,
            config,
            source: Box::new(ultra_ann::Exhaustive),
        }
    }

    /// Wraps an externally trained encoder.
    pub fn from_encoder(world: &World, encoder: EntityEncoder, config: RetExpanConfig) -> Self {
        let reps = encoder.entity_embeddings(world);
        let source = config.ann.build_source(&reps, &Pool::global());
        Self {
            encoder,
            reps,
            config,
            source,
        }
    }

    /// Recomputes cached representations after additional encoder training,
    /// and rebuilds the candidate source over them (a stale index would
    /// probe the *old* geometry).
    pub fn refresh_reps(&mut self, world: &World) {
        self.reps = self.encoder.entity_embeddings(world);
        self.source = self.config.ann.build_source(&self.reps, &Pool::global());
    }

    /// Switches the candidate source, rebuilding any index over the current
    /// representations (serve/bench use this to install — and time — the
    /// configured source after training).
    pub fn set_ann(&mut self, spec: AnnSpec) {
        self.config.ann = spec;
        self.source = self.config.ann.build_source(&self.reps, &Pool::global());
    }

    /// Installs a pre-built candidate source (bench sweeps reuse one IVF
    /// index across many `nprobe` operating points this way). The caller is
    /// responsible for the source matching `self.reps`.
    pub fn set_source(&mut self, source: Box<dyn CandidateSource>) {
        self.source = source;
    }

    /// Wire label of the active candidate source.
    pub fn source_name(&self) -> String {
        self.source.name()
    }

    /// Step 2: the preliminary list `L₀` — top-K candidates by `sco^pos`
    /// (Eq. 4), excluding the query's seeds. Negative seeds are *not* used
    /// here, "to ensure the recall of all entities satisfying fine-grained
    /// semantic classes". `restrict` optionally narrows the candidate pool
    /// (the Table 10 paradigm-interaction experiments).
    pub fn preliminary_list(
        &self,
        world: &World,
        query: &Query,
        restrict: Option<&[EntityId]>,
    ) -> RankedList {
        let pool = Pool::global();
        let scores: Vec<(EntityId, f32)> = match restrict {
            Some(cands) => {
                let cands: Vec<EntityId> = cands
                    .iter()
                    .copied()
                    .filter(|&e| !query.is_seed(e))
                    .collect();
                let s = self.reps.seed_scores(&cands, &query.pos_seeds, &pool);
                cands.into_iter().zip(s).collect()
            }
            None => {
                // The candidate source decides *which* entities get scored
                // (all of them for `Exhaustive`, the probed inverted lists
                // for `Ivf`); scores come from the same factorized kernel
                // either way. Seeds are dropped afterwards, exactly as the
                // pre-index code did.
                debug_assert_eq!(world.entities.len(), self.reps.len());
                self.source
                    .scored_candidates(&self.reps, &query.pos_seeds, &pool)
                    .into_iter()
                    .filter(|&(e, _)| !query.is_seed(e))
                    .collect()
            }
        };
        RankedList::top_k(scores, self.config.top_k)
    }

    /// Full pipeline: expansion then (optionally) segmented re-ranking by
    /// `sco^neg`.
    pub fn expand(&self, world: &World, query: &Query) -> RankedList {
        self.expand_restricted(world, query, None)
    }

    /// [`expand`](Self::expand) over a restricted candidate pool.
    pub fn expand_restricted(
        &self,
        world: &World,
        query: &Query,
        restrict: Option<&[EntityId]>,
    ) -> RankedList {
        let l0 = self.preliminary_list(world, query, restrict);
        if !self.config.rerank || query.neg_seeds.is_empty() {
            l0.debug_validate("retexpan::expand (preliminary)");
            return l0;
        }
        let cands: Vec<EntityId> = l0.entities().collect();
        let neg = self
            .reps
            .seed_scores(&cands, &query.neg_seeds, &Pool::global());
        let reranked = rerank_by_negatives(&l0, self.config.segment_len, &neg);
        reranked.debug_validate("retexpan::expand (reranked)");
        reranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_data::WorldConfig;
    use ultra_eval::evaluate_method;

    fn quick_enc() -> EncoderConfig {
        EncoderConfig {
            epochs: 8,
            dim: 64,
            neg_samples: 48,
            max_sentences_per_entity: 12,
            ..EncoderConfig::default()
        }
    }

    #[test]
    fn retexpan_beats_random_by_a_wide_margin() {
        let world = World::generate(WorldConfig::tiny()).unwrap();
        let ret = RetExpan::train(&world, quick_enc(), RetExpanConfig::default());
        let report = evaluate_method(&world, |_u, q| ret.expand(&world, q));
        // Baseline: a seeded random ranking over the same candidate pool.
        // Absolute Pos-vs-Neg comparisons are confounded on the tiny
        // profile: N is ~1.6× larger than P per query, and ~40% of N is
        // pos∧neg overlap (entities satisfying the positive constraint by
        // construction), so even a perfect ranker shows elevated Neg
        // numbers. Lift over chance is the size-robust signal.
        let rand_report = evaluate_method(&world, |_u, q| {
            let scores: Vec<(EntityId, f32)> = world
                .entities
                .iter()
                .filter(|e| !q.is_seed(e.id))
                .map(|e| {
                    let h =
                        ultra_core::mix_seed(0xD1CE ^ q.ultra.index() as u64, e.id.index() as u64);
                    (e.id, (h >> 40) as f32)
                })
                .collect();
            RankedList::top_k(scores, ret.config.top_k)
        });
        assert!(
            report.pos_map[0] > 10.0,
            "PosMAP@10 = {:.2}",
            report.pos_map[0]
        );
        let pos_lift = report.avg_pos() / rand_report.avg_pos().max(0.1);
        let neg_lift = report.avg_neg() / rand_report.avg_neg().max(0.1);
        assert!(
            pos_lift > 5.0,
            "Pos lift over random = {pos_lift:.1}x (ret {:.2} vs random {:.2})",
            report.avg_pos(),
            rand_report.avg_pos()
        );
        // The model must concentrate positives harder than it (inevitably)
        // drags in the overlap-heavy negatives.
        assert!(
            pos_lift > neg_lift,
            "Pos lift {pos_lift:.1}x should exceed Neg lift {neg_lift:.1}x"
        );
    }

    #[test]
    fn rerank_reduces_negative_intrusion() {
        let world = World::generate(WorldConfig::tiny()).unwrap();
        let mut ret = RetExpan::train(&world, quick_enc(), RetExpanConfig::default());
        let with = evaluate_method(&world, |_u, q| ret.expand(&world, q));
        ret.config.rerank = false;
        let without = evaluate_method(&world, |_u, q| ret.expand(&world, q));
        assert!(
            with.avg_neg_map() <= without.avg_neg_map() + 1e-9,
            "rerank should not worsen NegMAP: {:.2} vs {:.2}",
            with.avg_neg_map(),
            without.avg_neg_map()
        );
    }

    #[test]
    fn preliminary_list_excludes_seeds_and_respects_top_k() {
        let world = World::generate(WorldConfig::tiny()).unwrap();
        let ret = RetExpan::train(
            &world,
            EncoderConfig {
                epochs: 0,
                ..quick_enc()
            },
            RetExpanConfig {
                top_k: 25,
                ..RetExpanConfig::default()
            },
        );
        let (_u, q) = world.queries().next().unwrap();
        let l0 = ret.preliminary_list(&world, q, None);
        assert_eq!(l0.len(), 25);
        for s in q.all_seeds() {
            assert_eq!(l0.rank_of(s), None);
        }
    }

    #[test]
    fn ivf_full_probe_expansion_is_byte_identical_to_exhaustive() {
        let world = World::generate(WorldConfig::tiny()).unwrap();
        let mut ret = RetExpan::train(
            &world,
            EncoderConfig {
                epochs: 2,
                ..quick_enc()
            },
            RetExpanConfig::default(),
        );
        let exhaustive: Vec<RankedList> = world
            .queries()
            .map(|(_u, q)| ret.expand(&world, q))
            .collect();
        ret.set_ann(ultra_ann::AnnSpec::Ivf(ultra_ann::IvfConfig {
            nprobe: 0,
            ..ultra_ann::IvfConfig::default()
        }));
        assert!(ret.source_name().contains("ivf"));
        for ((_u, q), exh) in world.queries().zip(&exhaustive) {
            let ivf = ret.expand(&world, q);
            // `RankedList` equality is bit-exact on score bits.
            assert_eq!(&ivf, exh, "ivf(nprobe=all) diverged from exhaustive");
        }
    }

    #[test]
    fn narrow_probe_keeps_high_overlap_with_exhaustive_head() {
        let world = World::generate(WorldConfig::tiny()).unwrap();
        let mut ret = RetExpan::train(&world, quick_enc(), RetExpanConfig::default());
        let exhaustive: Vec<Vec<EntityId>> = world
            .queries()
            .map(|(_u, q)| ret.preliminary_list(&world, q, None).entities().collect())
            .collect();
        ret.set_ann(ultra_ann::AnnSpec::Ivf(ultra_ann::IvfConfig {
            nprobe: 8,
            ..ultra_ann::IvfConfig::default()
        }));
        let k = 10;
        let mut hits = 0usize;
        let mut total = 0usize;
        for ((_u, q), exh) in world.queries().zip(&exhaustive) {
            let ivf: Vec<EntityId> = ret.preliminary_list(&world, q, None).entities().collect();
            for e in exh.iter().take(k) {
                total += 1;
                if ivf.iter().take(k).any(|x| x == e) {
                    hits += 1;
                }
            }
        }
        let recall = hits as f64 / total.max(1) as f64;
        assert!(
            recall > 0.6,
            "recall@{k} of a reasonable probe width collapsed: {recall:.2}"
        );
    }

    #[test]
    fn restricted_expansion_stays_in_pool() {
        let world = World::generate(WorldConfig::tiny()).unwrap();
        let ret = RetExpan::train(
            &world,
            EncoderConfig {
                epochs: 0,
                ..quick_enc()
            },
            RetExpanConfig::default(),
        );
        let (u, q) = world.queries().next().unwrap();
        let pool: Vec<EntityId> = u
            .pos_targets
            .iter()
            .chain(&u.neg_targets)
            .copied()
            .collect();
        let out = ret.expand_restricted(&world, q, Some(&pool));
        for e in out.entities() {
            assert!(pool.contains(&e));
        }
    }
}
