//! The expansion engine: expensive offline phase, cheap online queries.
//!
//! [`ExpansionEngine::build`] runs the offline phase once — world
//! generation plus RetExpan (and optionally GenExpan) training — and the
//! resulting engine is immutable: every online entry point takes `&self`,
//! so one engine can sit behind an `Arc` and serve any number of worker
//! threads. Online answers go through the *same* `expand` methods the
//! offline pipelines expose, which is what makes a served list
//! byte-identical to an offline run on the same `(profile, seed)`.

use crate::api::{ExpandRequest, Method};
use crate::cache::{CacheKey, CacheStats, ShardedLruCache};
use crate::metrics::GenExpanMemoStats;
use crate::ServeError;
use std::sync::Arc;
use ultra_ann::{AnnSpec, IvfIndex};
use ultra_core::{Query, RankedList, UltraClass, UltraError};
use ultra_data::{World, WorldConfig};
use ultra_embed::EncoderConfig;
use ultra_genexpan::{GenExpan, GenExpanConfig};
use ultra_retexpan::{RetExpan, RetExpanConfig};
use ultra_snap::{SnapError, Snapshot, SnapshotMeta};
use ultra_text::{Bm25Index, Bm25Params};

/// Offline-phase configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// World profile: `"tiny"`, `"small"`, `"paper"`, or `"huge"`.
    pub profile: String,
    /// World seed.
    pub seed: u64,
    /// Encoder training configuration for RetExpan.
    pub encoder: EncoderConfig,
    /// RetExpan pipeline configuration.
    pub retexpan: RetExpanConfig,
    /// Train GenExpan too (slower startup) when `Some`.
    pub genexpan: Option<GenExpanConfig>,
    /// Total result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Data-parallel worker count for scoring/training (`ultra-par`);
    /// `0` keeps the ambient default (`ULTRA_THREADS` or the machine's
    /// parallelism). Results are byte-identical at any value.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            profile: "small".to_string(),
            seed: 42,
            encoder: EncoderConfig::default(),
            retexpan: RetExpanConfig::default(),
            genexpan: None,
            cache_capacity: 4096,
            cache_shards: 8,
            threads: 0,
        }
    }
}

impl EngineConfig {
    /// The [`WorldConfig`] for this profile + seed.
    pub fn world_config(&self) -> Result<WorldConfig, ServeError> {
        WorldConfig::from_profile(&self.profile)
            .map(|cfg| cfg.with_seed(self.seed))
            .map_err(|e| ServeError::BadRequest(e.to_string()))
    }
}

/// Whether an answer came from the cache or was computed cold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the result cache.
    Hit,
    /// Computed by the pipeline (and inserted into the cache).
    Miss,
}

impl CacheOutcome {
    /// Wire value for the `X-Ultra-Cache` response header.
    pub fn header_value(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Which candidate source the engine's RetExpan preliminary stage uses and
/// what its index cost to build — surfaced in the startup log and under
/// `GET /metrics` so load tests against large profiles are attributable.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IndexInfo {
    /// Wire label of the active source (e.g. `"ivf(nlist=316,nprobe=8)"`).
    pub candidate_source: String,
    /// Wall-clock cost of building that source at startup (µs); `0` for
    /// the index-free exhaustive path.
    pub index_build_micros: u64,
    /// Whole-file fingerprint (hex) of the snapshot this engine was loaded
    /// from; absent when the engine was trained at startup.
    pub snapshot_fingerprint: Option<String>,
    /// Wall-clock cost of loading that snapshot (µs), from first byte
    /// parsed to engine ready; absent when trained at startup.
    pub snapshot_load_micros: Option<u64>,
}

impl Default for IndexInfo {
    fn default() -> Self {
        Self {
            candidate_source: "exhaustive".to_string(),
            index_build_micros: 0,
            snapshot_fingerprint: None,
            snapshot_load_micros: None,
        }
    }
}

/// Engine knobs that are *not* persisted in a snapshot: cache sizing and
/// the data-parallel worker count are serving-time choices, and none of
/// them can change a served byte.
#[derive(Clone, Debug)]
pub struct SnapshotRuntime {
    /// Total result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Data-parallel worker count (`0` keeps the ambient default).
    pub threads: usize,
}

impl Default for SnapshotRuntime {
    fn default() -> Self {
        let d = EngineConfig::default();
        Self {
            cache_capacity: d.cache_capacity,
            cache_shards: d.cache_shards,
            threads: 0,
        }
    }
}

/// The trained, immutable serving engine.
pub struct ExpansionEngine {
    config: EngineConfig,
    world: World,
    retexpan: RetExpan,
    genexpan: Option<GenExpan>,
    cache: ShardedLruCache,
    index: IndexInfo,
    /// The built IVF index (shared with the installed `IvfSource`), kept so
    /// [`to_snapshot`](Self::to_snapshot) can serialize it; `None` on the
    /// exhaustive path.
    ivf: Option<Arc<IvfIndex>>,
}

impl ExpansionEngine {
    /// Runs the offline phase: world generation + pipeline training.
    pub fn build(config: EngineConfig) -> Result<Self, ServeError> {
        let world = World::generate(config.world_config()?)?;
        Self::from_world(world, config)
    }

    /// Offline phase over a pre-built world (test and embedding hook; the
    /// profile in `config` is informational only in this path).
    pub fn from_world(world: World, config: EngineConfig) -> Result<Self, ServeError> {
        if config.threads > 0 {
            ultra_par::set_threads(config.threads);
        }
        // Train with the index-free exhaustive source, then install the
        // configured source separately so its build cost is measured on its
        // own (the stopwatch feeds the startup log and `/metrics` only —
        // never a score).
        let mut retexpan_cfg = config.retexpan.clone();
        let ann = std::mem::take(&mut retexpan_cfg.ann);
        let mut retexpan = RetExpan::train(&world, config.encoder.clone(), retexpan_cfg);
        let sw = crate::metrics::Stopwatch::start();
        let (source, ivf) = ann.source_with_index(&retexpan.reps, None, &ultra_par::Pool::global());
        retexpan.config.ann = ann;
        retexpan.set_source(source);
        let index = IndexInfo {
            candidate_source: retexpan.source_name(),
            index_build_micros: sw.elapsed_micros(),
            ..IndexInfo::default()
        };
        eprintln!(
            "[engine] candidate source: {} (index build {:.1}ms)",
            index.candidate_source,
            index.index_build_micros as f64 / 1e3
        );
        let genexpan = config
            .genexpan
            .clone()
            .map(|cfg| GenExpan::train(&world, cfg));
        let cache = ShardedLruCache::new(config.cache_capacity, config.cache_shards);
        Ok(Self {
            config,
            world,
            retexpan,
            genexpan,
            cache,
            index,
            ivf,
        })
    }

    /// Serializes this engine's trained artifacts into a [`Snapshot`]. The
    /// persisted ANN spec is the **resolved** form (see [`AnnSpec::resolve`])
    /// so the snapshot spells out concrete `nlist`/`nprobe` values instead
    /// of the CLI's `0` placeholders.
    pub fn to_snapshot(&self) -> Result<Snapshot, ServeError> {
        let num_entities = self.world.num_entities();
        let resolved = self.retexpan.config.ann.resolve(num_entities);
        resolved.validate_resolved().map_err(|e| {
            ServeError::Snapshot(SnapError::Mismatch(format!(
                "ann spec does not resolve to a persistable form: {e}"
            )))
        })?;
        let ivf = match (&resolved, &self.ivf) {
            (AnnSpec::Ivf(_), Some(index)) => Some((**index).clone()),
            (AnnSpec::Ivf(_), None) => {
                return Err(ServeError::Snapshot(SnapError::Mismatch(
                    "engine has an ivf spec but never built an index".into(),
                )))
            }
            (AnnSpec::Exhaustive, _) => None,
        };
        let docs = self.world.lm_sentences();
        let bm25 = Bm25Index::build(docs.iter().map(Vec::as_slice), Bm25Params::default());
        let meta = SnapshotMeta {
            profile: self.config.profile.clone(),
            seed: self.config.seed,
            world_fingerprint: self.world.fingerprint(),
            num_entities,
            num_queries: self.num_queries(),
            num_docs: bm25.num_docs(),
            encoder: self.config.encoder.clone(),
            retexpan: RetExpanConfig {
                ann: resolved,
                ..self.retexpan.config.clone()
            },
            genexpan_enabled: self.genexpan.is_some(),
        };
        Ok(Snapshot {
            meta,
            reps: self.retexpan.reps.clone(),
            lm: self.genexpan.as_ref().map(|g| g.lm().clone()),
            trie: self.genexpan.as_ref().map(|g| g.trie().clone()),
            bm25,
            ivf,
        })
    }

    /// Loads an engine from snapshot bytes: full container validation, then
    /// world regeneration from `(profile, seed)` with a fingerprint
    /// cross-check, then reassembly of the trained pipelines — no training.
    /// The reported [`IndexInfo`] carries the snapshot fingerprint and the
    /// wall-clock load time.
    pub fn from_snapshot_bytes(bytes: &[u8], runtime: SnapshotRuntime) -> Result<Self, ServeError> {
        let sw = crate::metrics::Stopwatch::start();
        let fingerprint = ultra_snap::file_fingerprint(bytes);
        let snapshot = Snapshot::from_bytes(bytes)?;
        let mut engine = Self::from_snapshot(snapshot, runtime)?;
        engine.index.snapshot_fingerprint = Some(format!("{fingerprint:016x}"));
        engine.index.snapshot_load_micros = Some(sw.elapsed_micros());
        eprintln!(
            "[engine] loaded snapshot {:016x} in {:.1}ms (candidate source: {})",
            fingerprint,
            engine.index.snapshot_load_micros.unwrap_or(0) as f64 / 1e3,
            engine.index.candidate_source
        );
        Ok(engine)
    }

    /// [`from_snapshot_bytes`](Self::from_snapshot_bytes) over a file.
    pub fn load_snapshot(
        path: &std::path::Path,
        runtime: SnapshotRuntime,
    ) -> Result<Self, ServeError> {
        let bytes = ultra_snap::read_bytes(path)?;
        Self::from_snapshot_bytes(&bytes, runtime)
    }

    /// Reassembles an engine from a decoded, container-validated snapshot.
    /// Every cheap derived structure (world, co-occurrence index) is
    /// rebuilt from `(profile, seed)` and cross-checked against the
    /// snapshot metadata; any disagreement is a typed
    /// [`SnapError::Mismatch`], never a silently different engine.
    pub fn from_snapshot(snapshot: Snapshot, runtime: SnapshotRuntime) -> Result<Self, ServeError> {
        if runtime.threads > 0 {
            ultra_par::set_threads(runtime.threads);
        }
        let mismatch = |msg: String| ServeError::Snapshot(SnapError::Mismatch(msg));
        let Snapshot {
            meta,
            reps,
            lm,
            trie,
            bm25,
            ivf,
        } = snapshot;
        let genexpan_cfg = meta.genexpan_enabled.then(GenExpanConfig::default);
        let config = EngineConfig {
            profile: meta.profile.clone(),
            seed: meta.seed,
            encoder: meta.encoder.clone(),
            retexpan: meta.retexpan.clone(),
            genexpan: genexpan_cfg.clone(),
            cache_capacity: runtime.cache_capacity,
            cache_shards: runtime.cache_shards,
            threads: runtime.threads,
        };
        let world = World::generate(config.world_config()?)?;
        if world.fingerprint() != meta.world_fingerprint {
            return Err(mismatch(format!(
                "regenerated world fingerprint {:016x} != snapshot {:016x} (profile={}, seed={})",
                world.fingerprint(),
                meta.world_fingerprint,
                meta.profile,
                meta.seed
            )));
        }
        if world.num_entities() != meta.num_entities {
            return Err(mismatch(format!(
                "regenerated world has {} entities, snapshot says {}",
                world.num_entities(),
                meta.num_entities
            )));
        }
        let num_queries: usize = world.ultra_classes.iter().map(|u| u.queries.len()).sum();
        if num_queries != meta.num_queries {
            return Err(mismatch(format!(
                "regenerated world has {num_queries} queries, snapshot says {}",
                meta.num_queries
            )));
        }
        if bm25.num_docs() != world.corpus.len() {
            return Err(mismatch(format!(
                "BM25 section indexes {} documents, regenerated corpus has {}",
                bm25.num_docs(),
                world.corpus.len()
            )));
        }
        let mut retexpan = RetExpan::from_parts(reps, meta.retexpan.clone());
        // `Snapshot::cross_check` already rejects a spec/section mismatch;
        // checked again so this constructor is safe on hand-built
        // snapshots too.
        let ann = &meta.retexpan.ann;
        if matches!(ann, AnnSpec::Exhaustive) != ivf.is_none() {
            return Err(mismatch("ann spec and UANN section disagree".into()));
        }
        let (source, ivf) = ann.source_with_index(&retexpan.reps, ivf, &ultra_par::Pool::global());
        retexpan.set_source(source);
        let genexpan = match (genexpan_cfg, lm, trie) {
            (Some(cfg), Some(lm), Some(trie)) => {
                if lm.order() != cfg.model.order {
                    return Err(mismatch(format!(
                        "NGLM order {} != serving LM order {}",
                        lm.order(),
                        cfg.model.order
                    )));
                }
                if lm.vocab_size() != world.vocab.len() {
                    return Err(mismatch(format!(
                        "NGLM vocabulary {} != regenerated vocabulary {}",
                        lm.vocab_size(),
                        world.vocab.len()
                    )));
                }
                Some(GenExpan::from_parts(&world, cfg, lm, trie))
            }
            (None, None, None) => None,
            _ => return Err(mismatch("genexpan flag and sections disagree".into())),
        };
        let index = IndexInfo {
            candidate_source: retexpan.source_name(),
            ..IndexInfo::default()
        };
        let cache = ShardedLruCache::new(runtime.cache_capacity, runtime.cache_shards);
        Ok(Self {
            config,
            world,
            retexpan,
            genexpan,
            cache,
            index,
            ivf,
        })
    }

    /// The active candidate source and its startup build cost.
    pub fn index_info(&self) -> &IndexInfo {
        &self.index
    }

    /// The generated world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The trained RetExpan pipeline (the offline comparison baseline).
    pub fn retexpan(&self) -> &RetExpan {
        &self.retexpan
    }

    /// Wire names of the methods this engine can answer.
    pub fn methods(&self) -> Vec<&'static str> {
        let mut methods = vec![Method::RetExpan.name()];
        if self.genexpan.is_some() {
            methods.push(Method::GenExpan.name());
        }
        methods
    }

    /// Number of generated queries addressable via `query_index`.
    pub fn num_queries(&self) -> usize {
        self.world
            .ultra_classes
            .iter()
            .map(|u| u.queries.len())
            .sum()
    }

    /// Live cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// GenExpan's window-memo counters; all zero when GenExpan is off.
    pub fn memo_stats(&self) -> GenExpanMemoStats {
        self.genexpan
            .as_ref()
            .map_or_else(GenExpanMemoStats::default, |g| g.memo_stats().into())
    }

    fn ultra_of(&self, query: &Query) -> Result<&UltraClass, ServeError> {
        self.world
            .ultra_classes
            .get(query.ultra.index())
            .ok_or_else(|| {
                ServeError::Engine(UltraError::UnknownClass(format!(
                    "ultra-class id {} out of range (world has {})",
                    query.ultra,
                    self.world.ultra_classes.len()
                )))
            })
    }

    /// Validates a query against the world: known ultra class, known seed
    /// entities, non-empty positive seeds.
    pub fn validate(&self, query: &Query) -> Result<(), ServeError> {
        self.ultra_of(query)?;
        if query.pos_seeds.is_empty() {
            return Err(ServeError::Engine(UltraError::EmptyInput(
                "query has no positive seeds".into(),
            )));
        }
        for e in query.all_seeds() {
            if e.index() >= self.world.num_entities() {
                return Err(ServeError::Engine(UltraError::UnknownEntity(format!(
                    "seed entity id {} out of range (vocabulary has {})",
                    e,
                    self.world.num_entities()
                ))));
            }
        }
        Ok(())
    }

    /// Resolves an API request into a concrete `(method, query, top_k)`
    /// triple, validating everything.
    pub fn resolve(&self, req: &ExpandRequest) -> Result<(Method, Query, usize), ServeError> {
        let method_name = req.method.as_deref().unwrap_or("retexpan");
        let method = Method::from_name(method_name).ok_or_else(|| {
            ServeError::BadRequest(format!(
                "unknown method `{method_name}` (expected retexpan|genexpan)"
            ))
        })?;
        if method == Method::GenExpan && self.genexpan.is_none() {
            return Err(ServeError::BadRequest(
                "genexpan is not enabled on this server (start with --methods retexpan,genexpan)"
                    .into(),
            ));
        }
        let query = match (&req.query, req.query_index) {
            (Some(_), Some(_)) => {
                return Err(ServeError::BadRequest(
                    "give either `query` or `query_index`, not both".into(),
                ))
            }
            (Some(q), None) => q.clone(),
            (None, Some(idx)) => self
                .world
                .queries()
                .nth(idx)
                .map(|(_, q)| q.clone())
                .ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "query_index {idx} out of range (world has {})",
                        self.num_queries()
                    ))
                })?,
            (None, None) => {
                return Err(ServeError::BadRequest(
                    "request needs a `query` or a `query_index`".into(),
                ))
            }
        };
        self.validate(&query)?;
        Ok((method, query, req.top_k.unwrap_or(0)))
    }

    /// The uncached expansion — exactly what the offline pipelines compute.
    /// `top_k == 0` returns the untruncated list.
    pub fn expand_uncached(
        &self,
        method: Method,
        query: &Query,
        top_k: usize,
    ) -> Result<RankedList, ServeError> {
        let list = match method {
            Method::RetExpan => self.retexpan.expand(&self.world, query),
            Method::GenExpan => {
                let Some(gen) = &self.genexpan else {
                    return Err(ServeError::BadRequest(
                        "genexpan is not enabled on this server".into(),
                    ));
                };
                let ultra = self.ultra_of(query)?;
                gen.expand(&self.world, ultra, query)
            }
        };
        Ok(if top_k > 0 {
            list.truncated(top_k)
        } else {
            list
        })
    }

    /// Cache-aware expansion: hit → the stored list (bit-identical to what
    /// the cold path produced), miss → compute, store, return.
    pub fn expand(
        &self,
        method: Method,
        query: &Query,
        top_k: usize,
    ) -> Result<(Arc<RankedList>, CacheOutcome), ServeError> {
        let key = CacheKey {
            method,
            query: query.clone(),
            top_k,
        };
        if let Some(hit) = self.cache.get(&key) {
            return Ok((hit, CacheOutcome::Hit));
        }
        let list = Arc::new(self.expand_uncached(method, query, top_k)?);
        self.cache.insert(key, list.clone());
        Ok((list, CacheOutcome::Miss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_core::EntityId;

    fn quick_engine() -> ExpansionEngine {
        let config = EngineConfig {
            profile: "tiny".into(),
            encoder: EncoderConfig {
                epochs: 1,
                dim: 16,
                neg_samples: 8,
                max_sentences_per_entity: 4,
                ..EncoderConfig::default()
            },
            cache_capacity: 64,
            cache_shards: 2,
            ..EngineConfig::default()
        };
        ExpansionEngine::build(config).expect("engine builds")
    }

    #[test]
    fn served_result_matches_offline_pipeline_bit_for_bit() {
        let engine = quick_engine();
        let (_u, query) = engine.world().queries().next().expect("has queries");
        let offline = engine.retexpan().expand(engine.world(), query);
        let (served, outcome) = engine
            .expand(Method::RetExpan, query, 0)
            .expect("expansion succeeds");
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(*served, offline, "cold serve == offline");
        let (cached, outcome) = engine
            .expand(Method::RetExpan, query, 0)
            .expect("expansion succeeds");
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(*cached, offline, "cache hit == offline");
        // Byte-level too: identical JSON.
        let a = serde_json::to_string(&*cached).expect("json");
        let b = serde_json::to_string(&offline).expect("json");
        assert_eq!(a, b);
    }

    #[test]
    fn resolve_validates_requests() {
        let engine = quick_engine();
        let ok = engine
            .resolve(&ExpandRequest::replay(Method::RetExpan, 0, 10))
            .expect("valid");
        assert_eq!(ok.0, Method::RetExpan);
        assert_eq!(ok.2, 10);

        let bad_method = ExpandRequest {
            method: Some("gpt5".into()),
            query_index: Some(0),
            query: None,
            top_k: None,
        };
        assert!(matches!(
            engine.resolve(&bad_method),
            Err(ServeError::BadRequest(_))
        ));

        let gen_disabled = ExpandRequest::replay(Method::GenExpan, 0, 0);
        assert!(matches!(
            engine.resolve(&gen_disabled),
            Err(ServeError::BadRequest(_))
        ));

        let out_of_range = ExpandRequest::replay(Method::RetExpan, usize::MAX, 0);
        assert!(matches!(
            engine.resolve(&out_of_range),
            Err(ServeError::BadRequest(_))
        ));

        let neither = ExpandRequest {
            method: None,
            query_index: None,
            query: None,
            top_k: None,
        };
        assert!(matches!(
            engine.resolve(&neither),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn validate_rejects_unknown_ids() {
        let engine = quick_engine();
        let (_u, query) = engine.world().queries().next().expect("has queries");
        let mut bogus = query.clone();
        bogus.pos_seeds.push(EntityId::new(u32::MAX));
        assert!(matches!(
            engine.validate(&bogus),
            Err(ServeError::Engine(UltraError::UnknownEntity(_)))
        ));
        let mut bogus = query.clone();
        bogus.ultra = ultra_core::UltraClassId::new(u32::MAX);
        assert!(matches!(
            engine.validate(&bogus),
            Err(ServeError::Engine(UltraError::UnknownClass(_)))
        ));
    }

    #[test]
    fn snapshot_roundtrip_preserves_every_served_byte() {
        let engine = quick_engine();
        let bytes = engine.to_snapshot().expect("snapshot").to_bytes();
        let loaded = ExpansionEngine::from_snapshot_bytes(&bytes, SnapshotRuntime::default())
            .expect("snapshot loads");
        assert!(loaded.index_info().snapshot_fingerprint.is_some());
        assert!(loaded.index_info().snapshot_load_micros.is_some());
        assert_eq!(
            loaded.index_info().candidate_source,
            engine.index_info().candidate_source
        );
        for (_u, query) in engine.world().queries() {
            let trained = engine
                .expand_uncached(Method::RetExpan, query, 0)
                .expect("trained expands");
            let served = loaded
                .expand_uncached(Method::RetExpan, query, 0)
                .expect("loaded expands");
            assert_eq!(
                serde_json::to_string(&trained).expect("json"),
                serde_json::to_string(&served).expect("json"),
                "snapshot-served answer differs from train-at-startup"
            );
        }
        // Canonical: re-snapshotting the loaded engine reproduces the file.
        assert_eq!(loaded.to_snapshot().expect("re-snapshot").to_bytes(), bytes);
    }

    #[test]
    fn snapshot_roundtrip_covers_ivf_and_genexpan_sections() {
        let config = EngineConfig {
            profile: "tiny".into(),
            encoder: EncoderConfig {
                epochs: 1,
                dim: 16,
                neg_samples: 8,
                max_sentences_per_entity: 4,
                ..EncoderConfig::default()
            },
            retexpan: RetExpanConfig {
                ann: AnnSpec::Ivf(ultra_ann::IvfConfig {
                    nlist: 4,
                    nprobe: 2,
                    ..ultra_ann::IvfConfig::default()
                }),
                ..RetExpanConfig::default()
            },
            genexpan: Some(GenExpanConfig::default()),
            cache_capacity: 64,
            cache_shards: 2,
            ..EngineConfig::default()
        };
        let engine = ExpansionEngine::build(config).expect("engine builds");
        let bytes = engine.to_snapshot().expect("snapshot").to_bytes();
        let loaded = ExpansionEngine::from_snapshot_bytes(&bytes, SnapshotRuntime::default())
            .expect("snapshot loads");
        assert_eq!(
            loaded.index_info().candidate_source,
            engine.index_info().candidate_source,
            "/metrics candidate source label must survive the roundtrip"
        );
        assert_eq!(loaded.methods(), engine.methods());
        let (_u, query) = engine.world().queries().next().expect("has queries");
        for method in [Method::RetExpan, Method::GenExpan] {
            let trained = engine
                .expand_uncached(method, query, 0)
                .expect("trained expands");
            let served = loaded
                .expand_uncached(method, query, 0)
                .expect("loaded expands");
            assert_eq!(
                serde_json::to_string(&trained).expect("json"),
                serde_json::to_string(&served).expect("json")
            );
        }
        assert_eq!(loaded.to_snapshot().expect("re-snapshot").to_bytes(), bytes);
    }

    #[test]
    fn top_k_truncates_and_is_part_of_the_cache_key() {
        let engine = quick_engine();
        let (_u, query) = engine.world().queries().next().expect("has queries");
        let (full, _) = engine.expand(Method::RetExpan, query, 0).expect("full");
        let (ten, outcome) = engine.expand(Method::RetExpan, query, 10).expect("ten");
        assert_eq!(outcome, CacheOutcome::Miss, "different key than top_k=0");
        assert_eq!(ten.len(), 10);
        assert_eq!(full.truncated(10), *ten);
    }
}
