//! **ultra-ann** — deterministic sublinear candidate retrieval.
//!
//! RetExpan's preliminary expansion ranks candidates by their dot product
//! against the seed query vector (the factorized Eq. 4 kernel in
//! `ultra-embed`). Scoring *every* entity keeps that stage O(N) per query,
//! which caps the serving story at toy world sizes. This crate puts an
//! IVF-style index in front of the exact kernel: a coarse quantizer
//! (seeded, fixed-iteration spherical k-means) partitions the entities
//! into inverted lists; at query time only the `nprobe` lists whose
//! centroids best match the seed query are scanned, and only their members
//! are scored — with the *same* `ultra-embed`/`ultra-par` kernels the
//! exhaustive path uses, so the scores of every scored entity are
//! bit-identical to what the exhaustive path would have produced.
//!
//! Everything is deterministic by construction (see [`ivf`] for the exact
//! policy): two builds over the same embeddings are byte-reproducible at
//! any thread count, and probing **all** lists yields ranked output
//! byte-identical to the exhaustive path, because the lists partition the
//! entity set and per-entity scores are a pure function of
//! `(entity, seed set)`.
//!
//! The [`CandidateSource`] trait is the seam the RetExpan pipeline routes
//! through: [`Exhaustive`] preserves the pre-index behaviour exactly,
//! [`IvfSource`] trades recall for sublinear scan cost via `nprobe`.

pub mod ivf;
pub mod source;

pub use ivf::{IvfConfig, IvfIndex};
pub use source::{CandidateSource, Exhaustive, IvfSource};

use std::sync::Arc;
use ultra_embed::EntityEmbeddings;
use ultra_par::Pool;

/// Which candidate source the RetExpan preliminary stage should use.
///
/// This is plain configuration data (`Clone` + comparable), so it can sit
/// inside pipeline/engine config structs; [`AnnSpec::build_source`] turns
/// it into a live [`CandidateSource`] for a concrete embedding matrix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum AnnSpec {
    /// Score every entity (the original O(N) path).
    #[default]
    Exhaustive,
    /// IVF index with the given build/probe parameters.
    Ivf(IvfConfig),
}

impl AnnSpec {
    /// Builds the live candidate source for `reps`. For [`AnnSpec::Ivf`]
    /// this trains the coarse quantizer (the expensive part); callers that
    /// need the build time on a clock measure around this call.
    pub fn build_source(&self, reps: &EntityEmbeddings, pool: &Pool) -> Box<dyn CandidateSource> {
        self.source_with_index(reps, None, pool).0
    }

    /// The live candidate source for `reps` plus the IVF index behind it
    /// (`None` for [`AnnSpec::Exhaustive`]), so a caller can persist the
    /// index it serves from. An IVF spec probes `prebuilt` when given (an
    /// index decoded from a snapshot) and builds one over `reps` otherwise.
    pub fn source_with_index(
        &self,
        reps: &EntityEmbeddings,
        prebuilt: Option<IvfIndex>,
        pool: &Pool,
    ) -> (Box<dyn CandidateSource>, Option<Arc<IvfIndex>>) {
        match self {
            AnnSpec::Exhaustive => (Box::new(Exhaustive), None),
            AnnSpec::Ivf(cfg) => {
                let index = Arc::new(prebuilt.unwrap_or_else(|| IvfIndex::build(reps, cfg, pool)));
                (
                    Box::new(IvfSource::new(index.clone(), cfg.nprobe)),
                    Some(index),
                )
            }
        }
    }

    /// Strict validation for specs headed into a persisted artifact: an
    /// [`AnnSpec::Ivf`] must carry a fully *resolved* configuration (see
    /// [`IvfConfig::validate_resolved`]) — the `0` placeholders accepted by
    /// the CLI surface are rejected here with typed errors rather than
    /// being reinterpreted at load time. [`AnnSpec::Exhaustive`] has no
    /// parameters and always validates.
    pub fn validate_resolved(&self) -> ultra_core::Result<()> {
        match self {
            AnnSpec::Exhaustive => Ok(()),
            AnnSpec::Ivf(cfg) => cfg.validate_resolved(),
        }
    }

    /// Resolves the `0` placeholders against a concrete world size: `nlist`
    /// becomes [`IvfConfig::effective_nlist`] and `nprobe = 0` becomes
    /// "every list". The result always passes
    /// [`validate_resolved`](Self::validate_resolved) for non-empty worlds.
    pub fn resolve(&self, num_entities: usize) -> AnnSpec {
        match self {
            AnnSpec::Exhaustive => AnnSpec::Exhaustive,
            AnnSpec::Ivf(cfg) => {
                let nlist = cfg.effective_nlist(num_entities);
                let nprobe = if cfg.nprobe == 0 {
                    nlist
                } else {
                    cfg.nprobe.min(nlist)
                };
                AnnSpec::Ivf(IvfConfig {
                    nlist,
                    nprobe,
                    kmeans_iters: cfg.kmeans_iters,
                    seed: cfg.seed,
                })
            }
        }
    }

    /// Parses the CLI surface (`--ann exhaustive|ivf` plus optional
    /// `--nlist`/`--nprobe` overrides; `0` keeps the respective default /
    /// "all lists" semantics).
    pub fn from_flags(kind: &str, nlist: Option<usize>, nprobe: Option<usize>) -> Option<AnnSpec> {
        match kind {
            "exhaustive" | "" => Some(AnnSpec::Exhaustive),
            "ivf" => {
                let mut cfg = IvfConfig::default();
                if let Some(n) = nlist {
                    cfg.nlist = n;
                }
                if let Some(p) = nprobe {
                    cfg.nprobe = p;
                }
                Some(AnnSpec::Ivf(cfg))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_cli_surface() {
        assert_eq!(
            AnnSpec::from_flags("exhaustive", None, None),
            Some(AnnSpec::Exhaustive)
        );
        assert_eq!(
            AnnSpec::from_flags("", None, None),
            Some(AnnSpec::Exhaustive)
        );
        let ivf = AnnSpec::from_flags("ivf", Some(32), Some(4));
        match ivf {
            Some(AnnSpec::Ivf(cfg)) => {
                assert_eq!(cfg.nlist, 32);
                assert_eq!(cfg.nprobe, 4);
            }
            other => panic!("expected Ivf spec, got {other:?}"),
        }
        assert_eq!(AnnSpec::from_flags("hnsw", None, None), None);
    }

    #[test]
    fn default_is_exhaustive() {
        assert_eq!(AnnSpec::default(), AnnSpec::Exhaustive);
    }

    #[test]
    fn zero_placeholders_are_typed_errors_not_panics() {
        use ultra_core::UltraError;
        // The CLI surface accepts the 0 placeholders…
        let spec = AnnSpec::from_flags("ivf", Some(0), Some(0)).expect("cli accepts 0");
        // …but a persisted spec must be resolved: validation returns a
        // typed error, gracefully, for each placeholder.
        assert!(matches!(
            spec.validate_resolved(),
            Err(UltraError::InvalidConfig(_))
        ));
        let nlist_only = AnnSpec::Ivf(IvfConfig {
            nlist: 8,
            nprobe: 0,
            ..IvfConfig::default()
        });
        assert!(matches!(
            nlist_only.validate_resolved(),
            Err(UltraError::InvalidConfig(msg)) if msg.contains("nprobe")
        ));
        let nprobe_only = AnnSpec::Ivf(IvfConfig {
            nlist: 0,
            nprobe: 4,
            ..IvfConfig::default()
        });
        assert!(matches!(
            nprobe_only.validate_resolved(),
            Err(UltraError::InvalidConfig(msg)) if msg.contains("nlist")
        ));
        let inverted = AnnSpec::Ivf(IvfConfig {
            nlist: 4,
            nprobe: 9,
            ..IvfConfig::default()
        });
        assert!(inverted.validate_resolved().is_err());
        assert!(AnnSpec::Exhaustive.validate_resolved().is_ok());
    }

    #[test]
    fn resolve_replaces_placeholders_with_concrete_values() {
        let spec = AnnSpec::from_flags("ivf", Some(0), Some(0)).expect("cli accepts 0");
        let resolved = spec.resolve(100);
        match &resolved {
            AnnSpec::Ivf(cfg) => {
                assert_eq!(cfg.nlist, 10, "auto nlist = round(sqrt(100))");
                assert_eq!(cfg.nprobe, 10, "nprobe 0 resolves to all lists");
            }
            other => panic!("expected Ivf, got {other:?}"),
        }
        assert!(resolved.validate_resolved().is_ok());
        // An over-wide explicit nprobe clamps to nlist instead of failing.
        let wide = AnnSpec::from_flags("ivf", Some(4), Some(64)).expect("spec");
        assert!(wide.resolve(100).validate_resolved().is_ok());
        assert_eq!(AnnSpec::Exhaustive.resolve(100), AnnSpec::Exhaustive);
    }
}
