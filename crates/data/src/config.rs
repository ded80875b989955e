//! World-generation configuration and the two standard profiles.

use ultra_core::{CoarseType, UltraError};

/// Schema of one attribute to synthesize for a fine-grained class.
#[derive(Clone, Debug)]
pub struct AttrSpec {
    /// Attribute name, e.g. `"<province>"`.
    pub name: &'static str,
    /// Number of distinct values.
    pub cardinality: usize,
    /// Probability that a sentence carries a marker of the entity's value
    /// for this attribute. Lower = harder to infer from context.
    pub signal_rate: f64,
}

/// Specification of one fine-grained semantic class.
#[derive(Clone, Debug)]
pub struct ClassSpec {
    /// Class name, e.g. `"China cities"`.
    pub name: &'static str,
    /// Coarse entity type.
    pub coarse: CoarseType,
    /// Number of member entities to generate.
    pub entities: usize,
    /// Target number of ultra-fine-grained classes to derive.
    pub ultra_classes: usize,
    /// The class's 2–3 attributes.
    pub attrs: Vec<AttrSpec>,
}

/// Full world-generation configuration.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// The fine-grained classes to generate.
    pub classes: Vec<ClassSpec>,
    /// Plain distractor entities (unrelated topics).
    pub distractors: usize,
    /// Hard-negative distractors per fine-grained class (share the class
    /// topic without class membership — the BM25-mined hard negatives of
    /// Section 4.2).
    pub hard_negatives_per_class: usize,
    /// Mean sentences per in-class entity before Zipf skew.
    pub sentences_per_entity: f64,
    /// Zipf exponent for entity frequency skew (0 = uniform).
    pub zipf_exponent: f64,
    /// Mean sentence length in tokens (geometric around this).
    pub sentence_len: usize,
    /// Size of the shared filler-token pool.
    pub filler_vocab: usize,
    /// Topic tokens per fine-grained class.
    pub topic_tokens_per_class: usize,
    /// Marker tokens per attribute value.
    pub marker_tokens_per_value: usize,
    /// Probability that an emitted attribute marker is *wrong* (annotation
    /// noise in the world itself).
    pub marker_noise: f64,
    /// Queries sampled per ultra-fine-grained class.
    pub queries_per_class: usize,
    /// Seed-count range per query (inclusive), paper: 3–5.
    pub seeds_min: usize,
    /// Upper bound of seeds per query.
    pub seeds_max: usize,
    /// Minimum size of both target sets (`n_thred`, paper: 6).
    pub n_thred: usize,
}

impl WorldConfig {
    /// Small profile: fast enough for unit/integration tests and examples
    /// (≈600 in-class entities, ≈1.2k distractors, ≈10k sentences).
    pub fn small() -> Self {
        Self {
            seed: 42,
            classes: scaled_classes(0.22, 0.3),
            distractors: 1200,
            hard_negatives_per_class: 20,
            sentences_per_entity: 12.0,
            zipf_exponent: 0.7,
            sentence_len: 12,
            filler_vocab: 1500,
            topic_tokens_per_class: 100,
            marker_tokens_per_value: 12,
            marker_noise: 0.02,
            queries_per_class: 3,
            seeds_min: 3,
            seeds_max: 5,
            n_thred: 6,
        }
    }

    /// Tiny profile for property tests and doc examples (sub-second).
    pub fn tiny() -> Self {
        let mut cfg = Self::small();
        cfg.classes = scaled_classes(0.08, 0.12);
        cfg.distractors = 200;
        cfg.hard_negatives_per_class = 5;
        cfg.sentences_per_entity = 8.0;
        cfg.filler_vocab = 400;
        cfg.topic_tokens_per_class = 60;
        cfg.marker_tokens_per_value = 8;
        cfg
    }

    /// Paper profile: mirrors Table 11 exactly (2,848 in-class entities,
    /// 261-target ultra classes); distractor and sentence budgets scaled to
    /// keep the full experiment grid tractable on a laptop. Scale can be
    /// raised with [`WorldConfig::with_scale`].
    pub fn paper() -> Self {
        Self {
            seed: 42,
            classes: scaled_classes(1.0, 1.0),
            distractors: 8000,
            hard_negatives_per_class: 60,
            sentences_per_entity: 14.0,
            zipf_exponent: 0.7,
            sentence_len: 12,
            filler_vocab: 4000,
            topic_tokens_per_class: 140,
            marker_tokens_per_value: 12,
            marker_noise: 0.02,
            queries_per_class: 3,
            seeds_min: 3,
            seeds_max: 5,
            n_thred: 6,
        }
    }

    /// Huge profile: ≥100k entities (≈22.8k in-class at 8× the paper's
    /// class sizes plus 80k distractors) for exercising sublinear candidate
    /// retrieval (`ultra-ann`) at a scale where O(N) preliminary scoring
    /// visibly hurts. Value cardinalities scale with the entity factor per
    /// the same rule the reduced profiles use, so the entities-per-value
    /// ratio — and thus target-set sizes — stays close to the paper
    /// profile's. Sentence and query budgets are trimmed so generation and
    /// encoding stay tractable: this profile benchmarks *retrieval*, not
    /// encoder quality.
    pub fn huge() -> Self {
        Self {
            seed: 42,
            classes: scaled_classes(8.0, 1.0),
            distractors: 80_000,
            hard_negatives_per_class: 60,
            sentences_per_entity: 6.0,
            zipf_exponent: 0.7,
            sentence_len: 12,
            filler_vocab: 8000,
            topic_tokens_per_class: 140,
            marker_tokens_per_value: 12,
            marker_noise: 0.02,
            queries_per_class: 1,
            seeds_min: 3,
            seeds_max: 5,
            n_thred: 6,
        }
    }

    /// The profile called `name`: `tiny`, `small`, `paper` or `huge`.
    pub fn from_profile(name: &str) -> Result<Self, UltraError> {
        match name {
            "tiny" => Ok(Self::tiny()),
            "small" => Ok(Self::small()),
            "paper" => Ok(Self::paper()),
            "huge" => Ok(Self::huge()),
            other => Err(UltraError::InvalidConfig(format!(
                "unknown profile `{other}` (expected tiny|small|paper|huge)"
            ))),
        }
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Multiplies entity / distractor / sentence budgets by `scale`.
    pub fn with_scale(mut self, scale: f64) -> Self {
        for c in &mut self.classes {
            c.entities = ((c.entities as f64 * scale) as usize).max(20);
        }
        self.distractors = ((self.distractors as f64 * scale) as usize).max(50);
        self
    }

    /// Total in-class entities requested.
    pub fn total_class_entities(&self) -> usize {
        self.classes.iter().map(|c| c.entities).sum()
    }

    /// Total ultra-fine-grained classes requested.
    pub fn total_ultra_classes(&self) -> usize {
        self.classes.iter().map(|c| c.ultra_classes).sum()
    }
}

/// The 10 fine-grained classes of Table 11 with entity counts, ultra-class
/// counts and attribute schemas; `e_scale`/`u_scale` shrink them for the
/// test profiles (minimums keep every class usable for query sampling).
fn scaled_classes(e_scale: f64, u_scale: f64) -> Vec<ClassSpec> {
    use CoarseType::*;
    let e = |n: usize| ((n as f64 * e_scale) as usize).max(30);
    let u = |n: usize| ((n as f64 * u_scale) as usize).max(3);
    // Scaled profiles also scale value cardinalities with the entity
    // factor so the entities-per-value ratio (and thus target-set sizes)
    // stays close to the paper profile's: reduced profiles shrink them
    // (clamped to stay usable), scaled-up profiles (e.g. `huge`) grow them
    // by the same factor. `e_scale = 1.0` reproduces Table 11 exactly.
    let a = move |name: &'static str, cardinality: usize, signal: f64| AttrSpec {
        name,
        cardinality: if e_scale >= 1.0 {
            ((cardinality as f64 * e_scale).round() as usize).max(cardinality)
        } else {
            ((cardinality as f64 * e_scale).round() as usize).clamp(2, cardinality)
        },
        signal_rate: signal,
    };
    vec![
        ClassSpec {
            name: "Canada universities",
            coarse: Organization,
            entities: e(99),
            ultra_classes: u(10),
            attrs: vec![a("<loc-province>", 8, 0.55), a("<type>", 3, 0.5)],
        },
        ClassSpec {
            name: "China cities",
            coarse: Location,
            entities: e(675),
            ultra_classes: u(50),
            attrs: vec![a("<province>", 20, 0.55), a("<prefecture>", 4, 0.45)],
        },
        ClassSpec {
            name: "Countries",
            coarse: Location,
            entities: e(190),
            ultra_classes: u(68),
            attrs: vec![
                a("<continent>", 6, 0.6),
                a("<driving-side>", 2, 0.35),
                a("<per-capita-income>", 3, 0.4),
            ],
        },
        ClassSpec {
            name: "US airports",
            coarse: Location,
            entities: e(370),
            ultra_classes: u(74),
            attrs: vec![a("<role>", 4, 0.5), a("<loc-state>", 25, 0.55)],
        },
        ClassSpec {
            name: "US national monuments",
            coarse: Location,
            entities: e(112),
            ultra_classes: u(12),
            // Deliberately low signal: the paper calls this class long-tail
            // with limited context knowledge.
            attrs: vec![a("<loc-state>", 20, 0.35), a("<agency>", 5, 0.3)],
        },
        ClassSpec {
            name: "Mobile phone brands",
            coarse: Product,
            entities: e(159),
            ultra_classes: u(7),
            // Also a long-tail class per the paper's GPT-4 analysis.
            attrs: vec![a("<loc-continent>", 4, 0.4), a("<status>", 2, 0.35)],
        },
        ClassSpec {
            name: "Percussion instruments",
            coarse: Product,
            entities: e(128),
            ultra_classes: u(10),
            attrs: vec![a("<type>", 5, 0.45), a("<source-continent>", 5, 0.4)],
        },
        ClassSpec {
            name: "Nobel laureates",
            coarse: Person,
            entities: e(952),
            ultra_classes: u(11),
            attrs: vec![a("<prize>", 6, 0.6), a("<gender>", 2, 0.5)],
        },
        ClassSpec {
            name: "US presidents",
            coarse: Person,
            entities: e(45),
            ultra_classes: u(5),
            attrs: vec![a("<party>", 4, 0.55), a("<birth-state>", 15, 0.45)],
        },
        ClassSpec {
            name: "Chemical elements",
            coarse: Miscellaneous,
            entities: e(118),
            ultra_classes: u(14),
            attrs: vec![a("<period>", 7, 0.55), a("<phase-at-r.t.>", 3, 0.5)],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_found_by_name() {
        for name in ["tiny", "small", "paper", "huge"] {
            assert!(WorldConfig::from_profile(name).is_ok(), "{name}");
        }
        let err = WorldConfig::from_profile("tyni").unwrap_err();
        assert!(err.to_string().contains("tiny|small|paper|huge"), "{err}");
    }

    #[test]
    fn paper_profile_matches_table_11_totals() {
        let cfg = WorldConfig::paper();
        assert_eq!(cfg.classes.len(), 10);
        assert_eq!(cfg.total_class_entities(), 2848);
        assert_eq!(cfg.total_ultra_classes(), 261);
    }

    #[test]
    fn paper_attribute_counts_match_table_11() {
        let cfg = WorldConfig::paper();
        let arities: Vec<usize> = cfg.classes.iter().map(|c| c.attrs.len()).collect();
        assert_eq!(arities, vec![2, 2, 3, 2, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn small_profile_is_smaller_but_complete() {
        let cfg = WorldConfig::small();
        assert_eq!(cfg.classes.len(), 10);
        assert!(cfg.total_class_entities() < WorldConfig::paper().total_class_entities());
        assert!(cfg.classes.iter().all(|c| c.entities >= 30));
        assert!(cfg.classes.iter().all(|c| c.ultra_classes >= 3));
    }

    #[test]
    fn huge_profile_crosses_one_hundred_thousand_entities() {
        let cfg = WorldConfig::huge();
        assert!(
            cfg.total_class_entities() + cfg.distractors >= 100_000,
            "huge profile must request >=100k entities, got {}",
            cfg.total_class_entities() + cfg.distractors
        );
        // Cardinalities scale with the 8x entity factor, so the
        // entities-per-value ratio stays near the paper profile's.
        let paper = WorldConfig::paper();
        for (h, p) in cfg.classes.iter().zip(&paper.classes) {
            for (ha, pa) in h.attrs.iter().zip(&p.attrs) {
                assert_eq!(ha.cardinality, pa.cardinality * 8, "{}", ha.name);
            }
        }
    }

    #[test]
    fn with_scale_grows_budgets() {
        let base = WorldConfig::small();
        let big = WorldConfig::small().with_scale(2.0);
        assert!(big.total_class_entities() > base.total_class_entities());
        assert!(big.distractors > base.distractors);
    }

    #[test]
    fn signal_rates_are_probabilities() {
        for c in WorldConfig::paper().classes {
            for a in c.attrs {
                assert!(a.signal_rate > 0.0 && a.signal_rate <= 1.0);
                assert!(a.cardinality >= 2);
            }
        }
    }
}
