//! The method registry: every row of Table 2 as a runnable unit.

use crate::suite::Suite;
use ultra_baselines::{CaSE, CgExpan, Gpt4Baseline, ProbExpan, SetExpan};
use ultra_core::{Query, RankedList, UltraClass};
use ultra_data::{OracleConfig, World};
use ultra_embed::{Augmentation, EncoderConfig, PairConfig};
use ultra_eval::{evaluate_method, MetricReport};
use ultra_genexpan::{CotConfig, GenExpan, GenRaSource};
use ultra_retexpan::{mine_lists, RetExpan};

/// A trained method, ready to expand any query of the world it was built
/// for.
pub type Expand = Box<dyn Fn(&World, &UltraClass, &Query) -> RankedList + Send + Sync>;

/// One Table 2 method row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// SetExpan (probability-based).
    SetExpan,
    /// CaSE (probability-based).
    CaSE,
    /// CGExpan (retrieval-based).
    CgExpan,
    /// ProbExpan (retrieval-based, prior SOTA).
    ProbExpan,
    /// GPT-4 (generation-based).
    Gpt4,
    /// RetExpan (ours, retrieval-based).
    RetExpan,
    /// RetExpan + ultra-fine-grained contrastive learning.
    RetExpanContrast,
    /// RetExpan + retrieval augmentation (entity introductions).
    RetExpanRa,
    /// GenExpan (ours, generation-based).
    GenExpan,
    /// GenExpan + chain-of-thought reasoning.
    GenExpanCot,
    /// GenExpan + retrieval augmentation (entity introductions).
    GenExpanRa,
}

impl Method {
    /// Every Table 2 row, paper order.
    pub const ALL: [Method; 11] = [
        Method::SetExpan,
        Method::CaSE,
        Method::CgExpan,
        Method::ProbExpan,
        Method::Gpt4,
        Method::RetExpan,
        Method::RetExpanContrast,
        Method::RetExpanRa,
        Method::GenExpan,
        Method::GenExpanCot,
        Method::GenExpanRa,
    ];

    /// Display name matching the paper's row label.
    pub fn name(&self) -> &'static str {
        self.names().1
    }

    /// The lower-case name the CLI selects the row by.
    pub fn wire_name(&self) -> &'static str {
        self.names().0
    }

    /// `(wire name, paper label)`.
    fn names(&self) -> (&'static str, &'static str) {
        match self {
            Method::SetExpan => ("setexpan", "SetExpan"),
            Method::CaSE => ("case", "CaSE"),
            Method::CgExpan => ("cgexpan", "CGExpan"),
            Method::ProbExpan => ("probexpan", "ProbExpan"),
            Method::Gpt4 => ("gpt4", "GPT4"),
            Method::RetExpan => ("retexpan", "RetExpan"),
            Method::RetExpanContrast => ("retexpan-contrast", "RetExpan +Contrast"),
            Method::RetExpanRa => ("retexpan-ra", "RetExpan +RA"),
            Method::GenExpan => ("genexpan", "GenExpan"),
            Method::GenExpanCot => ("genexpan-cot", "GenExpan +CoT"),
            Method::GenExpanRa => ("genexpan-ra", "GenExpan +RA"),
        }
    }

    /// The row whose [`wire_name`](Self::wire_name) is `name`.
    pub fn from_name(name: &str) -> Option<Method> {
        Self::ALL.into_iter().find(|m| m.wire_name() == name)
    }

    /// Trains the method, reusing the suite's shared components where
    /// possible.
    pub fn build(&self, suite: &mut Suite) -> Expand {
        match self {
            Method::SetExpan => {
                let m = SetExpan::new(&suite.world);
                Box::new(move |w, _u, q| m.expand(w, q))
            }
            Method::CaSE => {
                let m = CaSE::new(&suite.world);
                Box::new(move |w, _u, q| m.expand(w, q))
            }
            Method::CgExpan => {
                let m = CgExpan::new(&suite.world);
                Box::new(move |w, _u, q| m.expand(w, q))
            }
            Method::ProbExpan => {
                let encoder = suite.encoder();
                let m = ProbExpan::from_encoder(&suite.world, &encoder);
                Box::new(move |w, _u, q| m.expand(w, q))
            }
            Method::Gpt4 => {
                let m = Gpt4Baseline::new(&suite.world, OracleConfig::default());
                Box::new(move |_w, _u, q| m.expand(q))
            }
            Method::RetExpan => {
                let m = suite.retexpan();
                Box::new(move |w, _u, q| m.expand(w, q))
            }
            Method::RetExpanContrast => {
                let m = retexpan_contrast(suite, &PairConfig::default());
                Box::new(move |w, _u, q| m.expand(w, q))
            }
            Method::RetExpanRa => {
                let m = retexpan_ra(suite, Augmentation::Introduction);
                Box::new(move |w, _u, q| m.expand(w, q))
            }
            Method::GenExpan => {
                let m = suite.genexpan();
                Box::new(move |w, u, q| m.expand(w, u, q))
            }
            Method::GenExpanCot => {
                let m = genexpan_with(suite, |g| g.config.cot = CotConfig::default_cot());
                Box::new(move |w, u, q| m.expand(w, u, q))
            }
            Method::GenExpanRa => {
                let m = genexpan_with(suite, |g| g.config.ra = GenRaSource::Introduction);
                Box::new(move |w, u, q| m.expand(w, u, q))
            }
        }
    }

    /// Trains the method and evaluates it over the full query set.
    pub fn evaluate(&self, suite: &mut Suite) -> MetricReport {
        eprintln!("[methods] evaluating {}…", self.name());
        let expand = self.build(suite);
        evaluate_method(&suite.world, |u, q| expand(&suite.world, u, q))
    }
}

/// RetExpan + contrastive learning: mines `L_pos`/`L_neg` with the GPT-4
/// oracle, runs InfoNCE training on a clone of the shared encoder, and
/// expands from the trained clone's representations.
pub fn retexpan_contrast(suite: &mut Suite, pair_cfg: &PairConfig) -> RetExpan {
    retexpan_contrast_sized(suite, pair_cfg, 10)
}

/// [`retexpan_contrast`] with an explicit `|L_pos|`/`|L_neg|` cap (the
/// Figure 7 sweep).
pub fn retexpan_contrast_sized(
    suite: &mut Suite,
    pair_cfg: &PairConfig,
    list_cap: usize,
) -> RetExpan {
    let base = suite.retexpan();
    let oracle = suite.oracle();
    let mined = mine_lists(&suite.world, &base, &oracle, 3 * list_cap, list_cap);
    let mut encoder = (*suite.encoder()).clone();
    ultra_embed::contrastive::train_contrastive(&mut encoder, &suite.world, &mined, pair_cfg);
    RetExpan::from_encoder(&suite.world, &encoder, base.config.clone())
}

/// RetExpan + retrieval augmentation: retrains the encoder with knowledge
/// prefixes on every context (training *and* inference, Section 5.1.3).
pub fn retexpan_ra(suite: &mut Suite, source: Augmentation) -> RetExpan {
    RetExpan::train(
        &suite.world,
        EncoderConfig::default().with_augment(source),
        suite.retexpan_config.clone(),
    )
}

/// GenExpan with a modified config, reusing the shared trained instance.
pub fn genexpan_with(suite: &mut Suite, f: impl FnOnce(&mut GenExpan)) -> GenExpan {
    let mut gen = (*suite.genexpan()).clone();
    f(&mut gen);
    gen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip_and_are_unique() {
        for m in Method::ALL {
            assert_eq!(Method::from_name(m.wire_name()), Some(m));
        }
        assert_eq!(Method::from_name("RetExpan"), None, "labels are not names");
        assert_eq!(Method::from_name("retexpan"), Some(Method::RetExpan));
    }
}
