//! Pinned ranked output of every negative-seed re-ranking path.
//!
//! On the tiny profile, with the default configurations the Table 5
//! ablation (`expt_table5`) uses, this pins:
//!
//! * an FNV-1a fingerprint ([`ultra_core::stable`]) of every query's full
//!   ranked list — entity ids and raw score bits — for RetExpan (re-rank on
//!   and off), its two extensions, ProbExpan (plain and with the Table 5
//!   bolt-on), GenExpan (re-rank on and off) and Table 10's two
//!   compositions (a wide RetExpan's preliminary list restricting GenExpan
//!   per query, a wide GenExpan's entities restricting RetExpan);
//! * the Table 5 direction: negative-seed re-ranking lowers average NegMAP
//!   for RetExpan, GenExpan and ProbExpan;
//! * the GenExpan decode paths the tiny default run does not reach: the
//!   default pipeline over every small-world query (with its window memo
//!   cold, warm, and shared by four workers), the same queries without
//!   further pre-training, a Witten-Bell backbone and unconstrained
//!   decoding;
//! * contrastive training (Section 5.1.2) on lists mined from the tiny
//!   RetExpan, as the `retexpan-contrast` row runs it: the loss curve's
//!   bits, the trained encoder's parameter fingerprint and the ranked
//!   lists of RetExpan over the trained encoder.
//!
//! The fingerprints were computed once and are never edited to follow a
//! refactor: a change that moves one of them changes what the pipelines
//! rank, and has to say so.

use std::sync::OnceLock;
use ultrawiki::core::stable::stable_hash64;
use ultrawiki::embed::contrastive::train_contrastive;
use ultrawiki::lm::ModelSpec;
use ultrawiki::prelude::*;
use ultrawiki::retexpan::{DecoupledRetExpan, DynamicRaRetExpan};

/// One pipeline's run over every query of the tiny world.
struct Run {
    name: &'static str,
    fingerprint: u64,
    report: MetricReport,
}

/// Evaluates `expand` over the world's query set (in `evaluate_method`'s
/// order) and fingerprints the ranked lists it returned.
fn run(
    name: &'static str,
    world: &World,
    mut expand: impl FnMut(&UltraClass, &Query) -> RankedList,
) -> Run {
    let mut lists: Vec<RankedList> = Vec::new();
    let report = evaluate_method(world, |u, q| {
        let list = expand(u, q);
        lists.push(list.clone());
        list
    });
    Run {
        name,
        fingerprint: stable_hash64(&lists),
        report,
    }
}

/// Every pipeline's run, plus what contrastive training leaves behind.
struct Runs {
    runs: Vec<Run>,
    /// `stable_hash64` of the contrastive loss curve's `f32` bits.
    contrast_losses: u64,
    /// `params_fingerprint()` of the contrastively trained encoder.
    contrast_params: u64,
}

/// Trains every pipeline once and runs all of them (shared by the tests
/// below; training dominates the cost).
fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny()).expect("tiny world");
        let mut trained = EntityEncoder::new(&world, EncoderConfig::default());
        trained.train_entity_prediction(&world);
        let mut ret = RetExpan::from_encoder(&world, &trained, RetExpanConfig::default());
        // The `retexpan-contrast` row: lists mined from the trained
        // RetExpan, InfoNCE on a clone of its encoder.
        let oracle = KnowledgeOracle::new(&world, OracleConfig::default());
        let mined = mine_lists(&world, &ret, &oracle, 30, 10);
        let mut encoder = trained.clone();
        let losses = train_contrastive(&mut encoder, &world, &mined, &PairConfig::default());
        let bits: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
        let (contrast_losses, contrast_params) =
            (stable_hash64(&bits), encoder.params_fingerprint());
        let contrast = RetExpan::from_encoder(&world, &encoder, ret.config.clone());
        let dynamic = DynamicRaRetExpan::new(ret.clone());
        let decoupled = DecoupledRetExpan::new(ret.clone());
        let mut prob = ProbExpan::from_encoder(&world, &trained);
        let mut gen = GenExpan::train(&world, GenExpanConfig::default());
        // Table 10's two compositions at `expt_table10`'s recall budget.
        let mut wide_ret = ret.clone();
        wide_ret.config.top_k = TABLE10_BUDGET;
        wide_ret.config.rerank = false;
        let mut wide_gen = gen.clone();
        wide_gen.config.target_size = TABLE10_BUDGET;
        wide_gen.config.max_rounds = 80;
        wide_gen.config.rerank = false;

        let mut out = vec![run("retexpan", &world, |_u, q| ret.expand(&world, q))];
        out.push(run("retexpan-contrast", &world, |_u, q| {
            contrast.expand(&world, q)
        }));
        out.push(run("ret-then-gen", &world, |u, q| {
            let pool: Vec<EntityId> = wide_ret
                .preliminary_list(&world, q, None)
                .entities()
                .collect();
            gen.restricted_to(&world, &pool).expand(&world, u, q)
        }));
        out.push(run("gen-then-ret", &world, |u, q| {
            let pool: Vec<EntityId> = wide_gen
                .expand(&world, u, q)
                .entities()
                .filter(|e| e.index() < world.num_entities())
                .collect();
            ret.expand_restricted(&world, q, Some(&pool))
        }));
        ret.config.rerank = false;
        out.push(run("retexpan-no-rerank", &world, |_u, q| {
            ret.expand(&world, q)
        }));
        out.push(run("dynamic-ra", &world, |_u, q| dynamic.expand(&world, q)));
        out.push(run("decoupled", &world, |_u, q| {
            decoupled.expand(&world, q)
        }));
        out.push(run("probexpan", &world, |_u, q| prob.expand(&world, q)));
        prob.neg_rerank = true;
        out.push(run("probexpan-neg-rerank", &world, |_u, q| {
            prob.expand(&world, q)
        }));
        out.push(run("genexpan", &world, |u, q| gen.expand(&world, u, q)));
        gen.config.rerank = false;
        out.push(run("genexpan-no-rerank", &world, |u, q| {
            gen.expand(&world, u, q)
        }));
        Runs {
            runs: out,
            contrast_losses,
            contrast_params,
        }
    })
}

fn by_name(name: &str) -> &'static Run {
    runs()
        .runs
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no run named {name}"))
}

/// `expt_table10`'s recall budget on the tiny world.
const TABLE10_BUDGET: usize = 200;

/// The pinned fingerprint of every run above.
const GOLDEN: [(&str, u64); 10] = [
    ("retexpan", 0x88f3_c81f_47bd_3c09),
    ("retexpan-no-rerank", 0xa852_e6a2_c398_e4d0),
    ("dynamic-ra", 0xa2a0_59d9_753b_83a5),
    ("decoupled", 0xd492_ef9f_c924_d3ad),
    ("probexpan", 0xadf0_d2ce_b2f0_bd5c),
    ("probexpan-neg-rerank", 0x0430_9fbe_2bd5_0709),
    ("genexpan", 0xf8a1_333f_47f3_bc05),
    ("genexpan-no-rerank", 0xa1f7_1fe4_3e97_c225),
    ("ret-then-gen", 0xbf8c_e18c_a7dd_8274),
    ("gen-then-ret", 0x2b19_ee60_6c4c_240d),
];

#[test]
fn ranked_lists_match_the_pinned_fingerprints() {
    let mut diffs = Vec::new();
    for (name, want) in GOLDEN {
        let got = by_name(name).fingerprint;
        if got != want {
            diffs.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "ranked output moved:\n  {}",
        diffs.join("\n  ")
    );
}

#[test]
fn negative_rerank_lowers_negmap_for_every_method() {
    for (with, without) in [
        ("retexpan", "retexpan-no-rerank"),
        ("genexpan", "genexpan-no-rerank"),
        ("probexpan-neg-rerank", "probexpan"),
    ] {
        let (with, without) = (by_name(with), by_name(without));
        let (a, b) = (with.report.avg_neg_map(), without.report.avg_neg_map());
        assert!(
            a < b,
            "{}: re-ranked NegMAP {a:.2} should be below {}'s {b:.2}",
            with.name,
            without.name
        );
    }
}

/// The pinned fingerprints of contrastive training on the tiny world.
const CONTRASTIVE_GOLDEN: [(&str, u64); 3] = [
    ("loss-curve", 0xd0a3_6d31_ce00_58cc),
    ("params", 0xaf8f_de01_095c_9731),
    ("retexpan-contrast", 0x8e85_58ae_0f1f_a377),
];

#[test]
fn contrastive_training_matches_the_pinned_fingerprints() {
    let runs = runs();
    // In `CONTRASTIVE_GOLDEN` order.
    let got = [
        runs.contrast_losses,
        runs.contrast_params,
        by_name("retexpan-contrast").fingerprint,
    ];
    let diffs: Vec<String> = CONTRASTIVE_GOLDEN
        .iter()
        .zip(got)
        .filter(|&(&(_, want), got)| got != want)
        .map(|(&(name, want), got)| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "contrastive training moved:\n  {}",
        diffs.join("\n  ")
    );
}

/// The pinned fingerprint of every GenExpan decode path below.
///
/// `genexpan-unconstrained` and `genexpan-small-no-further-pretrain` hold
/// only while the beam prunes keep equal log-probs in input order (beam
/// order, then ascending token, through `ultra_core::top_k`): on those
/// backbones the ties decide which hypotheses survive.
const GENEXPAN_DECODE_GOLDEN: [(&str, u64); 4] = [
    ("genexpan-small", 0x246e_3b08_ff30_d75b),
    ("genexpan-small-no-further-pretrain", 0x698d_da4f_d0d7_c911),
    ("genexpan-bloom-1b7", 0xce20_2a0a_f82e_a709),
    ("genexpan-unconstrained", 0x8bda_4c55_62b8_838b),
];

#[test]
fn genexpan_decode_paths_match_the_pinned_fingerprints() {
    let tiny = World::generate(WorldConfig::tiny()).expect("tiny world");
    let bloom = ModelSpec::figure8_ladder()
        .into_iter()
        .find(|m| m.name == "bloom-1b7")
        .expect("bloom-1b7 on the Figure 8 ladder");
    let witten_bell = GenExpan::train(
        &tiny,
        GenExpanConfig {
            model: bloom,
            ..GenExpanConfig::default()
        },
    );
    let unconstrained = GenExpan::train(
        &tiny,
        GenExpanConfig {
            constrained: false,
            ..GenExpanConfig::default()
        },
    );
    // Every small-world query, in `World::queries` order: on a fresh
    // instance (memo cold), on the same instance again (memo warm), and on
    // another fresh instance shared by four workers.
    let small = World::generate(WorldConfig::small()).expect("small world");
    let gen = GenExpan::train(&small, GenExpanConfig::default());
    let queries: Vec<(&UltraClass, &Query)> = small.queries().collect();
    let expand_all = |g: &GenExpan| -> Vec<RankedList> {
        queries
            .iter()
            .map(|&(u, q)| g.expand(&small, u, q))
            .collect()
    };
    let cold = stable_hash64(&expand_all(&gen));
    let warm = stable_hash64(&expand_all(&gen));
    let shared = GenExpan::from_parts(
        &small,
        GenExpanConfig::default(),
        gen.lm().clone(),
        gen.trie().clone(),
    );
    let pooled: Vec<RankedList> =
        Pool::new(4).map_ordered_each(&queries, |&(u, q)| shared.expand(&small, u, q));
    let no_further_pretrain = GenExpan::train(
        &small,
        GenExpanConfig {
            further_pretrain: false,
            ..GenExpanConfig::default()
        },
    );
    // (run, pinned constant it must match, fingerprint)
    let got = [
        ("genexpan-small", "genexpan-small", cold),
        ("genexpan-small (memo warm)", "genexpan-small", warm),
        (
            "genexpan-small (4 workers, one memo)",
            "genexpan-small",
            stable_hash64(&pooled),
        ),
        (
            "genexpan-small-no-further-pretrain",
            "genexpan-small-no-further-pretrain",
            stable_hash64(&expand_all(&no_further_pretrain)),
        ),
        (
            "genexpan-bloom-1b7",
            "genexpan-bloom-1b7",
            run("genexpan-bloom-1b7", &tiny, |u, q| {
                witten_bell.expand(&tiny, u, q)
            })
            .fingerprint,
        ),
        (
            "genexpan-unconstrained",
            "genexpan-unconstrained",
            run("genexpan-unconstrained", &tiny, |u, q| {
                unconstrained.expand(&tiny, u, q)
            })
            .fingerprint,
        ),
    ];
    let diffs: Vec<String> = got
        .iter()
        .filter_map(|&(name, pinned, got)| {
            let (_, want) = GENEXPAN_DECODE_GOLDEN
                .iter()
                .find(|(n, _)| *n == pinned)
                .expect("a pinned run");
            (*want != got).then(|| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(
        diffs.is_empty(),
        "ranked output moved:\n  {}",
        diffs.join("\n  ")
    );
}
