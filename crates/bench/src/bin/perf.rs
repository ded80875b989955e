//! `perf` — wall-clock benchmark of the `ultra-par` data-parallel hot
//! paths (preliminary-list scoring, contrastive training, evaluation) plus
//! the `ultra-ann` candidate index.
//!
//! Emits `BENCH_expand.json` (to `target/experiments/` and the repo root)
//! so future PRs have a perf trajectory to compare against. The report is
//! `schema_version: 5`:
//!
//! * `genexpan` (schema v5) — GenExpan over every query twice on one
//!   instance: first fresh (both cross-request memos empty), then again
//!   with both memos warm. Each pass records µs per query, the beams it
//!   ran (window-memo misses), its window- and pair-memo hit ratios and
//!   the pairs stored after it. The two passes' ranked lists must be
//!   byte-identical (hard assert). Skipped on `huge`.
//! * `scoring` / `training` / `eval` — the schema-v1 thread-scaling stages.
//!   On the `huge` profile (100k+ entities) they are skipped (`null`): the
//!   profile exists to size the *index* comparison, and re-timing the
//!   training loop there would dominate the run without adding signal.
//! * `training` (schema v4) — the fused contrastive step: alongside the
//!   t1/t4 timings it records the committed v3 single-thread baseline and
//!   the fused path's speedup over it, plus one marker per gate saying
//!   whether that gate was `"enforced"` or why it was skipped. The ≥ 2x
//!   single-thread gate runs on the `small` profile (where the v3 baseline
//!   was measured); the t4/t1 ≥ 1.5 scaling gate runs wherever the host
//!   actually has ≥ 4 cores and is marked `"skipped (…)"` otherwise — a
//!   1-core container cannot witness thread scaling, and pretending it
//!   passed would poison the trajectory.
//! * `index` — per-index-type numbers: IVF build time, then a `nprobe`
//!   sweep reporting recall@10/recall@50 against the exhaustive preliminary
//!   ranking and per-query latency percentiles (p50/p99), plus the p50
//!   speedup over the exhaustive scan.
//! * `startup` (schema v3) — serve startup time: full train-at-startup vs
//!   loading a USNP snapshot of the same engine, with the byte-identity of
//!   the two engines' answers as a hard witness. Skipped on `huge` (the
//!   double training run would dominate the benchmark).
//!
//! Determinism gates enforced in-binary (hard asserts, not just fields):
//! ranked lists at threads=1 vs threads=4 are byte-identical, and the IVF
//! full-probe (`nprobe=all`) expansion is byte-identical to the exhaustive
//! path at both thread counts. On `huge` the acceptance gate also asserts
//! the sweep contains a point with recall@50 ≥ 0.95 and ≥ 5x p50 speedup;
//! on `small` the startup stage asserts snapshot load is ≥ 20x faster than
//! train-at-startup.

use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use ultra_ann::{CandidateSource, Exhaustive, IvfConfig, IvfIndex, IvfSource};
use ultra_bench::{dump_json, world_from_env};
use ultra_core::stable::{fnv1a_from, FNV_OFFSET};
use ultra_core::{EntityId, Query, RankedList};
use ultra_data::{KnowledgeOracle, OracleConfig, World};
use ultra_embed::contrastive::{train_contrastive, PairConfig};
use ultra_embed::{EncoderConfig, EntityEncoder};
use ultra_eval::evaluate_method_par;
use ultra_genexpan::{GenExpan, GenExpanConfig};
use ultra_nn::cosine;
use ultra_par::{set_threads, Pool};
use ultra_retexpan::{mine_lists, RetExpan, RetExpanConfig};
use ultra_serve::{EngineConfig, ExpansionEngine, Method, SnapshotRuntime};

#[derive(Serialize)]
struct StageTiming {
    threads1_ms: f64,
    threads4_ms: f64,
    speedup_t4_vs_t1: f64,
}

#[derive(Serialize)]
struct ScoringStage {
    /// Pre-PR baseline: per-entity mean of `|S|` cosines (the code shape
    /// the `ultra-par` PR replaced), timed on the same queries.
    scalar_prepr_ms: f64,
    threads1_ms: f64,
    threads4_ms: f64,
    speedup_t4_vs_t1: f64,
    /// Algorithmic speedup of the factorized batch kernel over the pre-PR
    /// scalar loop (threads=4 path vs scalar; core-count independent).
    speedup_vs_prepr_scalar: f64,
    ranked_lists_byte_identical: bool,
}

/// Single-thread contrastive-training wall clock of the committed
/// schema-v3 report (`small` profile), the denominator of the fused
/// path's ≥ 2x single-thread acceptance gate.
const V3_TRAINING_THREADS1_MS: f64 = 7851.805657;

#[derive(Serialize)]
struct TrainingStage {
    threads1_ms: f64,
    threads4_ms: f64,
    speedup_t4_vs_t1: f64,
    /// The committed v3 single-thread time this run is gated against.
    v3_baseline_threads1_ms: f64,
    /// `v3_baseline_threads1_ms / threads1_ms` — the fused path's
    /// single-thread speedup over the pre-fusion training loop.
    speedup_vs_v3_threads1: f64,
    /// `"enforced"` when the ≥ 2x single-thread gate ran (profile
    /// `small`, where the baseline was measured), else `"skipped (…)"`.
    single_thread_gate: String,
    /// `"enforced"` when the t4/t1 ≥ 1.5 gate ran (host has ≥ 4 cores),
    /// else `"skipped (…)"` — thread scaling is unmeasurable on fewer.
    thread_scaling_gate: String,
    loss_curve_bit_identical: bool,
    num_batches: usize,
}

/// One operating point of the IVF `nprobe` sweep. `nprobe: 0` means "probe
/// every list" (the configuration provably identical to exhaustive).
#[derive(Serialize)]
struct ProbePoint {
    nprobe: usize,
    recall_at_10: f64,
    recall_at_50: f64,
    p50_micros: u64,
    p99_micros: u64,
    speedup_vs_exhaustive_p50: f64,
}

#[derive(Serialize)]
struct IndexStage {
    kind: String,
    nlist: usize,
    kmeans_iters: usize,
    build_ms: f64,
    /// Exhaustive preliminary-scoring latency, the sweep's baseline.
    exhaustive_p50_micros: u64,
    exhaustive_p99_micros: u64,
    nprobe_sweep: Vec<ProbePoint>,
    /// Smallest swept `nprobe` whose recall@50 ≥ 0.95, with its speedup —
    /// the operating point the acceptance gate reads on `huge`.
    best_nprobe_at_recall50_95: Option<usize>,
    best_speedup_at_recall50_95: Option<f64>,
    /// Hard-asserted in-binary: IVF `nprobe=all` expansion output is
    /// byte-identical to the exhaustive path at threads 1 and 4.
    full_probe_byte_identical_to_exhaustive: bool,
}

/// Serve startup: full offline training vs loading a USNP snapshot of the
/// very same engine (schema v3).
#[derive(Serialize)]
struct StartupStage {
    /// `ExpansionEngine::build` wall clock: world generation + training.
    train_ms: f64,
    /// `ExpansionEngine::from_snapshot_bytes` wall clock: checksum-verified
    /// decode + world regeneration + cross-checks + reassembly.
    snapshot_load_ms: f64,
    speedup_load_vs_train: f64,
    snapshot_bytes: usize,
    /// Whole-file FNV fingerprint (hex) of the snapshot, as `/metrics`
    /// reports it.
    snapshot_fingerprint: String,
    /// Hard-asserted in-binary: the loaded engine answers every sampled
    /// query byte-identically to the trained one.
    answers_byte_identical: bool,
}

/// One pass of GenExpan over every query on a single thread (schema v5).
#[derive(Serialize)]
struct GenExpanPass {
    micros_per_query: f64,
    /// Beams the pass ran: its window-memo misses.
    beams_run: u64,
    /// The pass's window-memo hits over its lookups.
    window_hit_ratio: f64,
    /// The pass's pair-memo hits over its lookups (one per scored entity
    /// and seed).
    pair_hit_ratio: f64,
    /// Entity pairs in the pair memo after the pass.
    pairs_stored: usize,
}

/// GenExpan on a fresh instance, then again on the same instance with both
/// memos warm (schema v5).
#[derive(Serialize)]
struct GenExpanStage {
    first_pass: GenExpanPass,
    warm_pass: GenExpanPass,
    /// Hard-asserted in-binary: the warm pass's ranked lists are
    /// byte-identical to the first pass's.
    passes_byte_identical: bool,
}

#[derive(Serialize)]
struct BenchReport {
    schema_version: u32,
    profile: String,
    seed: u64,
    host_parallelism: usize,
    num_queries: usize,
    num_entities: usize,
    genexpan: Option<GenExpanStage>,
    scoring: Option<ScoringStage>,
    training: Option<TrainingStage>,
    eval: Option<StageTiming>,
    index: IndexStage,
    startup: Option<StartupStage>,
    note: String,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Best-of-3 wall clock for cheap stages (noise on shared hosts easily
/// exceeds the 10% level these comparisons care about).
fn best_of_3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t)
        })
        .fold(f64::INFINITY, f64::min)
}

/// FNV-1a over a ranked list's `(entity, score-bits)` stream — the byte
/// identity witness.
fn fingerprint(lists: &[RankedList]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |x: u64| h = fnv1a_from(h, &x.to_le_bytes());
    for l in lists {
        for &(e, s) in l.entries() {
            eat(e.index() as u64);
            eat(s.to_bits() as u64);
        }
    }
    h
}

/// The pre-`ultra-par` scoring loop: every candidate against every positive
/// seed, one cosine at a time.
fn scalar_preliminary(ret: &RetExpan, world: &World, q: &Query) -> Vec<(EntityId, f32)> {
    world
        .entities
        .iter()
        .filter(|e| !q.is_seed(e.id))
        .map(|e| {
            let s = if q.pos_seeds.is_empty() {
                0.0
            } else {
                q.pos_seeds
                    .iter()
                    .map(|&sd| cosine(ret.reps.row(e.id), ret.reps.row(sd)))
                    .sum::<f32>()
                    / q.pos_seeds.len() as f32
            };
            (e.id, s)
        })
        .collect()
}

/// One sequential GenExpan pass over every query, with the memo counters it
/// moved.
fn genexpan_pass(gen: &GenExpan, world: &World) -> (GenExpanPass, Vec<RankedList>) {
    let (windows, pairs) = (gen.memo_stats(), gen.pair_stats());
    let t = Instant::now();
    let lists: Vec<RankedList> = world
        .queries()
        .map(|(u, q)| gen.expand(world, u, q))
        .collect();
    let micros_per_query = ms(t) * 1e3 / lists.len().max(1) as f64;
    let (windows_after, pairs_after) = (gen.memo_stats(), gen.pair_stats());
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let beams_run = windows_after.misses - windows.misses;
    let pass = GenExpanPass {
        micros_per_query,
        beams_run,
        window_hit_ratio: ratio(windows_after.hits - windows.hits, beams_run),
        pair_hit_ratio: ratio(
            pairs_after.hits - pairs.hits,
            pairs_after.misses - pairs.misses,
        ),
        pairs_stored: pairs_after.entries,
    };
    (pass, lists)
}

fn expand_all<'w>(ret: &RetExpan, world: &'w World, queries: &[&'w Query]) -> Vec<RankedList> {
    queries.iter().map(|q| ret.expand(world, q)).collect()
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs the preliminary scoring stage of `source` over every query, timing
/// each pass and keeping its top-`keep` entity ids (rank order: score desc,
/// then id — the `RankedList` contract). Returns `(sorted_micros, tops)`.
fn sweep_source(
    source: &dyn CandidateSource,
    ret: &RetExpan,
    queries: &[&Query],
    keep: usize,
    pool: &Pool,
) -> (Vec<u64>, Vec<Vec<EntityId>>) {
    let mut micros = Vec::with_capacity(queries.len());
    let mut tops = Vec::with_capacity(queries.len());
    for q in queries {
        let t = Instant::now();
        let scored = source.scored_candidates(&ret.reps, &q.pos_seeds, pool);
        let ranked = RankedList::from_scores(scored);
        micros.push(u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX));
        tops.push(
            ranked
                .entries()
                .iter()
                .take(keep)
                .map(|&(e, _)| e)
                .collect(),
        );
    }
    micros.sort_unstable();
    (micros, tops)
}

/// Mean fraction of the exhaustive top-`k` recovered in the probed top-`k`.
fn recall_at(k: usize, exact: &[Vec<EntityId>], probed: &[Vec<EntityId>]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let mut total = 0.0;
    for (e, p) in exact.iter().zip(probed) {
        let truth: Vec<EntityId> = e.iter().take(k).copied().collect();
        if truth.is_empty() {
            total += 1.0;
            continue;
        }
        let hit = p.iter().take(k).filter(|id| truth.contains(id)).count();
        total += hit as f64 / truth.len() as f64;
    }
    total / exact.len() as f64
}

fn main() {
    // `--profile <name>` mirrors `ULTRA_PROFILE` for call sites (CI, one-off
    // runs) where a flag is clearer than an env var; the flag wins.
    let argv: Vec<String> = std::env::args().collect();
    if let Some(i) = argv.iter().position(|a| a == "--profile") {
        let p = argv
            .get(i + 1)
            .expect("--profile requires a value (tiny|small|paper|huge)");
        std::env::set_var("ULTRA_PROFILE", p);
    }
    let world = world_from_env();
    let profile = std::env::var("ULTRA_PROFILE").unwrap_or_else(|_| "small".into());
    let huge = profile == "huge";
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let num_queries: usize = world.ultra_classes.iter().map(|u| u.queries.len()).sum();

    // --- GenExpan stage (schema v5; skipped on huge) -----------------------
    // First, so its line is on stderr even if a later gate stops the run.
    let mut genexpan = None;
    if !huge {
        eprintln!("[perf] training GenExpan…");
        let gen = GenExpan::train(&world, GenExpanConfig::default());
        let (first_pass, first_lists) = genexpan_pass(&gen, &world);
        let (warm_pass, warm_lists) = genexpan_pass(&gen, &world);
        let identical = fingerprint(&first_lists) == fingerprint(&warm_lists);
        assert!(
            identical,
            "GenExpan's warm pass diverged from its first pass"
        );
        for (name, p) in [("first", &first_pass), ("warm", &warm_pass)] {
            eprintln!(
                "[perf] genexpan {name} pass: {:.1}µs/query, {} beams, window hits {:.4}, \
                 pair hits {:.4}, {} pairs stored",
                p.micros_per_query,
                p.beams_run,
                p.window_hit_ratio,
                p.pair_hit_ratio,
                p.pairs_stored,
            );
        }
        genexpan = Some(GenExpanStage {
            first_pass,
            warm_pass,
            passes_byte_identical: identical,
        });
    }

    // On `huge` the encoder is deliberately cheap: the index stage measures
    // retrieval against the *exhaustive ranking over the same embeddings*,
    // so embedding quality is irrelevant — only N and dim matter.
    let encoder_cfg = if huge {
        EncoderConfig {
            epochs: 1,
            dim: 64,
            neg_samples: 16,
            max_sentences_per_entity: 2,
            ..EncoderConfig::default()
        }
    } else {
        EncoderConfig::default()
    };
    eprintln!("[perf] training RetExpan encoder…");
    let mut encoder = EntityEncoder::new(&world, encoder_cfg);
    encoder.train_entity_prediction(&world);
    let ret = RetExpan::from_encoder(&world, &encoder, RetExpanConfig::default());

    let all_queries: Vec<&Query> = world.queries().map(|(_u, q)| q).collect();
    // The thread-identity gate re-runs full expansions several times; cap
    // the replayed set on `huge` so the gate stays minutes, not hours.
    let gate_queries: Vec<&Query> = if huge {
        all_queries.iter().copied().take(64).collect()
    } else {
        all_queries.clone()
    };

    // --- Scoring / training / eval stages (schema v1; skipped on huge) ----
    let mut scoring = None;
    let mut training = None;
    let mut eval = None;
    let mut scalar_checksum = 0.0f64;
    if !huge {
        // Warm up, then time whole passes over every query (best of 3).
        let _ = expand_all(&ret, &world, &all_queries);
        let scalar_prepr_ms = best_of_3(|| {
            scalar_checksum = 0.0;
            for q in &all_queries {
                for (_, s) in scalar_preliminary(&ret, &world, q) {
                    scalar_checksum += s as f64;
                }
            }
        });

        set_threads(1);
        let lists_t1 = expand_all(&ret, &world, &all_queries);
        let scoring_t1_ms = best_of_3(|| {
            let _ = expand_all(&ret, &world, &all_queries);
        });

        set_threads(4);
        let lists_t4 = expand_all(&ret, &world, &all_queries);
        let scoring_t4_ms = best_of_3(|| {
            let _ = expand_all(&ret, &world, &all_queries);
        });
        let ranked_identical = fingerprint(&lists_t1) == fingerprint(&lists_t4);
        scoring = Some(ScoringStage {
            scalar_prepr_ms,
            threads1_ms: scoring_t1_ms,
            threads4_ms: scoring_t4_ms,
            speedup_t4_vs_t1: scoring_t1_ms / scoring_t4_ms.max(1e-9),
            speedup_vs_prepr_scalar: scalar_prepr_ms / scoring_t4_ms.max(1e-9),
            ranked_lists_byte_identical: ranked_identical,
        });

        eprintln!("[perf] mining lists for contrastive training…");
        let oracle = KnowledgeOracle::new(&world, OracleConfig::default());
        let mined = mine_lists(&world, &ret, &oracle, 30, 10);
        let pair_cfg = PairConfig::default();

        set_threads(1);
        let mut enc1 = encoder.clone();
        let t = Instant::now();
        let losses_t1 = train_contrastive(&mut enc1, &world, &mined, &pair_cfg);
        let training_t1_ms = ms(t);

        set_threads(4);
        let mut enc4 = encoder.clone();
        let t = Instant::now();
        let losses_t4 = train_contrastive(&mut enc4, &world, &mined, &pair_cfg);
        let training_t4_ms = ms(t);
        let loss_identical = losses_t1.len() == losses_t4.len()
            && losses_t1
                .iter()
                .zip(&losses_t4)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        let speedup_vs_v3 = V3_TRAINING_THREADS1_MS / training_t1_ms.max(1e-9);
        let single_thread_gate = if profile == "small" {
            assert!(
                speedup_vs_v3 >= 2.0,
                "fused training must be ≥ 2x faster single-threaded than the \
                 committed v3 baseline ({V3_TRAINING_THREADS1_MS:.1}ms), got \
                 {training_t1_ms:.1}ms ({speedup_vs_v3:.2}x)"
            );
            "enforced".to_string()
        } else {
            format!("skipped (v3 baseline was measured on the small profile, not {profile})")
        };
        let t4_vs_t1 = training_t1_ms / training_t4_ms.max(1e-9);
        let thread_scaling_gate = if host_parallelism >= 4 {
            assert!(
                t4_vs_t1 >= 1.5,
                "fused training must scale ≥ 1.5x from 1 to 4 threads on a \
                 ≥ 4-core host, got {t4_vs_t1:.2}x"
            );
            "enforced".to_string()
        } else {
            format!("skipped (host_parallelism={host_parallelism} < 4)")
        };
        training = Some(TrainingStage {
            threads1_ms: training_t1_ms,
            threads4_ms: training_t4_ms,
            speedup_t4_vs_t1: t4_vs_t1,
            v3_baseline_threads1_ms: V3_TRAINING_THREADS1_MS,
            speedup_vs_v3_threads1: speedup_vs_v3,
            single_thread_gate,
            thread_scaling_gate,
            loss_curve_bit_identical: loss_identical,
            num_batches: losses_t1.len(),
        });

        let r1 = evaluate_method_par(&world, &Pool::new(1), |_u, q| ret.expand(&world, q));
        let eval_t1_ms = best_of_3(|| {
            let _ = evaluate_method_par(&world, &Pool::new(1), |_u, q| ret.expand(&world, q));
        });
        let r4 = evaluate_method_par(&world, &Pool::new(4), |_u, q| ret.expand(&world, q));
        let eval_t4_ms = best_of_3(|| {
            let _ = evaluate_method_par(&world, &Pool::new(4), |_u, q| ret.expand(&world, q));
        });
        assert_eq!(r1.num_queries, r4.num_queries);
        eval = Some(StageTiming {
            threads1_ms: eval_t1_ms,
            threads4_ms: eval_t4_ms,
            speedup_t4_vs_t1: eval_t1_ms / eval_t4_ms.max(1e-9),
        });
        set_threads(0); // restore ambient default
    }

    // --- Index stage -------------------------------------------------------
    let pool = Pool::global();
    let ivf_cfg = IvfConfig::default();
    eprintln!("[perf] building IVF index…");
    let t = Instant::now();
    let index = Arc::new(IvfIndex::build(&ret.reps, &ivf_cfg, &pool));
    let build_ms = ms(t);
    let nlist = index.nlist();
    eprintln!("[perf] IVF ready: {nlist} lists, build {build_ms:.1}ms");

    let keep = 50;
    let (ex_micros, ex_tops) = sweep_source(&Exhaustive, &ret, &all_queries, keep, &pool);
    let exhaustive_p50 = percentile(&ex_micros, 0.50);
    let exhaustive_p99 = percentile(&ex_micros, 0.99);

    let mut sweep = Vec::new();
    for nprobe in [1usize, 2, 4, 8, 16, 32, 64, 0] {
        if nprobe >= nlist && nprobe != 0 {
            continue; // ≥ nlist is "all lists"; the 0 point already covers it
        }
        let source = IvfSource::new(index.clone(), nprobe);
        let (micros, tops) = sweep_source(&source, &ret, &all_queries, keep, &pool);
        let p50 = percentile(&micros, 0.50);
        let point = ProbePoint {
            nprobe,
            recall_at_10: recall_at(10, &ex_tops, &tops),
            recall_at_50: recall_at(50, &ex_tops, &tops),
            p50_micros: p50,
            p99_micros: percentile(&micros, 0.99),
            speedup_vs_exhaustive_p50: exhaustive_p50 as f64 / (p50.max(1)) as f64,
        };
        eprintln!(
            "[perf] nprobe={:<4} recall@10={:.3} recall@50={:.3} p50={}µs p99={}µs ({:.2}x)",
            if point.nprobe == 0 {
                "all".to_string()
            } else {
                point.nprobe.to_string()
            },
            point.recall_at_10,
            point.recall_at_50,
            point.p50_micros,
            point.p99_micros,
            point.speedup_vs_exhaustive_p50,
        );
        sweep.push(point);
    }

    // Full-probe recall must be exact — the sweep's own sanity anchor.
    if let Some(all_point) = sweep.iter().find(|p| p.nprobe == 0) {
        assert!(
            (all_point.recall_at_50 - 1.0).abs() < 1e-12,
            "nprobe=all recall@50 must be exactly 1.0, got {}",
            all_point.recall_at_50
        );
    }
    let best = sweep
        .iter()
        .filter(|p| p.nprobe != 0 && p.recall_at_50 >= 0.95)
        .min_by_key(|p| p.nprobe)
        .map(|p| (p.nprobe, p.speedup_vs_exhaustive_p50));

    // Byte-identity gate: IVF with nprobe=all routed through the full
    // RetExpan pipeline must reproduce the exhaustive expansion exactly,
    // at both thread counts.
    eprintln!("[perf] checking full-probe byte identity across thread counts…");
    let mut ret = ret;
    let mut full_probe_identical = true;
    for threads in [1usize, 4] {
        set_threads(threads);
        ret.set_source(Box::new(Exhaustive));
        let exhaustive_lists = expand_all(&ret, &world, &gate_queries);
        ret.set_source(Box::new(IvfSource::new(index.clone(), 0)));
        let ivf_lists = expand_all(&ret, &world, &gate_queries);
        let same = fingerprint(&exhaustive_lists) == fingerprint(&ivf_lists);
        eprintln!(
            "[perf]   threads={threads}: {}",
            if same { "identical" } else { "DIVERGED" }
        );
        full_probe_identical &= same;
    }
    ret.set_source(Box::new(Exhaustive));
    set_threads(0);
    assert!(
        full_probe_identical,
        "IVF nprobe=all expansion diverged from the exhaustive path"
    );

    let index_stage = IndexStage {
        kind: "ivf".into(),
        nlist,
        kmeans_iters: ivf_cfg.kmeans_iters,
        build_ms,
        exhaustive_p50_micros: exhaustive_p50,
        exhaustive_p99_micros: exhaustive_p99,
        nprobe_sweep: sweep,
        best_nprobe_at_recall50_95: best.map(|(np, _)| np),
        best_speedup_at_recall50_95: best.map(|(_, sp)| sp),
        full_probe_byte_identical_to_exhaustive: full_probe_identical,
    };

    if huge {
        let best = index_stage
            .best_speedup_at_recall50_95
            .expect("huge profile: no nprobe point reached recall@50 ≥ 0.95");
        assert!(
            best >= 5.0,
            "huge profile: IVF p50 speedup {best:.2}x < 5x at recall@50 ≥ 0.95"
        );
        eprintln!(
            "[perf] huge gate OK: nprobe={} gives {best:.2}x at recall@50 ≥ 0.95",
            index_stage.best_nprobe_at_recall50_95.unwrap_or(0)
        );
    }

    // --- Startup stage (schema v3; skipped on huge) ------------------------
    let mut startup = None;
    if !huge {
        eprintln!("[perf] startup stage: train-at-startup vs snapshot load…");
        let engine_cfg = EngineConfig {
            profile: profile.clone(),
            seed: world.config.seed,
            ..EngineConfig::default()
        };
        let t = Instant::now();
        let trained = ExpansionEngine::build(engine_cfg).expect("engine builds");
        let train_ms = ms(t);
        let bytes = trained.to_snapshot().expect("snapshot encodes").to_bytes();
        let snapshot_fingerprint = format!("{:016x}", ultra_snap::file_fingerprint(&bytes));
        let t = Instant::now();
        let loaded = ExpansionEngine::from_snapshot_bytes(&bytes, SnapshotRuntime::default())
            .expect("snapshot loads");
        let snapshot_load_ms = ms(t);

        let answers = |engine: &ExpansionEngine| -> Vec<RankedList> {
            engine
                .world()
                .queries()
                .take(64)
                .map(|(_u, q)| {
                    engine
                        .expand_uncached(Method::RetExpan, q, 0)
                        .expect("engine expands")
                })
                .collect()
        };
        let identical = fingerprint(&answers(&trained)) == fingerprint(&answers(&loaded));
        assert!(
            identical,
            "snapshot-loaded engine diverged from train-at-startup"
        );
        let speedup = train_ms / snapshot_load_ms.max(1e-9);
        eprintln!(
            "[perf] startup: train {train_ms:.0}ms vs snapshot load {snapshot_load_ms:.1}ms \
             ({speedup:.0}x, {} bytes, fingerprint {snapshot_fingerprint})",
            bytes.len()
        );
        if profile == "small" {
            assert!(
                speedup >= 20.0,
                "small profile: snapshot load must be ≥ 20x faster than training, got {speedup:.1}x"
            );
        }
        startup = Some(StartupStage {
            train_ms,
            snapshot_load_ms,
            speedup_load_vs_train: speedup,
            snapshot_bytes: bytes.len(),
            snapshot_fingerprint,
            answers_byte_identical: identical,
        });
    }

    let report = BenchReport {
        schema_version: 5,
        profile,
        seed: world.config.seed,
        host_parallelism,
        num_queries,
        num_entities: world.num_entities(),
        genexpan,
        scoring,
        training,
        eval,
        index: index_stage,
        startup,
        note: format!(
            "scalar checksum {scalar_checksum:.3}; threads=1 and threads=4 run the same \
             chunked kernels (fixed chunk boundaries, ordered reduction), so outputs are \
             byte-identical and t4-vs-t1 reflects hardware parallelism only. The index \
             sweep times the preliminary scoring stage (candidate generation + ranking) \
             per query; IVF speedups are algorithmic (scan nprobe/nlist of the entities) \
             and hold on single-core hosts. genexpan/scoring/training/eval/startup are \
             null on the huge profile by design. The genexpan stage runs every query on \
             one fresh GenExpan instance, then again with its memos warm. The training \
             stage times the fused batched contrastive step (persistent worker team, \
             cost-weighted chunks, recycled workspaces) against the committed v3 \
             per-example baseline. The startup \
             stage times the full offline phase against a checksum-verified USNP \
             snapshot load of the same engine."
        ),
    };
    if let Some(s) = &report.scoring {
        assert!(
            s.ranked_lists_byte_identical,
            "ranked lists diverged between thread counts"
        );
    }
    if let Some(t) = &report.training {
        assert!(
            t.loss_curve_bit_identical,
            "loss curves diverged between thread counts"
        );
    }
    dump_json("BENCH_expand", &report);
    // A copy at the repo root gives the acceptance gate a stable path.
    if let Ok(json) = serde_json::to_string_pretty(&report) {
        let _ = std::fs::write("BENCH_expand.json", json + "\n");
        eprintln!("[perf] wrote BENCH_expand.json");
    }
    if let Some(g) = &report.genexpan {
        println!(
            "genexpan: first {:.1}µs/query ({} beams, pair hits {:.3})  warm {:.1}µs/query \
             ({} beams, pair hits {:.3})  {} pairs",
            g.first_pass.micros_per_query,
            g.first_pass.beams_run,
            g.first_pass.pair_hit_ratio,
            g.warm_pass.micros_per_query,
            g.warm_pass.beams_run,
            g.warm_pass.pair_hit_ratio,
            g.warm_pass.pairs_stored,
        );
    }
    if let Some(s) = &report.scoring {
        println!(
            "scoring: scalar {:.1}ms  t1 {:.1}ms  t4 {:.1}ms  (vs-scalar {:.2}x, t4/t1 {:.2}x)",
            s.scalar_prepr_ms,
            s.threads1_ms,
            s.threads4_ms,
            s.speedup_vs_prepr_scalar,
            s.speedup_t4_vs_t1,
        );
    }
    if let Some(t) = &report.training {
        println!(
            "training: t1 {:.1}ms  t4 {:.1}ms  (t4/t1 {:.2}x [{}], vs-v3 {:.2}x [{}], {} batches)",
            t.threads1_ms,
            t.threads4_ms,
            t.speedup_t4_vs_t1,
            t.thread_scaling_gate,
            t.speedup_vs_v3_threads1,
            t.single_thread_gate,
            t.num_batches,
        );
    }
    if let Some(e) = &report.eval {
        println!(
            "eval: t1 {:.1}ms  t4 {:.1}ms  ({:.2}x)",
            e.threads1_ms, e.threads4_ms, e.speedup_t4_vs_t1,
        );
    }
    if let Some(s) = &report.startup {
        println!(
            "startup: train {:.0}ms  snapshot load {:.1}ms  ({:.0}x, {} bytes)",
            s.train_ms, s.snapshot_load_ms, s.speedup_load_vs_train, s.snapshot_bytes,
        );
    }
    println!(
        "index: ivf nlist={} build {:.1}ms  exhaustive p50={}µs  best ≥0.95-recall point: {}",
        report.index.nlist,
        report.index.build_ms,
        report.index.exhaustive_p50_micros,
        match (
            report.index.best_nprobe_at_recall50_95,
            report.index.best_speedup_at_recall50_95
        ) {
            (Some(np), Some(sp)) => format!("nprobe={np} ({sp:.2}x)"),
            _ => "none".into(),
        },
    );
}
