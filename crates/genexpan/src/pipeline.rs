//! The GenExpan pipeline: iterative generation → selection → re-ranking.

use crate::cooc::CoocIndex;
use crate::cot::{self, CotConfig};
use crate::memo::{MemoStats, PairKey, PairMemo, WindowKey, WindowMemo};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;
use std::sync::Arc;
use ultra_core::rng::{derive_rng, UltraRng};
use ultra_core::stable::{FNV_OFFSET, FNV_PRIME};
use ultra_core::{mix_seed, rerank_by_negatives, EntityId, Query, RankedList, TokenId, UltraClass};
use ultra_data::World;
use ultra_lm::{BeamParams, LmContext, ModelSpec, NgramLm, TrieDecoder};
use ultra_text::PrefixTrie;

/// Knowledge source for generation-side retrieval augmentation
/// (Section 5.2.3, Table 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenRaSource {
    /// No augmentation.
    None,
    /// Introductions of the positive seed entities.
    Introduction,
    /// Wikidata records of the positive seed entities.
    WikidataAttrs,
    /// Ground-truth attribute markers of the query's constraints.
    GtAttrs,
}

/// GenExpan configuration.
#[derive(Clone, Debug)]
pub struct GenExpanConfig {
    /// LM capacity/family (Figure 8).
    pub model: ModelSpec,
    /// Continue pre-training on corpus `D` (Table 3 "- Further pretrain"
    /// disables this).
    pub further_pretrain: bool,
    /// Prefix-trie-constrained decoding (Table 3 "- Prefix constrain"
    /// disables this).
    pub constrained: bool,
    /// Beam parameters (the paper uses beam 40, generating 40 entities per
    /// round).
    pub beam: BeamParams,
    /// Fraction of newly generated entities admitted per round
    /// ("top 0.7" in Appendix C; Figure 7 sweeps it).
    pub top_p_frac: f64,
    /// Stop once the expansion reaches this size.
    pub target_size: usize,
    /// Hard cap on generation rounds.
    pub max_rounds: usize,
    /// Stop after this many consecutive rounds without new entities
    /// (the paper uses 20).
    pub patience: usize,
    /// Re-ranking segment length `l`.
    pub segment_len: usize,
    /// Whether negative-seed re-ranking runs (Table 5).
    pub rerank: bool,
    /// Chain-of-thought configuration (Table 9).
    pub cot: CotConfig,
    /// Retrieval-augmentation source (Table 8).
    pub ra: GenRaSource,
    /// λ — weight of long-range conditioning scores.
    pub cond_weight: f64,
    /// Floor on the *raw sequence probability* (geometric mean raised back
    /// to the name length) of an emitted entity. The substitute LM's beam
    /// backs off to unigram mass once the strong list continuations are
    /// exhausted, which would admit implausible entities a real LLM would
    /// never surface; the floor models the LLM's own plausibility cut-off.
    /// Raw (unnormalized) probability separates plausible from back-off
    /// generations far more sharply than the geometric mean, which is
    /// inflated by near-deterministic within-name transitions.
    pub min_gen_score: f64,
    /// Sampling seed for prompt construction.
    pub seed: u64,
}

impl Default for GenExpanConfig {
    fn default() -> Self {
        Self {
            model: ModelSpec::default_backbone(),
            further_pretrain: true,
            constrained: true,
            beam: BeamParams::default(),
            top_p_frac: 0.7,
            target_size: 120,
            max_rounds: 40,
            patience: 8,
            segment_len: 10,
            rerank: true,
            cot: CotConfig::off(),
            ra: GenRaSource::None,
            cond_weight: 0.6,
            min_gen_score: 0.005,
            seed: 0x6E6E,
        }
    }
}

/// One expansion entry: a real candidate or an out-of-vocabulary
/// hallucination (only possible with unconstrained decoding).
#[derive(Clone, Debug)]
enum ExpKind {
    Real(EntityId),
    Hallucinated,
}

/// Expansion entry with its selection score.
#[derive(Clone, Debug)]
struct ExpItem {
    kind: ExpKind,
    /// Eq. 7 log-score against the positive seeds, before the conditioning
    /// term (the re-rank's `sco^pos`; unused for hallucinations).
    pos: f64,
    /// Eq. 7 selection score (+ conditioning), decayed by round so the
    /// iterative-expansion ordering survives the final re-score.
    score: f64,
}

/// One seed's side of Eq. 7: its id, its name and its template `f(seed)`,
/// resolved once per query.
struct SeedTemplate<'a> {
    id: EntityId,
    name: &'a [TokenId],
    template: LmContext<'a>,
}

/// A trained GenExpan instance.
///
/// Clones share everything but the configuration: the candidate set, the
/// co-occurrence index and the pair memo (DESIGN.md §6, "Sparse root step",
/// "GenExpan round reuse" and "Eq. 7 once per entity pair"). The window
/// memo's key covers every configuration field a round's candidates depend
/// on, and the memo lives beside the one trie it is valid for.
/// [`restricted_to`](Self::restricted_to), the one way to change the trie,
/// builds a new candidate set on the same LM. Eq. 7's term reads no
/// configuration and no trie, so restrictions share the pair memo too.
#[derive(Clone)]
pub struct GenExpan {
    /// Configuration.
    pub config: GenExpanConfig,
    cands: Arc<Candidates>,
    cooc: Arc<CoocIndex>,
    pairs: Arc<PairMemo>,
}

/// What one trie of candidate names holds: its decoder (LM, trie, list
/// separator and root order) and the window memo of its beams.
struct Candidates {
    decoder: TrieDecoder,
    windows: WindowMemo,
}

impl Candidates {
    /// `decoder`'s candidate set, with an empty window memo.
    fn new(decoder: TrieDecoder) -> Arc<Self> {
        Arc::new(Self {
            decoder,
            windows: WindowMemo::new(),
        })
    }
}

impl GenExpan {
    /// Builds the LM (base pre-training + optional further pre-training on
    /// corpus `D`) and the candidate trie over the full vocabulary.
    pub fn train(world: &World, config: GenExpanConfig) -> Self {
        let mut lm = NgramLm::new(
            config.model.order,
            config.model.smoothing,
            world.vocab.len(),
        );
        let base = world.base_lm_docs();
        lm.train(base.iter().map(Vec::as_slice));
        if config.further_pretrain {
            let further = world.further_pretrain_docs();
            lm.train(further.iter().map(Vec::as_slice));
        }
        let trie = name_trie(world, world.entities.iter().map(|e| e.id));
        Self::from_parts(world, config, lm, trie)
    }

    /// Reassembles a pipeline from previously persisted parts (snapshot
    /// load): the trained LM and trie are supplied, while the co-occurrence
    /// index and the decoder over the world's list separator — cheap, pure
    /// functions of the world and the parts — are rebuilt in place.
    pub fn from_parts(
        world: &World,
        config: GenExpanConfig,
        lm: NgramLm,
        trie: PrefixTrie,
    ) -> Self {
        Self {
            config,
            cands: Candidates::new(TrieDecoder::new(Arc::new(lm), trie, world.list_sep)),
            cooc: Arc::new(CoocIndex::build(world)),
            pairs: Arc::new(PairMemo::new()),
        }
    }

    /// The same trained model with its candidates restricted to `pool` —
    /// the Table 10 paradigm-interaction setting, where another model's
    /// recall forms the candidate set. Builds only a decoder over the
    /// pool's names on the same LM, with an empty window memo; shares the
    /// co-occurrence index and the pair memo, since Eq. 7 never reads the
    /// trie.
    pub fn restricted_to(&self, world: &World, pool: &[EntityId]) -> GenExpan {
        let decoder = &self.cands.decoder;
        let trie = name_trie(world, pool.iter().copied());
        Self {
            cands: Candidates::new(TrieDecoder::new(
                Arc::clone(decoder.lm()),
                trie,
                decoder.sep(),
            )),
            ..self.clone()
        }
    }

    /// The trained n-gram LM (read-only; snapshot serialization).
    pub fn lm(&self) -> &NgramLm {
        self.cands.decoder.lm()
    }

    /// The candidate prefix trie (read-only; snapshot serialization).
    pub fn trie(&self) -> &PrefixTrie {
        self.cands.decoder.trie()
    }

    /// Window-memo counters (DESIGN.md §6, "GenExpan round reuse"); shared
    /// with every clone of this instance.
    pub fn memo_stats(&self) -> MemoStats {
        self.cands.windows.stats()
    }

    /// Pair-memo counters (DESIGN.md §6, "Eq. 7 once per entity pair");
    /// shared with every clone and restriction of this instance.
    pub fn pair_stats(&self) -> MemoStats {
        self.pairs.stats()
    }

    /// Eq. 7's list-continuation template `f(e) = "{e} ,"` (the substitute
    /// for "`{e}` is similar to" — see crate docs), resolved once:
    /// `sco(e → e') = P(e'|f(e))^(1/|e'|)` is
    /// `lm.entity_score_from(&template(e), e')`.
    fn template(&self, name: &[TokenId]) -> LmContext<'_> {
        let decoder = &self.cands.decoder;
        decoder.lm().prefix(&[name, &[decoder.sep()]])
    }

    /// The seeds' names and templates, for scoring many entities against
    /// them.
    fn seed_templates<'a>(&'a self, world: &'a World, seeds: &[EntityId]) -> Vec<SeedTemplate<'a>> {
        seeds
            .iter()
            .map(|&id| {
                let name = world.name_tokens[id.index()].as_slice();
                SeedTemplate {
                    id,
                    name,
                    template: self.template(name),
                }
            })
            .collect()
    }

    /// Mean Eq. 7 score of entity `e` against a seed set, in log space.
    ///
    /// Scored bidirectionally — `√(P(seed|f(e)) · P(e|f(seed)))` — which
    /// denoises the asymmetry of sparse list statistics (the paper's
    /// LLaMA scores only `P(e'|f(e))`; with dense LM statistics the two
    /// directions agree). Each seed's term comes from the pair memo;
    /// `f(e)` is resolved only if one is missing.
    fn seed_logscore(&self, world: &World, e: EntityId, seeds: &[SeedTemplate<'_>]) -> f64 {
        if seeds.is_empty() {
            return f64::NEG_INFINITY;
        }
        let e_tokens = world.name_tokens[e.index()].as_slice();
        let mut f_e = None;
        let mean: f64 = seeds
            .iter()
            .map(|s| {
                self.pairs.get_or_compute(PairKey::new(e, s.id), || {
                    let f_e = f_e.get_or_insert_with(|| self.template(e_tokens));
                    let fwd = self.lm().entity_score_from(f_e, s.name);
                    let bwd = self.lm().entity_score_from(&s.template, e_tokens);
                    (fwd * bwd).sqrt()
                })
            })
            .sum::<f64>()
            / seeds.len() as f64;
        mean.max(1e-300).ln()
    }

    /// Full pipeline for one query.
    pub fn expand(&self, world: &World, ultra: &UltraClass, query: &Query) -> RankedList {
        let mut rng = self.query_rng(query);
        let cot_tokens = cot::reason(
            &self.config.cot,
            world,
            &self.cooc,
            ultra,
            &query.pos_seeds,
            &query.neg_seeds,
        );
        let (ra_pos, ra_neg) = self.ra_tokens(world, ultra, query);
        let mut pos_cond = cot_tokens.positive.clone();
        pos_cond.extend(ra_pos);
        let mut neg_cond = cot_tokens.negative.clone();
        neg_cond.extend(ra_neg);

        let mut expansion = self.generate(world, query, &pos_cond, &mut rng);

        // Final ranking: re-score the accumulated expansion by the Eq. 7
        // selection score. (The paper ranks by iterative insertion order;
        // our substitute generator has noisier per-round precision, so the
        // selection score — which the paper also uses to admit entities —
        // orders the final list. Round decay keeps the iterative-expansion
        // flavour: later rounds still rank lower on average.)
        expansion.sort_by(|a, b| b.score.total_cmp(&a.score));
        let n = expansion.len();
        let mut fake_id = world.num_entities() as u32;
        let entries: Vec<(EntityId, f32)> = expansion
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let id = match &item.kind {
                    ExpKind::Real(e) => *e,
                    ExpKind::Hallucinated => {
                        let id = EntityId::new(fake_id);
                        fake_id += 1;
                        id
                    }
                };
                (id, (n - i) as f32)
            })
            .collect();
        let list = RankedList::from_sorted(entries);
        if !self.config.rerank || query.neg_seeds.is_empty() {
            list.debug_validate("genexpan::expand (selection order)");
            return list;
        }
        let lambda = self.config.cond_weight;
        let neg_seeds = self.seed_templates(world, &query.neg_seeds);
        // `sco^neg` of each list entry, in list order.
        let neg: Vec<f32> = expansion
            .iter()
            .map(|item| match item.kind {
                // Hallucinations: no evidence either way.
                ExpKind::Hallucinated => 0.0,
                ExpKind::Real(e) => {
                    // Margin form: how much more the entity aligns with the
                    // negative seeds than with the positive seeds. The
                    // relative score cancels the entity's overall LM
                    // affinity, which would otherwise dominate the sparse
                    // Eq. 7 statistics.
                    let mut s = self.seed_logscore(world, e, &neg_seeds) - item.pos;
                    if !neg_cond.is_empty() {
                        s += lambda * self.cooc.condition_logscore(e, &neg_cond);
                    }
                    s as f32
                }
            })
            .collect();
        let reranked = rerank_by_negatives(&list, self.config.segment_len, &neg);
        reranked.debug_validate("genexpan::expand (reranked)");
        reranked
    }

    /// The candidates of the round prompted with `prompt` that clear the
    /// generation floor, in beam order: the constrained beam's output,
    /// computed once per LM window and beam configuration.
    fn round_candidates(&self, world: &World, prompt: &[TokenId]) -> Arc<[EntityId]> {
        let Candidates { decoder, windows } = &*self.cands;
        let window = &prompt[prompt.len().saturating_sub(decoder.lm().order() - 1)..];
        let key = WindowKey::new(self.config.beam, self.config.min_gen_score, window);
        windows.get_or_compute(key, || {
            let mut ids = Vec::new();
            for (e, gm) in decoder.constrained(prompt, self.config.beam) {
                let len = world.name_tokens[e.index()].len() as i32;
                if gm.powi(len) < self.config.min_gen_score {
                    continue;
                }
                ids.push(e);
            }
            ids.into()
        })
    }

    /// The iterative generation + selection loop.
    fn generate(
        &self,
        world: &World,
        query: &Query,
        pos_cond: &[TokenId],
        rng: &mut UltraRng,
    ) -> Vec<ExpItem> {
        let mut expansion: Vec<ExpItem> = Vec::new();
        let mut real_set: HashSet<EntityId> = query.all_seeds().collect();
        let mut fake_set: HashSet<Vec<TokenId>> = HashSet::new();
        let pos_seeds = self.seed_templates(world, &query.pos_seeds);
        // Score = Eq.7 against positive seeds + λ · long-range
        // conditioning (CoT / RA tokens).
        let lambda = self.config.cond_weight;
        let candidate = |e: EntityId| {
            let pos = self.seed_logscore(world, e, &pos_seeds);
            let mut score = pos;
            if !pos_cond.is_empty() {
                score += lambda * self.cooc.condition_logscore(e, pos_cond);
            }
            ExpItem {
                kind: ExpKind::Real(e),
                pos,
                score,
            }
        };
        let mut stale_rounds = 0usize;
        let real_count = |exp: &Vec<ExpItem>| {
            exp.iter()
                .filter(|i| matches!(i.kind, ExpKind::Real(_)))
                .count()
        };

        for round in 0..self.config.max_rounds {
            if real_count(&expansion) >= self.config.target_size
                || stale_rounds >= self.config.patience
            {
                break;
            }
            let prompt = self.build_prompt(world, query, &expansion, round, rng);
            let round_decay = -0.1 * round as f64;
            let mut new_items: Vec<ExpItem> = Vec::new();
            if self.config.constrained {
                for &e in self.round_candidates(world, &prompt).iter() {
                    if !real_set.contains(&e) {
                        new_items.push(candidate(e));
                    }
                }
            } else {
                for g in self.cands.decoder.unconstrained(&prompt, self.config.beam) {
                    // Unconstrained decoding has no candidate trie to anchor
                    // plausibility: the beam freely emits fluent-but-invalid
                    // recombinations, and the model cannot tell them apart
                    // from real names. No floor applies — this is exactly
                    // the paper's argument for the prefix constraint
                    // (Table 3's largest ablation drop).
                    match g.entity {
                        // A valid sequence is exactly the entity's name.
                        Some(e) if !real_set.contains(&e) => {
                            new_items.push(candidate(e));
                        }
                        Some(_) => {}
                        None => {
                            if fake_set.insert(g.tokens.clone()) {
                                // A fluent hallucination is indistinguishable
                                // from a real generation *to the model* — it
                                // receives the round's upper-quartile real
                                // confidence (scored after the loop).
                                new_items.push(ExpItem {
                                    kind: ExpKind::Hallucinated,
                                    pos: f64::NAN,
                                    score: f64::NAN,
                                });
                            }
                        }
                    }
                }
            }
            let mut real_scores: Vec<f64> = new_items
                .iter()
                .filter(|i| matches!(i.kind, ExpKind::Real(_)) && i.score.is_finite())
                .map(|i| i.score)
                .collect();
            real_scores.sort_by(f64::total_cmp);
            // Upper-quartile confidence: the beam surfaces recombinations
            // precisely because they are *more* fluent than typical real
            // continuations, so the model trusts them at least as much as
            // most of its real generations.
            let upper_quartile = real_scores
                .get(real_scores.len() * 3 / 4)
                .copied()
                .unwrap_or(-10.0);
            for item in new_items.iter_mut() {
                if matches!(item.kind, ExpKind::Hallucinated) {
                    item.score = upper_quartile;
                }
            }
            // Entity selection: keep the top-p fraction.
            new_items.sort_by(|a, b| b.score.total_cmp(&a.score));
            let admit = ((new_items.len() as f64) * self.config.top_p_frac).ceil() as usize;
            let mut admitted_any = false;
            for mut item in new_items.into_iter().take(admit) {
                if let ExpKind::Real(e) = &item.kind {
                    real_set.insert(*e);
                }
                item.score += round_decay;
                expansion.push(item);
                admitted_any = true;
            }
            if admitted_any {
                stale_rounds = 0;
            } else {
                stale_rounds += 1;
            }
        }
        expansion
    }

    /// Builds one round's list-continuation prompt.
    ///
    /// Round 0 samples 3 positive seeds; later rounds sample 2 positive
    /// seeds + 1 expanded entity, "to maintain diversity while ensuring the
    /// semantic does not deviate from the original positive seed entities".
    fn build_prompt(
        &self,
        world: &World,
        query: &Query,
        expansion: &[ExpItem],
        round: usize,
        rng: &mut UltraRng,
    ) -> Vec<TokenId> {
        let mut seeds: Vec<EntityId> = query.pos_seeds.clone();
        seeds.shuffle(rng);
        let expanded: Vec<EntityId> = expansion
            .iter()
            .filter_map(|i| match &i.kind {
                ExpKind::Real(e) => Some(*e),
                ExpKind::Hallucinated => None,
            })
            .collect();
        let mut prompt_entities: Vec<EntityId> = Vec::with_capacity(3);
        if round == 0 || expanded.is_empty() {
            prompt_entities.extend(seeds.iter().copied().take(3));
        } else {
            prompt_entities.extend(seeds.iter().copied().take(2));
            prompt_entities.push(expanded[rng.gen_range(0..expanded.len())]);
        }
        let mut prompt: Vec<TokenId> = Vec::new();
        for e in prompt_entities {
            prompt.extend_from_slice(&world.name_tokens[e.index()]);
            prompt.push(self.cands.decoder.sep());
        }
        prompt
    }

    /// Per-query deterministic RNG (hash of the seed ids).
    fn query_rng(&self, query: &Query) -> UltraRng {
        let mut h = FNV_OFFSET;
        for e in query.all_seeds() {
            h ^= e.0 as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        derive_rng(self.config.seed, mix_seed(h, 17))
    }

    /// RA conditioning tokens from the positive seeds' knowledge.
    fn ra_tokens(
        &self,
        world: &World,
        ultra: &UltraClass,
        query: &Query,
    ) -> (Vec<TokenId>, Vec<TokenId>) {
        match self.config.ra {
            GenRaSource::None => (Vec::new(), Vec::new()),
            GenRaSource::Introduction => {
                let mut toks = Vec::new();
                for &s in &query.pos_seeds {
                    toks.extend_from_slice(world.knowledge.intro_of(s));
                }
                toks.sort_unstable();
                toks.dedup();
                (toks, Vec::new())
            }
            GenRaSource::WikidataAttrs => {
                let mut toks = Vec::new();
                for &s in &query.pos_seeds {
                    toks.extend_from_slice(world.knowledge.wikidata_of(s));
                }
                toks.sort_unstable();
                toks.dedup();
                (toks, Vec::new())
            }
            GenRaSource::GtAttrs => {
                let mut pos = Vec::new();
                for &(aid, val) in &ultra.pos.required {
                    pos.extend(
                        world
                            .lexicon
                            .markers_of(aid.index(), val.index())
                            .iter()
                            .take(2),
                    );
                }
                let mut neg = Vec::new();
                for &(aid, val) in &ultra.neg.required {
                    neg.extend(
                        world
                            .lexicon
                            .markers_of(aid.index(), val.index())
                            .iter()
                            .take(2),
                    );
                }
                (pos, neg)
            }
        }
    }
}

/// The candidate trie over the names of `entities`.
fn name_trie(world: &World, entities: impl Iterator<Item = EntityId>) -> PrefixTrie {
    let mut trie = PrefixTrie::new();
    for e in entities {
        trie.insert(&world.name_tokens[e.index()], e);
    }
    trie
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_data::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::tiny()).unwrap()
    }

    fn quick_cfg() -> GenExpanConfig {
        GenExpanConfig {
            target_size: 60,
            max_rounds: 15,
            ..GenExpanConfig::default()
        }
    }

    #[test]
    fn genexpan_beats_random_and_emits_no_hallucinations() {
        let w = world();
        let gen = GenExpan::train(&w, quick_cfg());
        // Evaluate a class subset to keep the debug-mode test fast.
        let r = ultra_eval::evaluate_method_filtered(
            &w,
            |u| u.fine.index() < 3,
            |u, q| gen.expand(&w, u, q),
        );
        assert!(r.pos_map[0] > 10.0, "PosMAP@10 = {:.2}", r.pos_map[0]);
        // Constrained decoding: every returned id is a real entity.
        let (u, q) = w.queries().next().unwrap();
        let out = gen.expand(&w, u, q);
        for e in out.entities() {
            assert!(e.index() < w.num_entities());
        }
    }

    #[test]
    fn unconstrained_decoding_can_hallucinate() {
        let w = world();
        let cfg = GenExpanConfig {
            constrained: false,
            ..quick_cfg()
        };
        let gen = GenExpan::train(&w, cfg);
        let mut fake_total = 0usize;
        for (u, q) in w.queries().take(10) {
            let out = gen.expand(&w, u, q);
            fake_total += out
                .entities()
                .filter(|e| e.index() >= w.num_entities())
                .count();
        }
        assert!(
            fake_total > 0,
            "unconstrained decoding should emit invalid sequences"
        );
    }

    #[test]
    fn expansion_is_deterministic() {
        let w = world();
        let gen = GenExpan::train(&w, quick_cfg());
        let (u, q) = w.queries().next().unwrap();
        let a: Vec<_> = gen.expand(&w, u, q).entities().collect();
        let b: Vec<_> = gen.expand(&w, u, q).entities().collect();
        assert_eq!(a, b);
    }

    /// The first query's positive and negative targets.
    fn target_pool(w: &World) -> Vec<EntityId> {
        let (u, _q) = w.queries().next().unwrap();
        u.pos_targets
            .iter()
            .chain(&u.neg_targets)
            .copied()
            .collect()
    }

    #[test]
    fn pool_restriction_is_respected() {
        let w = world();
        let (u, q) = w.queries().next().unwrap();
        let pool = target_pool(&w);
        let gen = GenExpan::train(&w, quick_cfg()).restricted_to(&w, &pool);
        let out = gen.expand(&w, u, q);
        assert!(!out.is_empty());
        for e in out.entities() {
            assert!(pool.contains(&e), "{e:?} outside the restricted pool");
        }
    }

    #[test]
    fn a_restricted_instance_never_reads_its_parents_memo() {
        let w = world();
        let warmed = GenExpan::train(&w, quick_cfg());
        let full = lists(&warmed, &w, 8);
        assert!(warmed.memo_stats().entries > 0);
        let pool = target_pool(&w);
        let restricted = warmed.restricted_to(&w, &pool);
        let fresh = fresh(
            &warmed,
            &w,
            quick_cfg(),
            name_trie(&w, pool.iter().copied()),
        );
        let want = lists(&fresh, &w, 8);
        assert_ne!(want, full, "the restriction must matter");
        assert_eq!(lists(&restricted, &w, 8), want);
    }

    /// The ranked lists of the world's first `n` queries.
    fn lists(gen: &GenExpan, w: &World, n: usize) -> Vec<RankedList> {
        w.queries()
            .take(n)
            .map(|(u, q)| gen.expand(w, u, q))
            .collect()
    }

    /// A fresh instance (both memos empty) on `trained`'s LM.
    fn fresh(trained: &GenExpan, w: &World, cfg: GenExpanConfig, trie: PrefixTrie) -> GenExpan {
        GenExpan::from_parts(w, cfg, trained.lm().clone(), trie)
    }

    #[test]
    fn a_warm_memo_gives_the_cold_lists_without_running_a_beam() {
        let w = world();
        let gen = GenExpan::train(&w, quick_cfg());
        let cold = lists(&gen, &w, 8);
        let (windows_cold, pairs_cold) = (gen.memo_stats(), gen.pair_stats());
        assert!(windows_cold.misses > 0 && windows_cold.entries > 0);
        assert!(pairs_cold.misses > 0 && pairs_cold.entries > 0);
        assert_eq!(lists(&gen, &w, 8), cold);
        let (windows_warm, pairs_warm) = (gen.memo_stats(), gen.pair_stats());
        assert_eq!(windows_warm.misses, windows_cold.misses, "every round hit");
        assert!(windows_warm.hits > windows_cold.hits);
        assert_eq!(pairs_warm.misses, pairs_cold.misses, "every Eq. 7 term hit");
        assert!(pairs_warm.hits > pairs_cold.hits);
        assert_eq!(windows_warm.capacity, crate::memo::WINDOW_CAPACITY);
        assert_eq!(pairs_warm.capacity, crate::memo::PAIR_CAPACITY);
    }

    #[test]
    fn reconfigured_clones_match_a_fresh_instance() {
        let w = world();
        let mut warmed = GenExpan::train(&w, quick_cfg());
        let default_lists = lists(&warmed, &w, 8);
        let base = quick_cfg();
        let changed = [
            GenExpanConfig {
                beam: BeamParams {
                    beam_size: 3,
                    ..base.beam
                },
                ..quick_cfg()
            },
            GenExpanConfig {
                beam: BeamParams {
                    max_len: 1,
                    ..base.beam
                },
                ..quick_cfg()
            },
            GenExpanConfig {
                min_gen_score: 0.2,
                ..quick_cfg()
            },
            GenExpanConfig {
                rerank: false,
                ..quick_cfg()
            },
            GenExpanConfig {
                top_p_frac: 0.4,
                ..quick_cfg()
            },
            // λ weighs conditioning tokens, so these two give it some.
            GenExpanConfig {
                ra: GenRaSource::GtAttrs,
                ..quick_cfg()
            },
            GenExpanConfig {
                ra: GenRaSource::GtAttrs,
                cond_weight: 2.0,
                ..quick_cfg()
            },
        ];
        let mut seen = vec![default_lists.clone()];
        for cfg in changed {
            let name = format!(
                "{:?} floor {} rerank {} top-p {} {:?} λ {}",
                cfg.beam, cfg.min_gen_score, cfg.rerank, cfg.top_p_frac, cfg.ra, cfg.cond_weight
            );
            let want = lists(
                &fresh(&warmed, &w, cfg.clone(), warmed.trie().clone()),
                &w,
                8,
            );
            assert!(!seen.contains(&want), "{name}: the change must matter");
            // A clone shares both warm memos.
            let mut clone = warmed.clone();
            clone.config = cfg.clone();
            let pair_hits = warmed.pair_stats().hits;
            assert_eq!(lists(&clone, &w, 8), want, "{name} on a clone");
            assert!(warmed.pair_stats().hits > pair_hits, "{name}: no pair read");
            // So does the warmed instance itself, reconfigured and restored.
            warmed.config = cfg;
            assert_eq!(lists(&warmed, &w, 8), want, "{name} in place");
            warmed.config = quick_cfg();
            assert_eq!(lists(&warmed, &w, 8), default_lists, "{name} restored");
            seen.push(want);
        }
    }

    #[test]
    fn the_memo_stops_storing_at_capacity_and_output_does_not_change() {
        let w = world();
        let unbounded = GenExpan::train(&w, quick_cfg());
        let mut bounded = GenExpan::train(&w, quick_cfg());
        Arc::get_mut(&mut bounded.cands).expect("unshared").windows = WindowMemo::with_capacity(5);
        bounded.pairs = Arc::new(PairMemo::with_capacity(5));
        for _ in 0..2 {
            assert_eq!(lists(&bounded, &w, 8), lists(&unbounded, &w, 8));
        }
        for (memo, full, starved) in [
            ("window", unbounded.memo_stats(), bounded.memo_stats()),
            ("pair", unbounded.pair_stats(), bounded.pair_stats()),
        ] {
            assert_eq!((starved.entries, starved.capacity), (5, 5), "{memo}");
            assert!(
                full.entries > 5,
                "the run needs more {memo} entries than the bounded memo holds"
            );
            assert!(starved.misses > full.misses, "{memo}");
        }
    }

    #[test]
    fn a_stored_pair_term_equals_both_direct_orders_bit_for_bit() {
        let w = world();
        let gen = GenExpan::train(&w, quick_cfg());
        // Eq. 7's term with `cand` as the scored entity and `seed` as the seed.
        let direct = |cand: EntityId, seed: EntityId| {
            let (c, s) = (&w.name_tokens[cand.index()], &w.name_tokens[seed.index()]);
            let fwd = gen.lm().entity_score_from(&gen.template(c), s);
            let bwd = gen.lm().entity_score_from(&gen.template(s), c);
            (fwd * bwd).sqrt()
        };
        let (u, q) = w.queries().next().unwrap();
        let others = u.pos_targets.iter().chain(&u.neg_targets).take(12);
        let mut checked = 0;
        for (&a, &b) in q
            .pos_seeds
            .iter()
            .zip(others.clone())
            .chain(others.zip(&q.neg_seeds))
        {
            let (ab, ba) = (direct(a, b), direct(b, a));
            assert_eq!(
                ab.to_bits(),
                ba.to_bits(),
                "{a:?} {b:?}: the term is symmetric"
            );
            // Stored with `a` scored against seed `b`, then read back with
            // the roles swapped.
            let scored = gen.seed_logscore(&w, a, &gen.seed_templates(&w, &[b]));
            let misses = gen.pair_stats().misses;
            let swapped = gen.seed_logscore(&w, b, &gen.seed_templates(&w, &[a]));
            assert_eq!(gen.pair_stats().misses, misses, "{a:?} {b:?}: a hit");
            assert_eq!(scored.to_bits(), swapped.to_bits());
            let stored = gen.pairs.get_or_compute(PairKey::new(b, a), || f64::NAN);
            assert_eq!(stored.to_bits(), ab.to_bits(), "{a:?} {b:?}");
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn clones_share_everything_and_restrictions_all_but_the_candidate_set() {
        let w = world();
        let gen = GenExpan::train(&w, quick_cfg());
        let clone = gen.clone();
        assert!(
            Arc::ptr_eq(&clone.cands, &gen.cands),
            "a clone shares the candidates"
        );
        assert!(Arc::ptr_eq(&clone.cooc, &gen.cooc) && Arc::ptr_eq(&clone.pairs, &gen.pairs));
        let restricted = gen.restricted_to(&w, &target_pool(&w));
        let (own, parent) = (&restricted.cands, &gen.cands);
        assert!(
            Arc::ptr_eq(own.decoder.lm(), parent.decoder.lm()),
            "the LM is shared"
        );
        assert!(
            Arc::ptr_eq(&restricted.pairs, &gen.pairs),
            "so is the pair memo"
        );
        assert!(Arc::ptr_eq(&restricted.cooc, &gen.cooc), "and the index");
        assert!(
            !Arc::ptr_eq(own, parent),
            "its trie, root order and window memo are its own"
        );
    }

    #[test]
    fn seeds_never_appear_in_the_expansion() {
        let w = world();
        let gen = GenExpan::train(&w, quick_cfg());
        for (u, q) in w.queries().take(5) {
            let out = gen.expand(&w, u, q);
            for s in q.all_seeds() {
                assert_eq!(out.rank_of(s), None);
            }
        }
    }
}
