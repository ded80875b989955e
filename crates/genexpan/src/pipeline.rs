//! The GenExpan pipeline: iterative generation → selection → re-ranking.

use crate::cooc::CoocIndex;
use crate::cot::{self, CotConfig};
use crate::memo::{MemoStats, WindowKey, WindowMemo};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use ultra_core::rng::{derive_rng, UltraRng};
use ultra_core::stable::{FNV_OFFSET, FNV_PRIME};
use ultra_core::{mix_seed, rerank_by_negatives, EntityId, Query, RankedList, TokenId, UltraClass};
use ultra_data::World;
use ultra_lm::{
    constrained_entity_beam, unconstrained_beam, BeamParams, LmContext, ModelSpec, NgramLm,
};
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

/// One seed's side of Eq. 7: its name and its template `f(seed)`, resolved
/// once per query.
struct SeedTemplate<'a> {
    name: &'a [TokenId],
    template: LmContext<'a>,
}

/// A trained GenExpan instance.
///
/// Clones share the trained LM, the co-occurrence index and the window
/// memo (DESIGN.md §6, "GenExpan round reuse"); the memo's key covers every
/// configuration field a round's candidates depend on, except the trie, so
/// [`restricted_to`](Self::restricted_to) — the one way to change the
/// trie — starts a fresh memo.
#[derive(Clone)]
pub struct GenExpan {
    /// Configuration.
    pub config: GenExpanConfig,
    lm: Arc<NgramLm>,
    trie: PrefixTrie,
    cooc: Arc<CoocIndex>,
    sep: TokenId,
    memo: Arc<WindowMemo>,
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
    /// index and the list separator — cheap, pure functions of the world —
    /// are rebuilt in place.
    pub fn from_parts(
        world: &World,
        config: GenExpanConfig,
        lm: NgramLm,
        trie: PrefixTrie,
    ) -> Self {
        Self {
            config,
            lm: Arc::new(lm),
            trie,
            cooc: Arc::new(CoocIndex::build(world)),
            sep: world.list_sep,
            memo: Arc::new(WindowMemo::new()),
        }
    }

    /// The same trained model with its candidates restricted to `pool` —
    /// the Table 10 paradigm-interaction setting, where another model's
    /// recall forms the candidate set. Shares the LM and the co-occurrence
    /// index; builds only a trie over the pool's names, and a fresh window
    /// memo (the memo's key does not cover the trie, so this instance must
    /// never read its parent's entries).
    pub fn restricted_to(&self, world: &World, pool: &[EntityId]) -> GenExpan {
        Self {
            config: self.config.clone(),
            lm: Arc::clone(&self.lm),
            trie: name_trie(world, pool.iter().copied()),
            cooc: Arc::clone(&self.cooc),
            sep: self.sep,
            memo: Arc::new(WindowMemo::new()),
        }
    }

    /// The trained n-gram LM (read-only; snapshot serialization).
    pub fn lm(&self) -> &NgramLm {
        &self.lm
    }

    /// The candidate prefix trie (read-only; snapshot serialization).
    pub fn trie(&self) -> &PrefixTrie {
        &self.trie
    }

    /// Window-memo counters (DESIGN.md §6, "GenExpan round reuse"); shared
    /// with every clone of this instance.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Eq. 7's list-continuation template `f(e) = "{e} ,"` (the substitute
    /// for "`{e}` is similar to" — see crate docs), resolved once:
    /// `sco(e → e') = P(e'|f(e))^(1/|e'|)` is
    /// `lm.entity_score_from(&template(e), e')`.
    fn template(&self, name: &[TokenId]) -> LmContext<'_> {
        self.lm.prefix(&[name, std::slice::from_ref(&self.sep)])
    }

    /// The seeds' names and templates, for scoring many entities against
    /// them.
    fn seed_templates<'a>(&'a self, world: &'a World, seeds: &[EntityId]) -> Vec<SeedTemplate<'a>> {
        seeds
            .iter()
            .map(|s| {
                let name = world.name_tokens[s.index()].as_slice();
                SeedTemplate {
                    name,
                    template: self.template(name),
                }
            })
            .collect()
    }

    /// Mean Eq. 7 score against a seed set, in log space.
    ///
    /// Scored bidirectionally — `√(P(seed|f(e)) · P(e|f(seed)))` — which
    /// denoises the asymmetry of sparse list statistics (the paper's
    /// LLaMA scores only `P(e'|f(e))`; with dense LM statistics the two
    /// directions agree).
    fn seed_logscore(&self, e_tokens: &[TokenId], seeds: &[SeedTemplate<'_>]) -> f64 {
        if seeds.is_empty() {
            return f64::NEG_INFINITY;
        }
        let f_e = self.template(e_tokens);
        let mean: f64 = seeds
            .iter()
            .map(|s| {
                let fwd = self.lm.entity_score_from(&f_e, s.name);
                let bwd = self.lm.entity_score_from(&s.template, e_tokens);
                (fwd * bwd).sqrt()
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
                    let name = &world.name_tokens[e.index()];
                    let mut s = self.seed_logscore(name, &neg_seeds) - item.pos;
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
        let window = &prompt[prompt.len().saturating_sub(self.lm.order() - 1)..];
        let key = WindowKey::new(self.config.beam, self.config.min_gen_score, window);
        self.memo.get_or_compute(key, || {
            let mut ids = Vec::new();
            for (e, gm) in constrained_entity_beam(&self.lm, prompt, &self.trie, self.config.beam) {
                let len = world.name_tokens[e.index()].len() as i32;
                if gm.powi(len) < self.config.min_gen_score {
                    continue;
                }
                ids.push(e);
            }
            ids
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
        // Eq. 7 against the positive seeds, once per entity: a candidate
        // left out by the top-p cut comes back in later rounds.
        let mut pos_scores: BTreeMap<EntityId, f64> = BTreeMap::new();
        // Score = Eq.7 against positive seeds + λ · long-range
        // conditioning (CoT / RA tokens).
        let lambda = self.config.cond_weight;
        let mut candidate = |e: EntityId, name: &[TokenId]| {
            let pos = *pos_scores
                .entry(e)
                .or_insert_with(|| self.seed_logscore(name, &pos_seeds));
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
                        new_items.push(candidate(e, &world.name_tokens[e.index()]));
                    }
                }
            } else {
                for g in
                    unconstrained_beam(&self.lm, &prompt, &self.trie, self.sep, self.config.beam)
                {
                    // Unconstrained decoding has no candidate trie to anchor
                    // plausibility: the beam freely emits fluent-but-invalid
                    // recombinations, and the model cannot tell them apart
                    // from real names. No floor applies — this is exactly
                    // the paper's argument for the prefix constraint
                    // (Table 3's largest ablation drop).
                    match g.entity {
                        // A valid sequence is exactly the entity's name.
                        Some(e) if !real_set.contains(&e) => {
                            new_items.push(candidate(e, &g.tokens));
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
            prompt.push(self.sep);
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
        assert!(warmed.memo_stats().windows > 0);
        let pool = target_pool(&w);
        let restricted = warmed.restricted_to(&w, &pool);
        let fresh = GenExpan::from_parts(
            &w,
            quick_cfg(),
            (*warmed.lm).clone(),
            name_trie(&w, pool.iter().copied()),
        );
        let want = lists(&fresh, &w, 8);
        assert_ne!(want, full, "the restriction must matter");
        assert_eq!(lists(&restricted, &w, 8), want);
        assert!(Arc::ptr_eq(&restricted.lm, &warmed.lm), "the LM is shared");
    }

    /// The ranked lists of the world's first `n` queries.
    fn lists(gen: &GenExpan, w: &World, n: usize) -> Vec<RankedList> {
        w.queries()
            .take(n)
            .map(|(u, q)| gen.expand(w, u, q))
            .collect()
    }

    #[test]
    fn a_warm_memo_gives_the_cold_lists_without_running_a_beam() {
        let w = world();
        let gen = GenExpan::train(&w, quick_cfg());
        let cold = lists(&gen, &w, 8);
        let after_cold = gen.memo_stats();
        assert!(after_cold.misses > 0 && after_cold.windows > 0);
        assert_eq!(lists(&gen, &w, 8), cold);
        let after_warm = gen.memo_stats();
        assert_eq!(after_warm.misses, after_cold.misses, "every round hit");
        assert!(after_warm.hits > after_cold.hits);
        assert_eq!(after_warm.capacity, crate::memo::MEMO_CAPACITY);
    }

    #[test]
    fn reconfigured_beams_and_floors_match_a_fresh_instance() {
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
        ];
        for cfg in changed {
            let name = format!("{:?} floor {}", cfg.beam, cfg.min_gen_score);
            let want = lists(&GenExpan::train(&w, cfg.clone()), &w, 8);
            assert_ne!(want, default_lists, "{name}: the change must matter");
            // A clone shares the warm memo.
            let mut clone = warmed.clone();
            clone.config = cfg.clone();
            assert_eq!(lists(&clone, &w, 8), want, "{name} on a clone");
            // So does the warmed instance itself, reconfigured and restored.
            warmed.config = cfg;
            assert_eq!(lists(&warmed, &w, 8), want, "{name} in place");
            warmed.config = quick_cfg();
            assert_eq!(lists(&warmed, &w, 8), default_lists, "{name} restored");
        }
    }

    #[test]
    fn the_memo_stops_storing_at_capacity_and_output_does_not_change() {
        let w = world();
        let unbounded = GenExpan::train(&w, quick_cfg());
        let mut bounded = GenExpan::train(&w, quick_cfg());
        bounded.memo = Arc::new(WindowMemo::with_capacity(5));
        for _ in 0..2 {
            assert_eq!(lists(&bounded, &w, 8), lists(&unbounded, &w, 8));
        }
        let stats = bounded.memo_stats();
        assert_eq!((stats.windows, stats.capacity), (5, 5));
        assert!(
            unbounded.memo_stats().windows > 5,
            "the run needs more windows than the bounded memo holds"
        );
        assert!(stats.misses > unbounded.memo_stats().misses);
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
