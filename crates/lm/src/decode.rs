//! Beam-search decoding: prefix-trie-constrained (Figure 6) and
//! unconstrained (the "- Prefix constrain" ablation of Table 3).

use crate::ngram::{LmContext, NgramLm};
use std::sync::Arc;
use ultra_core::{top_k, EntityId, TokenId};
use ultra_text::{PrefixTrie, TrieNode};

/// Beam-search parameters.
#[derive(Clone, Copy, Debug)]
pub struct BeamParams {
    /// Beam width (the paper uses 40).
    pub beam_size: usize,
    /// Maximum generated name length in tokens.
    pub max_len: usize,
}

impl Default for BeamParams {
    fn default() -> Self {
        Self {
            beam_size: 40,
            max_len: 6,
        }
    }
}

/// One constrained hypothesis: the trie node its prefix reaches, the
/// prefix's last token, and the hypothesis it extends.
#[derive(Clone, Copy, Debug)]
struct NodeHyp {
    node: TrieNode,
    /// The prefix's last token.
    tok: TokenId,
    /// Index of the extended hypothesis in the previous step's beam.
    parent: u32,
    logp: f64,
}

/// A hypothesis's log-probability extended by a token of probability `p`.
#[inline]
fn extend(logp: f64, p: f64) -> f64 {
    logp + p.max(1e-300).ln()
}

/// A completed name's score: the geometric mean of its `len` token
/// probabilities, from their summed logs.
#[inline]
fn geometric_mean(logp: f64, len: f64) -> f64 {
    (logp / len).exp()
}

/// An LM decoding names from one candidate trie after one list separator:
/// the three, and the ranking of the trie's root children that the sparse
/// root step reads (DESIGN.md §6, "Sparse root step"), built together.
#[derive(Debug)]
pub struct TrieDecoder {
    lm: Arc<NgramLm>,
    trie: PrefixTrie,
    sep: TokenId,
    /// `trie`'s root children ranked after `sep`, if `lm` saw `sep` as a
    /// context.
    root: Option<RootOrder>,
}

impl TrieDecoder {
    /// A decoder of `trie`'s names under `lm`, in lists joined by `sep`.
    pub fn new(lm: Arc<NgramLm>, trie: PrefixTrie, sep: TokenId) -> Self {
        let root = RootOrder::new(&lm, &trie, sep);
        Self {
            lm,
            trie,
            sep,
            root,
        }
    }

    /// The LM.
    pub fn lm(&self) -> &Arc<NgramLm> {
        &self.lm
    }

    /// The candidate trie.
    pub fn trie(&self) -> &PrefixTrie {
        &self.trie
    }

    /// The list separator.
    pub fn sep(&self) -> TokenId {
        self.sep
    }

    /// Prefix-constrained beam search from `prompt` (Figure 6): the best
    /// `beam_size` distinct entities whose names the beam completes along
    /// the trie, best first, each scored by the geometric mean of its token
    /// probabilities. After a prompt ending in the separator, the first
    /// step scores only the root children that can matter; the result is
    /// the full merge's, bit for bit.
    pub fn constrained(&self, prompt: &[TokenId], params: BeamParams) -> Vec<(EntityId, f64)> {
        constrained_entity_beam(&self.lm, prompt, &self.trie, self.root.as_ref(), params)
    }

    /// Unconstrained beam search from `prompt` over observed continuations,
    /// each sequence stopped at the separator and looked up in the trie
    /// (the Table 3 "- Prefix constrain" ablation).
    pub fn unconstrained(&self, prompt: &[TokenId], params: BeamParams) -> Vec<GeneratedSeq> {
        unconstrained_beam(&self.lm, prompt, &self.trie, self.sep, params)
    }
}

/// The root children of a trie ranked for one LM and list separator, for
/// the sparse root step of [`constrained_entity_beam`].
///
/// Children are ranked by their probability after the unigram and `[sep]`
/// levels, descending, then by ascending token: the root prune's own tie
/// order. An order is valid only with the LM and trie it was built from,
/// which [`TrieDecoder`] holds beside it.
#[derive(Debug)]
struct RootOrder {
    sep: TokenId,
    /// Positions in the root's child list, ranked.
    children: Box<[u32]>,
    /// `probs[i]`: the probability of `children[i]` after the unigram and
    /// `[sep]` levels.
    probs: Box<[f64]>,
    /// The indices into `children` of the terminal children, ascending.
    terminals: Box<[u32]>,
}

impl RootOrder {
    /// The ranking of `trie`'s root children after `sep` under `lm`, or
    /// `None` if `lm` never saw `[sep]` as a context (an untrained or
    /// unigram LM, or a separator that never precedes a token): the beam
    /// then keeps its full root merge.
    fn new(lm: &NgramLm, trie: &PrefixTrie, sep: TokenId) -> Option<Self> {
        let ctx = lm.context(std::slice::from_ref(&sep));
        if !ctx.has_unit_suffix() {
            return None;
        }
        let root = trie.children(PrefixTrie::ROOT);
        let probs = ctx.sorted_probs(root.iter().map(|&(tok, _)| tok));
        let ranked = top_k(
            probs.enumerate().map(|(i, p)| (i as u32, p)).collect(),
            usize::MAX,
        );
        let terminals = ranked
            .iter()
            .enumerate()
            .filter(|&(_, &(c, _))| trie.terminal(root[c as usize].1).is_some())
            .map(|(i, _)| i as u32)
            .collect();
        Some(Self {
            sep,
            children: ranked.iter().map(|&(c, _)| c).collect(),
            probs: ranked.iter().map(|&(_, p)| p).collect(),
            terminals,
        })
    }

    /// Whether the root step of `prompt`, whose context is `ctx`, can be
    /// sparse: the prompt ends in the separator and `ctx` holds the `[sep]`
    /// level.
    fn covers(&self, prompt: &[TokenId], ctx: &LmContext<'_>) -> bool {
        prompt.last() == Some(&self.sep) && ctx.has_unit_suffix()
    }

    /// The root step of `ctx`, the context after a prompt ending in the
    /// separator, with its shortest suffix `[sep]`: pushes onto `next`, in
    /// ascending token order, every root child that can survive a prune to
    /// `k`, and onto `completed` every single-token name that can be among
    /// the best `k` distinct entities.
    ///
    /// The children in a longer suffix's run are scored exactly. Every
    /// other child's probability is a monotone function of its `[sep]`-level
    /// probability, the same for all of them, so each walk goes down the
    /// ranking and stops at the first child that falls clearly below the
    /// `k`-th best value so far: no later child can reach it.
    fn sparse_step(
        &self,
        ctx: &LmContext<'_>,
        trie: &PrefixTrie,
        k: usize,
        next: &mut Vec<NodeHyp>,
        completed: &mut Vec<(EntityId, f64)>,
    ) {
        let root = trie.children(PrefixTrie::ROOT);
        let mut longer: Vec<u32> = ctx
            .longer_runs()
            .flatten()
            .filter_map(|&(tok, _)| {
                root.binary_search_by_key(&tok, |&(t, _)| t.0)
                    .ok()
                    .map(|c| c as u32)
            })
            .collect();
        longer.sort_unstable();
        longer.dedup();
        // (root position, log-probability) of every child that may survive.
        let mut kept: Vec<(u32, f64)> = Vec::new();
        let (mut prune, mut names) = (Cut::new(k), Cut::new(k));
        let probs = ctx.sorted_probs(longer.iter().map(|&c| root[c as usize].0));
        for (&c, p) in longer.iter().zip(probs) {
            let logp = extend(0.0, p);
            prune.offer(c, logp);
            kept.push((c, logp));
            if let Some(entity) = trie.terminal(root[c as usize].1) {
                names.offer(entity, logp);
                completed.push((entity, geometric_mean(logp, 1.0)));
            }
        }
        let walked = |i: usize| {
            let c = self.children[i];
            let fresh = longer.binary_search(&c).is_err();
            fresh.then(|| (c, extend(0.0, ctx.past_shortest_suffix(self.probs[i]))))
        };
        for (c, logp) in (0..self.children.len()).filter_map(walked) {
            if prune.closed_to(logp) {
                break;
            }
            prune.offer(c, logp);
            kept.push((c, logp));
        }
        for (c, logp) in self.terminals.iter().filter_map(|&i| walked(i as usize)) {
            if names.closed_to(logp) {
                break;
            }
            if let Some(entity) = trie.terminal(root[c as usize].1) {
                names.offer(entity, logp);
                completed.push((entity, geometric_mean(logp, 1.0)));
            }
        }
        kept.sort_unstable_by_key(|&(c, _)| c);
        next.extend(kept.into_iter().map(|(c, logp)| {
            let (tok, node) = root[c as usize];
            NodeHyp {
                node,
                tok,
                parent: 0,
                logp,
            }
        }));
    }
}

/// How far below the `k`-th best log-probability a walk's value must fall
/// before the walk stops, as a fraction of `1 + |value|`: many times the
/// few ULPs by which `ln` and `exp` may misorder neighbouring values. The
/// `1 +` covers log-probabilities near 0, where `exp`'s ULPs are far wider
/// than `ln`'s.
const WALK_MARGIN: f64 = 1e-12;

/// The best `k` values offered to one walk, each key counted once at its
/// best value, best first.
struct Cut<K> {
    k: usize,
    best: Vec<(K, f64)>,
}

impl<K: Copy + PartialEq> Cut<K> {
    fn new(k: usize) -> Self {
        Self {
            k,
            best: Vec::new(),
        }
    }

    fn offer(&mut self, key: K, v: f64) {
        if let Some(i) = self.best.iter().position(|&(x, _)| x == key) {
            if self.best[i].1 >= v {
                return;
            }
            self.best.remove(i);
        }
        let at = self.best.partition_point(|&(_, b)| b >= v);
        if at < self.k {
            self.best.insert(at, (key, v));
            self.best.truncate(self.k);
        }
    }

    /// Whether a key valued `v`, or any later in a ranking where values
    /// never rise, can no longer enter the cut: `k` keys are clearly
    /// above it. Equal values never close the cut, since ties are broken by
    /// key.
    fn closed_to(&self, v: f64) -> bool {
        let Some(last) = self.k.checked_sub(1) else {
            return true;
        };
        self.best
            .get(last)
            .is_some_and(|&(_, kth)| v + WALK_MARGIN * (1.0 + v.abs()) < kth)
    }
}

/// Prefix-constrained beam search.
///
/// Starting from `prompt`, expands name prefixes along the candidate-entity
/// trie only ("for a certain node, its child nodes represent subsequent
/// tokens that are allowed to be generated"), scoring each step with the LM.
/// Every completed root-to-terminal path yields a candidate entity scored by
/// the geometric mean of its token probabilities. Returns the best
/// `beam_size` distinct entities, best first.
///
/// Each surviving hypothesis carries its LM context, advanced from its
/// parent's by its token, and scores all children of its trie node in one
/// sorted pass. When `root` is given (the ranking of `trie`'s root children
/// for `lm`) and `prompt` ends in its separator, the first step scores only
/// the root children that can matter instead ([`RootOrder`]); the result is
/// the same bit for bit.
fn constrained_entity_beam(
    lm: &NgramLm,
    prompt: &[TokenId],
    trie: &PrefixTrie,
    root: Option<&RootOrder>,
    params: BeamParams,
) -> Vec<(EntityId, f64)> {
    let mut beam: Vec<NodeHyp> = vec![NodeHyp {
        node: PrefixTrie::ROOT,
        tok: TokenId::new(0),
        parent: 0,
        logp: 0.0,
    }];
    // `contexts[h]` is the LM context after hypothesis `h` of `beam`.
    let mut contexts: Vec<LmContext<'_>> = vec![lm.context(prompt)];
    let mut completed: Vec<(EntityId, f64)> = Vec::new();
    let root = root.filter(|r| r.covers(prompt, &contexts[0]));

    for step in 0..params.max_len {
        let len = (step + 1) as f64;
        let mut next: Vec<NodeHyp> = Vec::new();
        match root.filter(|_| step == 0) {
            Some(root) => root.sparse_step(
                &contexts[0],
                trie,
                params.beam_size,
                &mut next,
                &mut completed,
            ),
            None => {
                for (h, (hyp, ctx)) in beam.iter().zip(&contexts).enumerate() {
                    let children = trie.children(hyp.node);
                    if children.is_empty() {
                        continue;
                    }
                    let probs = ctx.sorted_probs(children.iter().map(|&(tok, _)| tok));
                    for (&(tok, node), p) in children.iter().zip(probs) {
                        let logp = extend(hyp.logp, p);
                        if let Some(entity) = trie.terminal(node) {
                            completed.push((entity, geometric_mean(logp, len)));
                        }
                        next.push(NodeHyp {
                            node,
                            tok,
                            parent: h as u32,
                            logp,
                        });
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        // All hypotheses at this step share the same length: raw log-prob
        // pruning is fair. Equal log-probs keep input order (beam order,
        // then ascending token).
        let next = prune(&next, |hyp| hyp.logp, params.beam_size);
        contexts = next
            .iter()
            .map(|hyp| {
                let mut ctx = contexts[hyp.parent as usize].clone();
                ctx.advance(hyp.tok);
                ctx
            })
            .collect();
        beam = next;
    }

    top_k(completed, params.beam_size)
}

/// One unconstrained generation: a token sequence that may or may not name
/// a real entity.
#[derive(Clone, Debug)]
pub struct GeneratedSeq {
    /// Generated tokens (without the prompt).
    pub tokens: Vec<TokenId>,
    /// Geometric-mean probability.
    pub score: f64,
    /// The entity the sequence names, if it happens to be valid.
    pub entity: Option<EntityId>,
}

/// One unconstrained hypothesis: the tokens generated so far, and the
/// hypothesis it extends.
#[derive(Clone, Debug)]
struct Hyp {
    prefix: Vec<TokenId>,
    logp: f64,
    /// Index of the extended hypothesis in the previous step's beam.
    parent: u32,
}

/// Unconstrained beam search over observed LM continuations.
///
/// Generation stops a hypothesis when it reaches `stop` (the list separator)
/// or `max_len`. Produced sequences are looked up in `trie`; sequences that
/// name no candidate entity are the hallucinations the prefix constraint
/// exists to prevent. Each surviving hypothesis carries its LM context,
/// advanced from its parent's by its last token.
fn unconstrained_beam(
    lm: &NgramLm,
    prompt: &[TokenId],
    trie: &PrefixTrie,
    stop: TokenId,
    params: BeamParams,
) -> Vec<GeneratedSeq> {
    let mut beams = vec![Hyp {
        prefix: Vec::new(),
        logp: 0.0,
        parent: 0,
    }];
    // `contexts[h]` is the LM context after hypothesis `h` of `beams`.
    let mut contexts: Vec<LmContext<'_>> = vec![lm.context(prompt)];
    let mut done: Vec<GeneratedSeq> = Vec::new();

    for _step in 0..params.max_len {
        let mut next: Vec<Hyp> = Vec::new();
        for (h, (hyp, ctx)) in beams.iter().zip(&contexts).enumerate() {
            // Expand along tokens the LM has actually seen in context;
            // cap the branching factor at the beam size.
            for (tok, _) in ctx.observed_continuations(params.beam_size) {
                let lp = hyp.logp + ctx.prob(tok).max(1e-300).ln();
                if tok == stop {
                    if !hyp.prefix.is_empty() {
                        let gm = (lp / (hyp.prefix.len() + 1) as f64).exp();
                        done.push(GeneratedSeq {
                            tokens: hyp.prefix.clone(),
                            score: gm,
                            entity: trie.complete(&hyp.prefix),
                        });
                    }
                    continue;
                }
                let mut prefix = hyp.prefix.clone();
                prefix.push(tok);
                next.push(Hyp {
                    prefix,
                    logp: lp,
                    parent: h as u32,
                });
            }
        }
        if next.is_empty() {
            break;
        }
        let next = prune(&next, |hyp| hyp.logp, params.beam_size);
        contexts = next
            .iter()
            .map(|hyp| {
                let mut ctx = contexts[hyp.parent as usize].clone();
                if let Some(&tok) = hyp.prefix.last() {
                    ctx.advance(tok);
                }
                ctx
            })
            .collect();
        beams = next;
    }
    // Hypotheses that never hit the separator are emitted as-is.
    for hyp in beams {
        if !hyp.prefix.is_empty() {
            done.push(GeneratedSeq {
                score: (hyp.logp / hyp.prefix.len() as f64).exp(),
                entity: trie.complete(&hyp.prefix),
                tokens: hyp.prefix,
            });
        }
    }
    // Best first, ties in emission order; then identical token sequences
    // keep their best-scored copy.
    let mut done = prune(&done, |g| g.score, usize::MAX);
    let mut seen = std::collections::HashSet::new();
    done.retain(|g| seen.insert(g.tokens.clone()));
    done.truncate(params.beam_size);
    done
}

/// The `k` best of `items` by `score`, best first; equal scores keep input
/// order.
fn prune<T: Clone>(items: &[T], score: impl Fn(&T) -> f64, k: usize) -> Vec<T> {
    let best = top_k(items.iter().map(score).enumerate().collect(), k);
    best.into_iter().map(|(i, _)| items[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ngram::{Reference, Smoothing};
    use proptest::prelude::*;
    use rand::Rng;
    use ultra_core::rng::{derive_rng, UltraRng};

    /// A reference hypothesis: the tokens generated so far.
    #[derive(Clone, Debug)]
    struct RefHyp {
        prefix: Vec<TokenId>,
        logp: f64,
    }

    /// Reference constrained beam: one trie walk, one prefix clone and one
    /// back-off recursion per candidate token. Its full stable sorts keep
    /// equal log-probs in input order (beam order, then ascending token).
    fn reference_constrained_entity_beam(
        lm: &Reference<'_>,
        prompt: &[TokenId],
        trie: &PrefixTrie,
        params: BeamParams,
    ) -> Vec<(EntityId, f64)> {
        let mut beams = vec![RefHyp {
            prefix: Vec::new(),
            logp: 0.0,
        }];
        let mut completed: Vec<(EntityId, f64)> = Vec::new();
        let mut ctx_buf: Vec<TokenId> = Vec::new();
        for _step in 0..params.max_len {
            let mut next: Vec<RefHyp> = Vec::new();
            for hyp in &beams {
                ctx_buf.clear();
                ctx_buf.extend_from_slice(prompt);
                ctx_buf.extend_from_slice(&hyp.prefix);
                for tok in trie.allowed_continuations(&hyp.prefix) {
                    let lp = hyp.logp + lm.prob(&ctx_buf, tok).max(1e-300).ln();
                    let mut prefix = hyp.prefix.clone();
                    prefix.push(tok);
                    if let Some(entity) = trie.complete(&prefix) {
                        let gm = (lp / prefix.len() as f64).exp();
                        completed.push((entity, gm));
                    }
                    next.push(RefHyp { prefix, logp: lp });
                }
            }
            if next.is_empty() {
                break;
            }
            next.sort_by(|a, b| b.logp.total_cmp(&a.logp));
            next.truncate(params.beam_size);
            beams = next;
        }
        completed.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut seen = std::collections::HashSet::new();
        completed.retain(|(e, _)| seen.insert(*e));
        completed.truncate(params.beam_size);
        completed
    }

    /// Reference unconstrained beam: the back-off recursion per token and
    /// the reference continuation ranking per hypothesis. Ties keep input
    /// order through full stable sorts, as in the constrained reference.
    fn reference_unconstrained_beam(
        lm: &Reference<'_>,
        prompt: &[TokenId],
        trie: &PrefixTrie,
        stop: TokenId,
        params: BeamParams,
    ) -> Vec<GeneratedSeq> {
        let mut beams = vec![RefHyp {
            prefix: Vec::new(),
            logp: 0.0,
        }];
        let mut done: Vec<GeneratedSeq> = Vec::new();
        let mut ctx_buf: Vec<TokenId> = Vec::new();
        for _step in 0..params.max_len {
            let mut next: Vec<RefHyp> = Vec::new();
            for hyp in &beams {
                ctx_buf.clear();
                ctx_buf.extend_from_slice(prompt);
                ctx_buf.extend_from_slice(&hyp.prefix);
                for (tok, _) in lm.observed_continuations(&ctx_buf, params.beam_size) {
                    let lp = hyp.logp + lm.prob(&ctx_buf, tok).max(1e-300).ln();
                    if tok == stop {
                        if !hyp.prefix.is_empty() {
                            let gm = (lp / (hyp.prefix.len() + 1) as f64).exp();
                            done.push(GeneratedSeq {
                                tokens: hyp.prefix.clone(),
                                score: gm,
                                entity: trie.complete(&hyp.prefix),
                            });
                        }
                        continue;
                    }
                    let mut prefix = hyp.prefix.clone();
                    prefix.push(tok);
                    next.push(RefHyp { prefix, logp: lp });
                }
            }
            if next.is_empty() {
                break;
            }
            next.sort_by(|a, b| b.logp.total_cmp(&a.logp));
            next.truncate(params.beam_size);
            beams = next;
        }
        for hyp in beams {
            if !hyp.prefix.is_empty() {
                done.push(GeneratedSeq {
                    score: (hyp.logp / hyp.prefix.len() as f64).exp(),
                    entity: trie.complete(&hyp.prefix),
                    tokens: hyp.prefix,
                });
            }
        }
        done.sort_by(|a, b| b.score.total_cmp(&a.score));
        let mut seen = std::collections::HashSet::new();
        done.retain(|g| seen.insert(g.tokens.clone()));
        done.truncate(params.beam_size);
        done
    }

    /// A random decoding world over tokens `0..48`. `ties` picks the
    /// corpus: 0 random documents, 1 none (an untrained LM: every token
    /// equally likely), 2 the whole vocabulary once per document (equal
    /// counts everywhere). Entity ids repeat every 25 names, so some
    /// entities are reachable along two paths. Returns the documents too,
    /// for the references.
    fn random_world(
        names: &[Vec<u32>],
        docs: &[Vec<u32>],
        ties: u8,
        order: usize,
        family: u8,
    ) -> (NgramLm, PrefixTrie, Vec<Vec<TokenId>>) {
        let smoothing = if family == 0 {
            Smoothing::WittenBell
        } else {
            Smoothing::AbsoluteDiscount(0.75)
        };
        let docs: Vec<Vec<TokenId>> = match ties {
            0 => docs
                .iter()
                .map(|d| d.iter().map(|&x| t(x)).collect())
                .collect(),
            1 => Vec::new(),
            _ => vec![(0..48).map(t).collect(), (0..48).rev().map(t).collect()],
        };
        let mut lm = NgramLm::new(order, smoothing, 48);
        lm.train(docs.iter().map(Vec::as_slice));
        let mut trie = PrefixTrie::new();
        for (i, name) in names.iter().enumerate() {
            let toks: Vec<TokenId> = name.iter().map(|&x| t(x)).collect();
            trie.insert(&toks, e(i as u32 % 25));
        }
        (lm, trie, docs)
    }

    proptest! {
        #[test]
        fn constrained_beam_matches_the_per_token_reference(
            names in prop::collection::vec(prop::collection::vec(0u32..48, 1..4), 0..80),
            docs in prop::collection::vec(prop::collection::vec(0u32..48, 0..12), 0..12),
            ties in 0u8..3,
            order in 1usize..6,
            family in 0u8..2,
            prompt in prop::collection::vec(0u32..48, 0..5),
            beam_size in 1usize..12,
            max_len in 1usize..5,
        ) {
            let (lm, trie, docs) = random_world(&names, &docs, ties, order, family);
            let prompt: Vec<TokenId> = prompt.iter().map(|&x| t(x)).collect();
            let params = BeamParams { beam_size, max_len };
            let root = RootOrder::new(&lm, &trie, t(1));
            let got = constrained_entity_beam(&lm, &prompt, &trie, root.as_ref(), params);
            let want = reference_constrained_entity_beam(&lm.reference(&docs), &prompt, &trie, params);
            prop_assert_eq!(bits(&got), bits(&want));
        }

        #[test]
        fn unconstrained_beam_matches_the_per_token_reference(
            names in prop::collection::vec(prop::collection::vec(0u32..48, 1..4), 0..40),
            docs in prop::collection::vec(prop::collection::vec(0u32..48, 0..12), 0..12),
            ties in 0u8..3,
            order in 1usize..6,
            family in 0u8..2,
            prompt in prop::collection::vec(0u32..48, 0..5),
            beam_size in 1usize..12,
            max_len in 1usize..5,
        ) {
            let (lm, trie, docs) = random_world(&names, &docs, ties, order, family);
            let prompt: Vec<TokenId> = prompt.iter().map(|&x| t(x)).collect();
            let params = BeamParams { beam_size, max_len };
            let got = unconstrained_beam(&lm, &prompt, &trie, t(0), params);
            let want = reference_unconstrained_beam(&lm.reference(&docs), &prompt, &trie, t(0), params);
            let key = |v: &[GeneratedSeq]| -> Vec<(Vec<TokenId>, u64, Option<EntityId>)> {
                v.iter().map(|g| (g.tokens.clone(), g.score.to_bits(), g.entity)).collect()
            };
            prop_assert_eq!(key(&got), key(&want));
        }
    }

    fn t(x: u32) -> TokenId {
        TokenId::new(x)
    }
    fn toks(xs: &[u32]) -> Vec<TokenId> {
        xs.iter().map(|&x| t(x)).collect()
    }
    fn e(x: u32) -> EntityId {
        EntityId::new(x)
    }

    /// A beam's output as comparable bits.
    fn bits(v: &[(EntityId, f64)]) -> Vec<(EntityId, u64)> {
        v.iter().map(|&(e, s)| (e, s.to_bits())).collect()
    }

    /// A random list-continuation world for the sparse root step, over
    /// tokens `0..48`. Names are 1–3 of the tokens 0 and 2–45, so about a
    /// third of the root children are single-token names, and entity ids
    /// repeat every 25 names. Documents are lists of names joined by token
    /// 1 and closed by token 46, mixed with random runs of tokens `0..46`;
    /// or none (an untrained LM); or the whole vocabulary once each way
    /// (equal counts: ties everywhere). The separator is mostly token 1;
    /// otherwise token 46, which list documents hold only at their end, or
    /// token 47, which they never hold, so that neither is a context unless
    /// the corpus is the whole vocabulary. The prompt is mostly one to
    /// three names, each followed by the separator, as GenExpan builds it;
    /// otherwise random tokens, or such a list followed by a name's first
    /// token. Returns the documents last, for the reference.
    fn seeded_case(rng: &mut UltraRng) -> SeededCase {
        let sep = [1, 1, 1, 1, 46, 47][rng.gen_range(0..6usize)];
        let names: Vec<Vec<u32>> = (0..rng.gen_range(1..90usize))
            .map(|_| {
                (0..rng.gen_range(1..4usize))
                    .map(|_| match rng.gen_range(0..45u32) {
                        1 => 45,
                        x => x,
                    })
                    .collect()
            })
            .collect();
        let list = |rng: &mut UltraRng, n: usize, joiner: u32| -> Vec<u32> {
            let mut out = Vec::new();
            for _ in 0..n {
                out.extend(&names[rng.gen_range(0..names.len())]);
                out.push(joiner);
            }
            out
        };
        let docs: Vec<Vec<u32>> = match rng.gen_range(0..6u32) {
            0 => Vec::new(),
            1 => vec![(0..48).collect(), (0..48).rev().collect()],
            _ => (0..rng.gen_range(1..16usize))
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => {
                        let len = rng.gen_range(0..12usize);
                        (0..len).map(|_| rng.gen_range(0..46u32)).collect()
                    }
                    _ => {
                        let n = rng.gen_range(1..6usize);
                        let mut doc = list(rng, n, 1);
                        doc.pop();
                        doc.push(46);
                        doc
                    }
                })
                .collect(),
        };
        let docs: Vec<Vec<TokenId>> = docs
            .iter()
            .map(|d| d.iter().map(|&x| t(x)).collect())
            .collect();
        let smoothing = if rng.gen_bool(0.5) {
            Smoothing::WittenBell
        } else {
            Smoothing::AbsoluteDiscount(0.75)
        };
        let mut lm = NgramLm::new(rng.gen_range(1..6usize), smoothing, 48);
        lm.train(docs.iter().map(Vec::as_slice));
        let mut trie = PrefixTrie::new();
        for (i, name) in names.iter().enumerate() {
            let toks: Vec<TokenId> = name.iter().map(|&x| t(x)).collect();
            trie.insert(&toks, e(i as u32 % 25));
        }
        let prompt: Vec<u32> = match rng.gen_range(0..6u32) {
            0 => {
                let len = rng.gen_range(0..5usize);
                (0..len).map(|_| rng.gen_range(0..48u32)).collect()
            }
            1 => {
                let n = rng.gen_range(1..3usize);
                let mut p = list(rng, n, sep);
                p.push(names[rng.gen_range(0..names.len())][0]);
                p
            }
            _ => {
                let n = rng.gen_range(1..4usize);
                list(rng, n, sep)
            }
        };
        (lm, trie, prompt.into_iter().map(t).collect(), t(sep), docs)
    }

    type SeededCase = (
        NgramLm,
        PrefixTrie,
        Vec<TokenId>,
        TokenId,
        Vec<Vec<TokenId>>,
    );

    /// The sparse root step against the per-token reference beam, bit for
    /// bit, on 40,000 seeded cases (the proptest above runs 64).
    #[test]
    fn the_sparse_root_step_matches_the_reference_on_seeded_cases() {
        const CASES: u64 = 40_000;
        let mut sparse = 0;
        for case in 0..CASES {
            let mut rng = derive_rng(0x5EED_2007, case);
            let (lm, trie, prompt, sep, docs) = seeded_case(&mut rng);
            let params = BeamParams {
                beam_size: rng.gen_range(1..12usize),
                max_len: rng.gen_range(1..5usize),
            };
            let root = RootOrder::new(&lm, &trie, sep);
            if root
                .as_ref()
                .is_some_and(|r| r.covers(&prompt, &lm.context(&prompt)))
            {
                sparse += 1;
            }
            let got = constrained_entity_beam(&lm, &prompt, &trie, root.as_ref(), params);
            let want =
                reference_constrained_entity_beam(&lm.reference(&docs), &prompt, &trie, params);
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {case}: prompt {prompt:?}, sep {sep:?}, {params:?}, order {}",
                lm.order()
            );
        }
        // About 30% of the cases take the sparse step.
        assert!(sparse > CASES / 5, "only {sparse} sparse cases");
    }

    /// [`setup`]'s documents: lists "A , B , C" style.
    fn setup_docs() -> Vec<Vec<TokenId>> {
        let sep = t(1);
        vec![
            vec![t(10), sep, t(11), t(12), sep, t(13)],
            vec![t(13), sep, t(10), sep, t(11), t(12)],
            vec![t(10), sep, t(13), sep, t(11), t(12)],
            vec![t(11), t(12), sep, t(10), sep, t(13)],
        ]
    }

    /// World: entities A=[10], B=[11,12], C=[13], trained on
    /// [`setup_docs`].
    fn setup() -> (NgramLm, PrefixTrie) {
        let docs = setup_docs();
        let mut lm = NgramLm::new(3, Smoothing::AbsoluteDiscount(0.75), 20);
        lm.train(docs.iter().map(Vec::as_slice));
        let mut trie = PrefixTrie::new();
        trie.insert(&[t(10)], e(0));
        trie.insert(&[t(11), t(12)], e(1));
        trie.insert(&[t(13)], e(2));
        (lm, trie)
    }

    /// [`setup`]'s LM and trie, with the separator 1.
    fn decoder() -> TrieDecoder {
        let (lm, trie) = setup();
        TrieDecoder::new(Arc::new(lm), trie, t(1))
    }

    #[test]
    fn constrained_beam_returns_only_valid_entities() {
        // "A ,"
        let out = decoder().constrained(&[t(10), t(1)], BeamParams::default());
        assert!(!out.is_empty());
        for (ent, score) in &out {
            assert!([e(0), e(1), e(2)].contains(ent));
            assert!(*score > 0.0 && *score <= 1.0);
        }
        // Scores descend.
        assert!(out.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn constrained_beam_covers_multi_token_names() {
        // "C ,"
        let out = decoder().constrained(&[t(13), t(1)], BeamParams::default());
        assert!(
            out.iter().any(|(ent, _)| *ent == e(1)),
            "two-token entity B reachable: {out:?}"
        );
    }

    #[test]
    fn constrained_beam_has_no_duplicates() {
        let out = decoder().constrained(&[t(10), t(1)], BeamParams::default());
        let mut ids: Vec<_> = out.iter().map(|(e, _)| *e).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.len());
    }

    #[test]
    fn unconstrained_beam_can_produce_invalid_sequences() {
        let (lm, trie) = setup();
        // Corrupt world: train extra garbage continuations that form no
        // valid entity name.
        let mut lm = lm;
        let garbage: Vec<Vec<TokenId>> = vec![vec![t(10), t(1), t(12), t(11)]; 6];
        lm.train(garbage.iter().map(Vec::as_slice));
        let decoder = TrieDecoder::new(Arc::new(lm), trie, t(1));
        let out = decoder.unconstrained(&[t(10), t(1)], BeamParams::default());
        assert!(!out.is_empty());
        assert!(
            out.iter().any(|g| g.entity.is_none()),
            "expected at least one invalid generation: {out:?}"
        );
    }

    #[test]
    fn beams_are_deterministic() {
        let decoder = decoder();
        let run = || decoder.constrained(&[t(13), t(1)], BeamParams::default());
        assert_eq!(bits(&run()), bits(&run()));
    }

    #[test]
    fn empty_trie_yields_nothing() {
        let (lm, _) = setup();
        let decoder = TrieDecoder::new(Arc::new(lm), PrefixTrie::new(), t(1));
        for prompt in [vec![t(10)], vec![t(10), t(1)]] {
            assert!(decoder
                .constrained(&prompt, BeamParams::default())
                .is_empty());
        }
    }

    /// The beam with `root` and with the full root merge, which must agree
    /// bit for bit with each other and with the reference of `lm`, trained
    /// on `docs`; returns the first.
    fn sparse_and_full(
        lm: &NgramLm,
        docs: &[Vec<TokenId>],
        prompt: &[TokenId],
        trie: &PrefixTrie,
        root: Option<&RootOrder>,
        params: BeamParams,
    ) -> Vec<(EntityId, f64)> {
        let sparse = constrained_entity_beam(lm, prompt, trie, root, params);
        let full = constrained_entity_beam(lm, prompt, trie, None, params);
        assert_eq!(bits(&sparse), bits(&full), "prompt {prompt:?}, {params:?}");
        assert_eq!(
            bits(&full),
            bits(&reference_constrained_entity_beam(
                &lm.reference(docs),
                prompt,
                trie,
                params
            ))
        );
        sparse
    }

    /// Names `[10 + i]`, or `[10 + i, 30]` if `two_tokens`, for `i < 20`,
    /// entity `19 - i`: the larger the first token, the smaller the id.
    fn descending_ids(two_tokens: bool) -> PrefixTrie {
        let mut trie = PrefixTrie::new();
        for i in 0..20 {
            let name = [t(10 + i), t(30)];
            trie.insert(&name[..1 + usize::from(two_tokens)], e(19 - i));
        }
        trie
    }

    #[test]
    fn when_every_root_child_ties_the_cut_keeps_the_lowest_tokens() {
        let params = BeamParams {
            beam_size: 5,
            max_len: 2,
        };
        // Two-token names: every completed name ties too, so the output
        // names the entities of the children that survived the root cut,
        // smallest id first: the lowest five tokens, 10..15, ids 15..20.
        // Single-token names: completed at the root, all tied, so the
        // output is ids 0..5, the highest tokens, which only a walk that
        // passes every tie reaches.
        let cases = [
            (descending_ids(true), (15..20).map(e).collect::<Vec<_>>()),
            (descending_ids(false), (0..5).map(e).collect()),
        ];
        // Untrained: no `[sep]` context, so no root order.
        let untrained = NgramLm::new(3, Smoothing::AbsoluteDiscount(0.75), 48);
        for (trie, want) in &cases {
            assert!(RootOrder::new(&untrained, trie, t(1)).is_none());
            let out = sparse_and_full(&untrained, &[], &[t(1)], trie, None, params);
            assert_eq!(&out.iter().map(|&(x, _)| x).collect::<Vec<_>>(), want);
        }
        // Trained, but the separator precedes only token 40, and no name
        // token is ever seen: the sparse step runs, and every child ties.
        let docs = [toks(&[1, 40]), toks(&[2, 1, 40, 41])];
        for smoothing in [Smoothing::WittenBell, Smoothing::AbsoluteDiscount(0.75)] {
            let mut lm = NgramLm::new(3, smoothing, 48);
            lm.train(docs.iter().map(Vec::as_slice));
            for (trie, want) in &cases {
                let root = RootOrder::new(&lm, trie, t(1)).expect("[sep] is a context");
                for prompt in [vec![t(1)], vec![t(2), t(1)], vec![t(9), t(1)]] {
                    assert!(root.covers(&prompt, &lm.context(&prompt)));
                    let out = sparse_and_full(&lm, &docs, &prompt, trie, Some(&root), params);
                    assert_eq!(&out.iter().map(|&(x, _)| x).collect::<Vec<_>>(), want);
                }
            }
        }
    }

    /// A list corpus over `names`, each followed by the separator 1, in
    /// rotating order, so the `[sep]` run and the longer runs hold many
    /// first tokens with uneven counts. Returns the documents too.
    fn list_lm(
        names: &[Vec<TokenId>],
        order: usize,
        smoothing: Smoothing,
    ) -> (NgramLm, Vec<Vec<TokenId>>) {
        let docs: Vec<Vec<TokenId>> = (0..names.len())
            .map(|r| {
                let mut doc = Vec::new();
                for name in names.iter().cycle().skip(r).step_by(r % 3 + 1).take(6) {
                    doc.extend_from_slice(name);
                    doc.push(t(1));
                }
                doc
            })
            .collect();
        let mut lm = NgramLm::new(order, smoothing, 48);
        lm.train(docs.iter().map(Vec::as_slice));
        (lm, docs)
    }

    #[test]
    fn the_terminal_walk_may_run_out_of_single_token_names() {
        // Three single-token names and 17 longer ones, at beam widths past
        // three: the walk over terminal children ends without `k` of them.
        let mut names: Vec<Vec<TokenId>> = (0..3).map(|i| vec![t(2 + i)]).collect();
        names.extend((0..17).map(|i| vec![t(5 + i), t(30 + i % 4)]));
        let mut trie = PrefixTrie::new();
        for (i, name) in names.iter().enumerate() {
            trie.insert(name, e(i as u32));
        }
        for smoothing in [Smoothing::WittenBell, Smoothing::AbsoluteDiscount(0.75)] {
            for order in 2..6 {
                let (lm, docs) = list_lm(&names, order, smoothing);
                let root = RootOrder::new(&lm, &trie, t(1)).expect("[sep] is a context");
                for beam_size in [1, 3, 4, 8, 40] {
                    let params = BeamParams {
                        beam_size,
                        max_len: 3,
                    };
                    for prompt in [vec![t(1)], vec![t(2), t(1)], vec![t(7), t(31), t(1)]] {
                        sparse_and_full(&lm, &docs, &prompt, &trie, Some(&root), params);
                    }
                }
            }
        }
    }

    #[test]
    fn the_terminal_walk_counts_distinct_entities() {
        // Entity 0 has two single-token names, 2 and 3, the two likeliest
        // after the separator; entity 1's name 4 comes next. At width 2 the
        // walk must go past both of entity 0's names to find a second
        // entity.
        let docs = [
            toks(&[1, 2, 1, 2, 1, 2, 1, 2]),
            toks(&[1, 3, 1, 3, 1, 3]),
            toks(&[1, 4, 1, 4]),
            toks(&[1, 5]),
        ];
        let mut lm = NgramLm::new(2, Smoothing::AbsoluteDiscount(0.75), 48);
        lm.train(docs.iter().map(Vec::as_slice));
        let mut trie = PrefixTrie::new();
        trie.insert(&[t(2)], e(0));
        trie.insert(&[t(3)], e(0));
        trie.insert(&[t(4)], e(1));
        trie.insert(&[t(5)], e(2));
        let root = RootOrder::new(&lm, &trie, t(1)).expect("[sep] is a context");
        let params = BeamParams {
            beam_size: 2,
            max_len: 1,
        };
        let out = sparse_and_full(&lm, &docs, &[t(1)], &trie, Some(&root), params);
        assert_eq!(
            out.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
            [e(0), e(1)]
        );
    }

    #[test]
    fn other_prompts_and_unseen_separators_take_the_full_merge() {
        let (lm, trie) = setup();
        let root = RootOrder::new(&lm, &trie, t(1)).expect("[sep] is a context");
        // Token 19 is never seen; in `tail`, token 18 only ends a document.
        assert!(RootOrder::new(&lm, &trie, t(19)).is_none());
        let mut tail = NgramLm::new(3, Smoothing::WittenBell, 20);
        tail.train([[t(10), t(1), t(13), t(18)].as_slice()]);
        assert!(RootOrder::new(&tail, &trie, t(18)).is_none());
        assert!(RootOrder::new(&tail, &trie, t(1)).is_some());
        for prompt in [vec![], vec![t(10)], vec![t(10), t(1), t(11)], vec![t(19)]] {
            assert!(!root.covers(&prompt, &lm.context(&prompt)), "{prompt:?}");
            sparse_and_full(
                &lm,
                &setup_docs(),
                &prompt,
                &trie,
                Some(&root),
                BeamParams::default(),
            );
        }
        // A unigram LM holds no `[sep]` level.
        let mut unigram = NgramLm::new(1, Smoothing::WittenBell, 20);
        unigram.train([[t(10), t(1), t(13)].as_slice()]);
        assert!(RootOrder::new(&unigram, &trie, t(1)).is_none());
    }

    #[test]
    fn a_restricted_trie_gets_its_own_order() {
        let names: Vec<Vec<TokenId>> = (0..24)
            .map(|i| match i % 3 {
                0 => vec![t(2 + i)],
                _ => vec![t(2 + i), t(30 + i % 5)],
            })
            .collect();
        let mut full = PrefixTrie::new();
        let mut restricted = PrefixTrie::new();
        for (i, name) in names.iter().enumerate() {
            full.insert(name, e(i as u32));
            if i % 4 != 1 {
                restricted.insert(name, e(i as u32));
            }
        }
        let (lm, docs) = list_lm(&names, 4, Smoothing::WittenBell);
        let full_root = RootOrder::new(&lm, &full, t(1)).expect("[sep] is a context");
        let root = RootOrder::new(&lm, &restricted, t(1)).expect("[sep] is a context");
        assert_eq!(
            root.children.len(),
            restricted.children(PrefixTrie::ROOT).len()
        );
        assert!(root.children.len() < full_root.children.len());
        for beam_size in [1, 2, 5, 9] {
            let params = BeamParams {
                beam_size,
                max_len: 2,
            };
            for prompt in [vec![t(1)], vec![t(5), t(1)], vec![t(3), t(31), t(1)]] {
                sparse_and_full(&lm, &docs, &prompt, &restricted, Some(&root), params);
            }
        }
    }
}
