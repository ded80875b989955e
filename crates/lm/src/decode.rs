//! Beam-search decoding: prefix-trie-constrained (Figure 6) and
//! unconstrained (the "- Prefix constrain" ablation of Table 3).

use crate::ngram::{LmContext, NgramLm};
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
/// sorted pass.
pub fn constrained_entity_beam(
    lm: &NgramLm,
    prompt: &[TokenId],
    trie: &PrefixTrie,
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

    for step in 0..params.max_len {
        let len = (step + 1) as f64;
        let mut next: Vec<NodeHyp> = Vec::new();
        for (h, (hyp, ctx)) in beam.iter().zip(&contexts).enumerate() {
            let children = trie.children(hyp.node);
            if children.is_empty() {
                continue;
            }
            let probs = ctx.sorted_probs(children.iter().map(|&(tok, _)| tok));
            for (&(tok, node), p) in children.iter().zip(probs) {
                let logp = hyp.logp + p.max(1e-300).ln();
                if let Some(entity) = trie.terminal(node) {
                    completed.push((entity, (logp / len).exp()));
                }
                next.push(NodeHyp {
                    node,
                    tok,
                    parent: h as u32,
                    logp,
                });
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
pub fn unconstrained_beam(
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
    use crate::ngram::Smoothing;
    use proptest::prelude::*;

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
        lm: &NgramLm,
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
                    let lp = hyp.logp + lm.prob_reference(&ctx_buf, tok).max(1e-300).ln();
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
        lm: &NgramLm,
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
                for (tok, _) in lm.observed_continuations_reference(&ctx_buf, params.beam_size) {
                    let lp = hyp.logp + lm.prob_reference(&ctx_buf, tok).max(1e-300).ln();
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
    /// entities are reachable along two paths.
    fn random_world(
        names: &[Vec<u32>],
        docs: &[Vec<u32>],
        ties: u8,
        order: usize,
        family: u8,
    ) -> (NgramLm, PrefixTrie) {
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
        (lm, trie)
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
            let (lm, trie) = random_world(&names, &docs, ties, order, family);
            let prompt: Vec<TokenId> = prompt.iter().map(|&x| t(x)).collect();
            let params = BeamParams { beam_size, max_len };
            let got = constrained_entity_beam(&lm, &prompt, &trie, params);
            let want = reference_constrained_entity_beam(&lm, &prompt, &trie, params);
            let bits = |v: &[(EntityId, f64)]| -> Vec<(EntityId, u64)> {
                v.iter().map(|&(e, s)| (e, s.to_bits())).collect()
            };
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
            let (lm, trie) = random_world(&names, &docs, ties, order, family);
            let prompt: Vec<TokenId> = prompt.iter().map(|&x| t(x)).collect();
            let params = BeamParams { beam_size, max_len };
            let got = unconstrained_beam(&lm, &prompt, &trie, t(0), params);
            let want = reference_unconstrained_beam(&lm, &prompt, &trie, t(0), params);
            let key = |v: &[GeneratedSeq]| -> Vec<(Vec<TokenId>, u64, Option<EntityId>)> {
                v.iter().map(|g| (g.tokens.clone(), g.score.to_bits(), g.entity)).collect()
            };
            prop_assert_eq!(key(&got), key(&want));
        }
    }

    fn t(x: u32) -> TokenId {
        TokenId::new(x)
    }
    fn e(x: u32) -> EntityId {
        EntityId::new(x)
    }

    /// World: entities A=[10], B=[11,12], C=[13]; lists "A , B , C" style.
    fn setup() -> (NgramLm, PrefixTrie) {
        let sep = t(1);
        let docs: Vec<Vec<TokenId>> = vec![
            vec![t(10), sep, t(11), t(12), sep, t(13)],
            vec![t(13), sep, t(10), sep, t(11), t(12)],
            vec![t(10), sep, t(13), sep, t(11), t(12)],
            vec![t(11), t(12), sep, t(10), sep, t(13)],
        ];
        let mut lm = NgramLm::new(3, Smoothing::AbsoluteDiscount(0.75), 20);
        lm.train(docs.iter().map(Vec::as_slice));
        let mut trie = PrefixTrie::new();
        trie.insert(&[t(10)], e(0));
        trie.insert(&[t(11), t(12)], e(1));
        trie.insert(&[t(13)], e(2));
        (lm, trie)
    }

    #[test]
    fn constrained_beam_returns_only_valid_entities() {
        let (lm, trie) = setup();
        let prompt = [t(10), t(1)]; // "A ,"
        let out = constrained_entity_beam(&lm, &prompt, &trie, BeamParams::default());
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
        let (lm, trie) = setup();
        let prompt = [t(13), t(1)]; // "C ,"
        let out = constrained_entity_beam(&lm, &prompt, &trie, BeamParams::default());
        assert!(
            out.iter().any(|(ent, _)| *ent == e(1)),
            "two-token entity B reachable: {out:?}"
        );
    }

    #[test]
    fn constrained_beam_has_no_duplicates() {
        let (lm, trie) = setup();
        let out = constrained_entity_beam(&lm, &[t(10), t(1)], &trie, BeamParams::default());
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
        let out = unconstrained_beam(&lm, &[t(10), t(1)], &trie, t(1), BeamParams::default());
        assert!(!out.is_empty());
        assert!(
            out.iter().any(|g| g.entity.is_none()),
            "expected at least one invalid generation: {out:?}"
        );
    }

    #[test]
    fn beams_are_deterministic() {
        let (lm, trie) = setup();
        let a = constrained_entity_beam(&lm, &[t(13), t(1)], &trie, BeamParams::default());
        let b = constrained_entity_beam(&lm, &[t(13), t(1)], &trie, BeamParams::default());
        assert_eq!(
            a.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            b.iter().map(|(e, _)| *e).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_trie_yields_nothing() {
        let (lm, _) = setup();
        let empty = PrefixTrie::new();
        let out = constrained_entity_beam(&lm, &[t(10)], &empty, BeamParams::default());
        assert!(out.is_empty());
    }
}
