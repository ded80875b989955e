//! `ultra-lm` — the generative language-model substrate behind GenExpan.
//!
//! The paper's GenExpan uses LLaMA-7B, continually pre-trained on corpus `D`
//! and decoded with prefix-constrained beam search over the candidate-entity
//! trie (Figure 6). Sixty-plus-billion-parameter transformers are out of
//! scope here; the substitution (DESIGN.md §1) is an interpolated back-off
//! **n-gram LM** with two smoothing families, which supplies every primitive
//! GenExpan needs:
//!
//! * next-token distributions reflecting corpus statistics ([`NgramLm`]),
//! * *base* vs *further* pre-training as separate count updates (the
//!   Table 3 "- Further pretrain" ablation),
//! * conditional scoring `P(e'|f(e))` with geometric-mean length
//!   normalization (Eq. 7, [`NgramLm::entity_score_from`]), which steps a
//!   resolved context ([`LmContext`]) along count-table links one token at
//!   a time instead of searching the tables,
//! * prefix-trie-constrained beam search returning only valid candidate
//!   entities ([`TrieDecoder::constrained`], whose first step after a list
//!   separator scores only the root children that can matter, ranked once
//!   when the decoder is built from its LM, trie and separator), and an
//!   *unconstrained* variant that can hallucinate token sequences (the
//!   Table 3 "- Prefix constrain" ablation),
//! * a capacity ladder ([`ModelSpec`]) standing in for the BLOOM/LLaMA
//!   family-and-size sweep of Figure 8 (n-gram order = capacity; smoothing
//!   family = model family).

pub mod decode;
pub mod ngram;
pub mod spec;

pub use decode::{BeamParams, GeneratedSeq, TrieDecoder};
pub use ngram::{LmContext, NgramLm, Smoothing};
pub use spec::ModelSpec;
