//! `ultra-genexpan` — the generation-based framework GenExpan (Section 5.2).
//!
//! Three iteratively applied phases on top of the `ultra-lm` substrate:
//!
//! 1. **Entity generation** — a list-continuation prompt built from 3
//!    sampled entities (first round: positive seeds; later rounds: 2 seeds
//!    plus 1 expanded entity) is decoded with prefix-trie-constrained beam
//!    search, so every generated entity is a valid candidate (Figure 6).
//! 2. **Entity selection** — generated entities are scored by Eq. 7: the
//!    geometric-mean probability of generating each positive seed after the
//!    template `f(e)` (our list-context analogue of "`{e}` is similar to"),
//!    and the top-p fraction joins the expansion.
//! 3. **Entity re-ranking** — identical to RetExpan's segmented re-ranking,
//!    with `sco^neg` computed from the same Eq. 7 primitive against the
//!    negative seeds.
//!
//! Strategies:
//!
//! * **Chain-of-thought reasoning** ([`cot`]) — the model first "reasons
//!   out" class-name and attribute tokens from the seeds, which then
//!   condition generation. An n-gram window cannot attend to distant
//!   prompt tokens the way a transformer does, so prompt conditioning is
//!   realized as a product-of-experts: reasoned tokens contribute
//!   per-entity conditioning scores from a sentence co-occurrence index
//!   (see [`cooc`]).
//! * **Retrieval augmentation** — introduction/Wikidata/ground-truth
//!   knowledge of the seed entities conditions generation the same way
//!   (Section 5.2.3: knowledge is "exclusively utilized during entity
//!   generation", never for LM training).

pub mod cooc;
pub mod cot;
mod memo;
pub mod pipeline;

pub use cooc::CoocIndex;
pub use cot::{AttrInfoSource, ClassNameSource, CotConfig};
pub use memo::MemoStats;
pub use pipeline::{GenExpan, GenExpanConfig, GenRaSource};
