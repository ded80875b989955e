//! `ultra-retexpan` — the retrieval-based framework RetExpan (Section 5.1).
//!
//! Three steps per query:
//!
//! 1. **Entity representation** — the trained [`ultra_embed::EntityEncoder`]
//!    provides hidden-state entity representations (the paper credits this
//!    hidden-state read-out, versus ProbExpan's probability distributions,
//!    for most of RetExpan's margin — Section 6.2 point 2).
//! 2. **Entity expansion** — candidates are ranked by `sco^pos` (Eq. 4),
//!    the mean cosine to the *positive* seeds only, keeping recall of the
//!    whole fine-grained class; the top-K form the preliminary list `L₀`.
//! 3. **Entity re-ranking** — negative seeds re-rank `L₀` segment-by-
//!    segment via [`ultra_core::rerank_by_negatives`].
//!
//! Enhancement strategies:
//!
//! * [`mining`] — GPT-4-simulated mining of `L_pos`/`L_neg` lists, feeding
//!   ultra-fine-grained contrastive learning (Section 5.1.2);
//! * retrieval augmentation is configured on the encoder itself
//!   ([`ultra_embed::Augmentation`], Section 5.1.3).
//!
//! Two of the paper's future-work directions are implemented as
//! extensions: [`decoupled`] (MoE-inspired base/attribute representation
//! decoupling, Section 6.2) and [`dynamic_ra`] (query-adaptive knowledge
//! retrieval, Section 6.4.2).

pub mod decoupled;
pub mod dynamic_ra;
pub mod mining;
pub mod pipeline;

pub use decoupled::DecoupledRetExpan;
pub use dynamic_ra::DynamicRaRetExpan;
pub use mining::mine_lists;
pub use pipeline::{RetExpan, RetExpanConfig};
pub use ultra_ann::{AnnSpec, CandidateSource, IvfConfig};
