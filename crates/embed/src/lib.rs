//! `ultra-embed` — the entity encoder: RetExpan's representation substrate.
//!
//! Mirrors Section 5.1.1's three-part design on top of the `ultra-nn`
//! substrate (the BERT-base → shallow-encoder substitution is argued in
//! DESIGN.md §1):
//!
//! * **Contextual encoding** — an entity mention is replaced by `[MASK]`
//!   and the sentence becomes a bag of tokens; the encoder is a mean
//!   embedding-bag followed by `tanh`. An entity's representation is the
//!   mean of its per-sentence contextual features.
//! * **Entity prediction** (Eq. 1–3) — a classification head over the
//!   candidate vocabulary trained with label-smoothed cross-entropy
//!   (smoothing factor η), using sampled softmax for tractability.
//! * **Ultra-fine-grained contrastive learning** (Section 5.1.2) — InfoNCE
//!   over an MLP projection head in a separate l2-normalized hypersphere
//!   space, with training pairs built from oracle-mined `L_pos`/`L_neg`
//!   lists per Eq. 5/6. Unlike the paper, seed mention tokens are not
//!   appended to training contexts ([`contrastive`] gives the measured
//!   reason).
//! * **Retrieval augmentation** (Section 5.1.3) — knowledge-text prefixes
//!   ([`Augmentation`]) added to contexts at training and inference time.
//!
//! Both heads train through one sparse embedding accumulator
//! (`ultra_nn::SparseSink`). The contrastive step has one production path,
//! the worker-team batch step ([`contrastive_batch_step_pooled`], which
//! runs every chunk inline at one thread), and one bitwise reference,
//! [`EntityEncoder::contrastive_batch_step_reference`].

pub mod augment;
pub mod config;
pub mod contrastive;
pub mod encoder;
pub mod reps;

pub use augment::Augmentation;
pub use config::EncoderConfig;
pub use contrastive::{contrastive_batch_step_pooled, MinedLists, PairConfig, QueryLists};
pub use encoder::{ContrastiveExample, EntityEncoder};
pub use reps::EntityEmbeddings;
