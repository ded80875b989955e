//! `ultra-core` — shared vocabulary for the UltraWiki reproduction workspace.
//!
//! Every other crate in this workspace speaks in terms of the identifiers and
//! records defined here: entities, attributes, fine-grained and
//! ultra-fine-grained semantic classes, queries (positive *and* negative seed
//! entities), the sentence corpus, and ranked expansion results.
//!
//! The types mirror Section 3 ("Task Formulation") of the paper:
//!
//! * a query `S = S^pos ∪ S^neg` ([`Query`]),
//! * a candidate vocabulary `V` (the set of all [`EntityId`]s in a generated
//!   dataset),
//! * a corpus `D` supplying contextual sentences per entity ([`Corpus`]),
//! * positive/negative target entity sets `P` and `N` ([`UltraClass`]).

pub mod attr;
pub mod bytes;
pub mod class;
pub mod corpus;
pub mod entity;
pub mod error;
pub mod ids;
pub mod query;
pub mod ranking;
pub mod rerank;
pub mod rng;
pub mod stable;
pub mod topk;

pub use attr::{AttrConstraint, AttributeSchema, AttributeValueId};
pub use bytes::{ByteReader, ByteWriter};
pub use class::{CoarseType, FineClass, UltraClass};
pub use corpus::{Corpus, Sentence};
pub use entity::Entity;
pub use error::{Result, UltraError};
pub use ids::{AttributeId, ClassId, EntityId, SentenceId, TokenId, UltraClassId};
pub use query::Query;
pub use ranking::RankedList;
pub use rerank::{rerank_by_negatives, segmented_rerank};
pub use rng::{derive_rng, mix_seed};
pub use stable::{stable_hash64, StableBuildHasher, StableHasher};
pub use topk::{top_k, Score};
