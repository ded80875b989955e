//! `ultra-text` — text substrate: interning vocabulary, tokenizer, BM25
//! inverted index, and the entity-name prefix trie.
//!
//! UltraWiki's construction and methods lean on three text facilities that
//! this crate provides from scratch:
//!
//! * a WordPiece-style [`Tokenizer`] over an interning [`Vocab`] (Appendix B
//!   tokenizes with WordPiece; we tokenize to whole words with a subword
//!   fallback so unseen surface forms never map to a single opaque UNK),
//! * an Okapi [`Bm25Index`] — the paper mines hard negative candidate
//!   entities with "BM25-based search" (Section 4.2) and we reuse the same
//!   index for retrieval augmentation lookups,
//! * a token-level [`PrefixTrie`] over candidate entity names — the backbone
//!   of GenExpan's prefix-constrained beam search (Figure 6).

pub mod bm25;
pub mod tokenizer;
pub mod trie;
pub mod vocab;

pub use bm25::{Bm25Index, Bm25Params};
pub use tokenizer::Tokenizer;
pub use trie::{PrefixTrie, TrieNode};
pub use vocab::Vocab;
