//! Interning vocabulary mapping token strings ⇄ dense [`TokenId`]s.

use std::collections::HashMap;
use ultra_core::TokenId;

/// Reserved special tokens, interned at fixed ids on construction.
///
/// `[MASK]` replaces entity mentions for the entity encoder (Section 5.1.1);
/// `[UNK]` absorbs out-of-vocabulary words at inference time; `[SEP]`
/// delimits retrieval-augmentation prefixes and appended seed-entity hints;
/// `[EOS]` terminates generated entity names in constrained decoding.
pub const MASK: &str = "[MASK]";
/// Out-of-vocabulary placeholder.
pub const UNK: &str = "[UNK]";
/// Segment separator.
pub const SEP: &str = "[SEP]";
/// End-of-sequence marker for generation.
pub const EOS: &str = "[EOS]";

/// Interning vocabulary. Insertion order defines ids; the four special
/// tokens always occupy ids 0–3.
#[derive(Clone, Debug)]
pub struct Vocab {
    strings: Vec<String>,
    ids: HashMap<String, TokenId>,
}

impl Default for Vocab {
    fn default() -> Self {
        Self::new()
    }
}

impl Vocab {
    /// Creates a vocabulary pre-seeded with the special tokens.
    pub fn new() -> Self {
        let mut v = Self {
            strings: Vec::new(),
            ids: HashMap::new(),
        };
        for special in [MASK, UNK, SEP, EOS] {
            v.intern(special);
        }
        v
    }

    /// Id of `[MASK]`.
    #[inline]
    pub fn mask(&self) -> TokenId {
        TokenId::new(0)
    }

    /// Id of `[UNK]`.
    #[inline]
    pub fn unk(&self) -> TokenId {
        TokenId::new(1)
    }

    /// Id of `[SEP]`.
    #[inline]
    pub fn sep(&self) -> TokenId {
        TokenId::new(2)
    }

    /// Id of `[EOS]`.
    #[inline]
    pub fn eos(&self) -> TokenId {
        TokenId::new(3)
    }

    /// Interns a token, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, token: &str) -> TokenId {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = TokenId::from_index(self.strings.len());
        self.strings.push(token.to_owned());
        self.ids.insert(token.to_owned(), id);
        id
    }

    /// Looks up a token without interning.
    pub fn get(&self, token: &str) -> Option<TokenId> {
        self.ids.get(token).copied()
    }

    /// String form of a token id.
    #[inline]
    pub fn resolve(&self, id: TokenId) -> &str {
        &self.strings[id.index()]
    }

    /// Number of interned tokens (including specials).
    #[inline]
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether only special tokens are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.strings.len() <= 4
    }

    /// Renders a token-id sequence back to a space-joined string,
    /// useful in case studies and debugging output.
    pub fn render(&self, tokens: &[TokenId]) -> String {
        tokens
            .iter()
            .map(|t| self.resolve(*t))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specials_occupy_fixed_ids() {
        let v = Vocab::new();
        assert_eq!(v.resolve(v.mask()), MASK);
        assert_eq!(v.resolve(v.unk()), UNK);
        assert_eq!(v.resolve(v.sep()), SEP);
        assert_eq!(v.resolve(v.eos()), EOS);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("tokyo");
        let b = v.intern("tokyo");
        assert_eq!(a, b);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn render_round_trips() {
        let mut v = Vocab::new();
        let a = v.intern("hello");
        let b = v.intern("world");
        assert_eq!(v.render(&[a, b]), "hello world");
    }
}
