//! The sentence corpus `D`.
//!
//! Each sentence is a token-id sequence with marked entity mentions. The
//! corpus additionally maintains the per-entity posting list
//! `{e_i, s_1^i, …, s_n^i}` from the task formulation, so "all sentences
//! containing entity e" is an O(1) lookup.

use crate::ids::{EntityId, SentenceId, TokenId};
use serde::{Deserialize, Serialize};

/// One tokenized sentence with entity-mention annotations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Sentence {
    /// Token ids in order.
    pub tokens: Vec<TokenId>,
    /// `(position, entity)` pairs: `tokens[position]` is the mention token of
    /// `entity`. Positions are strictly increasing.
    pub mentions: Vec<(usize, EntityId)>,
}

impl Sentence {
    /// Sentence length in tokens.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the sentence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Returns a copy of the token sequence with every mention of `entity`
    /// replaced by `mask` — the `[MASK]` construction of Section 5.1.1.
    pub fn masked(&self, entity: EntityId, mask: TokenId) -> Vec<TokenId> {
        let mut toks = self.tokens.clone();
        for (pos, e) in &self.mentions {
            if *e == entity {
                toks[*pos] = mask;
            }
        }
        toks
    }
}

/// The corpus `D`: sentences plus a per-entity posting index.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Corpus {
    sentences: Vec<Sentence>,
    /// `by_entity[e]` lists the sentences mentioning entity `e`.
    by_entity: Vec<Vec<SentenceId>>,
}

impl Corpus {
    /// Creates an empty corpus able to index `num_entities` entities.
    pub fn with_entities(num_entities: usize) -> Self {
        Self {
            sentences: Vec::new(),
            by_entity: vec![Vec::new(); num_entities],
        }
    }

    /// Appends a sentence, updating posting lists. Returns its id.
    pub fn push(&mut self, sentence: Sentence) -> SentenceId {
        let id = SentenceId::from_index(self.sentences.len());
        for (_, e) in &sentence.mentions {
            let slot = &mut self.by_entity[e.index()];
            // A sentence can mention an entity twice; store it once.
            if slot.last() != Some(&id) {
                slot.push(id);
            }
        }
        self.sentences.push(sentence);
        id
    }

    /// Number of sentences.
    #[inline]
    pub fn len(&self) -> usize {
        self.sentences.len()
    }

    /// Whether the corpus has no sentences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sentences.is_empty()
    }

    /// All sentences in insertion order.
    #[inline]
    pub fn sentences(&self) -> &[Sentence] {
        &self.sentences
    }

    /// Looks up one sentence.
    #[inline]
    pub fn sentence(&self, id: SentenceId) -> &Sentence {
        &self.sentences[id.index()]
    }

    /// Sentences mentioning `entity` (the posting list `{s_1^e, …}`).
    #[inline]
    pub fn sentences_of(&self, entity: EntityId) -> &[SentenceId] {
        &self.by_entity[entity.index()]
    }

    /// Number of sentences mentioning `entity`.
    #[inline]
    pub fn mention_count(&self, entity: EntityId) -> usize {
        self.by_entity[entity.index()].len()
    }

    /// Total tokens across all sentences.
    pub fn total_tokens(&self) -> usize {
        self.sentences.iter().map(Sentence::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(x: u32) -> TokenId {
        TokenId::new(x)
    }
    fn eid(x: u32) -> EntityId {
        EntityId::new(x)
    }

    fn sample_sentence() -> Sentence {
        Sentence {
            tokens: vec![tid(10), tid(11), tid(12), tid(11)],
            mentions: vec![(1, eid(0)), (3, eid(0))],
        }
    }

    #[test]
    fn masked_replaces_all_mentions_of_target_only() {
        let s = Sentence {
            tokens: vec![tid(1), tid(2), tid(3)],
            mentions: vec![(0, eid(0)), (2, eid(1))],
        };
        let masked = s.masked(eid(0), tid(99));
        assert_eq!(masked, vec![tid(99), tid(2), tid(3)]);
    }

    #[test]
    fn corpus_posting_lists_deduplicate_within_sentence() {
        let mut c = Corpus::with_entities(2);
        let id = c.push(sample_sentence());
        assert_eq!(c.sentences_of(eid(0)), &[id]);
        assert_eq!(c.mention_count(eid(0)), 1);
        assert_eq!(c.mention_count(eid(1)), 0);
    }

    #[test]
    fn corpus_accumulates_across_sentences() {
        let mut c = Corpus::with_entities(1);
        c.push(Sentence {
            tokens: vec![tid(5)],
            mentions: vec![(0, eid(0))],
        });
        c.push(Sentence {
            tokens: vec![tid(6)],
            mentions: vec![(0, eid(0))],
        });
        assert_eq!(c.mention_count(eid(0)), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_tokens(), 2);
    }
}
