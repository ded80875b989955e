//! Token-level prefix trie over candidate entity names (Figure 6).
//!
//! "The root node represents the beginning, and each path from the root to a
//! leaf node represents a complete candidate entity. During decoding, the
//! process must follow a specific path from root to leaf" — GenExpan's
//! prefix-constrained beam search queries this structure at every step for
//! the set of tokens allowed next. Each node keeps its children in ascending
//! token order, so a decoder holding a [`TrieNode`] reads the allowed tokens
//! directly, already in the order it scores them.

use ultra_core::{ByteReader, ByteWriter, EntityId, TokenId, UltraError};

/// Handle of one trie node (the path from the root that reaches it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrieNode(usize);

#[derive(Debug, Clone, Default)]
struct Node {
    /// Children in ascending token order.
    children: Vec<(TokenId, TrieNode)>,
    /// Entity completed exactly at this node, if any.
    terminal: Option<EntityId>,
}

/// Prefix tree over token sequences, each sequence naming one entity.
#[derive(Debug, Clone)]
pub struct PrefixTrie {
    nodes: Vec<Node>,
    len: usize,
}

impl Default for PrefixTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixTrie {
    /// The root: the empty prefix.
    pub const ROOT: TrieNode = TrieNode(0);

    /// Creates an empty trie with just the root.
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::default()],
            len: 0,
        }
    }

    /// Inserts an entity name given as its token sequence.
    ///
    /// Empty sequences are rejected (an entity must have a surface form).
    /// Re-inserting a sequence overwrites the terminal entity.
    pub fn insert(&mut self, tokens: &[TokenId], entity: EntityId) {
        assert!(!tokens.is_empty(), "entity names must be non-empty");
        let mut cur = Self::ROOT;
        for &tok in tokens {
            let fresh = TrieNode(self.nodes.len());
            let children = &mut self.nodes[cur.0].children;
            cur = match children.binary_search_by_key(&tok, |c| c.0) {
                Ok(i) => children[i].1,
                Err(i) => {
                    children.insert(i, (tok, fresh));
                    self.nodes.push(Node::default());
                    fresh
                }
            };
        }
        if self.nodes[cur.0].terminal.replace(entity).is_none() {
            self.len += 1;
        }
    }

    /// Number of stored entity names.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie stores no names.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The children of `node` — the tokens allowed after its path, each
    /// with the node it leads to — in ascending token order.
    #[inline]
    pub fn children(&self, node: TrieNode) -> &[(TokenId, TrieNode)] {
        &self.nodes[node.0].children
    }

    /// The entity whose name is exactly `node`'s path, if any.
    #[inline]
    pub fn terminal(&self, node: TrieNode) -> Option<EntityId> {
        self.nodes[node.0].terminal
    }

    /// Walks a prefix; returns its node if the prefix is a valid path.
    fn walk(&self, prefix: &[TokenId]) -> Option<TrieNode> {
        let mut cur = Self::ROOT;
        for tok in prefix {
            let children = self.children(cur);
            let i = children.binary_search_by_key(tok, |c| c.0).ok()?;
            cur = children[i].1;
        }
        Some(cur)
    }

    /// Tokens allowed immediately after `prefix` (empty prefix = first
    /// tokens of all names), in ascending order. Returns an empty vec for
    /// invalid prefixes.
    pub fn allowed_continuations(&self, prefix: &[TokenId]) -> Vec<TokenId> {
        self.walk(prefix).map_or_else(Vec::new, |node| {
            self.children(node).iter().map(|&(tok, _)| tok).collect()
        })
    }

    /// The entity completed exactly by `prefix`, if any.
    ///
    /// Note a completed entity may still have longer extensions
    /// (e.g. "Xin" vs "Xinyang" as two entities).
    pub fn complete(&self, prefix: &[TokenId]) -> Option<EntityId> {
        self.walk(prefix).and_then(|n| self.terminal(n))
    }

    /// Whether `prefix` is a valid path (prefix of at least one name).
    pub fn is_valid_prefix(&self, prefix: &[TokenId]) -> bool {
        self.walk(prefix).is_some()
    }

    /// Enumerates all `(name tokens, entity)` pairs under `prefix`, in
    /// depth-first token order. Used by tests and diagnostics.
    pub fn enumerate(&self, prefix: &[TokenId]) -> Vec<(Vec<TokenId>, EntityId)> {
        let Some(start) = self.walk(prefix) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![(start, prefix.to_vec())];
        while let Some((node, path)) = stack.pop() {
            if let Some(e) = self.terminal(node) {
                out.push((path.clone(), e));
            }
            // Reversed so the stack pops in ascending token order.
            for &(tok, next) in self.children(node).iter().rev() {
                let mut p = path.clone();
                p.push(tok);
                stack.push((next, p));
            }
        }
        out
    }

    /// Serializes the stored names as the [`enumerate`](Self::enumerate)
    /// stream — `(name tokens, entity)` pairs in depth-first token order.
    /// That order is a pure function of the stored *content* (internal node
    /// numbering never leaks), so two tries holding the same names produce
    /// byte-identical output.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        let entries = self.enumerate(&[]);
        w.u64(entries.len() as u64);
        for (name, entity) in entries {
            w.u32(name.len() as u32);
            for t in name {
                w.u32(t.0);
            }
            w.u32(entity.0);
        }
        w.finish()
    }

    /// Strict inverse of [`to_bytes`](Self::to_bytes): names must be
    /// non-empty and strictly increasing in token order (the canonical
    /// enumeration order — duplicates and reorderings are rejected), with
    /// no trailing bytes. Errors are typed, never panics.
    pub fn from_bytes(bytes: &[u8]) -> ultra_core::Result<Self> {
        let corrupt = |msg: &str| UltraError::Corrupt(format!("prefix-trie: {msg}"));
        let mut r = ByteReader::new(bytes, "prefix-trie");
        let declared = r.u64()?;
        // Each entry is at least name-len + one token + entity id bytes.
        let n = r.check_count(declared, 12, "names")?;
        let mut trie = PrefixTrie::new();
        let mut prev: Vec<TokenId> = Vec::new();
        for i in 0..n {
            let name_len = r.u32()? as usize;
            if name_len == 0 {
                return Err(corrupt("empty entity name"));
            }
            let _ = r.check_count(name_len as u64, 4, "name tokens")?;
            let mut name = Vec::with_capacity(name_len);
            for _ in 0..name_len {
                name.push(TokenId::new(r.u32()?));
            }
            if i > 0 && prev >= name {
                return Err(corrupt("names not in strict enumeration order"));
            }
            let entity = EntityId::new(r.u32()?);
            trie.insert(&name, entity);
            prev = name;
        }
        r.expect_end()?;
        Ok(trie)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u32) -> TokenId {
        TokenId::new(x)
    }
    fn e(x: u32) -> EntityId {
        EntityId::new(x)
    }

    fn sample() -> PrefixTrie {
        let mut trie = PrefixTrie::new();
        trie.insert(&[t(1), t(2)], e(0)); // "new york"
        trie.insert(&[t(1), t(3)], e(1)); // "new delhi"
        trie.insert(&[t(4)], e(2)); // "tokyo"
        trie.insert(&[t(1)], e(3)); // "new" (a prefix of others)
        trie
    }

    #[test]
    fn allowed_continuations_from_root_and_prefix() {
        let trie = sample();
        assert_eq!(trie.allowed_continuations(&[]), vec![t(1), t(4)]);
        assert_eq!(trie.allowed_continuations(&[t(1)]), vec![t(2), t(3)]);
        assert!(trie.allowed_continuations(&[t(9)]).is_empty());
    }

    #[test]
    fn complete_detects_terminals_including_inner_nodes() {
        let trie = sample();
        assert_eq!(trie.complete(&[t(1), t(2)]), Some(e(0)));
        assert_eq!(trie.complete(&[t(1)]), Some(e(3)));
        assert_eq!(trie.complete(&[t(4)]), Some(e(2)));
        assert_eq!(trie.complete(&[t(2)]), None);
    }

    #[test]
    fn reinsert_overwrites_without_growing() {
        let mut trie = sample();
        let before = trie.len();
        trie.insert(&[t(4)], e(9));
        assert_eq!(trie.len(), before);
        assert_eq!(trie.complete(&[t(4)]), Some(e(9)));
    }

    #[test]
    fn enumerate_lists_subtree_in_token_order() {
        let trie = sample();
        let all = trie.enumerate(&[]);
        assert_eq!(all.len(), 4);
        let under_new = trie.enumerate(&[t(1)]);
        let ids: Vec<_> = under_new.iter().map(|(_, e)| *e).collect();
        assert_eq!(ids, vec![e(3), e(0), e(1)]);
    }

    #[test]
    fn valid_prefix_check() {
        let trie = sample();
        assert!(trie.is_valid_prefix(&[]));
        assert!(trie.is_valid_prefix(&[t(1), t(3)]));
        assert!(!trie.is_valid_prefix(&[t(1), t(9)]));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_name_is_rejected() {
        let mut trie = PrefixTrie::new();
        trie.insert(&[], e(0));
    }

    #[test]
    fn byte_round_trip_is_canonical_and_content_identical() {
        let trie = sample();
        let bytes = trie.to_bytes();
        let back = PrefixTrie::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.to_bytes(), bytes, "re-serialization must be canonical");
        assert_eq!(back.len(), trie.len());
        assert_eq!(back.enumerate(&[]), trie.enumerate(&[]));
        assert_eq!(
            back.allowed_continuations(&[t(1)]),
            trie.allowed_continuations(&[t(1)])
        );
        // Canonical bytes are insertion-order independent: rebuild the same
        // content in a different order.
        let mut other = PrefixTrie::new();
        other.insert(&[t(1)], e(3));
        other.insert(&[t(4)], e(2));
        other.insert(&[t(1), t(3)], e(1));
        other.insert(&[t(1), t(2)], e(0));
        assert_eq!(other.to_bytes(), bytes);
    }

    #[test]
    fn corrupt_trie_payloads_are_typed_errors() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(PrefixTrie::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(7);
        assert!(PrefixTrie::from_bytes(&padded).is_err());
        // An empty-name entry is rejected even with a consistent count.
        let mut w = ultra_core::ByteWriter::new();
        w.u64(1);
        w.u32(0);
        w.u32(5);
        assert!(PrefixTrie::from_bytes(&w.finish()).is_err());
        // Out-of-order names (canonical order violated) are rejected.
        let mut w = ultra_core::ByteWriter::new();
        w.u64(2);
        for tok in [4u32, 1] {
            w.u32(1);
            w.u32(tok);
            w.u32(0);
        }
        assert!(PrefixTrie::from_bytes(&w.finish()).is_err());
    }
}
