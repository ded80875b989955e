//! Interpolated back-off n-gram language model.
//!
//! Counts live in one `Table` per context length: the observed contexts
//! in lexicographic key order, each with its continuations as a
//! token-sorted `(token, count)` run. Every run entry also links to the
//! one-token-longer context it extends to, and the unigram run is indexed
//! by token, so an [`LmContext`] moves one token along by following links
//! instead of searching the tables (DESIGN.md §6, "Suffix-linked
//! contexts"). A batch of ascending tokens scored against one context
//! costs one forward merge per back-off level (DESIGN.md §6, "GenExpan
//! decode kernel").
//!
//! No key is kept: a context of length `k + 1` is the length-`k` entry
//! that links to it. The NGLM snapshot section (v2) stores exactly that:
//! each context as a varint-coded link to the entry it extends, then its
//! run as varint token gaps and counts ([`NgramLm::to_bytes`]). Loading
//! fills the serving arrays as it reads, with no key to build or search,
//! and training spells keys out only while it merges.

use std::cmp::Ordering;
use ultra_core::{top_k, ByteReader, ByteWriter, TokenId, UltraError};

/// Largest supported model order; the NGLM section rejects larger ones.
pub const MAX_ORDER: usize = 16;

/// Largest supported vocabulary; the NGLM section rejects larger ones. It
/// bounds the direct unigram index, one `u32` per token, at 16 MiB.
pub const MAX_VOCAB: usize = 1 << 22;

/// The link of a run entry whose one-token extension is not stored, and
/// the unigram index entry of an unseen token.
const NO_LINK: u32 = u32::MAX;

/// Smoothing family. Stands in for the LLM *family* axis of Figure 8:
/// Witten-Bell plays the weaker BLOOM, absolute discounting (the
/// interpolated-Kneser-Ney workhorse) plays LLaMA.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Smoothing {
    /// Witten-Bell interpolation: back-off mass proportional to the number
    /// of distinct continuation types.
    WittenBell,
    /// Absolute discounting with discount `d ∈ (0,1)`.
    AbsoluteDiscount(f64),
}

impl Smoothing {
    /// One back-off step: the probability of a token seen `count` times in
    /// `level`'s run, interpolated with its back-off probability `p`.
    #[inline]
    fn interpolate(self, level: &Level<'_>, count: f64, p: f64) -> f64 {
        let (total, types) = (level.total, level.run.len() as f64);
        match self {
            Smoothing::WittenBell => (count + types * p) / (total + types),
            Smoothing::AbsoluteDiscount(d) => {
                (count - d).max(0.0) / total + (d * types / total) * p
            }
        }
    }
}

/// Every observed context of one length `k`, in lexicographic key order.
/// No key is kept: context `c` of table `k + 1` is `key(c') ++ [t]` for
/// the entry `(c', t)` of table `k` whose link is `c`.
#[derive(Clone, Debug, PartialEq)]
struct Table {
    /// Context length.
    k: usize,
    /// Per-context total: the sum of the context's run.
    totals: Vec<u64>,
    /// Context `c`'s run is `conts[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// One token-sorted `(token, count)` run per context, concatenated.
    conts: Vec<(u32, u32)>,
    /// `next[i]` is the context of the next table that run entry `i` (token
    /// `t` of context `c`) extends to, `key(c) ++ [t]`, or [`NO_LINK`] if
    /// that table lacks it. Empty in the deepest table.
    next: Vec<u32>,
}

impl Table {
    fn with_capacity(k: usize, contexts: usize) -> Self {
        let mut starts = Vec::with_capacity(contexts + 1);
        starts.push(0);
        Self {
            k,
            totals: Vec::with_capacity(contexts),
            starts,
            conts: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Number of contexts.
    #[inline]
    fn len(&self) -> usize {
        self.totals.len()
    }

    /// Context `c`'s entries: `conts[span(c)]` and `next[span(c)]`.
    #[inline]
    fn span(&self, c: usize) -> std::ops::Range<usize> {
        self.starts[c] as usize..self.starts[c + 1] as usize
    }

    #[inline]
    fn run(&self, c: usize) -> &[(u32, u32)] {
        &self.conts[self.span(c)]
    }

    /// Context `c` as a back-off level.
    #[inline]
    fn level(&self, c: usize) -> Level<'_> {
        let span = self.span(c);
        Level {
            len: self.k,
            run: &self.conts[span.clone()],
            next: self.next.get(span).unwrap_or(&[]),
            total: self.totals[c] as f64,
        }
    }

    /// Writes context `c`'s run in NGLM v2 form: its length − 1, then per
    /// entry the token's gap past the previous token and its count − 1.
    fn write_run(&self, c: usize, w: &mut ByteWriter) {
        let run = self.run(c);
        w.varint(run.len() as u64 - 1);
        let mut first = 0;
        for &(t, n) in run {
            w.varint(u64::from(t - first));
            w.varint(u64::from(n - 1));
            first = t + 1;
        }
    }
}

/// A table with every context's key spelled out: the form
/// [`NgramLm::train`] merges in, dropped before it returns.
struct KeyedTable {
    /// The contexts' keys, `table.k` tokens each, concatenated.
    keys: Vec<u32>,
    table: Table,
}

impl KeyedTable {
    fn key(&self, c: usize) -> &[u32] {
        let k = self.table.k;
        &self.keys[c * k..(c + 1) * k]
    }

    /// Appends a context after every stored one; keys must arrive in
    /// increasing order and `run` must be token-sorted.
    fn push(&mut self, key: &[u32], run: &[(u32, u32)]) {
        self.keys.extend_from_slice(key);
        let table = &mut self.table;
        table
            .totals
            .push(run.iter().map(|&(_, n)| u64::from(n)).sum());
        table.conts.extend_from_slice(run);
        assert!(
            table.conts.len() <= u32::MAX as usize,
            "a table holds at most u32::MAX continuations"
        );
        table.starts.push(table.conts.len() as u32);
    }

    /// An empty table of length-`k` contexts.
    fn empty(k: usize) -> Self {
        Self {
            keys: Vec::new(),
            table: Table::with_capacity(k, 0),
        }
    }

    /// The counts of `grams`, sorted `(k + 1)`-grams: each one's first `k`
    /// tokens are the context, its last token the continuation.
    fn from_sorted_grams(k: usize, grams: &[&[TokenId]]) -> Self {
        let mut out = KeyedTable::empty(k);
        let mut key: Vec<u32> = Vec::with_capacity(k);
        let mut run: Vec<(u32, u32)> = Vec::new();
        for same_ctx in grams.chunk_by(|a, b| a[..k] == b[..k]) {
            run.clear();
            for same in same_ctx.chunk_by(|a, b| a[k] == b[k]) {
                run.push((same[0][k].0, same.len() as u32));
            }
            key.clear();
            key.extend(same_ctx[0][..k].iter().map(|t| t.0));
            out.push(&key, &run);
        }
        out
    }

    /// Adds `other`'s counts to this table's: a merge of the two sorted
    /// context lists, and of the two runs of every shared context.
    fn merge(&mut self, other: KeyedTable) {
        let (n, m) = (self.table.len(), other.table.len());
        if m == 0 {
            return;
        }
        if n == 0 {
            *self = other;
            return;
        }
        let mut out = KeyedTable::empty(self.table.k);
        let mut run: Vec<(u32, u32)> = Vec::new();
        let (mut a, mut b) = (0, 0);
        while a < n || b < m {
            let ord = if a == n {
                Ordering::Greater
            } else if b == m {
                Ordering::Less
            } else {
                self.key(a).cmp(other.key(b))
            };
            match ord {
                Ordering::Less => {
                    out.push(self.key(a), self.table.run(a));
                    a += 1;
                }
                Ordering::Greater => {
                    out.push(other.key(b), other.table.run(b));
                    b += 1;
                }
                Ordering::Equal => {
                    run.clear();
                    merge_runs(self.table.run(a), other.table.run(b), &mut run);
                    out.push(self.key(a), &run);
                    a += 1;
                    b += 1;
                }
            }
        }
        *self = out;
    }

    /// The links of this table's entries into `child`, the next table:
    /// entry `(c, t)` links to `child`'s context `key(c) ++ [t]`. Both are
    /// in key order, so one forward pass finds every link.
    fn links_to(&self, child: &KeyedTable) -> Vec<u32> {
        let table = &self.table;
        let mut next = vec![NO_LINK; table.conts.len()];
        let mut linked = 0;
        for c in 0..table.len() {
            let key = self.key(c);
            for e in table.span(c) {
                if linked < child.table.len()
                    && child.key(linked).split_last() == Some((&table.conts[e].0, key))
                {
                    next[e] = linked as u32;
                    linked += 1;
                }
            }
        }
        // The first `k + 1` tokens of a counted `(k + 2)`-gram are a
        // counted `(k + 1)`-gram: trained tables are prefix-closed.
        debug_assert_eq!(
            linked,
            child.table.len(),
            "a context without its parent entry"
        );
        next
    }
}

/// Appends the union of two token-sorted runs to `out`, summing the counts
/// of tokens both hold.
fn merge_runs(x: &[(u32, u32)], y: &[(u32, u32)], out: &mut Vec<(u32, u32)>) {
    let (mut i, mut j) = (0, 0);
    while i < x.len() && j < y.len() {
        match x[i].0.cmp(&y[j].0) {
            Ordering::Less => {
                out.push(x[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(y[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push((x[i].0, x[i].1 + y[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&x[i..]);
    out.extend_from_slice(&y[j..]);
}

/// The direct unigram index: each vocabulary token's entry in the unigram
/// run (table 0's one context), [`NO_LINK`] for a token the run lacks.
fn unigram_index(unigrams: &Table, vocab_size: usize) -> Vec<u32> {
    let mut index = vec![NO_LINK; vocab_size];
    for (i, &(t, _)) in unigrams.conts.iter().enumerate() {
        index[t as usize] = i as u32;
    }
    index
}

/// Interpolated back-off n-gram LM over [`TokenId`] streams.
///
/// `order = n` conditions on up to `n-1` previous tokens. Training is
/// incremental: call [`train`](Self::train) once with base documents and
/// again with further-pre-training documents — counts accumulate, exactly
/// like continued pre-training updates a real LM.
#[derive(Clone, Debug)]
pub struct NgramLm {
    order: usize,
    smoothing: Smoothing,
    /// `tables[k]` holds the length-`k` contexts (`k = 0` is the unigram
    /// table, whose one context is empty).
    tables: Vec<Table>,
    /// `unigram_index[t]` is token `t`'s entry in the unigram run, or
    /// [`NO_LINK`]; empty before training.
    unigram_index: Vec<u32>,
    vocab_size: usize,
}

impl NgramLm {
    /// Creates an untrained LM.
    ///
    /// `vocab_size` bounds the uniform floor of the unigram distribution;
    /// pass the interned vocabulary size. Every trained token must lie
    /// below it.
    pub fn new(order: usize, smoothing: Smoothing, vocab_size: usize) -> Self {
        assert!(
            (1..=MAX_ORDER).contains(&order),
            "order must be at least 1 and at most {MAX_ORDER}"
        );
        assert!(
            (1..=MAX_VOCAB).contains(&vocab_size),
            "vocabulary must be non-empty and at most {MAX_VOCAB}"
        );
        if let Smoothing::AbsoluteDiscount(d) = smoothing {
            assert!((0.0..1.0).contains(&d), "discount must be in (0,1)");
        }
        Self {
            order,
            smoothing,
            tables: (0..order).map(|k| Table::with_capacity(k, 0)).collect(),
            unigram_index: Vec::new(),
            vocab_size,
        }
    }

    /// Model order `n`.
    #[inline]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Vocabulary size bounding the unigram floor.
    #[inline]
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Accumulates counts from documents (token sequences): every
    /// `(k + 1)`-gram of a document counts its last token after its first
    /// `k`, for each `k < order`. The merge keys each table's contexts,
    /// spelled out along the links, and drops the keys once the links of
    /// the merged tables are built.
    pub fn train<'a, I>(&mut self, docs: I)
    where
        I: IntoIterator<Item = &'a [TokenId]>,
    {
        let docs: Vec<&[TokenId]> = docs.into_iter().collect();
        let keys = self.keys();
        let keyed: Vec<KeyedTable> = std::mem::take(&mut self.tables)
            .into_iter()
            .zip(keys)
            .enumerate()
            .map(|(k, (table, keys))| {
                let mut grams: Vec<&[TokenId]> =
                    docs.iter().flat_map(|d| d.windows(k + 1)).collect();
                grams.sort_unstable();
                let mut keyed = KeyedTable { keys, table };
                keyed.merge(KeyedTable::from_sorted_grams(k, &grams));
                keyed
            })
            .collect();
        let links: Vec<Vec<u32>> = (0..self.order)
            .map(|k| {
                keyed
                    .get(k + 1)
                    .map_or_else(Vec::new, |child| keyed[k].links_to(child))
            })
            .collect();
        self.tables = keyed
            .into_iter()
            .zip(links)
            .map(|(keyed, next)| Table {
                next,
                ..keyed.table
            })
            .collect();
        let unigrams = &self.tables[0];
        if let Some(&(last, _)) = unigrams.conts.last() {
            assert!(
                (last as usize) < self.vocab_size,
                "token {last} outside a vocabulary of {}",
                self.vocab_size
            );
        }
        self.unigram_index = unigram_index(unigrams, self.vocab_size);
    }

    /// Every table's keys, `k` tokens per context, spelled out along the
    /// links: the `i`-th linked entry `(c, t)` of table `k`, in entry order,
    /// is context `i` of table `k + 1`, whose key is `key(c) ++ [t]`.
    fn keys(&self) -> Vec<Vec<u32>> {
        let mut keys: Vec<Vec<u32>> = vec![Vec::new()];
        for (k, parent) in self.tables.iter().enumerate().take(self.order - 1) {
            let parent_keys = &keys[k];
            let mut out = Vec::with_capacity(self.tables[k + 1].len() * (k + 1));
            for c in 0..parent.len() {
                for e in parent.span(c) {
                    if parent.next[e] != NO_LINK {
                        debug_assert_eq!(parent.next[e] as usize, out.len() / (k + 1));
                        out.extend_from_slice(&parent_keys[c * k..(c + 1) * k]);
                        out.push(parent.conts[e].0);
                    }
                }
            }
            keys.push(out);
        }
        keys
    }

    /// Token `w`'s entry in the unigram run.
    #[inline]
    fn unigram_entry(&self, w: u32) -> Option<usize> {
        match self.unigram_index.get(w as usize) {
            Some(&i) if i != NO_LINK => Some(i as usize),
            _ => None,
        }
    }

    /// The empty context: the unigram table alone.
    fn root(&self) -> LmContext<'_> {
        let unigrams = &self.tables[0];
        LmContext {
            lm: self,
            unigram: if unigrams.len() == 0 {
                Level::EMPTY
            } else {
                unigrams.level(0)
            },
            suffixes: [Level::EMPTY; MAX_ORDER - 1],
            depth: 0,
        }
    }

    /// The back-off chain of `context`: the root advanced over its last
    /// `order - 1` tokens (unseen suffixes back off transparently), for
    /// scoring any number of next tokens.
    pub fn context(&self, context: &[TokenId]) -> LmContext<'_> {
        self.prefix(&[context])
    }

    /// [`context`](Self::context) of a context given as consecutive pieces
    /// — GenExpan's template `f(e)` is a name followed by the list
    /// separator — without concatenating them.
    pub fn prefix(&self, pieces: &[&[TokenId]]) -> LmContext<'_> {
        let len: usize = pieces.iter().map(|p| p.len()).sum();
        let mut ctx = self.root();
        for &t in pieces
            .iter()
            .copied()
            .flatten()
            .skip(len.saturating_sub(self.order - 1))
        {
            ctx.advance(t);
        }
        ctx
    }

    /// `P(next | context)` under interpolated back-off smoothing.
    ///
    /// Uses at most the last `order - 1` tokens of `context`; unseen
    /// contexts back off transparently.
    pub fn prob(&self, context: &[TokenId], next: TokenId) -> f64 {
        self.context(context).prob(next)
    }

    /// Eq. 7 scoring primitive: the geometric-mean probability
    /// `P(e'|f(e))^(1/|e'|)` of generating `entity_tokens` after `context`
    /// (from [`prefix`](Self::prefix)). The geometric mean "balances the
    /// different token numbers of various entities". The context is cloned
    /// and advanced once per token, so a template scored against many
    /// sequences is resolved once.
    pub fn entity_score_from(&self, context: &LmContext<'_>, entity_tokens: &[TokenId]) -> f64 {
        if entity_tokens.is_empty() {
            return 0.0;
        }
        let mut ctx = context.clone();
        let mut lp = 0.0f64;
        for &t in entity_tokens {
            lp += ctx.advance(t).max(1e-300).ln();
        }
        (lp / entity_tokens.len() as f64).exp()
    }

    /// Serializes the count tables as the NGLM section, version 2: the
    /// header (order, smoothing, vocabulary), then per table its context
    /// count and its contexts in key order, all as LEB128 varints. A
    /// context of table `k ≥ 1` is written as its link: the index of the
    /// table-`(k − 1)` entry it extends, as the gap past the previous
    /// context's entry. Then its run: length − 1, and per entry the token's
    /// gap past the previous token and its count − 1. Keys, totals, the
    /// unigram index and the links' targets follow from the rest and are not
    /// written. Two identically trained models produce byte-identical
    /// output regardless of training history.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(self.order as u32);
        match self.smoothing {
            Smoothing::WittenBell => {
                w.u8(0);
                w.f64(0.0);
            }
            Smoothing::AbsoluteDiscount(d) => {
                w.u8(1);
                w.f64(d);
            }
        }
        w.u64(self.vocab_size as u64);
        for (k, table) in self.tables.iter().enumerate() {
            w.varint(table.len() as u64);
            if k == 0 {
                for c in 0..table.len() {
                    table.write_run(c, &mut w);
                }
                continue;
            }
            // The linked entries of the table before, in entry order, are
            // this table's contexts in order.
            let mut first = 0;
            for (e, &c) in self.tables[k - 1].next.iter().enumerate() {
                if c != NO_LINK {
                    w.varint((e - first) as u64);
                    table.write_run(c as usize, &mut w);
                    first = e + 1;
                }
            }
        }
        w.finish()
    }

    /// Strict inverse of [`to_bytes`](Self::to_bytes), filling the serving
    /// arrays as it reads: each link sets its parent entry's `next`, so no
    /// key is built or searched. Validates every invariant
    /// [`new`](Self::new) asserts (order in `1..=MAX_ORDER`, vocab in
    /// `1..=MAX_VOCAB`, discount in `(0,1)`, and a zero discount field for
    /// Witten-Bell) before it allocates, and rejects as typed
    /// [`UltraError::Corrupt`] errors: truncation; an over-long or
    /// overflowing varint; more than one unigram context; a link past the
    /// parent table's entries; a token at or past the vocabulary size; a
    /// count past `u32::MAX`; a table past `u32::MAX` continuations; and
    /// trailing bytes. Every accepted payload re-encodes to itself. Zero
    /// counts, empty runs, unordered contexts or tokens, and contexts
    /// without their prefix have no encoding.
    pub fn from_bytes(bytes: &[u8]) -> ultra_core::Result<Self> {
        let corrupt = |msg: String| UltraError::Corrupt(format!("ngram-lm: {msg}"));
        let mut r = ByteReader::new(bytes, "ngram-lm");
        let order = r.u32()? as usize;
        if order == 0 || order > MAX_ORDER {
            return Err(corrupt(format!("order {order} outside 1..={MAX_ORDER}")));
        }
        let smoothing = match (r.u8()?, r.f64()?) {
            (0, d) if d.to_bits() == 0 => Smoothing::WittenBell,
            (0, d) => return Err(corrupt(format!("Witten-Bell with discount field {d}"))),
            (1, d) if d > 0.0 && d < 1.0 => Smoothing::AbsoluteDiscount(d),
            (1, d) => return Err(corrupt(format!("discount {d} outside (0,1)"))),
            (tag, _) => return Err(corrupt(format!("unknown smoothing tag {tag}"))),
        };
        let vocab_size = r.u64()?;
        if vocab_size == 0 || vocab_size > MAX_VOCAB as u64 {
            return Err(corrupt(format!(
                "vocab size {vocab_size} outside 1..={MAX_VOCAB}"
            )));
        }
        let mut tables: Vec<Table> = Vec::with_capacity(order);
        for k in 0..order {
            // A context is at least three varints: its run length, then one
            // entry's token gap and count.
            let declared = r.varint()?;
            let n = r.check_count(declared, 3, "contexts")?;
            if k == 0 && n > 1 {
                return Err(corrupt(format!("{n} unigram contexts")));
            }
            let mut table = Table::with_capacity(k, n);
            // The first parent entry the next context may extend.
            let mut first = 0u64;
            for c in 0..n {
                if let Some(parent) = tables.last_mut() {
                    let e = first.saturating_add(r.varint()?);
                    let slot = usize::try_from(e).ok().and_then(|e| parent.next.get_mut(e));
                    let Some(slot) = slot else {
                        return Err(corrupt(format!(
                            "table {k} context {c} links past table {}'s {} entries",
                            k - 1,
                            parent.conts.len()
                        )));
                    };
                    *slot = c as u32;
                    first = e + 1;
                }
                let len = r.varint()?.saturating_add(1);
                if (table.conts.len() as u64).saturating_add(len) > u64::from(u32::MAX) {
                    return Err(corrupt(format!(
                        "table {k} holds more than {} continuations",
                        u32::MAX
                    )));
                }
                let len = r.check_count(len, 2, "continuations")?;
                let mut token = 0u64;
                let mut total = 0u64;
                for _ in 0..len {
                    let t = token.saturating_add(r.varint()?);
                    if t >= vocab_size {
                        return Err(corrupt(format!(
                            "token {t} outside a vocabulary of {vocab_size}"
                        )));
                    }
                    let count = r.varint()?.saturating_add(1);
                    if count > u64::from(u32::MAX) {
                        return Err(corrupt(format!("count {count} past {}", u32::MAX)));
                    }
                    table.conts.push((t as u32, count as u32));
                    total += count;
                    token = t + 1;
                }
                table.totals.push(total);
                table.starts.push(table.conts.len() as u32);
            }
            if k + 1 < order {
                table.next = vec![NO_LINK; table.conts.len()];
            }
            tables.push(table);
        }
        r.expect_end()?;
        let vocab_size = vocab_size as usize;
        Ok(Self {
            order,
            smoothing,
            unigram_index: unigram_index(&tables[0], vocab_size),
            tables,
            vocab_size,
        })
    }
}

/// One observed context: its length, its continuation run with the run's
/// links, and its total.
#[derive(Clone, Copy, Debug)]
struct Level<'a> {
    /// Context length: the level's table.
    len: usize,
    run: &'a [(u32, u32)],
    /// `run`'s links into table `len + 1` (empty in the deepest table).
    next: &'a [u32],
    total: f64,
}

impl Level<'_> {
    const EMPTY: Level<'static> = Level {
        len: 0,
        run: &[],
        next: &[],
        total: 0.0,
    };

    /// The link of run entry `i`.
    #[inline]
    fn link(&self, i: usize) -> u32 {
        self.next.get(i).copied().unwrap_or(NO_LINK)
    }
}

/// A context's back-off chain: the unigram table plus every observed
/// suffix of the context's last `order - 1` tokens, shortest first.
///
/// Every probability it returns is the same IEEE-754 operation sequence as
/// the back-off recursion: the add-one unigram floor, then one smoothing
/// step per observed suffix from shortest to longest.
/// [`advance`](Self::advance) is the only way a context moves.
#[derive(Clone)]
pub struct LmContext<'a> {
    lm: &'a NgramLm,
    /// The unigram table (empty before training).
    unigram: Level<'a>,
    /// The observed suffixes, shortest first; only `..depth` are set.
    suffixes: [Level<'a>; MAX_ORDER - 1],
    depth: usize,
}

impl std::fmt::Debug for LmContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LmContext")
            .field("unigram", &self.unigram)
            .field("suffixes", &&self.suffixes[..self.depth])
            .finish()
    }
}

impl<'a> LmContext<'a> {
    /// `P(next | context)`.
    pub fn prob(&self, next: TokenId) -> f64 {
        self.prob_and_links(next.0, &mut [(0, NO_LINK); MAX_ORDER])
    }

    /// Returns `P(next | context)`, then moves the context one token along:
    /// to the observed suffixes of the context followed by `next`. Each of
    /// them is one level's link for `next`, shortest first; a level whose
    /// entry has no link drops out, and so does the deepest table.
    pub fn advance(&mut self, next: TokenId) -> f64 {
        let mut links = [(0, NO_LINK); MAX_ORDER];
        let p = self.prob_and_links(next.0, &mut links);
        let lm = self.lm;
        let mut depth = 0;
        // Level `depth` is written only after every link below it was read
        // into `links`.
        for &(k, c) in &links[..=self.depth] {
            if c != NO_LINK {
                self.suffixes[depth] = lm.tables[k].level(c as usize);
                depth += 1;
            }
        }
        self.depth = depth;
        p
    }

    /// `P(w | context)`, finding `w` once per level: the unigram through
    /// the direct index, each suffix by a binary search of its run.
    /// `links[0]` receives the unigram entry's link and `links[1 + i]`
    /// suffix `i`'s, each as `(table, context)`.
    #[inline]
    fn prob_and_links(&self, w: u32, links: &mut [(usize, u32); MAX_ORDER]) -> f64 {
        let lm = self.lm;
        let uni = &self.unigram;
        let (count, link) = match lm.unigram_entry(w) {
            Some(i) => (f64::from(uni.run[i].1), uni.link(i)),
            None => (0.0, NO_LINK),
        };
        links[0] = (1, link);
        let mut p = (count + 1.0) / (uni.total + lm.vocab_size as f64);
        for (level, slot) in self.suffixes[..self.depth].iter().zip(&mut links[1..]) {
            let (count, link) = match level.run.binary_search_by_key(&w, |e| e.0) {
                Ok(i) => (f64::from(level.run[i].1), level.link(i)),
                Err(_) => (0.0, NO_LINK),
            };
            *slot = (level.len + 1, link);
            p = lm.smoothing.interpolate(level, count, p);
        }
        p
    }

    /// `P(w | context)` for each of `tokens`. Ascending tokens are scored
    /// in one forward (galloping) merge per back-off level; a token below
    /// its predecessor restarts the merge.
    pub fn sorted_probs<I>(&self, tokens: I) -> SortedProbs<'_, 'a, I::IntoIter>
    where
        I: IntoIterator<Item = TokenId>,
    {
        SortedProbs {
            ctx: self,
            tokens: tokens.into_iter(),
            cursors: [0; MAX_ORDER - 1],
            prev: 0,
        }
    }

    /// The probability of `w`, advancing each suffix's merge cursor to `w`.
    #[inline]
    fn score(&self, cursors: &mut [usize; MAX_ORDER - 1], w: u32) -> f64 {
        let lm = self.lm;
        let uni = &self.unigram;
        let count = lm.unigram_entry(w).map_or(0.0, |i| f64::from(uni.run[i].1));
        let mut p = (count + 1.0) / (uni.total + lm.vocab_size as f64);
        for (level, pos) in self.suffixes[..self.depth].iter().zip(cursors) {
            p = lm
                .smoothing
                .interpolate(level, gallop(level.run, pos, w), p);
        }
        p
    }

    /// Whether the shortest observed suffix is one token long: for a
    /// context ending in `w`, the level of the context `[w]`.
    pub(crate) fn has_unit_suffix(&self) -> bool {
        self.depth > 0 && self.suffixes[0].len == 1
    }

    /// The runs of the observed suffixes past the shortest.
    pub(crate) fn longer_runs(&self) -> impl Iterator<Item = &'a [(u32, u32)]> + '_ {
        self.suffixes[1..self.depth.max(1)].iter().map(|l| l.run)
    }

    /// `P(w | context)` of a token `w` absent from every
    /// [`longer_runs`](Self::longer_runs) run, from `p1`, its probability
    /// after the unigram and the shortest suffix: the smoothing step of
    /// each longer suffix with a zero count, as [`score`](Self::score)
    /// applies it.
    #[inline]
    pub(crate) fn past_shortest_suffix(&self, p1: f64) -> f64 {
        let lm = self.lm;
        self.suffixes[1..self.depth.max(1)]
            .iter()
            .fold(p1, |p, level| lm.smoothing.interpolate(level, 0.0, p))
    }

    /// Candidate continuations for unconstrained beam search: tokens
    /// observed after progressively shorter suffixes of the context (the
    /// longest first, the unigram table last), accumulated until `limit`
    /// candidates are gathered. A token a longer suffix already offered is
    /// skipped.
    ///
    /// Including the back-off levels matters: a transformer LM ranks its
    /// *whole* vocabulary at every step, so plausible-but-wrong
    /// continuations (shorter-context evidence) compete with exact
    /// continuations — that competition is where unconstrained decoding's
    /// invalid generations come from. Within a level, tokens sort by count
    /// (ties by id).
    pub fn observed_continuations(&self, limit: usize) -> Vec<(TokenId, u32)> {
        let levels = self.suffixes[..self.depth]
            .iter()
            .rev()
            .chain(std::iter::once(&self.unigram));
        let mut out: Vec<(TokenId, u32)> = Vec::new();
        for (i, level) in levels.enumerate() {
            if out.len() >= limit {
                break;
            }
            // Every earlier (longer) level was emitted whole: had the limit
            // cut one short, the loop would have stopped.
            let longer = &self.suffixes[self.depth - i..self.depth];
            let fresh: Vec<(TokenId, u32)> = level
                .run
                .iter()
                .filter(|&&(w, _)| {
                    longer
                        .iter()
                        .all(|l| l.run.binary_search_by_key(&w, |e| e.0).is_err())
                })
                .map(|&(w, n)| (TokenId::new(w), n))
                .collect();
            out.extend(top_k(fresh, limit - out.len()));
        }
        out
    }
}

/// Iterator returned by [`LmContext::sorted_probs`].
pub struct SortedProbs<'c, 'a, I> {
    ctx: &'c LmContext<'a>,
    tokens: I,
    cursors: [usize; MAX_ORDER - 1],
    prev: u32,
}

impl<I: Iterator<Item = TokenId>> Iterator for SortedProbs<'_, '_, I> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        let w = self.tokens.next()?.0;
        if w < self.prev {
            self.cursors = [0; MAX_ORDER - 1];
        }
        self.prev = w;
        Some(self.ctx.score(&mut self.cursors, w))
    }
}

/// Advances `pos` to the first entry of the token-sorted `run` at or after
/// token `w` — doubling steps, then a binary search inside the last one —
/// and returns `w`'s count (0 if the run lacks it).
#[inline]
fn gallop(run: &[(u32, u32)], pos: &mut usize, w: u32) -> f64 {
    let mut lo = *pos;
    if lo < run.len() && run[lo].0 < w {
        // Invariant: run[lo].0 < w; the answer lies in (lo, hi].
        let mut step = 1;
        let mut hi = lo + 1;
        while hi < run.len() && run[hi].0 < w {
            lo = hi;
            step *= 2;
            hi = lo + step;
        }
        let hi = hi.min(run.len());
        lo += 1 + run[lo + 1..hi].partition_point(|e| e.0 < w);
    }
    *pos = lo;
    match run.get(lo) {
        Some(&(t, count)) if t == w => f64::from(count),
        _ => 0.0,
    }
}

/// Test-only key-searching references. Their keys are spelled out apart
/// from the links: rebuilt from the documents a model was trained on, or
/// given with a hand-built model's tables. Comparing them with the stepped
/// contexts therefore checks the links rather than trusting them.
#[cfg(test)]
pub(crate) struct Reference<'a> {
    lm: &'a NgramLm,
    /// `keys[k]`: table `k`'s context keys, in increasing order.
    keys: Vec<Vec<Vec<u32>>>,
}

#[cfg(test)]
impl NgramLm {
    /// The references of this model, trained (in any number of calls) on
    /// exactly `docs`: table `k`'s contexts are the distinct first `k`
    /// tokens of the documents' `(k + 1)`-grams.
    pub(crate) fn reference<D: AsRef<[TokenId]>>(&self, docs: &[D]) -> Reference<'_> {
        let keys = (0..self.order)
            .map(|k| {
                let keys: std::collections::BTreeSet<Vec<u32>> = docs
                    .iter()
                    .flat_map(|d| d.as_ref().windows(k + 1))
                    .map(|g| g[..k].iter().map(|t| t.0).collect())
                    .collect();
                keys.into_iter().collect()
            })
            .collect();
        Reference::with_keys(self, keys)
    }
}

#[cfg(test)]
impl<'a> Reference<'a> {
    /// The references of `lm`, whose table `k` holds the contexts
    /// `keys[k]`.
    pub(crate) fn with_keys(lm: &'a NgramLm, keys: Vec<Vec<Vec<u32>>>) -> Self {
        let sizes: Vec<usize> = keys.iter().map(Vec::len).collect();
        let held: Vec<usize> = lm.tables.iter().map(Table::len).collect();
        assert_eq!(sizes, held, "keys for other tables");
        Self { lm, keys }
    }

    /// Binary search for the context `key`: its index in table `key.len()`.
    fn find(&self, key: &[u32]) -> Option<usize> {
        self.keys
            .get(key.len())?
            .binary_search_by(|k| k.as_slice().cmp(key))
            .ok()
    }

    /// Reference [`NgramLm::context`]: one binary search of its table per
    /// suffix length of the context's last `order - 1` tokens.
    pub(crate) fn resolve(&self, context: &[TokenId]) -> LmContext<'a> {
        let lm = self.lm;
        let keep = context.len().min(lm.order - 1);
        let toks: Vec<u32> = context[context.len() - keep..]
            .iter()
            .map(|t| t.0)
            .collect();
        let mut ctx = lm.root();
        for len in 1..=toks.len() {
            if let Some(c) = self.find(&toks[toks.len() - len..]) {
                ctx.suffixes[ctx.depth] = lm.tables[len].level(c);
                ctx.depth += 1;
            }
        }
        ctx
    }

    /// Reference `P(next | context)`: the back-off recursion that
    /// [`LmContext`] unrolls, with one context search and one count search
    /// per level and token.
    pub(crate) fn prob(&self, context: &[TokenId], next: TokenId) -> f64 {
        let keep = context.len().min(self.lm.order - 1);
        let ctx: Vec<u32> = context[context.len() - keep..]
            .iter()
            .map(|t| t.0)
            .collect();
        self.prob_rec(&ctx, next.0)
    }

    fn prob_rec(&self, ctx: &[u32], w: u32) -> f64 {
        let lm = self.lm;
        let count_of = |table: &Table, c: usize| {
            let run = table.run(c);
            run.binary_search_by_key(&w, |e| e.0)
                .map_or(0.0, |i| run[i].1 as f64)
        };
        if ctx.is_empty() {
            // Add-one-smoothed unigram floor.
            let uni = &lm.tables[0];
            let (count, total) = match self.find(&[]) {
                Some(c) => (count_of(uni, c), uni.totals[c] as f64),
                None => (0.0, 0.0),
            };
            return (count + 1.0) / (total + lm.vocab_size as f64);
        }
        let table = &lm.tables[ctx.len()];
        match self.find(ctx) {
            None => self.prob_rec(&ctx[1..], w),
            Some(c) => {
                let count = count_of(table, c);
                let total = table.totals[c] as f64;
                let types = table.run(c).len() as f64;
                let backoff = self.prob_rec(&ctx[1..], w);
                match lm.smoothing {
                    Smoothing::WittenBell => (count + types * backoff) / (total + types),
                    Smoothing::AbsoluteDiscount(d) => {
                        (count - d).max(0.0) / total + (d * types / total) * backoff
                    }
                }
            }
        }
    }

    /// Reference [`NgramLm::entity_score_from`]: the recursion per token
    /// after the materialized context.
    pub(crate) fn entity_score(&self, context: &[TokenId], seq: &[TokenId]) -> f64 {
        if seq.is_empty() {
            return 0.0;
        }
        let mut ctx = context.to_vec();
        let mut lp = 0.0f64;
        for &t in seq {
            lp += self.prob(&ctx, t).max(1e-300).ln();
            ctx.push(t);
        }
        (lp / seq.len() as f64).exp()
    }

    /// Reference [`LmContext::observed_continuations`]: one context search
    /// per level and a set of the tokens emitted so far.
    pub(crate) fn observed_continuations(
        &self,
        context: &[TokenId],
        limit: usize,
    ) -> Vec<(TokenId, u32)> {
        let keep = context.len().min(self.lm.order - 1);
        let full: Vec<u32> = context[context.len() - keep..]
            .iter()
            .map(|t| t.0)
            .collect();
        let mut out: Vec<(TokenId, u32)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for start in 0..=full.len() {
            if out.len() >= limit {
                break;
            }
            let ctx = &full[start..];
            if let Some(c) = self.find(ctx) {
                let mut level: Vec<(TokenId, u32)> = self.lm.tables[ctx.len()]
                    .run(c)
                    .iter()
                    .filter(|(w, _)| !seen.contains(w))
                    .map(|&(w, n)| (TokenId::new(w), n))
                    .collect();
                level.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                for (t, n) in level.into_iter().take(limit - out.len()) {
                    seen.insert(t.0);
                    out.push((t, n));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(x: u32) -> TokenId {
        TokenId::new(x)
    }

    fn toks(xs: &[u32]) -> Vec<TokenId> {
        xs.iter().map(|&x| t(x)).collect()
    }

    fn toy_lm(smoothing: Smoothing) -> NgramLm {
        // Corpus: "1 2 3", "1 2 4", "1 2 3" over vocab of 8.
        let docs: Vec<Vec<TokenId>> = vec![
            vec![t(1), t(2), t(3)],
            vec![t(1), t(2), t(4)],
            vec![t(1), t(2), t(3)],
        ];
        let mut lm = NgramLm::new(3, smoothing, 8);
        lm.train(docs.iter().map(Vec::as_slice));
        lm
    }

    fn family_smoothing(family: u8, discount: f64) -> Smoothing {
        if family == 0 {
            Smoothing::WittenBell
        } else {
            Smoothing::AbsoluteDiscount(discount)
        }
    }

    /// One table of a handmade NGLM payload: `(key, run)` per context.
    type Contexts<'a> = &'a [(&'a [u32], &'a [(u32, u32)])];

    /// An NGLM payload header: order `order`, absolute discounting with
    /// `d = 0.5`, vocabulary 8.
    fn header(order: usize) -> ByteWriter {
        let mut w = ByteWriter::new();
        w.u32(order as u32);
        w.u8(1);
        w.f64(0.5);
        w.u64(8);
        w
    }

    /// An NGLM payload holding `tables` as given. A context is written as
    /// the link to its parent entry, `key[..k]`'s entry for `key[k]`; one
    /// whose parent entry is missing links just past the parent's entries,
    /// the one way a v2 payload can name an entry the parent lacks. A run
    /// is written as `to_bytes` writes it, so an empty run's length − 1
    /// wraps to `u64::MAX`.
    fn payload(tables: &[Contexts<'_>]) -> Vec<u8> {
        let mut w = header(tables.len());
        for (k, table) in tables.iter().enumerate() {
            w.varint(table.len() as u64);
            // The parent's entries, in order, as full keys.
            let entries: Vec<Vec<u32>> = k
                .checked_sub(1)
                .map(|p| tables[p])
                .unwrap_or_default()
                .iter()
                .flat_map(|&(key, run)| run.iter().map(move |&(t, _)| [key, &[t]].concat()))
                .collect();
            let mut first = 0;
            for &(key, run) in table.iter() {
                if k > 0 {
                    let e = entries
                        .iter()
                        .position(|e| e == key)
                        .unwrap_or(entries.len());
                    w.varint((e - first) as u64);
                    first = e + 1;
                }
                w.varint((run.len() as u64).wrapping_sub(1));
                let mut next = 0;
                for &(tok, n) in run {
                    w.varint(u64::from(tok - next));
                    w.varint(u64::from(n) - 1);
                    next = tok + 1;
                }
            }
        }
        w.finish()
    }

    /// The keys of `tables`, for [`Reference::with_keys`].
    fn keys_of(tables: &[Contexts<'_>]) -> Vec<Vec<Vec<u32>>> {
        tables
            .iter()
            .map(|table| table.iter().map(|&(key, _)| key.to_vec()).collect())
            .collect()
    }

    /// Each level as (length, run, links, total), shortest first: equal
    /// lists name the same contexts of the same model.
    type LevelId = (usize, *const (u32, u32), usize, *const u32, usize, u64);

    fn level_ids(ctx: &LmContext<'_>) -> Vec<LevelId> {
        std::iter::once(&ctx.unigram)
            .chain(&ctx.suffixes[..ctx.depth])
            .map(|l| {
                (
                    l.len,
                    l.run.as_ptr(),
                    l.run.len(),
                    l.next.as_ptr(),
                    l.next.len(),
                    l.total.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn probabilities_sum_to_one_over_vocab() {
        for smoothing in [Smoothing::WittenBell, Smoothing::AbsoluteDiscount(0.75)] {
            let lm = toy_lm(smoothing);
            for ctx in [vec![], vec![t(1)], vec![t(1), t(2)], vec![t(9), t(9)]] {
                let sum: f64 = (0..8).map(|w| lm.prob(&ctx, t(w))).sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "{smoothing:?} ctx {ctx:?} sums to {sum}"
                );
            }
        }
    }

    #[test]
    fn frequent_continuation_is_more_probable() {
        let lm = toy_lm(Smoothing::WittenBell);
        let ctx = [t(1), t(2)];
        assert!(lm.prob(&ctx, t(3)) > lm.prob(&ctx, t(4)));
        assert!(lm.prob(&ctx, t(4)) > lm.prob(&ctx, t(7)));
    }

    #[test]
    fn unseen_context_backs_off_to_unigram() {
        let lm = toy_lm(Smoothing::AbsoluteDiscount(0.75));
        let p_backoff = lm.prob(&[t(9), t(9)], t(1));
        let p_unigram = lm.prob(&[], t(1));
        assert!((p_backoff - p_unigram).abs() < 1e-12);
    }

    #[test]
    fn incremental_training_shifts_the_distribution() {
        let mut lm = toy_lm(Smoothing::WittenBell);
        let before = lm.prob(&[t(1), t(2)], t(4));
        let extra: Vec<Vec<TokenId>> = vec![vec![t(1), t(2), t(4)]; 5];
        lm.train(extra.iter().map(Vec::as_slice));
        let after = lm.prob(&[t(1), t(2)], t(4));
        assert!(after > before, "continued pretraining boosts new evidence");
    }

    #[test]
    fn incremental_training_equals_training_on_the_concatenation() {
        let a: Vec<Vec<TokenId>> = vec![
            toks(&[1, 2, 3, 1, 2]),
            toks(&[4, 4, 4]),
            toks(&[2, 3, 5, 6, 1]),
            toks(&[7]),
        ];
        // Shares contexts and continuations with `a`, and adds new ones on
        // both sides of the merge (tokens 0 and 9, contexts before and after
        // `a`'s).
        let b: Vec<Vec<TokenId>> = vec![
            toks(&[1, 2, 4, 0, 9]),
            toks(&[2, 3, 5, 6, 1, 2]),
            toks(&[9, 9, 0]),
            toks(&[]),
        ];
        for order in 1..=4 {
            for smoothing in [Smoothing::WittenBell, Smoothing::AbsoluteDiscount(0.6)] {
                let mut split = NgramLm::new(order, smoothing, 12);
                split.train(a.iter().map(Vec::as_slice));
                split.train(b.iter().map(Vec::as_slice));
                let mut whole = NgramLm::new(order, smoothing, 12);
                whole.train(a.iter().chain(&b).map(Vec::as_slice));
                assert_eq!(split.to_bytes(), whole.to_bytes(), "order {order}");
                for ctx in [vec![], toks(&[1, 2]), toks(&[3, 5, 6]), toks(&[9, 9])] {
                    for w in 0..12 {
                        assert_eq!(
                            split.prob(&ctx, t(w)).to_bits(),
                            whole.prob(&ctx, t(w)).to_bits(),
                            "order {order} ctx {ctx:?} w {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn entity_score_is_length_normalized() {
        let lm = toy_lm(Smoothing::WittenBell);
        let ctx = lm.context(&[t(1)]);
        let s1 = lm.entity_score_from(&ctx, &[t(2)]);
        let s2 = lm.entity_score_from(&ctx, &[t(2), t(3)]);
        // Geometric mean keeps multi-token scores on the same scale:
        // both are ≤ 1 and within a factor, not a power, of each other.
        assert!(s1 > 0.0 && s2 > 0.0);
        assert!(s2 < 1.0 && s1 < 1.0);
    }

    #[test]
    fn entity_score_after_pieces_equals_the_concatenated_context() {
        let lm = toy_lm(Smoothing::AbsoluteDiscount(0.75));
        for (head, tail) in [
            (vec![], vec![]),
            (toks(&[1]), toks(&[2])),
            (toks(&[7, 1]), vec![]),
        ] {
            let whole: Vec<TokenId> = head.iter().chain(&tail).copied().collect();
            for seq in [toks(&[3]), toks(&[2, 3]), toks(&[4, 1, 2])] {
                assert_eq!(
                    lm.entity_score_from(&lm.prefix(&[&head, &tail]), &seq)
                        .to_bits(),
                    lm.entity_score_from(&lm.context(&whole), &seq).to_bits()
                );
            }
        }
    }

    #[test]
    fn observed_continuations_rank_by_count() {
        let lm = toy_lm(Smoothing::WittenBell);
        let cont = lm.context(&[t(1), t(2)]).observed_continuations(10);
        assert_eq!(cont[0].0, t(3));
        assert_eq!(cont[0].1, 2);
        assert_eq!(cont[1].0, t(4));
    }

    #[test]
    fn advance_adds_stepwise_logs() {
        let lm = toy_lm(Smoothing::WittenBell);
        let mut ctx = lm.context(&[t(1)]);
        let lp = ctx.advance(t(2)).ln() + ctx.advance(t(3)).ln();
        let manual = lm.prob(&[t(1)], t(2)).ln() + lm.prob(&[t(1), t(2)], t(3)).ln();
        assert!((lp - manual).abs() < 1e-12);
    }

    #[test]
    fn the_unigram_level_counts_training_volume() {
        let lm = toy_lm(Smoothing::WittenBell);
        assert_eq!(lm.context(&[]).unigram.total, 9.0);
    }

    #[test]
    #[should_panic(expected = "order must be")]
    fn zero_order_is_rejected() {
        NgramLm::new(0, Smoothing::WittenBell, 10);
    }

    #[test]
    #[should_panic(expected = "vocabulary must be")]
    fn a_vocabulary_past_max_vocab_is_rejected() {
        NgramLm::new(2, Smoothing::WittenBell, MAX_VOCAB + 1);
    }

    /// Asserts `back`, decoded from `lm`'s bytes, holds the same arrays and
    /// re-encodes to the same bytes.
    fn assert_same_model(back: &NgramLm, lm: &NgramLm) {
        assert_eq!(
            back.to_bytes(),
            lm.to_bytes(),
            "re-serialization must be canonical"
        );
        assert_eq!(back.tables, lm.tables);
        assert_eq!(back.unigram_index, lm.unigram_index);
        assert_eq!(
            (back.order, back.smoothing, back.vocab_size),
            (lm.order, lm.smoothing, lm.vocab_size)
        );
    }

    #[test]
    fn byte_round_trip_preserves_every_probability() {
        for smoothing in [Smoothing::WittenBell, Smoothing::AbsoluteDiscount(0.75)] {
            let lm = toy_lm(smoothing);
            let back = NgramLm::from_bytes(&lm.to_bytes()).expect("round trip");
            assert_same_model(&back, &lm);
            for ctx in [vec![], vec![t(1)], vec![t(1), t(2)], vec![t(9), t(9)]] {
                for w in 0..8 {
                    assert_eq!(
                        lm.prob(&ctx, t(w)).to_bits(),
                        back.prob(&ctx, t(w)).to_bits(),
                        "prob diverged for ctx {ctx:?} w {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_toy_model_has_a_known_v2_payload() {
        // "1 2 3", "1 2 4", "1 2 3", order 3, vocabulary 8.
        let mut want = header(3).finish();
        want[4] = 0; // Witten-Bell, discount field 0.0
        want[5..13].fill(0);
        want.extend_from_slice(&[
            // Table 0, one context: [] → 1×3, 2×3, 3×2, 4×1.
            1, 3, 1, 2, 0, 2, 0, 1, 0, 0,
            // Table 1, two contexts: [1] (entry 0) → 2×3; [2] (entry 1)
            // → 3×2, 4×1.
            2, 0, 0, 2, 2, 0, 1, 3, 1, 0, 0,
            // Table 2, one context: [1, 2] (entry 0) → 3×2, 4×1.
            1, 0, 1, 3, 1, 0, 0,
        ]);
        assert_eq!(toy_lm(Smoothing::WittenBell).to_bytes(), want);
    }

    #[test]
    fn corrupt_lm_payloads_are_typed_errors() {
        let bytes = toy_lm(Smoothing::WittenBell).to_bytes();
        // Truncations at every byte boundary.
        for cut in 0..bytes.len() {
            assert!(NgramLm::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(NgramLm::from_bytes(&padded).is_err());
        // Invalid header fields.
        let mut zero_order = bytes.clone();
        zero_order[0..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(NgramLm::from_bytes(&zero_order).is_err());
        let mut bad_smoothing = bytes.clone();
        bad_smoothing[4] = 9;
        assert!(NgramLm::from_bytes(&bad_smoothing).is_err());
        let mut bad_discount = toy_lm(Smoothing::AbsoluteDiscount(0.75)).to_bytes();
        bad_discount[5..13].copy_from_slice(&1.5f64.to_bits().to_le_bytes());
        assert!(NgramLm::from_bytes(&bad_discount).is_err());
        // Witten-Bell writes a zero discount field, and reads only that.
        let mut witten_bell_discount = bytes.clone();
        witten_bell_discount[5..13].copy_from_slice(&0.5f64.to_bits().to_le_bytes());
        assert!(NgramLm::from_bytes(&witten_bell_discount).is_err());
        // A vocabulary past `MAX_VOCAB` is rejected before the index for it
        // is allocated.
        let mut huge_vocab = bytes.clone();
        huge_vocab[13..21].copy_from_slice(&(MAX_VOCAB as u64 + 1).to_le_bytes());
        assert!(matches!(
            NgramLm::from_bytes(&huge_vocab),
            Err(UltraError::Corrupt(_))
        ));
    }

    /// Decodes an order-2 payload whose tables are the varints `fields`
    /// after the header, spliced with `raw` bytes at field index `at`.
    fn decode_fields(fields: &[u64], raw: Option<(usize, &[u8])>) -> ultra_core::Result<NgramLm> {
        let mut w = header(2);
        for (i, &f) in fields.iter().enumerate() {
            match raw {
                Some((at, bytes)) if at == i => w.bytes(bytes),
                _ => w.varint(f),
            }
        }
        NgramLm::from_bytes(&w.finish())
    }

    #[test]
    fn each_decoder_check_is_a_typed_error() {
        // Table 0: one context, run [(1, 2), (3, 1)]. Table 1: one context
        // extending entry 1 (token 3), run [(2, 1)].
        let valid = [1, 1, 1, 1, 1, 0, 1, 1, 0, 2, 0];
        let lm = decode_fields(&valid, None).expect("valid payload");
        assert_eq!(lm.context(&[t(3)]).depth, 1, "[3] is a context");
        let message = |fields: &[u64], raw: Option<(usize, &[u8])>| match decode_fields(fields, raw)
        {
            Err(UltraError::Corrupt(msg)) => msg,
            other => panic!("{fields:?} {raw:?}: expected a Corrupt error, got {other:?}"),
        };
        let with = |at: usize, v: u64| {
            let mut f = valid.to_vec();
            f[at] = v;
            f
        };
        // Truncation (every cut is covered above), and trailing bytes.
        assert!(message(&valid[..10], None).contains("remaining"));
        assert!(message(&[&valid[..], &[0]].concat(), None).contains("trailing"));
        // Over-long varints: a count of 1 in two bytes, the context count
        // of 1 in two bytes.
        assert!(message(&valid, Some((3, &[0x80, 0x00]))).contains("over-long"));
        assert!(message(&valid, Some((0, &[0x81, 0x00]))).contains("over-long"));
        // Overflowing varints: ten bytes with bits past the 64th, eleven
        // bytes.
        let past_64 = [&[0xFF; 9][..], &[0x02]].concat();
        assert!(message(&valid, Some((2, &past_64))).contains("overflows"));
        let eleven = [&[0x80; 10][..], &[0x01]].concat();
        assert!(message(&valid, Some((4, &eleven))).contains("overflows"));
        // A link past the parent's two entries.
        assert!(message(&with(7, 2), None).contains("links past"));
        // Two unigram contexts.
        assert!(message(&with(0, 2), None).contains("unigram contexts"));
        // A token at the vocabulary size: gap 6 after token 1 is token 8.
        assert!(message(&with(4, 6), None).contains("outside a vocabulary"));
        assert!(message(&with(2, 8), None).contains("outside a vocabulary"));
        // A count past `u32::MAX`.
        assert!(message(&with(3, u64::from(u32::MAX)), None).contains("count"));
        assert!(decode_fields(&with(3, u64::from(u32::MAX) - 1), None).is_ok());
        // A table past `u32::MAX` continuations, caught before the bytes
        // for them are sought; an empty run's length − 1, written as
        // `to_bytes` writes it, wraps to a run of 2^64 entries.
        assert!(message(&with(1, u64::from(u32::MAX)), None).contains("continuations"));
        assert!(message(&with(1, u64::MAX), None).contains("continuations"));
    }

    #[test]
    fn no_payload_holds_an_empty_run() {
        // A context whose run is empty has total 0, and every probability
        // through it is 0/0. v2 writes a run's length − 1, so a naive
        // writer's empty run is a run of 2^64 entries, which the decoder
        // rejects. Here the run of [1] is empty.
        let empty: &[(u32, u32)] = &[];
        let bytes = payload(&[&[(&[], &[(1, 1), (2, 1)])], &[(&[1], empty)]]);
        assert!(matches!(
            NgramLm::from_bytes(&bytes),
            Err(UltraError::Corrupt(msg)) if msg.contains("continuations")
        ));
        // With the run [(2, 1)], the payload ends in [1]'s link, its run
        // length − 1, a token gap and a count − 1. Of every value of the
        // run-length byte, only 0 decodes, and to a model whose totals are
        // positive and whose probabilities through [1] are finite.
        let valid = payload(&[&[(&[], &[(1, 1), (2, 1)])], &[(&[1], &[(2, 1)])]]);
        let at = valid.len() - 3;
        for v in 0..=u8::MAX {
            let mut probe = valid.clone();
            probe[at] = v;
            let Ok(lm) = NgramLm::from_bytes(&probe) else {
                continue;
            };
            assert_eq!(v, 0);
            assert!(lm.tables.iter().all(|t| t.totals.iter().all(|&n| n > 0)));
            for w in 0..8 {
                assert!(lm.prob(&[t(1)], t(w)).is_finite(), "token {w}");
            }
        }
    }

    #[test]
    fn a_longer_suffix_without_its_shorter_one_still_counts() {
        // Training always records a context's shorter suffixes too, but a
        // snapshot need not: table 2 holds [5, 6] while table 1 lacks [6].
        // The payload is prefix-closed ([5] → 6 and [] → 5 are entries),
        // which is all a v2 payload can express. The recursion skips the
        // missing level and still applies [5, 6]; the stepped chain must do
        // the same.
        let tables: &[Contexts<'_>] = &[
            &[(&[], &[(1, 2), (2, 1), (3, 1), (5, 1)])],
            &[(&[2], &[(3, 1)]), (&[5], &[(6, 1)])],
            &[(&[5, 6], &[(1, 4)])],
        ];
        let lm = NgramLm::from_bytes(&payload(tables)).expect("valid payload");
        let reference = Reference::with_keys(&lm, keys_of(tables));
        let ctx = toks(&[5, 6]);
        let resolved = lm.context(&ctx);
        assert_eq!(resolved.depth, 1);
        assert_eq!(level_ids(&resolved), level_ids(&reference.resolve(&ctx)));
        for tok in 0..8 {
            assert_eq!(
                lm.prob(&ctx, t(tok)).to_bits(),
                reference.prob(&ctx, t(tok)).to_bits()
            );
        }
        assert!(lm.prob(&ctx, t(1)) > lm.prob(&[t(6)], t(1)));
    }

    #[test]
    fn a_context_without_its_prefix_is_a_typed_error() {
        // A v2 context is the parent entry it extends, so a context whose
        // prefix lacks its last token can only be written as a link past
        // the parent's entries.
        for broken in [
            // Table 2 holds [5, 6], but table 1 lacks [5] (and table 0 lacks
            // the entry 2 of [2]).
            payload(&[
                &[(&[], &[(1, 2), (3, 1)])],
                &[(&[2], &[(3, 1)])],
                &[(&[5, 6], &[(1, 4)])],
            ]),
            // Only [5, 6] lacks its prefix.
            payload(&[
                &[(&[], &[(1, 2), (2, 1), (3, 1), (5, 1)])],
                &[(&[2], &[(3, 1)])],
                &[(&[5, 6], &[(1, 4)])],
            ]),
            // [5] is stored, but 6 is not in its run.
            payload(&[
                &[(&[], &[(1, 2), (2, 1), (3, 1), (5, 1)])],
                &[(&[2], &[(3, 1)]), (&[5], &[(7, 1)])],
                &[(&[5, 6], &[(1, 4)])],
            ]),
            // A unigram context without a unigram table entry.
            payload(&[&[], &[(&[2], &[(3, 1)])]]),
        ] {
            assert!(matches!(
                NgramLm::from_bytes(&broken),
                Err(UltraError::Corrupt(msg)) if msg.contains("links past")
            ));
        }
    }

    proptest! {
        #[test]
        fn batched_scoring_matches_the_recursion_bit_for_bit(
            docs in prop::collection::vec(prop::collection::vec(0u32..24, 0..14), 0..10),
            order in 1usize..7,
            family in 0u8..2,
            discount in 0.05f64..0.95,
            ctx in prop::collection::vec(0u32..32, 0..8),
            ctx_doc in 0usize..16,
            probe in prop::collection::vec(0u32..32, 0..40),
        ) {
            // Vocabulary 32, corpus over 0..24: tokens 24..32 are never
            // seen, and contexts that mention them are never observed. An
            // empty document list leaves the LM untrained.
            let mut lm = NgramLm::new(order, family_smoothing(family, discount), 32);
            let docs: Vec<Vec<TokenId>> = docs.iter().map(|d| toks(d)).collect();
            lm.train(docs.iter().map(Vec::as_slice));
            // Half the time the context is a training document's prefix, so
            // every suffix length is observed.
            let ctx = match docs.get(ctx_doc) {
                Some(doc) => doc[..doc.len().min(ctx.len())].to_vec(),
                None => toks(&ctx),
            };
            let reference = lm.reference(&docs);
            let resolved = lm.context(&ctx);
            let mut sorted = toks(&probe);
            sorted.sort_unstable();
            for (&w, p) in sorted.iter().zip(resolved.sorted_probs(sorted.iter().copied())) {
                prop_assert_eq!(p.to_bits(), reference.prob(&ctx, w).to_bits());
            }
            // Unsorted input restarts the merge instead of going wrong.
            let unsorted = toks(&probe);
            for (&w, p) in unsorted.iter().zip(resolved.sorted_probs(unsorted.iter().copied())) {
                prop_assert_eq!(p.to_bits(), reference.prob(&ctx, w).to_bits());
            }
            for w in 0..32 {
                prop_assert_eq!(
                    lm.prob(&ctx, t(w)).to_bits(),
                    reference.prob(&ctx, t(w)).to_bits()
                );
            }
            for limit in [0usize, 1, 3, 40] {
                prop_assert_eq!(
                    resolved.observed_continuations(limit),
                    reference.observed_continuations(&ctx, limit)
                );
            }
        }

        #[test]
        fn prefix_scoring_matches_the_recursion_bit_for_bit(
            docs in prop::collection::vec(prop::collection::vec(0u32..24, 0..14), 0..10),
            order in 1usize..7,
            family in 0u8..2,
            discount in 0.05f64..0.95,
            pieces in prop::collection::vec(prop::collection::vec(0u32..32, 0..5), 0..4),
            seqs in prop::collection::vec(prop::collection::vec(0u32..32, 0..6), 1..6),
            seq_doc in 0usize..16,
        ) {
            // As above: tokens 24..32 are unseen, and no documents leave the
            // LM untrained. Sequences may be empty or unseen; one of them is
            // a training document's prefix half the time, so its suffixes
            // are observed.
            let mut lm = NgramLm::new(order, family_smoothing(family, discount), 32);
            let docs: Vec<Vec<TokenId>> = docs.iter().map(|d| toks(d)).collect();
            lm.train(docs.iter().map(Vec::as_slice));
            let pieces: Vec<Vec<TokenId>> = pieces.iter().map(|p| toks(p)).collect();
            let slices: Vec<&[TokenId]> = pieces.iter().map(Vec::as_slice).collect();
            let whole: Vec<TokenId> = pieces.concat();
            let mut seqs: Vec<Vec<TokenId>> = seqs.iter().map(|s| toks(s)).collect();
            if let Some(doc) = docs.get(seq_doc) {
                seqs.push(doc[..doc.len().min(6)].to_vec());
            }
            let prefix = lm.prefix(&slices);
            let reference = lm.reference(&docs);
            for seq in &seqs {
                let want = reference.entity_score(&whole, seq).to_bits();
                prop_assert_eq!(lm.entity_score_from(&prefix, seq).to_bits(), want);
                prop_assert_eq!(
                    lm.entity_score_from(&lm.context(&whole), seq).to_bits(),
                    want
                );
            }
        }

        #[test]
        fn stepping_finds_the_suffixes_a_search_finds(
            docs in prop::collection::vec(prop::collection::vec(0u32..24, 0..14), 0..10),
            order in 1usize..7,
            family in 0u8..2,
            discount in 0.05f64..0.95,
            seq in prop::collection::vec(0u32..32, 0..12),
            seq_doc in 0usize..16,
            reload in 0u8..2,
        ) {
            // As above: tokens 24..32 are unseen, and no documents leave the
            // LM untrained. Half the time the sequence is a training
            // document, so long suffixes are observed; sequences run past
            // `order - 1` tokens. Half the time the model is reloaded, so
            // the links are the ones the load pass builds.
            let mut lm = NgramLm::new(order, family_smoothing(family, discount), 32);
            let docs: Vec<Vec<TokenId>> = docs.iter().map(|d| toks(d)).collect();
            lm.train(docs.iter().map(Vec::as_slice));
            if reload == 1 {
                lm = NgramLm::from_bytes(&lm.to_bytes()).expect("round trip");
            }
            let seq = match docs.get(seq_doc) {
                Some(doc) => doc.clone(),
                None => toks(&seq),
            };
            let reference = lm.reference(&docs);
            let mut stepped = lm.context(&[]);
            for i in 0..=seq.len() {
                let want = level_ids(&reference.resolve(&seq[..i]));
                prop_assert_eq!(level_ids(&lm.context(&seq[..i])), want.clone());
                prop_assert_eq!(level_ids(&stepped), want);
                if let Some(&w) = seq.get(i) {
                    let p = stepped.advance(w);
                    prop_assert_eq!(p.to_bits(), reference.prob(&seq[..i], w).to_bits());
                }
            }
        }

        #[test]
        fn a_loaded_model_is_the_trained_one(
            first in prop::collection::vec(prop::collection::vec(0u32..24, 0..14), 0..10),
            second in prop::collection::vec(prop::collection::vec(0u32..24, 0..14), 0..10),
            train_twice in 0u8..2,
            order in 1usize..6,
            family in 0u8..2,
            discount in 0.05f64..0.95,
            ctx in prop::collection::vec(0u32..32, 0..6),
        ) {
            // One or two `train` calls; tokens 24..32 are unseen.
            let mut lm = NgramLm::new(order, family_smoothing(family, discount), 32);
            let first: Vec<Vec<TokenId>> = first.iter().map(|d| toks(d)).collect();
            let second: Vec<Vec<TokenId>> = second.iter().map(|d| toks(d)).collect();
            lm.train(first.iter().map(Vec::as_slice));
            if train_twice == 1 {
                lm.train(second.iter().map(Vec::as_slice));
            }
            let bytes = lm.to_bytes();
            let back = NgramLm::from_bytes(&bytes).expect("round trip");
            prop_assert_eq!(back.to_bytes(), bytes);
            prop_assert_eq!(&back.tables, &lm.tables);
            prop_assert_eq!(&back.unigram_index, &lm.unigram_index);
            let ctx = toks(&ctx);
            for w in 0..32 {
                prop_assert_eq!(back.prob(&ctx, t(w)).to_bits(), lm.prob(&ctx, t(w)).to_bits());
            }
        }
    }
}
