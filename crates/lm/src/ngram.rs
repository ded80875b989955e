//! Interpolated back-off n-gram language model.
//!
//! Counts live in one `Table` per context length: the observed contexts
//! in lexicographic key order, each with its continuations as a
//! token-sorted `(token, count)` run — the layout the NGLM snapshot section
//! serializes. Every run entry also links to the one-token-longer context
//! it extends to, and the unigram run is indexed by token, so an
//! [`LmContext`] moves one token along by following links instead of
//! searching the tables (DESIGN.md §6, "Suffix-linked contexts"). A batch
//! of ascending tokens scored against one context costs one forward merge
//! per back-off level (DESIGN.md §6, "GenExpan decode kernel").

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
#[derive(Clone, Debug)]
struct Table {
    /// Context length.
    k: usize,
    /// The contexts' keys, `k` tokens each, concatenated.
    keys: Vec<u32>,
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
            keys: Vec::with_capacity(contexts * k),
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

    #[inline]
    fn key(&self, c: usize) -> &[u32] {
        &self.keys[c * self.k..(c + 1) * self.k]
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

    /// Appends a context after every stored one; keys must arrive in
    /// increasing order and `run` must be token-sorted.
    fn push(&mut self, key: &[u32], run: &[(u32, u32)]) {
        self.keys.extend_from_slice(key);
        self.totals
            .push(run.iter().map(|&(_, n)| u64::from(n)).sum());
        self.conts.extend_from_slice(run);
        assert!(
            self.conts.len() <= u32::MAX as usize,
            "a table holds at most u32::MAX continuations"
        );
        self.starts.push(self.conts.len() as u32);
    }

    /// The counts of `grams`, sorted `(k + 1)`-grams: each one's first `k`
    /// tokens are the context, its last token the continuation.
    fn from_sorted_grams(k: usize, grams: &[&[TokenId]]) -> Self {
        let mut table = Table::with_capacity(k, 0);
        let mut key: Vec<u32> = Vec::with_capacity(k);
        let mut run: Vec<(u32, u32)> = Vec::new();
        for same_ctx in grams.chunk_by(|a, b| a[..k] == b[..k]) {
            run.clear();
            for same in same_ctx.chunk_by(|a, b| a[k] == b[k]) {
                run.push((same[0][k].0, same.len() as u32));
            }
            key.clear();
            key.extend(same_ctx[0][..k].iter().map(|t| t.0));
            table.push(&key, &run);
        }
        table
    }

    /// Adds `other`'s counts to this table's: a merge of the two sorted
    /// context lists, and of the two runs of every shared context.
    fn merge(&mut self, other: Table) {
        if other.len() == 0 {
            return;
        }
        if self.len() == 0 {
            *self = other;
            return;
        }
        let mut out = Table::with_capacity(self.k, self.len().max(other.len()));
        let mut run: Vec<(u32, u32)> = Vec::new();
        let (mut a, mut b) = (0, 0);
        while a < self.len() || b < other.len() {
            let ord = if a == self.len() {
                Ordering::Greater
            } else if b == other.len() {
                Ordering::Less
            } else {
                self.key(a).cmp(other.key(b))
            };
            match ord {
                Ordering::Less => {
                    out.push(self.key(a), self.run(a));
                    a += 1;
                }
                Ordering::Greater => {
                    out.push(other.key(b), other.run(b));
                    b += 1;
                }
                Ordering::Equal => {
                    run.clear();
                    merge_runs(self.run(a), other.run(b), &mut run);
                    out.push(self.key(a), &run);
                    a += 1;
                    b += 1;
                }
            }
        }
        *self = out;
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

/// Links the contexts of one table to their parent entries in the table
/// before it. Contexts arrive in increasing key order, and the parent's
/// entries are in `(key, token)` order, so every link is a step of one
/// forward merge.
#[derive(Default)]
struct Linker {
    /// The parent context the merge stands at.
    c: usize,
    /// The parent run entry the merge stands at.
    e: usize,
}

impl Linker {
    /// Points `parent`'s entry for `key` — token `key[k]` of context
    /// `key[..k]`, where `k = parent.k` — at context `child` of the next
    /// table. False if `parent` has no such entry.
    fn link(&mut self, parent: &mut Table, key: &[u32], child: u32) -> bool {
        let Some((&t, prefix)) = key.split_last() else {
            return false;
        };
        while self.c < parent.len() && parent.key(self.c) < prefix {
            self.c += 1;
        }
        if self.c == parent.len() || parent.key(self.c) != prefix {
            return false;
        }
        let span = parent.span(self.c);
        self.e = self.e.max(span.start);
        while self.e < span.end && parent.conts[self.e].0 < t {
            self.e += 1;
        }
        if self.e == span.end || parent.conts[self.e].0 != t {
            return false;
        }
        parent.next[self.e] = child;
        true
    }
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
    /// `k`, for each `k < order`.
    pub fn train<'a, I>(&mut self, docs: I)
    where
        I: IntoIterator<Item = &'a [TokenId]>,
    {
        let docs: Vec<&[TokenId]> = docs.into_iter().collect();
        for (k, table) in self.tables.iter_mut().enumerate() {
            let mut grams: Vec<&[TokenId]> = docs.iter().flat_map(|d| d.windows(k + 1)).collect();
            grams.sort_unstable();
            table.merge(Table::from_sorted_grams(k, &grams));
        }
        self.build_links();
    }

    /// Rebuilds every table's links and the unigram index from the counts.
    fn build_links(&mut self) {
        for k in 1..self.order {
            let (lower, upper) = self.tables.split_at_mut(k);
            let (parent, child) = (&mut lower[k - 1], &upper[0]);
            parent.next = vec![NO_LINK; parent.conts.len()];
            let mut linker = Linker::default();
            for c in 0..child.len() {
                // The first `k` tokens of a counted `(k + 1)`-gram are a
                // counted `k`-gram: trained tables are prefix-closed.
                let linked = linker.link(parent, child.key(c), c as u32);
                debug_assert!(linked, "trained context without its parent entry");
            }
        }
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

    /// Serializes the count tables in canonical form: for every table the
    /// contexts are emitted in lexicographic key order and every context's
    /// continuation counts in ascending token order — the order they are
    /// stored in — so two identically trained models produce byte-identical
    /// output regardless of training history. Links and the unigram index
    /// are derived, and not written.
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
        for table in &self.tables {
            w.u64(table.len() as u64);
            for c in 0..table.len() {
                let key = table.key(c);
                w.u32(key.len() as u32);
                for &tok in key {
                    w.u32(tok);
                }
                w.u64(table.totals[c]);
                let run = table.run(c);
                w.u32(run.len() as u32);
                for &(tok, count) in run {
                    w.u32(tok);
                    w.u32(count);
                }
            }
        }
        w.finish()
    }

    /// Strict inverse of [`to_bytes`](Self::to_bytes). Validates every
    /// invariant [`new`](Self::new) asserts (order in `1..=MAX_ORDER`,
    /// vocab in `1..=MAX_VOCAB`, discount in `(0,1)`) *before*
    /// construction, plus canonical ordering (strictly increasing contexts
    /// and tokens — rejecting duplicates and reorderings),
    /// context-length/table agreement, count/total consistency, table sizes
    /// that fit `u32`, and prefix closure (every context of length `k + 1`
    /// is an entry of its first `k` tokens' run), all as typed errors. The
    /// links are built in the same pass.
    pub fn from_bytes(bytes: &[u8]) -> ultra_core::Result<Self> {
        let corrupt = |msg: String| UltraError::Corrupt(format!("ngram-lm: {msg}"));
        let mut r = ByteReader::new(bytes, "ngram-lm");
        let order = r.u32()? as usize;
        if order == 0 || order > MAX_ORDER {
            return Err(corrupt(format!("order {order} outside 1..={MAX_ORDER}")));
        }
        let smoothing = match (r.u8()?, r.f64()?) {
            (0, _) => Smoothing::WittenBell,
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
        let mut key: Vec<u32> = Vec::with_capacity(order);
        let mut run: Vec<(u32, u32)> = Vec::new();
        for k in 0..order {
            let declared = r.u64()?;
            // A context entry is at least key-len + total + count-len bytes.
            let n = r.check_count(declared, 16, "contexts")?;
            if n > u32::MAX as usize {
                return Err(corrupt(format!("table {k} holds {n} contexts")));
            }
            let mut table = Table::with_capacity(k, n);
            let mut linker = Linker::default();
            for c in 0..n {
                let key_len = r.u32()? as usize;
                if key_len != k {
                    return Err(corrupt(format!(
                        "table {k} context has key length {key_len}"
                    )));
                }
                key.clear();
                for _ in 0..key_len {
                    key.push(r.u32()?);
                }
                if c > 0 && table.key(c - 1) >= key.as_slice() {
                    return Err(corrupt(format!(
                        "table {k} contexts not strictly increasing"
                    )));
                }
                if let Some(parent) = tables.last_mut() {
                    if !linker.link(parent, &key, c as u32) {
                        return Err(corrupt(format!(
                            "table {k} context {key:?} is no entry of table {}",
                            k - 1
                        )));
                    }
                }
                let total = r.u64()?;
                let declared_types = u64::from(r.u32()?);
                let type_count = r.check_count(declared_types, 8, "continuations")?;
                if table.conts.len() + type_count > u32::MAX as usize {
                    return Err(corrupt(format!(
                        "table {k} holds more than {} continuations",
                        u32::MAX
                    )));
                }
                run.clear();
                let mut sum = 0u64;
                for _ in 0..type_count {
                    let tok = r.u32()?;
                    if run.last().is_some_and(|&(prev, _)| prev >= tok) {
                        return Err(corrupt(format!(
                            "table {k} continuations not strictly increasing"
                        )));
                    }
                    if u64::from(tok) >= vocab_size {
                        return Err(corrupt(format!("token {tok} outside vocabulary")));
                    }
                    let count = r.u32()?;
                    if count == 0 {
                        return Err(corrupt("zero continuation count".into()));
                    }
                    sum += u64::from(count);
                    run.push((tok, count));
                }
                if sum != total {
                    return Err(corrupt(format!(
                        "context total {total} disagrees with summed counts {sum}"
                    )));
                }
                table.push(&key, &run);
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

#[cfg(test)]
impl Table {
    /// Binary search for the context `key` (`key.len() == k`).
    fn find(&self, key: &[u32]) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp(key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }
}

#[cfg(test)]
impl NgramLm {
    /// Reference [`NgramLm::context`]: one binary search of its table per
    /// suffix length of the context's last `order - 1` tokens.
    pub(crate) fn resolve_reference(&self, context: &[TokenId]) -> LmContext<'_> {
        let keep = context.len().min(self.order - 1);
        let toks: Vec<u32> = context[context.len() - keep..]
            .iter()
            .map(|t| t.0)
            .collect();
        let mut ctx = self.root();
        for len in 1..=toks.len() {
            let table = &self.tables[len];
            if let Some(c) = table.find(&toks[toks.len() - len..]) {
                ctx.suffixes[ctx.depth] = table.level(c);
                ctx.depth += 1;
            }
        }
        ctx
    }

    /// Reference `P(next | context)`: the back-off recursion that
    /// [`LmContext`] unrolls, with one context search and one count search
    /// per level and token.
    pub(crate) fn prob_reference(&self, context: &[TokenId], next: TokenId) -> f64 {
        let keep = context.len().min(self.order - 1);
        let ctx: Vec<u32> = context[context.len() - keep..]
            .iter()
            .map(|t| t.0)
            .collect();
        self.prob_rec(&ctx, next.0)
    }

    fn prob_rec(&self, ctx: &[u32], w: u32) -> f64 {
        let count_of = |table: &Table, c: usize| {
            let run = table.run(c);
            run.binary_search_by_key(&w, |e| e.0)
                .map_or(0.0, |i| run[i].1 as f64)
        };
        if ctx.is_empty() {
            // Add-one-smoothed unigram floor.
            let uni = &self.tables[0];
            let (count, total) = match uni.find(&[]) {
                Some(c) => (count_of(uni, c), uni.totals[c] as f64),
                None => (0.0, 0.0),
            };
            return (count + 1.0) / (total + self.vocab_size as f64);
        }
        let table = &self.tables[ctx.len()];
        match table.find(ctx) {
            None => self.prob_rec(&ctx[1..], w),
            Some(c) => {
                let count = count_of(table, c);
                let total = table.totals[c] as f64;
                let types = table.run(c).len() as f64;
                let backoff = self.prob_rec(&ctx[1..], w);
                match self.smoothing {
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
    pub(crate) fn entity_score_reference(&self, context: &[TokenId], seq: &[TokenId]) -> f64 {
        if seq.is_empty() {
            return 0.0;
        }
        let mut ctx = context.to_vec();
        let mut lp = 0.0f64;
        for &t in seq {
            lp += self.prob_reference(&ctx, t).max(1e-300).ln();
            ctx.push(t);
        }
        (lp / seq.len() as f64).exp()
    }

    /// Reference [`LmContext::observed_continuations`]: one context search
    /// per level and a set of the tokens emitted so far.
    pub(crate) fn observed_continuations_reference(
        &self,
        context: &[TokenId],
        limit: usize,
    ) -> Vec<(TokenId, u32)> {
        let keep = context.len().min(self.order - 1);
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
            let table = &self.tables[ctx.len()];
            if let Some(c) = table.find(ctx) {
                let mut level: Vec<(TokenId, u32)> = table
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

    /// An NGLM payload (absolute discounting, `d = 0.5`, vocabulary 8)
    /// holding `tables` as given, totals summed from the runs.
    fn payload(tables: &[Contexts<'_>]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(tables.len() as u32);
        w.u8(1);
        w.f64(0.5);
        w.u64(8);
        for table in tables {
            w.u64(table.len() as u64);
            for &(key, run) in table.iter() {
                w.u32(key.len() as u32);
                for &tok in key {
                    w.u32(tok);
                }
                w.u64(run.iter().map(|&(_, n)| u64::from(n)).sum());
                w.u32(run.len() as u32);
                for &(tok, n) in run {
                    w.u32(tok);
                    w.u32(n);
                }
            }
        }
        w.finish()
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

    #[test]
    fn byte_round_trip_preserves_every_probability() {
        for smoothing in [Smoothing::WittenBell, Smoothing::AbsoluteDiscount(0.75)] {
            let lm = toy_lm(smoothing);
            let bytes = lm.to_bytes();
            let back = NgramLm::from_bytes(&bytes).expect("round trip");
            assert_eq!(back.to_bytes(), bytes, "re-serialization must be canonical");
            for ctx in [vec![], vec![t(1)], vec![t(1), t(2)], vec![t(9), t(9)]] {
                for w in 0..8 {
                    assert_eq!(
                        lm.prob(&ctx, t(w)).to_bits(),
                        back.prob(&ctx, t(w)).to_bits(),
                        "prob diverged for ctx {ctx:?} w {w}"
                    );
                }
            }
            // The load pass builds the links and the index training builds.
            assert_eq!(back.unigram_index, lm.unigram_index);
            for (a, b) in back.tables.iter().zip(&lm.tables) {
                assert_eq!((&a.starts, &a.next), (&b.starts, &b.next));
            }
        }
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
        // A vocabulary past `MAX_VOCAB` is rejected before the index for it
        // is allocated.
        let mut huge_vocab = bytes.clone();
        huge_vocab[13..21].copy_from_slice(&(MAX_VOCAB as u64 + 1).to_le_bytes());
        assert!(matches!(
            NgramLm::from_bytes(&huge_vocab),
            Err(UltraError::Corrupt(_))
        ));
    }

    #[test]
    fn a_longer_suffix_without_its_shorter_one_still_counts() {
        // Training always records a context's shorter suffixes too, but a
        // snapshot need not: table 2 holds [5, 6] while table 1 lacks [6].
        // The payload is prefix-closed ([5] → 6 and [] → 5 are entries), so
        // the loader accepts it. The recursion skips the missing level and
        // still applies [5, 6]; the stepped chain must do the same.
        let lm = NgramLm::from_bytes(&payload(&[
            &[(&[], &[(1, 2), (2, 1), (3, 1), (5, 1)])],
            &[(&[2], &[(3, 1)]), (&[5], &[(6, 1)])],
            &[(&[5, 6], &[(1, 4)])],
        ]))
        .expect("valid payload");
        let ctx = toks(&[5, 6]);
        let resolved = lm.context(&ctx);
        assert_eq!(resolved.depth, 1);
        assert_eq!(level_ids(&resolved), level_ids(&lm.resolve_reference(&ctx)));
        for tok in 0..8 {
            assert_eq!(
                lm.prob(&ctx, t(tok)).to_bits(),
                lm.prob_reference(&ctx, t(tok)).to_bits()
            );
        }
        assert!(lm.prob(&ctx, t(1)) > lm.prob(&[t(6)], t(1)));
    }

    #[test]
    fn a_context_without_its_prefix_is_a_typed_error() {
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
                Err(UltraError::Corrupt(_))
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
            let resolved = lm.context(&ctx);
            let mut sorted = toks(&probe);
            sorted.sort_unstable();
            for (&w, p) in sorted.iter().zip(resolved.sorted_probs(sorted.iter().copied())) {
                prop_assert_eq!(p.to_bits(), lm.prob_reference(&ctx, w).to_bits());
            }
            // Unsorted input restarts the merge instead of going wrong.
            let unsorted = toks(&probe);
            for (&w, p) in unsorted.iter().zip(resolved.sorted_probs(unsorted.iter().copied())) {
                prop_assert_eq!(p.to_bits(), lm.prob_reference(&ctx, w).to_bits());
            }
            for w in 0..32 {
                prop_assert_eq!(
                    lm.prob(&ctx, t(w)).to_bits(),
                    lm.prob_reference(&ctx, t(w)).to_bits()
                );
            }
            for limit in [0usize, 1, 3, 40] {
                prop_assert_eq!(
                    resolved.observed_continuations(limit),
                    lm.observed_continuations_reference(&ctx, limit)
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
            for seq in &seqs {
                let want = lm.entity_score_reference(&whole, seq).to_bits();
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
            let mut stepped = lm.context(&[]);
            for i in 0..=seq.len() {
                let want = level_ids(&lm.resolve_reference(&seq[..i]));
                prop_assert_eq!(level_ids(&lm.context(&seq[..i])), want.clone());
                prop_assert_eq!(level_ids(&stepped), want);
                if let Some(&w) = seq.get(i) {
                    let p = stepped.advance(w);
                    prop_assert_eq!(p.to_bits(), lm.prob_reference(&seq[..i], w).to_bits());
                }
            }
        }
    }
}
