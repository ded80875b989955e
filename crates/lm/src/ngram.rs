//! Interpolated back-off n-gram language model.
//!
//! Counts live in one [`Table`] per context length: the observed contexts
//! in lexicographic key order, each with its continuations as a
//! token-sorted `(token, count)` run — the layout the NGLM snapshot section
//! serializes. Scoring resolves a context's back-off chain once into an
//! [`LmContext`] and then scores any number of tokens against it; a batch
//! of ascending tokens costs one forward merge per back-off level (DESIGN.md
//! §6, "GenExpan decode kernel").

use std::cmp::Ordering;
use ultra_core::{ByteReader, ByteWriter, TokenId, UltraError};

/// Largest supported model order; the NGLM section rejects larger ones.
pub const MAX_ORDER: usize = 16;

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
    starts: Vec<usize>,
    /// One token-sorted `(token, count)` run per context, concatenated.
    conts: Vec<(u32, u32)>,
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

    #[inline]
    fn run(&self, c: usize) -> &[(u32, u32)] {
        &self.conts[self.starts[c]..self.starts[c + 1]]
    }

    /// Context `c`'s run and the statistics the smoothing expressions read.
    fn level(&self, c: usize) -> Level<'_> {
        let run = self.run(c);
        Level {
            run,
            total: self.totals[c] as f64,
            types: run.len() as f64,
        }
    }

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

    /// Appends a context after every stored one; keys must arrive in
    /// increasing order and `run` must be token-sorted.
    fn push(&mut self, key: &[u32], run: &[(u32, u32)]) {
        self.keys.extend_from_slice(key);
        self.totals
            .push(run.iter().map(|&(_, n)| u64::from(n)).sum());
        self.conts.extend_from_slice(run);
        self.starts.push(self.conts.len());
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
    vocab_size: usize,
}

impl NgramLm {
    /// Creates an untrained LM.
    ///
    /// `vocab_size` bounds the uniform floor of the unigram distribution;
    /// pass the interned vocabulary size.
    pub fn new(order: usize, smoothing: Smoothing, vocab_size: usize) -> Self {
        assert!(
            (1..=MAX_ORDER).contains(&order),
            "order must be at least 1 and at most {MAX_ORDER}"
        );
        assert!(vocab_size > 0, "vocabulary must be non-empty");
        if let Smoothing::AbsoluteDiscount(d) = smoothing {
            assert!((0.0..1.0).contains(&d), "discount must be in (0,1)");
        }
        Self {
            order,
            smoothing,
            tables: (0..order).map(|k| Table::with_capacity(k, 0)).collect(),
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
    }

    /// Total observed unigram tokens (diagnostic).
    pub fn tokens_seen(&self) -> u64 {
        let uni = &self.tables[0];
        uni.find(&[]).map_or(0, |c| uni.totals[c])
    }

    /// Resolves the back-off chain of `context` (its last `order - 1`
    /// tokens; unseen suffixes back off transparently) for scoring any
    /// number of next tokens.
    pub fn context(&self, context: &[TokenId]) -> LmContext<'_> {
        let mut window = Window::new(self.order);
        window.extend(context);
        self.resolve(&window)
    }

    fn resolve(&self, window: &Window) -> LmContext<'_> {
        let uni = &self.tables[0];
        let mut ctx = LmContext {
            smoothing: self.smoothing,
            vocab: self.vocab_size as f64,
            unigram: uni.find(&[]).map_or(Level::EMPTY, |c| uni.level(c)),
            suffixes: [Level::EMPTY; MAX_ORDER - 1],
            depth: 0,
        };
        let toks = window.tokens();
        for len in 1..=toks.len() {
            let table = &self.tables[len];
            if let Some(c) = table.find(&toks[toks.len() - len..]) {
                ctx.suffixes[ctx.depth] = table.level(c);
                ctx.depth += 1;
            }
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

    /// Resolves a context given as consecutive pieces — GenExpan's template
    /// `f(e)` is a name followed by the list separator — without
    /// concatenating them. Every sequence scored after the returned prefix
    /// reads its first token's back-off chain from it instead of searching
    /// the tables again.
    pub fn prefix(&self, pieces: &[&[TokenId]]) -> LmPrefix<'_> {
        let mut window = Window::new(self.order);
        for piece in pieces {
            window.extend(piece);
        }
        LmPrefix {
            first: self.resolve(&window),
            window,
        }
    }

    /// Log-probability of a token sequence continuing `context`.
    pub fn logprob_seq(&self, context: &[TokenId], seq: &[TokenId]) -> f64 {
        self.logprob_from(&self.prefix(&[context]), seq)
    }

    /// [`logprob_seq`](Self::logprob_seq) after a resolved prefix of this
    /// model: the one scoring loop behind every sequence score.
    fn logprob_from(&self, prefix: &LmPrefix<'_>, seq: &[TokenId]) -> f64 {
        let Some((&first, rest)) = seq.split_first() else {
            return 0.0;
        };
        let mut lp = 0.0f64;
        lp += prefix.first.prob(first).max(1e-300).ln();
        let mut window = prefix.window;
        window.push(first);
        for &t in rest {
            lp += self.resolve(&window).prob(t).max(1e-300).ln();
            window.push(t);
        }
        lp
    }

    /// Eq. 7 scoring primitive: the geometric-mean probability
    /// `P(e'|f(e))^(1/|e'|)` of generating `entity_tokens` after `context`.
    /// The geometric mean "balances the different token numbers of various
    /// entities".
    pub fn entity_score(&self, context: &[TokenId], entity_tokens: &[TokenId]) -> f64 {
        self.entity_score_after(&[context], entity_tokens)
    }

    /// [`entity_score`](Self::entity_score) after a context given as
    /// consecutive pieces (see [`prefix`](Self::prefix)).
    pub fn entity_score_after(&self, context: &[&[TokenId]], entity_tokens: &[TokenId]) -> f64 {
        self.entity_score_from(&self.prefix(context), entity_tokens)
    }

    /// [`entity_score`](Self::entity_score) after a prefix this model
    /// resolved: a template scored against many sequences is resolved once.
    pub fn entity_score_from(&self, prefix: &LmPrefix<'_>, entity_tokens: &[TokenId]) -> f64 {
        if entity_tokens.is_empty() {
            return 0.0;
        }
        (self.logprob_from(prefix, entity_tokens) / entity_tokens.len() as f64).exp()
    }

    /// Serializes the count tables in canonical form: for every table the
    /// contexts are emitted in lexicographic key order and every context's
    /// continuation counts in ascending token order — the order they are
    /// stored in — so two identically trained models produce byte-identical
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
    /// vocab > 0, discount in `(0,1)`) *before* construction, plus canonical
    /// ordering (strictly increasing contexts and tokens — rejecting
    /// duplicates and reorderings), context-length/table agreement, and
    /// count/total consistency, all as typed errors.
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
        if vocab_size == 0 || vocab_size > u32::MAX as u64 {
            return Err(corrupt(format!("vocab size {vocab_size} out of range")));
        }
        let mut tables: Vec<Table> = Vec::with_capacity(order);
        let mut key: Vec<u32> = Vec::with_capacity(order);
        let mut run: Vec<(u32, u32)> = Vec::new();
        for k in 0..order {
            let declared = r.u64()?;
            // A context entry is at least key-len + total + count-len bytes.
            let n = r.check_count(declared, 16, "contexts")?;
            let mut table = Table::with_capacity(k, n);
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
                let total = r.u64()?;
                let declared_types = u64::from(r.u32()?);
                let type_count = r.check_count(declared_types, 8, "continuations")?;
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
            tables.push(table);
        }
        r.expect_end()?;
        Ok(Self {
            order,
            smoothing,
            tables,
            vocab_size: vocab_size as usize,
        })
    }
}

/// The last `order - 1` tokens of a context — all the model conditions
/// on — kept on the stack.
#[derive(Clone, Copy, Debug)]
struct Window {
    toks: [u32; MAX_ORDER - 1],
    len: usize,
    cap: usize,
}

impl Window {
    fn new(order: usize) -> Self {
        Self {
            toks: [0; MAX_ORDER - 1],
            len: 0,
            cap: order - 1,
        }
    }

    fn push(&mut self, t: TokenId) {
        if self.cap == 0 {
            return;
        }
        if self.len == self.cap {
            self.toks.copy_within(1..self.len, 0);
            self.len -= 1;
        }
        self.toks[self.len] = t.0;
        self.len += 1;
    }

    fn extend(&mut self, toks: &[TokenId]) {
        for &t in &toks[toks.len().saturating_sub(self.cap)..] {
            self.push(t);
        }
    }

    fn tokens(&self) -> &[u32] {
        &self.toks[..self.len]
    }
}

/// One observed context: its continuation run and the statistics the
/// smoothing expressions read.
#[derive(Clone, Copy, Debug)]
struct Level<'a> {
    run: &'a [(u32, u32)],
    total: f64,
    types: f64,
}

impl Level<'_> {
    const EMPTY: Level<'static> = Level {
        run: &[],
        total: 0.0,
        types: 0.0,
    };
}

/// A context's back-off chain, resolved once: the unigram table plus every
/// observed suffix of the context, shortest first.
///
/// Every probability it returns is the same IEEE-754 operation sequence as
/// the back-off recursion: the add-one unigram floor, then one smoothing
/// step per observed suffix from shortest to longest.
#[derive(Clone, Debug)]
pub struct LmContext<'a> {
    smoothing: Smoothing,
    vocab: f64,
    /// The unigram table (empty before training).
    unigram: Level<'a>,
    /// The observed suffixes, shortest first; only `..depth` are set.
    suffixes: [Level<'a>; MAX_ORDER - 1],
    depth: usize,
}

impl<'a> LmContext<'a> {
    /// `P(next | context)`.
    pub fn prob(&self, next: TokenId) -> f64 {
        self.score(&mut [0; MAX_ORDER], next.0)
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
            cursors: [0; MAX_ORDER],
            prev: 0,
        }
    }

    /// The probability of `w`, advancing each level's merge cursor
    /// (`cursors[0]` the unigram's, `cursors[1 + i]` suffix `i`'s) to `w`.
    #[inline]
    fn score(&self, cursors: &mut [usize; MAX_ORDER], w: u32) -> f64 {
        let (uni_pos, suffix_pos) = cursors.split_at_mut(1);
        let uni = self.unigram;
        let mut p = (gallop(uni.run, &mut uni_pos[0], w) + 1.0) / (uni.total + self.vocab);
        for (level, pos) in self.suffixes[..self.depth].iter().zip(suffix_pos) {
            let count = gallop(level.run, pos, w);
            let (total, types) = (level.total, level.types);
            p = match self.smoothing {
                Smoothing::WittenBell => (count + types * p) / (total + types),
                Smoothing::AbsoluteDiscount(d) => {
                    (count - d).max(0.0) / total + (d * types / total) * p
                }
            };
        }
        p
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
        let by_count =
            |a: &(TokenId, u32), b: &(TokenId, u32)| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0));
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
            let mut fresh: Vec<(TokenId, u32)> = level
                .run
                .iter()
                .filter(|&&(w, _)| {
                    longer
                        .iter()
                        .all(|l| l.run.binary_search_by_key(&w, |e| e.0).is_err())
                })
                .map(|&(w, n)| (TokenId::new(w), n))
                .collect();
            let need = limit - out.len();
            if fresh.len() > need {
                fresh.select_nth_unstable_by(need, by_count);
                fresh.truncate(need);
            }
            fresh.sort_unstable_by(by_count);
            out.extend(fresh);
        }
        out
    }
}

/// A context resolved once for scoring many sequences after it (from
/// [`NgramLm::prefix`]): the model window it leaves and the back-off chain
/// of the first token after it.
#[derive(Clone, Debug)]
pub struct LmPrefix<'a> {
    window: Window,
    first: LmContext<'a>,
}

/// Iterator returned by [`LmContext::sorted_probs`].
pub struct SortedProbs<'c, 'a, I> {
    ctx: &'c LmContext<'a>,
    tokens: I,
    cursors: [usize; MAX_ORDER],
    prev: u32,
}

impl<I: Iterator<Item = TokenId>> Iterator for SortedProbs<'_, '_, I> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        let w = self.tokens.next()?.0;
        if w < self.prev {
            self.cursors = [0; MAX_ORDER];
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
impl NgramLm {
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

    fn smoothing_of(family: u8, discount: f64) -> Smoothing {
        if family == 0 {
            Smoothing::WittenBell
        } else {
            Smoothing::AbsoluteDiscount(discount)
        }
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
        let s1 = lm.entity_score(&[t(1)], &[t(2)]);
        let s2 = lm.entity_score(&[t(1)], &[t(2), t(3)]);
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
                    lm.entity_score_after(&[&head, &tail], &seq).to_bits(),
                    lm.entity_score(&whole, &seq).to_bits()
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
    fn logprob_seq_adds_stepwise_logs() {
        let lm = toy_lm(Smoothing::WittenBell);
        let lp = lm.logprob_seq(&[t(1)], &[t(2), t(3)]);
        let manual = lm.prob(&[t(1)], t(2)).ln() + lm.prob(&[t(1), t(2)], t(3)).ln();
        assert!((lp - manual).abs() < 1e-12);
    }

    #[test]
    fn tokens_seen_counts_training_volume() {
        let lm = toy_lm(Smoothing::WittenBell);
        assert_eq!(lm.tokens_seen(), 9);
    }

    #[test]
    #[should_panic(expected = "order must be")]
    fn zero_order_is_rejected() {
        NgramLm::new(0, Smoothing::WittenBell, 10);
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
            assert_eq!(back.tokens_seen(), lm.tokens_seen());
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
    }

    #[test]
    fn a_longer_suffix_without_its_shorter_one_still_counts() {
        // Training always records a context's shorter suffixes too, but a
        // snapshot need not: table 2 holds [5, 6] while table 1 lacks [6].
        // The recursion skips the missing level and still applies [5, 6];
        // the resolved chain must do the same.
        let mut w = ByteWriter::new();
        w.u32(3);
        w.u8(1);
        w.f64(0.5);
        w.u64(8);
        // Table 0: the empty context, continuations 1×2, 3×1.
        w.u64(1);
        w.u32(0);
        w.u64(3);
        w.u32(2);
        for (tok, n) in [(1u32, 2u32), (3, 1)] {
            w.u32(tok);
            w.u32(n);
        }
        // Table 1: only [2].
        w.u64(1);
        w.u32(1);
        w.u32(2);
        w.u64(1);
        w.u32(1);
        w.u32(3);
        w.u32(1);
        // Table 2: only [5, 6].
        w.u64(1);
        w.u32(2);
        w.u32(5);
        w.u32(6);
        w.u64(4);
        w.u32(1);
        w.u32(1);
        w.u32(4);
        let lm = NgramLm::from_bytes(&w.finish()).expect("valid payload");
        let ctx = toks(&[5, 6]);
        let resolved = lm.context(&ctx);
        assert_eq!(resolved.depth, 1);
        for tok in 0..8 {
            assert_eq!(
                lm.prob(&ctx, t(tok)).to_bits(),
                lm.prob_reference(&ctx, t(tok)).to_bits()
            );
        }
        assert!(lm.prob(&ctx, t(1)) > lm.prob(&[t(6)], t(1)));
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
            let mut lm = NgramLm::new(order, smoothing_of(family, discount), 32);
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
            let mut lm = NgramLm::new(order, smoothing_of(family, discount), 32);
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
                prop_assert_eq!(lm.entity_score_after(&slices, seq).to_bits(), want);
            }
        }
    }
}
