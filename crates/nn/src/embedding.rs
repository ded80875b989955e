//! Embedding-bag layer: mean of embedding rows with sparse gradients.
//!
//! The entity encoder consumes a masked context as a *bag of token ids*
//! and produces its mean embedding. Gradients touch only the rows that
//! appeared in a batch, which keeps training O(active rows) instead of
//! O(vocabulary) per step.

use crate::matrix::Matrix;
use std::collections::BTreeMap;
use ultra_core::rng::UltraRng;
use ultra_core::TokenId;

/// A detached sparse gradient buffer: token row → gradient vector — the
/// reference accumulator that [`SparseSink`] is pinned against.
///
/// Backed by a `BTreeMap` so that traversal order is the token order — a
/// pure function of the content, never of hashing — which keeps merged
/// buffers and their parameter updates deterministic. Per-sample buffers
/// are filled via [`EmbeddingBag::backward_into`] and merged in sample
/// order with [`merge`](Self::merge).
#[derive(Clone, Debug, Default)]
pub struct SparseGrad {
    grads: BTreeMap<u32, Vec<f32>>,
}

impl SparseGrad {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `dy * scale` into the row for `token`.
    pub fn add_scaled(&mut self, token: TokenId, dy: &[f32], scale: f32) {
        let g = self
            .grads
            .entry(token.0)
            .or_insert_with(|| vec![0.0; dy.len()]);
        for (gi, &d) in g.iter_mut().zip(dy) {
            *gi += d * scale;
        }
    }

    /// Merges `other` into `self`, row by row. Each row's additions happen
    /// in the order `merge` is called, so folding per-sample buffers in
    /// sample order yields bit-identical sums at any thread count.
    pub fn merge(&mut self, other: SparseGrad) {
        for (row, grad) in other.grads {
            match self.grads.entry(row) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(grad);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    for (a, &b) in o.get_mut().iter_mut().zip(&grad) {
                        *a += b;
                    }
                }
            }
        }
    }

    /// Number of rows with pending gradients.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }
}

/// Reusable sparse-gradient accumulator with O(touched) clearing — the
/// training accumulator of both encoder heads, and the workspace
/// counterpart of [`SparseGrad`].
///
/// `SparseGrad`'s `BTreeMap` allocates a node per touched row per batch;
/// at ~140 touched rows × thousands of batches that allocation traffic
/// dominates the embedding backward. `SparseSink` instead keeps a
/// vocab-sized slot map (`token → packed row + 1`, 0 = empty), a
/// first-touch-order list of touched tokens, and one flat row buffer — all
/// retained across batches, so the steady state allocates nothing.
///
/// Per-row arithmetic is the same `+=` sequence as `SparseGrad`'s, and row
/// updates are independent, so a sink and a map fed the same
/// `add_scaled`/merge sequence produce identical row bits even though the
/// sink applies rows in first-touch order rather than token order.
#[derive(Clone, Debug, Default)]
pub struct SparseSink {
    dim: usize,
    slots: Vec<u32>,
    touched: Vec<u32>,
    rows: Vec<f32>,
}

impl SparseSink {
    /// An empty, unshaped sink; call [`ensure`](Self::ensure) before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shapes the sink for a `vocab_size × dim` table, preserving buffers
    /// (and their capacity) when the shape already matches.
    pub fn ensure(&mut self, vocab_size: usize, dim: usize) {
        if self.slots.len() != vocab_size || self.dim != dim {
            self.dim = dim;
            self.slots = vec![0; vocab_size];
            self.touched.clear();
            self.rows.clear();
        }
    }

    /// Clears accumulated rows in O(touched), keeping all capacity.
    pub fn clear(&mut self) {
        for &t in &self.touched {
            self.slots[t as usize] = 0;
        }
        self.touched.clear();
        self.rows.clear();
    }

    /// Packed row index for `token`, appending a zeroed row on first touch.
    #[inline]
    fn row_index(&mut self, token: u32) -> usize {
        let slot = self.slots[token as usize];
        if slot != 0 {
            return (slot - 1) as usize;
        }
        let idx = self.touched.len();
        self.slots[token as usize] = idx as u32 + 1;
        self.touched.push(token);
        self.rows.resize(self.rows.len() + self.dim, 0.0);
        idx
    }

    /// Adds `dy * scale` into the row for `token` — same accumulation
    /// arithmetic as [`SparseGrad::add_scaled`].
    #[inline]
    pub fn add_scaled(&mut self, token: TokenId, dy: &[f32], scale: f32) {
        let idx = self.row_index(token.0);
        let row = &mut self.rows[idx * self.dim..(idx + 1) * self.dim];
        for (gi, &d) in row.iter_mut().zip(dy) {
            *gi += d * scale;
        }
    }

    /// Merges `other`'s rows into `self` in `other`'s first-touch order —
    /// the sink analogue of [`SparseGrad::merge`]. For rows new to `self`
    /// the first merge lands on a zeroed row (`0.0 + x`); that matches the
    /// map's vacant-entry *move* bit-for-bit because accumulated row sums
    /// are never `-0.0` (each row sum starts from `+0.0`, and IEEE-754
    /// round-to-nearest addition only yields `-0.0` from two `-0.0`
    /// operands).
    pub fn merge_from(&mut self, other: &SparseSink) {
        for (i, &t) in other.touched.iter().enumerate() {
            let src = &other.rows[i * other.dim..(i + 1) * other.dim];
            let idx = self.row_index(t);
            let dst = &mut self.rows[idx * self.dim..(idx + 1) * self.dim];
            for (a, &b) in dst.iter_mut().zip(src) {
                *a += b;
            }
        }
    }

    /// Number of rows with pending gradients.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether the sink holds no pending rows.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }
}

/// Mean-pooled embedding lookup. Gradients accumulate outside the layer,
/// in a [`SparseSink`] (or the reference [`SparseGrad`]), and are applied
/// with a sparse SGD row update.
#[derive(Clone, Debug)]
pub struct EmbeddingBag {
    table: Matrix,
}

impl EmbeddingBag {
    /// Xavier-initialised table of `vocab_size × dim`.
    pub fn new(vocab_size: usize, dim: usize, rng: &mut UltraRng) -> Self {
        Self {
            table: Matrix::xavier(vocab_size, dim, rng),
        }
    }

    /// Embedding dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Vocabulary capacity.
    #[inline]
    pub fn vocab_size(&self) -> usize {
        self.table.rows()
    }

    /// One row of the table.
    #[inline]
    pub fn row(&self, t: TokenId) -> &[f32] {
        self.table.row(t.index())
    }

    /// Mean of the rows for `tokens`; `None` if `tokens` is empty.
    pub fn forward(&self, tokens: &[TokenId]) -> Option<Vec<f32>> {
        let mut acc = vec![0.0f32; self.dim()];
        self.forward_into(tokens, &mut acc).then_some(acc)
    }

    /// [`forward`](Self::forward) into a caller-owned buffer
    /// (`out.len() == dim`). Returns `false` (leaving `out` untouched) for
    /// an empty bag.
    pub fn forward_into(&self, tokens: &[TokenId], out: &mut [f32]) -> bool {
        if tokens.is_empty() {
            return false;
        }
        out.iter_mut().for_each(|a| *a = 0.0);
        for &t in tokens {
            for (a, &x) in out.iter_mut().zip(self.row(t)) {
                *a += x;
            }
        }
        let inv = 1.0 / tokens.len() as f32;
        out.iter_mut().for_each(|a| *a *= inv);
        true
    }

    /// Accumulates the gradient of the mean pool into a reusable
    /// [`SparseSink`]: each participating row receives `dy / n`. No
    /// per-call allocation once the sink has grown.
    pub fn backward_into_sink(&self, tokens: &[TokenId], dy: &[f32], g: &mut SparseSink) {
        if tokens.is_empty() {
            return;
        }
        let inv = 1.0 / tokens.len() as f32;
        for &t in tokens {
            g.add_scaled(t, dy, inv);
        }
    }

    /// [`backward_into_sink`](Self::backward_into_sink) into the reference
    /// [`SparseGrad`] map: the same per-token `+=` sequence.
    pub fn backward_into(&self, tokens: &[TokenId], dy: &[f32], g: &mut SparseGrad) {
        if tokens.is_empty() {
            return;
        }
        let inv = 1.0 / tokens.len() as f32;
        for &t in tokens {
            g.add_scaled(t, dy, inv);
        }
    }

    /// Applies a [`SparseSink`]'s row gradients with plain SGD
    /// (`w -= lr · (g + wd · w)`), clipping each row gradient to `clip` in
    /// l2 norm. Borrows the sink; callers [`SparseSink::clear`] it for
    /// reuse.
    ///
    /// Embedding rows use a dedicated sparse step rather than the dense
    /// [`GradApply`](crate::optim::GradApply) path because dense traversal
    /// of a vocabulary-sized table per batch would dominate training time.
    /// Rows are visited in first-touch order; row updates are independent,
    /// so the table bits match the map-based
    /// [`apply_sparse_sgd_from`](Self::apply_sparse_sgd_from) for equal row
    /// gradients.
    pub fn apply_sparse_sgd_from_sink(
        &mut self,
        g: &SparseSink,
        lr: f32,
        weight_decay: f32,
        clip: f32,
    ) {
        for (i, &t) in g.touched.iter().enumerate() {
            let grad = &g.rows[i * g.dim..(i + 1) * g.dim];
            Self::sparse_row_update(self.table.row_mut(t as usize), grad, lr, weight_decay, clip);
        }
    }

    /// [`apply_sparse_sgd_from_sink`](Self::apply_sparse_sgd_from_sink)
    /// over the reference [`SparseGrad`], consuming it: identical per-row
    /// update math, rows in token order.
    pub fn apply_sparse_sgd_from(&mut self, g: SparseGrad, lr: f32, weight_decay: f32, clip: f32) {
        for (row_idx, grad) in g.grads {
            Self::sparse_row_update(
                self.table.row_mut(row_idx as usize),
                &grad,
                lr,
                weight_decay,
                clip,
            );
        }
    }

    fn sparse_row_update(row: &mut [f32], grad: &[f32], lr: f32, weight_decay: f32, clip: f32) {
        let norm: f32 = grad.iter().map(|g| g * g).sum::<f32>().sqrt();
        let scale = if clip > 0.0 && norm > clip {
            clip / norm
        } else {
            1.0
        };
        for (w, &g) in row.iter_mut().zip(grad) {
            *w -= lr * (g * scale + weight_decay * *w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_core::derive_rng;

    fn t(x: u32) -> TokenId {
        TokenId::new(x)
    }

    #[test]
    fn forward_means_rows() {
        let mut rng = derive_rng(1, 0);
        let bag = EmbeddingBag::new(4, 2, &mut rng);
        let a = bag.row(t(0)).to_vec();
        let b = bag.row(t(1)).to_vec();
        let m = bag.forward(&[t(0), t(1)]).unwrap();
        assert!((m[0] - (a[0] + b[0]) / 2.0).abs() < 1e-6);
        assert!((m[1] - (a[1] + b[1]) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn forward_empty_is_none() {
        let mut rng = derive_rng(1, 0);
        let bag = EmbeddingBag::new(4, 2, &mut rng);
        assert!(bag.forward(&[]).is_none());
    }

    /// A sink shaped for `bag`'s table.
    fn sink_for(bag: &EmbeddingBag) -> SparseSink {
        let mut sink = SparseSink::new();
        sink.ensure(bag.vocab_size(), bag.dim());
        sink
    }

    #[test]
    fn backward_touches_only_active_rows() {
        let mut rng = derive_rng(1, 0);
        let mut bag = EmbeddingBag::new(8, 2, &mut rng);
        let mut sink = sink_for(&bag);
        bag.backward_into_sink(&[t(1), t(3)], &[1.0, -1.0], &mut sink);
        assert_eq!(sink.len(), 2);
        let before = bag.row(t(5)).to_vec();
        bag.apply_sparse_sgd_from_sink(&sink, 0.1, 0.0, 0.0);
        assert_eq!(bag.row(t(5)), before.as_slice(), "inactive row untouched");
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut rng = derive_rng(1, 0);
        let mut bag = EmbeddingBag::new(2, 2, &mut rng);
        let mut sink = sink_for(&bag);
        let before = bag.row(t(0)).to_vec();
        bag.backward_into_sink(&[t(0)], &[1.0, 0.0], &mut sink);
        bag.apply_sparse_sgd_from_sink(&sink, 0.5, 0.0, 0.0);
        let after = bag.row(t(0));
        assert!((after[0] - (before[0] - 0.5)).abs() < 1e-6);
        assert!((after[1] - before[1]).abs() < 1e-6);
    }

    #[test]
    fn clipping_bounds_row_update() {
        let mut rng = derive_rng(1, 0);
        let mut bag = EmbeddingBag::new(1, 2, &mut rng);
        let mut sink = sink_for(&bag);
        let before = bag.row(t(0)).to_vec();
        bag.backward_into_sink(&[t(0)], &[30.0, 40.0], &mut sink); // norm 50
        bag.apply_sparse_sgd_from_sink(&sink, 1.0, 0.0, 5.0); // clipped to norm 5
        let after = bag.row(t(0));
        let delta = ((after[0] - before[0]).powi(2) + (after[1] - before[1]).powi(2)).sqrt();
        assert!((delta - 5.0).abs() < 1e-4);
    }

    #[test]
    fn sink_path_matches_map_path_bitwise_across_reuse() {
        let mut rng = derive_rng(3, 0);
        let proto = EmbeddingBag::new(16, 3, &mut rng);
        let batches: Vec<Vec<(Vec<TokenId>, Vec<f32>)>> = vec![
            vec![
                (vec![t(1), t(3)], vec![0.5, -1.0, 2.0]),
                (vec![t(3), t(6), t(6)], vec![1.5, 0.25, -0.75]),
            ],
            vec![
                (vec![t(6)], vec![-0.5, 0.125, 0.33]),
                (vec![t(1), t(15)], vec![0.1, 0.2, 0.3]),
            ],
        ];
        let mut a = proto.clone();
        let mut b = proto.clone();
        // One sink reused across batches (clear between steps) vs fresh
        // BTreeMap buffers: table bits must agree after every step.
        let mut sink = SparseSink::new();
        sink.ensure(16, 3);
        let mut other = SparseSink::new();
        other.ensure(16, 3);
        for batch in &batches {
            let mut map = SparseGrad::new();
            sink.clear();
            other.clear();
            for (tokens, dy) in batch {
                a.backward_into(tokens, dy, &mut map);
            }
            // Split the same work across two sinks and merge, exercising
            // the first-touch merge path.
            b.backward_into_sink(&batch[0].0, &batch[0].1, &mut sink);
            b.backward_into_sink(&batch[1].0, &batch[1].1, &mut other);
            sink.merge_from(&other);
            assert_eq!(sink.len(), map.len());
            a.apply_sparse_sgd_from(map, 0.1, 1e-4, 5.0);
            b.apply_sparse_sgd_from_sink(&sink, 0.1, 1e-4, 5.0);
            for r in 0..16 {
                let ra: Vec<u32> = a.row(t(r)).iter().map(|v| v.to_bits()).collect();
                let rb: Vec<u32> = b.row(t(r)).iter().map(|v| v.to_bits()).collect();
                assert_eq!(ra, rb, "row {r} diverged");
            }
        }
    }

    #[test]
    fn repeated_tokens_average_not_sum() {
        let mut rng = derive_rng(1, 0);
        let bag = EmbeddingBag::new(2, 2, &mut rng);
        let single = bag.forward(&[t(0)]).unwrap();
        let repeated = bag.forward(&[t(0), t(0)]).unwrap();
        assert_eq!(single, repeated);
    }
}
