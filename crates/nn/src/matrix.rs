//! Row-major dense matrix on a flat `Vec<f32>`.

use rand::Rng;
use ultra_core::rng::UltraRng;

/// Row-major dense matrix.
///
/// Kept deliberately small: the substrate needs matrix-vector products,
/// row views, and in-place axpy-style updates — nothing else. All hot loops
/// operate on slices so the compiler elides bounds checks.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialised matrix, deterministic under `rng`.
    pub fn xavier(rows: usize, cols: usize, rng: &mut UltraRng) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt() as f32;
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self { rows, cols, data }
    }

    /// Builds from a flat row-major buffer. Panics if sizes disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat parameter buffer (for optimizers).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat parameter buffer (for optimizers).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `y = self · x` (matrix-vector product). `x.len()` must equal `cols`.
    /// Each output element is one [`crate::ops::dot_unrolled`], whose
    /// summand grouping the sweep-form GEMM
    /// ([`matmat_nt_pret_into`](Self::matmat_nt_pret_into)) reproduces, so
    /// a batched forward over a row matrix and a per-row forward produce
    /// identical bits.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|r| crate::ops::dot_unrolled(self.row(r), x))
            .collect()
    }

    /// `y = selfᵀ · x` (transposed matrix-vector product).
    /// `x.len()` must equal `rows`; result has length `cols`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0f32; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (yc, &w) in y.iter_mut().zip(self.row(r).iter()) {
                *yc += xr * w;
            }
        }
        y
    }

    /// Rank-1 update `self += alpha · u vᵀ`
    /// (`u.len() == rows`, `v.len() == cols`). The workhorse of gradient
    /// accumulation for linear layers.
    // ultra-lint: hot
    pub fn add_outer(&mut self, alpha: f32, u: &[f32], v: &[f32]) {
        assert_eq!(u.len(), self.rows);
        assert_eq!(v.len(), self.cols);
        for (r, &ur) in u.iter().enumerate() {
            if ur == 0.0 {
                continue;
            }
            let coef = alpha * ur;
            for (w, &vc) in self.row_mut(r).iter_mut().zip(v.iter()) {
                *w += coef * vc;
            }
        }
    }

    /// Sets every element to zero (gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Elementwise `self += other` (gradient-buffer merge). Shapes must
    /// match.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "add_assign shape mismatch");
        assert_eq!(self.cols, other.cols, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Batch scoring primitive: dots of the rows in `rows` against `query`,
    /// via the unrolled kernel ([`crate::ops::dot_unrolled`]). This is the
    /// per-chunk kernel of the blocked candidate-scoring path; callers
    /// parallelize over disjoint row ranges.
    // ultra-lint: hot
    pub fn score_batch(&self, query: &[f32], rows: std::ops::Range<usize>) -> Vec<f32> {
        assert_eq!(query.len(), self.cols, "score_batch dimension mismatch");
        assert!(rows.end <= self.rows, "score_batch row range out of bounds");
        rows.map(|r| crate::ops::dot_unrolled(self.row(r), query))
            .collect()
    }

    /// Writes `selfᵀ` into `out`, reshaping `out` to `(cols × rows)` if
    /// needed (reusing its allocation when the element count matches).
    /// Small matrices only — the write pattern keeps one cache line per
    /// output row live, which fits L1 for the model-sized (≤ a few hundred
    /// rows) weight matrices this serves.
    pub fn transpose_into(&self, out: &mut Matrix) {
        if out.rows != self.cols || out.cols != self.rows {
            *out = Matrix::zeros(self.cols, self.rows);
        }
        for i in 0..self.rows {
            for (j, &v) in self.row(i).iter().enumerate() {
                out.data[j * out.cols + i] = v;
            }
        }
    }

    /// `out = self · otherᵀ` against a *pre-transposed* right operand:
    /// `other_t` is `otherᵀ` (`k × n`), and the kernel sweeps it row-wise —
    /// `out[r][..] += a[i] · other_t[i][..]` — instead of taking `n`
    /// row-dot-products. The sweep form is throughput-bound (pure
    /// elementwise multiply-adds, no serial reduction chain), which makes
    /// it ~2x faster than the dot form on the training shapes.
    ///
    /// Bit-identical to per-row [`matvec`](Self::matvec) by construction:
    /// `dot_unrolled` folds element `i` into partial sum `i % 4` (ascending
    /// `i` within each lane), the depth tail (`i ≥ 4⌊k/4⌋`) into a fifth
    /// sequential accumulator, and combines as `((s0+s1)+(s2+s3))+tail`.
    /// The four `lanes` rows plus the tail row reproduce exactly that
    /// grouping, order, and combine for every output element at once — the
    /// same IEEE-754 operations in the same order, just batched across `j`.
    ///
    /// `lanes` is caller-owned scratch with at least 5 rows of at least
    /// `n` columns (the rows are the 4 partial-sum lanes plus the tail).
    // ultra-lint: hot
    pub fn matmat_nt_pret_into(&self, other_t: &Matrix, out: &mut Matrix, lanes: &mut Matrix) {
        let (k, n) = (other_t.rows, other_t.cols);
        assert_eq!(self.cols, k, "matmat_nt_pret inner dimension mismatch");
        assert_eq!(out.rows, self.rows, "matmat_nt_pret output row mismatch");
        assert_eq!(out.cols, n, "matmat_nt_pret output col mismatch");
        assert!(
            lanes.rows >= 5 && lanes.cols >= n,
            "matmat_nt_pret lane scratch too small"
        );
        let k4 = k - (k % 4);
        for r in 0..self.rows {
            let a = self.row(r);
            for l in 0..5 {
                lanes.row_mut(l)[..n].iter_mut().for_each(|v| *v = 0.0);
            }
            for (i, &c) in a[..k4].iter().enumerate() {
                let lane = lanes.row_mut(i % 4);
                for (s, &wv) in lane.iter_mut().zip(other_t.row(i)) {
                    *s += c * wv;
                }
            }
            for (i, &c) in a[k4..].iter().enumerate() {
                let tail = lanes.row_mut(4);
                for (s, &wv) in tail.iter_mut().zip(other_t.row(k4 + i)) {
                    *s += c * wv;
                }
            }
            let (s0, s1, s2, s3, tail) = (
                lanes.row(0),
                lanes.row(1),
                lanes.row(2),
                lanes.row(3),
                lanes.row(4),
            );
            for (j, o) in out.data[r * n..(r + 1) * n].iter_mut().enumerate() {
                *o = ((s0[j] + s1[j]) + (s2[j] + s3[j])) + tail[j];
            }
        }
    }

    /// Resizes the row count in place, keeping `cols` and reusing the
    /// backing allocation (capacity is sticky across shrinks). Newly
    /// exposed rows hold stale values — this is a *workspace* primitive for
    /// buffers whose every element is overwritten before being read.
    pub fn resize_rows(&mut self, rows: usize) {
        self.rows = rows;
        self.data.resize(rows * self.cols, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultra_core::derive_rng;

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_t_is_transpose_of_matvec() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn add_outer_accumulates_rank_one_update() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(2.0, &[1.0, 0.5], &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[6.0, 8.0, 3.0, 4.0]);
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let mut r1 = derive_rng(7, 0);
        let mut r2 = derive_rng(7, 0);
        let a = Matrix::xavier(4, 4, &mut r1);
        let b = Matrix::xavier(4, 4, &mut r2);
        assert_eq!(a, b);
        let bound = (6.0f64 / 8.0).sqrt() as f32;
        assert!(a.as_slice().iter().all(|x| x.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_rejects_bad_shapes() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }

    #[test]
    fn score_batch_matches_per_row_matvec() {
        let mut rng = derive_rng(9, 0);
        let m = Matrix::xavier(7, 5, &mut rng);
        let q = vec![0.3, -1.2, 0.8, 0.05, 2.0];
        let scores = m.score_batch(&q, 0..7);
        for (r, &s) in scores.iter().enumerate() {
            let exact: f32 = crate::ops::dot_unrolled(m.row(r), &q);
            assert_eq!(s.to_bits(), exact.to_bits());
        }
        assert_eq!(m.score_batch(&q, 2..2).len(), 0);
    }

    #[test]
    fn resize_rows_keeps_cols_and_reuses_buffer() {
        let mut m = Matrix::zeros(4, 3);
        m.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        m.resize_rows(2);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m.resize_rows(6);
        assert_eq!((m.rows(), m.cols()), (6, 3));
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.as_slice().len(), 18);
    }

    #[test]
    fn add_assign_merges_elementwise() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![0.5, -2.0, 1.0, 0.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[1.5, 0.0, 4.0, 4.0]);
    }

    #[test]
    fn fill_zero_resets() {
        let mut m = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        m.fill_zero();
        assert_eq!(m.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_into_roundtrips() {
        let mut rng = derive_rng(11, 0);
        let m = Matrix::xavier(5, 9, &mut rng);
        let mut t = Matrix::zeros(0, 0);
        m.transpose_into(&mut t);
        assert_eq!((t.rows(), t.cols()), (9, 5));
        for i in 0..5 {
            for j in 0..9 {
                assert_eq!(m.row(i)[j].to_bits(), t.row(j)[i].to_bits());
            }
        }
        let mut back = Matrix::zeros(5, 9);
        t.transpose_into(&mut back);
        assert_eq!(back, m);
    }

    /// The sweep-form GEMM must be bit-identical to per-row `matvec` for
    /// every depth parity (multiple of 4, and each tail length 1–3) and in
    /// the presence of exact zeros — the summand grouping proof in the doc
    /// comment, checked empirically.
    #[test]
    fn matmat_nt_pret_into_is_bit_identical_to_per_row_matvec() {
        let mut rng = derive_rng(12, 0);
        for k in [4usize, 5, 6, 7, 8, 96] {
            let mut a = Matrix::xavier(7, k, &mut rng);
            let b = Matrix::xavier(9, k, &mut rng);
            // Plant exact zeros on both sides.
            a.row_mut(2)[k / 2] = 0.0;
            a.row_mut(3).iter_mut().for_each(|v| *v = 0.0);
            let mut bt = Matrix::zeros(0, 0);
            b.transpose_into(&mut bt);
            let mut got = Matrix::zeros(7, 9);
            // Oversized, dirty lane scratch — the kernel must not care.
            let mut lanes = Matrix::from_vec(6, 16, vec![7.5; 96]);
            a.matmat_nt_pret_into(&bt, &mut got, &mut lanes);
            for r in 0..7 {
                let want = b.matvec(a.row(r));
                for (w, g) in want.iter().zip(got.row(r)) {
                    assert_eq!(w.to_bits(), g.to_bits(), "k={k}, row {r}");
                }
            }
        }
    }
}
