//! Dense row-major `f32` matrices.
//!
//! Every product here accumulates each output element in one `f32`, from
//! `+0.0`, over the inner index in ascending order, one multiply then one
//! add per term. Kernels differ only in which independent elements they
//! advance together and in which zero terms they skip; neither changes a
//! bit of the result (DESIGN §18).

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Mat { rows, cols, data }
    }

    /// A 1×n row vector view of a slice.
    pub fn row_vector(v: &[f32]) -> Self {
        Mat::from_vec(1, v.len(), v.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`: the value network's forward kernel
    /// (`x · Wᵀ` with `other = Wᵀ`).
    ///
    /// Row `i` of the output is built as `Σ_k self[i,k] · other[k,·]`, `k`
    /// ascending, so the inner loop runs across independent output elements
    /// of one row and vectorises, whatever the row count. It folds four
    /// terms into each element per pass, `(((o + a₀b₀) + a₁b₁) + a₂b₂) +
    /// a₃b₃`: the same operations in the same order as four passes, with a
    /// quarter of the loads and stores of the output row. A term with
    /// `self[i,k] == 0` is skipped: an accumulator that starts at `+0.0` is
    /// never `-0.0`, so adding `±0.0` cannot change it (finite `other`).
    /// One-hot states keep 2–6 of ~210 inputs.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let n = other.cols;
        let mut out = Mat::zeros(self.rows, n);
        let w = |k: usize| &other.data[k * n..(k + 1) * n];
        let mut nonzero = vec![0usize; self.cols];
        for (x, o) in self.rows_iter().zip(out.data.chunks_exact_mut(n.max(1))) {
            let m = nonzero_cols(x, &mut nonzero);
            let mut quads = nonzero[..m].chunks_exact(4);
            for q in &mut quads {
                let (a0, a1, a2, a3) = (x[q[0]], x[q[1]], x[q[2]], x[q[3]]);
                let ws = w(q[0]).iter().zip(w(q[1])).zip(w(q[2]).iter().zip(w(q[3])));
                for (o, ((&b0, &b1), (&b2, &b3))) in o.iter_mut().zip(ws) {
                    *o = (((*o + a0 * b0) + a1 * b1) + a2 * b2) + a3 * b3;
                }
            }
            for &k in quads.remainder() {
                let a = x[k];
                for (o, &b) in o.iter_mut().zip(w(k)) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product `selfᵀ · other`: the weight-gradient kernel (`dWᵀ =
    /// xᵀ · g`, in the `in × out` layout the weights are stored in).
    /// Element `(k, j)` sums `self[r,k] · other[r,j]` over `r` ascending,
    /// from `+0.0`, skipping terms with a zero factor in one operand. A
    /// sparse `other` (DQN's output gradient, one nonzero per row) is taken
    /// row by row, each nonzero `other[r,j]` scaling row `r` of `self` into
    /// column `j`. Otherwise `selfᵀ` feeds [`Mat::matmul`], which skips
    /// `self`'s zeros (the one-hot states of layer 0) and folds four rows
    /// per pass.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn t_matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        if !other.is_sparse() {
            return self.transpose().matmul(other);
        }
        let n = other.cols;
        let mut out = Mat::zeros(self.cols, n);
        let mut js = vec![0usize; n];
        for (x, g) in self.rows_iter().zip(other.rows_iter()) {
            let m = nonzero_cols(g, &mut js);
            for &j in &js[..m] {
                let b = g[j];
                for (o, &a) in out.data[j..].iter_mut().step_by(n).zip(x) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product `self · otherᵀ`, bit for bit [`Mat::matmul_t`]: the
    /// input-gradient kernel (`g · W` with `other = Wᵀ`). A sparse `self`
    /// (DQN's output gradient) is read from `Wᵀ` directly: each output
    /// element is one `j`-ascending sum over its row's nonzero terms. A
    /// dense one goes through [`Mat::matmul`] against the transpose of
    /// `other`, which skips `self`'s zeros and runs along rows of `W`: on
    /// the 32 × 128 ReLU-masked gradient of a 128 × 128 layer, that
    /// transpose and product take half the time of `(other · selfᵀ)ᵀ`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_t_fast(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "matmul_t dimension mismatch");
        if !self.is_sparse() {
            return self.matmul(&other.transpose());
        }
        let mut out = Mat::zeros(self.rows, other.rows);
        let mut js = vec![0usize; self.cols];
        let rows = self
            .rows_iter()
            .zip(out.data.chunks_exact_mut(other.rows.max(1)));
        for (g, o) in rows {
            let m = nonzero_cols(g, &mut js);
            for (o, w) in o.iter_mut().zip(other.rows_iter()) {
                let mut acc = 0.0;
                for &j in &js[..m] {
                    acc += g[j] * w[j];
                }
                *o = acc;
            }
        }
        out
    }

    /// Whether at most one entry in eight is nonzero.
    fn is_sparse(&self) -> bool {
        self.data.iter().filter(|&&v| v != 0.0).count() * 8 <= self.data.len()
    }

    /// The rows, in order.
    fn rows_iter(&self) -> std::slice::ChunksExact<'_, f32> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix product `self · otherᵀ` as one dot product per element: the
    /// naive single-accumulator reference the forward, weight-gradient and
    /// input-gradient kernels ([`Mat::matmul`], [`Mat::t_matmul`],
    /// [`Mat::matmul_t_fast`]) are tested against bit for bit.
    /// Latency-bound; not on any hot path.
    pub fn matmul_t(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "matmul_t dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            for j in 0..other.rows {
                let mut acc = 0.0;
                let a_row = self.row(i);
                let b_row = other.row(j);
                for (x, y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// The transpose, as a new matrix. Writes run along output rows; the
    /// strided reads of one input column touch `rows` cache lines, which
    /// the next column reuses.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for (c, out_row) in out.data.chunks_exact_mut(self.rows.max(1)).enumerate() {
            for (o, row) in out_row.iter_mut().zip(self.rows_iter()) {
                *o = row[c];
            }
        }
        out
    }

    /// Add a row vector (broadcast over rows), in place.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Apply ReLU in place.
    pub fn relu_inplace(&mut self) {
        for x in &mut self.data {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    }
}

/// Writes the indices of `row`'s nonzero entries, ascending, to the front of
/// `idx` (at least `row.len()` long) and returns their count. Gathered
/// without a branch: ReLU zeros fall at random, so a branch per entry
/// mispredicts often (branchless: 172 → 110 µs per batch-32 Covid forward
/// on a 2-vCPU Xeon).
fn nonzero_cols(row: &[f32], idx: &mut [usize]) -> usize {
    let mut m = 0;
    for (k, &a) in row.iter().enumerate() {
        idx[m] = k;
        m += usize::from(a != 0.0);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(2, 2, vec![1.0, 0.5, -1.0, 2.0]);
        let got = a.t_matmul(&b); // aᵀ(3×2) · b(2×2) = 3×2
                                  // explicit aᵀ
        let at = Mat::from_vec(3, 2, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(got, at.matmul(&b));
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(4, 3, (0..12).map(|i| i as f32).collect());
        let got = a.matmul_t(&b); // a(2×3) · bᵀ(3×4) = 2×4
        let bt = Mat::from_vec(
            3,
            4,
            vec![0.0, 3.0, 6.0, 9.0, 1.0, 4.0, 7.0, 10.0, 2.0, 5.0, 8.0, 11.0],
        );
        assert_eq!(got, a.matmul(&bt));
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.transpose(), a);
        assert_eq!(Mat::zeros(0, 4).transpose(), Mat::zeros(4, 0));
    }

    #[test]
    fn bias_broadcasts_over_rows() {
        let mut a = Mat::zeros(2, 3);
        a.add_row_bias(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut a = Mat::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        a.relu_inplace();
        assert_eq!(a.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
