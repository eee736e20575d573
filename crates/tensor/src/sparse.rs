//! Compressed sparse row (CSR) matrices.
//!
//! Graph adjacency operators (`Â = D^-1/2 (A+I) D^-1/2`, `D^-1 A`, `A²`, …)
//! are stored in CSR form and multiplied against dense feature matrices with
//! [`CsrMatrix::spmm`]. The autograd tape treats a CSR operand as a constant:
//! gradients only flow through the dense side, which matches how GNN
//! propagation matrices are used in the paper.
//!
//! The node feature input is the other constant operand: bag-of-words
//! features are a few percent dense, so models and entropy tables hold
//! them in CSR form ([`CsrMatrix::from_dense`]) and pay only for their
//! non-zeros. Every product here adds its terms in the same per-element
//! order as the zero-skipping dense kernels, and a skipped zero product
//! is an exact no-op on an accumulator that starts at `+0.0`, so the
//! sparse paths are bit-identical to their dense counterparts.

use rand::Rng;

use crate::matrix::Matrix;
use crate::parallel;
use crate::row_dots::DotScalar;

/// A sparse matrix in compressed sparse row format.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row.
    col_idx: Vec<usize>,
    /// Non-zero values, parallel to `col_idx`.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets.
    ///
    /// Triplets may be unordered; duplicates are summed. Entries with value
    /// `0.0` are kept out of the structure.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds for {rows}x{cols}");
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0usize; triplets.len()];
        let mut values = vec![0f32; triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let pos = cursor[r];
            col_idx[pos] = c;
            values[pos] = v;
            cursor[r] += 1;
        }
        // Sort within each row and merge duplicates / drop explicit zeros.
        let mut out_ptr = Vec::with_capacity(rows + 1);
        let mut out_col = Vec::with_capacity(col_idx.len());
        let mut out_val = Vec::with_capacity(values.len());
        out_ptr.push(0);
        let mut scratch: Vec<(usize, f32)> = Vec::new();
        for r in 0..rows {
            scratch.clear();
            scratch.extend(
                col_idx[counts[r]..counts[r + 1]]
                    .iter()
                    .copied()
                    .zip(values[counts[r]..counts[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    v += scratch[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    out_col.push(c);
                    out_val.push(v);
                }
            }
            out_ptr.push(out_col.len());
        }
        Self { rows, cols, row_ptr: out_ptr, col_idx: out_col, values: out_val }
    }

    /// Assembles a matrix directly from a per-row entry builder, skipping
    /// [`from_triplets`](CsrMatrix::from_triplets)'s scatter/sort/dedup
    /// passes.
    ///
    /// `build` is called once per row in ascending order with a cleared
    /// scratch vector and must append that row's entries **sorted by
    /// column without duplicates** (checked in debug builds); explicit
    /// zeros are kept as stored entries, exactly as `from_triplets` keeps
    /// the *sum* of duplicates only when non-zero — callers of this fast
    /// path emit no zeros. The result is identical to building the same
    /// rows via triplets.
    pub fn from_row_builder(
        rows: usize,
        cols: usize,
        build: impl FnMut(usize, &mut Vec<(usize, f32)>),
    ) -> Self {
        let mut out = Self::empty();
        let mut scratch: Vec<(usize, f32)> = Vec::new();
        out.rebuild_from_row_builder(rows, cols, &mut scratch, build);
        out
    }

    /// The CSR form of a dense matrix: exactly its non-zero entries, in
    /// row-major order.
    pub fn from_dense(m: &Matrix) -> Self {
        Self::from_row_builder(m.rows(), m.cols(), |r, out| {
            out.extend(
                m.row(r).iter().enumerate().filter(|(_, &v)| v != 0.0).map(|(c, &v)| (c, v)),
            );
        })
    }

    /// An empty `0 x 0` matrix, the seed for
    /// [`rebuild_from_row_builder`](CsrMatrix::rebuild_from_row_builder).
    pub fn empty() -> Self {
        Self { rows: 0, cols: 0, row_ptr: vec![0], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Rebuilds the whole matrix **in place** from a per-row entry
    /// builder, reusing the existing CSR storage (and the caller's row
    /// `scratch`) instead of allocating fresh arrays — once capacities
    /// have warmed up this performs zero heap allocations, which is what
    /// the incremental rewiring engine's dense-regime operator refresh
    /// relies on. The result is identical to
    /// [`from_row_builder`](CsrMatrix::from_row_builder) with the same
    /// closure; the same per-row ordering contract applies.
    pub fn rebuild_from_row_builder(
        &mut self,
        rows: usize,
        cols: usize,
        scratch: &mut Vec<(usize, f32)>,
        mut build: impl FnMut(usize, &mut Vec<(usize, f32)>),
    ) {
        self.rows = rows;
        self.cols = cols;
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.col_idx.clear();
        self.values.clear();
        for r in 0..rows {
            scratch.clear();
            build(r, scratch);
            debug_assert!(
                scratch.windows(2).all(|w| w[0].0 < w[1].0),
                "row {r} entries must be sorted by column and unique"
            );
            if let Some(&(c, _)) = scratch.last() {
                assert!(c < cols, "column {c} out of bounds for {cols} cols");
            }
            self.col_idx.extend(scratch.iter().map(|&(c, _)| c));
            self.values.extend(scratch.iter().map(|&(_, v)| v));
            self.row_ptr.push(self.col_idx.len());
        }
    }

    /// Builds an identity CSR matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
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

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(column, value)` pairs of row `r`, sorted by column.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Sparse-dense product `self * dense`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn spmm(&self, dense: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm: {}x{} * {}x{} dimension mismatch",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        let _kernel = kernel_telemetry!("spmm", self.rows);
        let cols = dense.cols();
        let mut out = Matrix::zeros(self.rows, cols);
        parallel::par_for_each_row(out.as_mut_slice(), cols, |r, out_row| {
            for (c, v) in self.row_entries_inner(r) {
                let d_row = dense.row(c);
                for (o, &d) in out_row.iter_mut().zip(d_row) {
                    *o += v * d;
                }
            }
        });
        out
    }

    /// `self^T * dense` without materialising the transpose.
    ///
    /// Used by the autograd tape to push gradients through `spmm`.
    ///
    /// Parallelised over chunks of *output* rows: each thread scans the
    /// CSR structure and accumulates only the entries whose column lands
    /// in its chunk, in the same ascending input-row order as the serial
    /// loop — no atomics, no merge step, bit-identical results.
    pub fn spmm_t(&self, dense: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            dense.rows(),
            "spmm_t: {}x{} ^T * {}x{} dimension mismatch",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        let _kernel = kernel_telemetry!("spmm_t", self.cols);
        let cols = dense.cols();
        let mut out = Matrix::zeros(self.cols, cols);
        parallel::par_for_each_chunk(out.as_mut_slice(), cols, |range, chunk| {
            for r in 0..self.rows {
                let d_row = dense.row(r);
                for (c, v) in self.row_entries_inner(r) {
                    if c < range.start || c >= range.end {
                        continue;
                    }
                    let off = (c - range.start) * cols;
                    let out_row = &mut chunk[off..off + cols];
                    for (o, &d) in out_row.iter_mut().zip(d_row) {
                        *o += v * d;
                    }
                }
            }
        });
        out
    }

    /// Dense sparse-vector product `self * v` for a column vector.
    ///
    /// Parallelised over output rows; each dot product stays on one
    /// thread, so results match serial execution exactly.
    pub fn spmv(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(self.cols, v.len(), "spmv: dimension mismatch");
        let _kernel = kernel_telemetry!("spmv", self.rows);
        parallel::par_map(self.rows, |r| self.row_entries_inner(r).map(|(c, w)| w * v[c]).sum())
    }

    /// Sparse-sparse product `self * rhs`.
    ///
    /// Each output element adds its terms in ascending order of `self`'s
    /// column, exactly as [`spmm`](CsrMatrix::spmm) against
    /// `rhs.to_dense()` does; the zero terms that product would add are
    /// no-ops, and entries that sum to zero are left out, so the result
    /// equals `CsrMatrix::from_dense(&self.spmm(&rhs.to_dense()))` bit
    /// for bit.
    pub fn spgemm(&self, rhs: &CsrMatrix) -> CsrMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "spgemm: {}x{} * {}x{} dimension mismatch",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let _kernel = kernel_telemetry!("spgemm", self.rows);
        let mut acc = vec![0f32; rhs.cols];
        let mut touched: Vec<usize> = Vec::new();
        Self::from_row_builder(self.rows, rhs.cols, |r, out| {
            for (k, v) in self.row_entries_inner(r) {
                for (c, x) in rhs.row_entries_inner(k) {
                    if acc[c] == 0.0 {
                        touched.push(c);
                    }
                    acc[c] += v * x;
                }
            }
            // A column can re-enter `touched` after cancelling to zero;
            // the sort + dedup keeps one entry per column.
            touched.sort_unstable();
            touched.dedup();
            for &c in &touched {
                if acc[c] != 0.0 {
                    out.push((c, acc[c]));
                }
                acc[c] = 0.0;
            }
            touched.clear();
        })
    }

    /// Inverted dropout with keep-probability `1 - p`: each stored entry
    /// survives as `x * (1 / keep)` or is dropped.
    ///
    /// One `rng.gen::<f32>()` is drawn per logical `(row, col)` position
    /// in row-major order, zeros included — the exact stream
    /// `Tape::dropout` consumes on `self.to_dense()` — so masks, and the
    /// RNG state afterwards, match the dense op draw for draw.
    pub fn dropout(&self, p: f32, rng: &mut impl Rng) -> CsrMatrix {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        Self::from_row_builder(self.rows, self.cols, |r, out| {
            let mut next = 0;
            for (c, x) in self.row_entries_inner(r) {
                for _ in next..c {
                    rng.gen::<f32>();
                }
                next = c + 1;
                if rng.gen::<f32>() < keep {
                    let v = x * scale;
                    if v != 0.0 {
                        out.push((c, v));
                    }
                }
            }
            for _ in next..self.cols {
                rng.gen::<f32>();
            }
        })
    }

    /// `f32` dot product of rows `i` and `j`: a sorted-index intersection
    /// accumulated from `+0.0` in ascending column order, bit-identical
    /// to the dense `Σ_c a_c · b_c` loop on non-negative rows (a pair
    /// with disjoint support scores `+0.0`).
    pub fn row_dot(&self, i: usize, j: usize) -> f32 {
        self.row_dot_as(i, j)
    }

    /// [`row_dot`](CsrMatrix::row_dot) with each product and the sum
    /// taken in `f64`.
    pub fn row_dot_f64(&self, i: usize, j: usize) -> f64 {
        self.row_dot_as(i, j)
    }

    /// The dot product of rows `i` and `j` accumulated in `T`: starting
    /// at `+0.0`, one [`DotScalar::add_product`] of `(self[i, c],
    /// self[j, c])` per column `c` stored in both rows, in ascending
    /// column order. [`RowDots`](crate::RowDots) takes the same steps.
    pub(crate) fn row_dot_as<T: DotScalar>(&self, i: usize, j: usize) -> T {
        let (a_cols, a_vals) = self.row_slices(i);
        let (b_cols, b_vals) = self.row_slices(j);
        let mut acc = T::default();
        let (mut p, mut q) = (0, 0);
        while p < a_cols.len() && q < b_cols.len() {
            match a_cols[p].cmp(&b_cols[q]) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    acc = acc.add_product(a_vals[p], b_vals[q]);
                    p += 1;
                    q += 1;
                }
            }
        }
        acc
    }

    /// The transpose, built by one counting pass over the columns: row
    /// `c` of the result lists the rows that store column `c`, in
    /// ascending order, with their values.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row_entries_inner(r) {
                col_idx[cursor[c]] = r;
                values[cursor[c]] = v;
                cursor[c] += 1;
            }
        }
        CsrMatrix { rows: self.cols, cols: self.rows, row_ptr, col_idx, values }
    }

    /// Converts to a dense matrix (test/debug helper).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries_inner(r) {
                out.set(r, c, v);
            }
        }
        out
    }

    /// Whether the matrix is structurally symmetric with equal values.
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for (c, v) in self.row_entries_inner(r) {
                match self.get(c, r) {
                    Some(w) if (w - v).abs() <= tol => {}
                    _ => return false,
                }
            }
        }
        true
    }

    /// Returns a copy of the matrix with the listed rows replaced by new
    /// `(column, value)` contents, splicing the CSR arrays in one pass.
    ///
    /// Unchanged rows are copied verbatim (`memcpy`-sized block copies),
    /// which is what makes incremental operator updates — rebuild only the
    /// rows a topology edit touched — cheaper than a full
    /// [`CsrMatrix::from_triplets`] rebuild. The result is identical to
    /// building the whole matrix from scratch with the same rows.
    ///
    /// `replacements` must be sorted by row index without duplicates, and
    /// each row's entries must be sorted by column without duplicates.
    ///
    /// # Panics
    /// Panics if a row or column index is out of bounds or the ordering
    /// contract is violated.
    pub fn with_rows_replaced(&self, replacements: &[(usize, Vec<(usize, f32)>)]) -> CsrMatrix {
        for w in replacements.windows(2) {
            assert!(w[0].0 < w[1].0, "replacement rows must be sorted and unique");
        }
        let mut new_nnz = self.nnz();
        for (r, entries) in replacements {
            assert!(*r < self.rows, "replacement row {r} out of bounds for {} rows", self.rows);
            for w in entries.windows(2) {
                assert!(w[0].0 < w[1].0, "row {r} entries must be sorted by column and unique");
            }
            if let Some(&(c, _)) = entries.last() {
                assert!(c < self.cols, "column {c} out of bounds for {} cols", self.cols);
            }
            new_nnz = new_nnz - self.row_nnz(*r) + entries.len();
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(new_nnz);
        let mut values = Vec::with_capacity(new_nnz);
        row_ptr.push(0);
        let mut next = replacements.iter().peekable();
        let mut r = 0;
        while r < self.rows {
            if let Some(&&(rep_row, ref entries)) = next.peek() {
                if rep_row == r {
                    col_idx.extend(entries.iter().map(|&(c, _)| c));
                    values.extend(entries.iter().map(|&(_, v)| v));
                    row_ptr.push(col_idx.len());
                    next.next();
                    r += 1;
                    continue;
                }
                // Copy the untouched span [r, rep_row) as one block.
                let lo = self.row_ptr[r];
                let hi = self.row_ptr[rep_row];
                col_idx.extend_from_slice(&self.col_idx[lo..hi]);
                values.extend_from_slice(&self.values[lo..hi]);
                let base = col_idx.len() - (hi - lo);
                for rr in r..rep_row {
                    row_ptr.push(base + self.row_ptr[rr + 1] - lo);
                }
                r = rep_row;
            } else {
                // Tail: no replacements left.
                let lo = self.row_ptr[r];
                let hi = self.row_ptr[self.rows];
                col_idx.extend_from_slice(&self.col_idx[lo..hi]);
                values.extend_from_slice(&self.values[lo..hi]);
                let base = col_idx.len() - (hi - lo);
                for rr in r..self.rows {
                    row_ptr.push(base + self.row_ptr[rr + 1] - lo);
                }
                r = self.rows;
            }
        }
        CsrMatrix { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }

    /// Applies row replacements, patching `col_idx`/`values` **in place**
    /// for every replaced row that keeps its non-zero count — the common
    /// incremental-rewiring case where the neighbour rows of an edit only
    /// re-weight — and routing only the rows that grow or shrink through
    /// one [`with_rows_replaced`](CsrMatrix::with_rows_replaced) splice.
    /// Returns how many rows took the in-place path; the result is always
    /// identical to `with_rows_replaced` on the full input.
    ///
    /// Callers holding the matrix behind a shared handle must go through
    /// `Rc::make_mut` (copy-on-write) so outstanding snapshots keep
    /// observing the pre-edit operator.
    ///
    /// `replacements` obeys the same ordering contract as
    /// `with_rows_replaced`.
    ///
    /// # Panics
    /// Panics if a row or column index is out of bounds or the ordering
    /// contract is violated.
    pub fn apply_rows(&mut self, replacements: &[(usize, Vec<(usize, f32)>)]) -> usize {
        for w in replacements.windows(2) {
            assert!(w[0].0 < w[1].0, "replacement rows must be sorted and unique");
        }
        let mut resized: Vec<(usize, Vec<(usize, f32)>)> = Vec::new();
        let mut in_place = 0usize;
        for (r, entries) in replacements {
            assert!(*r < self.rows, "row {r} out of bounds for {} rows", self.rows);
            for w in entries.windows(2) {
                assert!(w[0].0 < w[1].0, "row {r} entries must be sorted by column and unique");
            }
            if let Some(&(c, _)) = entries.last() {
                assert!(c < self.cols, "column {c} out of bounds for {} cols", self.cols);
            }
            if self.row_nnz(*r) == entries.len() {
                let lo = self.row_ptr[*r];
                for (i, &(c, v)) in entries.iter().enumerate() {
                    self.col_idx[lo + i] = c;
                    self.values[lo + i] = v;
                }
                in_place += 1;
            } else {
                resized.push((*r, entries.clone()));
            }
        }
        if !resized.is_empty() {
            // The splice reads the already-patched storage; the row sets
            // are disjoint, so the order of the two phases cannot matter.
            *self = self.with_rows_replaced(&resized);
        }
        in_place
    }

    /// Value at `(r, c)` if stored.
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        let row = &self.col_idx[lo..hi];
        row.binary_search(&c).ok().map(|i| self.values[lo + i])
    }

    /// Row `r`'s column indices and values as two parallel slices.
    #[inline]
    pub(crate) fn row_slices(&self, r: usize) -> (&[usize], &[f32]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    #[inline]
    fn row_entries_inner(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 0, 3.0), (2, 2, 1.0), (0, 2, -1.0)])
    }

    #[test]
    fn triplets_roundtrip_dense() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(0, 1), 2.0);
        assert_eq!(d.get(1, 0), 3.0);
        assert_eq!(d.get(2, 2), 1.0);
        assert_eq!(d.get(0, 2), -1.0);
        assert_eq!(d.get(1, 1), 0.0);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn duplicates_are_summed_zeros_dropped() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 0.0)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), Some(3.0));
        assert_eq!(m.get(1, 1), None);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let m = sample();
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f32 + 0.5);
        let sparse = m.spmm(&x);
        let dense = m.to_dense().matmul(&x);
        assert!(sparse.max_abs_diff(&dense) < 1e-6);
    }

    #[test]
    fn spmm_t_matches_transpose_matmul() {
        let m = sample();
        let x = Matrix::from_fn(3, 2, |r, c| (2 * r + c) as f32);
        let got = m.spmm_t(&x);
        let want = m.to_dense().transpose().matmul(&x);
        assert!(got.max_abs_diff(&want) < 1e-6);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let x = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let id = CsrMatrix::identity(4);
        assert_eq!(id.spmm(&x), x);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A sparse non-negative matrix with an all-zero row.
    fn sparse_features() -> Matrix {
        Matrix::from_fn(6, 9, |r, c| {
            if r == 3 || (r * 7 + c * 5) % 4 != 0 {
                0.0
            } else {
                0.25 * (c + 1) as f32
            }
        })
    }

    #[test]
    fn from_dense_keeps_exactly_the_nonzeros() {
        let d = sparse_features();
        let m = CsrMatrix::from_dense(&d);
        assert_eq!(m.to_dense(), d);
        assert_eq!(m.nnz(), d.as_slice().iter().filter(|&&v| v != 0.0).count());
        assert_eq!(m.row_nnz(3), 0);
    }

    #[test]
    fn dropout_matches_tape_dropout_and_rng_stream() {
        use crate::Tape;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let d = sparse_features();
        let m = CsrMatrix::from_dense(&d);
        let mut dense_rng = StdRng::seed_from_u64(11);
        let mut t = Tape::new();
        let x = t.constant(d);
        let y = t.dropout(x, 0.5, &mut dense_rng);
        let mut sparse_rng = StdRng::seed_from_u64(11);
        let dropped = m.dropout(0.5, &mut sparse_rng);
        assert_eq!(bits(&dropped.to_dense()), bits(t.value(y)));
        assert!(dropped.nnz() < m.nnz(), "half the entries should drop");
        assert_eq!(sparse_rng.gen::<f32>().to_bits(), dense_rng.gen::<f32>().to_bits());
    }

    #[test]
    fn spgemm_matches_dense_spmm_bitwise() {
        let a = CsrMatrix::from_triplets(
            4,
            6,
            &[(0, 0, 0.5), (0, 2, 0.5), (1, 1, 1.0), (2, 0, 0.3), (2, 4, 0.3), (2, 5, 0.4)],
        );
        let b = CsrMatrix::from_dense(&sparse_features());
        let got = a.spgemm(&b);
        let want = a.spmm(&b.to_dense());
        assert_eq!(bits(&got.to_dense()), bits(&want));
        assert_eq!(got, CsrMatrix::from_dense(&want));
        assert_eq!(got.row_nnz(3), 0, "empty operator row");
    }

    #[test]
    fn spgemm_drops_cancelled_entries() {
        let a = CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, -1.0)]);
        let b = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 0, 2.0), (1, 1, 3.0)]);
        let got = a.spgemm(&b);
        assert_eq!(got.row_entries(0).collect::<Vec<_>>(), vec![(1, -3.0)]);
    }

    #[test]
    fn row_dots_are_intersections() {
        let m = CsrMatrix::from_dense(&Matrix::from_vec(
            3,
            4,
            vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0, 5.0, 6.0, 7.0, 0.0],
        ));
        assert_eq!(m.row_dot(0, 2), 1.0 * 5.0 + 2.0 * 7.0);
        assert_eq!(m.row_dot_f64(1, 2), 3.0 * 6.0);
        assert_eq!(m.row_dot(1, 1), 9.0 + 16.0);
        // Disjoint support: exactly +0.0, not the -0.0 of an empty sum.
        assert_eq!(m.row_dot(0, 1).to_bits(), 0.0f32.to_bits());
        assert_eq!(m.row_dot_f64(0, 1).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn spmv_known() {
        let m = sample();
        let y = m.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![2.0 * 2.0 - 3.0, 3.0, 3.0]);
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(sym.is_symmetric(1e-9));
        assert!(!sample().is_symmetric(1e-9));
    }

    #[test]
    fn rows_replaced_matches_full_rebuild() {
        let m = sample();
        // Replace row 1 (grow) and row 2 (shrink to empty).
        let got = m.with_rows_replaced(&[(1, vec![(0, 9.0), (2, 4.0)]), (2, vec![])]);
        let want =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (0, 2, -1.0), (1, 0, 9.0), (1, 2, 4.0)]);
        assert_eq!(got, want);
    }

    #[test]
    fn rows_replaced_noop_and_all() {
        let m = sample();
        assert_eq!(m.with_rows_replaced(&[]), m);
        let rows: Vec<(usize, Vec<(usize, f32)>)> =
            (0..3).map(|r| (r, m.row_entries(r).collect())).collect();
        assert_eq!(m.with_rows_replaced(&rows), m);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn rows_replaced_rejects_unsorted_rows() {
        let m = sample();
        let _ = m.with_rows_replaced(&[(2, vec![]), (1, vec![])]);
    }

    #[test]
    fn from_row_builder_matches_triplets() {
        let m = sample();
        let rows: Vec<Vec<(usize, f32)>> = (0..3).map(|r| m.row_entries(r).collect()).collect();
        let rebuilt = CsrMatrix::from_row_builder(3, 3, |r, out| out.extend(rows[r].iter()));
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn apply_rows_in_place_when_nnz_unchanged() {
        let mut m = sample();
        // Row 0 has nnz 2: same count, different columns and values.
        let patch = vec![(0usize, vec![(0usize, 7.0f32), (1, 8.0)])];
        let want = m.with_rows_replaced(&patch);
        assert_eq!(m.apply_rows(&patch), 1, "same-nnz patch must take the in-place path");
        assert_eq!(m, want);
    }

    #[test]
    fn apply_rows_mixes_in_place_and_splice() {
        let mut m = sample();
        // Row 0 shrinks (2 -> 1, spliced); row 1 keeps nnz 1 (in place);
        // row 2 grows (1 -> 2, spliced). The mix must equal one splice of
        // the full batch.
        let patch = vec![
            (0usize, vec![(2usize, 4.0f32)]),
            (1, vec![(2, 9.0)]),
            (2, vec![(0, 1.0), (1, 2.0)]),
        ];
        let want = m.with_rows_replaced(&patch);
        assert_eq!(m.apply_rows(&patch), 1, "exactly row 1 keeps its nnz");
        assert_eq!(m, want);
    }

    #[test]
    fn apply_rows_splices_on_nnz_change() {
        let mut m = sample();
        let patch = vec![(0usize, vec![(2usize, 4.0f32)]), (2, vec![(0, 1.0), (1, 2.0)])];
        let want = m.with_rows_replaced(&patch);
        assert_eq!(m.apply_rows(&patch), 0, "every row resized: nothing in place");
        assert_eq!(m, want);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn apply_rows_rejects_unsorted_rows() {
        let mut m = sample();
        // Both rows keep their nnz so the in-place path is reached.
        let _ = m.apply_rows(&[(2, vec![(0, 1.0)]), (1, vec![(1, 1.0)])]);
    }
}
