//! All the dot products of one sparse row at a time.
//!
//! The entropy precompute and the feature-kNN need `dot(v, u)` for one
//! row `v` against many rows `u`. Merging the two rows' sorted column
//! indices per pair ([`CsrMatrix::row_dot_f64`]) costs
//! `Σ_u (nnz(v) + nnz(u))` for the row and re-reads `v` once per target.
//! [`RowDots`] keeps a transposed copy of the matrix and can instead
//! scatter `v`'s non-zeros through the columns they sit in: for every
//! column `c` of `v` and every row `u` storing `c`, `acc[u] += v_c · u_c`.
//! That costs `Σ_{c ∈ cols(v)} nnz(col c)` for the whole row, however
//! many targets read it.
//!
//! Neither way always wins: wide bag-of-words features with short
//! columns favour the scatter, while many rows sharing a few columns
//! and short candidate lists favour the merge. [`RowDots::dots`] picks
//! per row from the two exact counts.
//!
//! Both ways give the same bits. A slot of the dense accumulator starts
//! at `+0.0` (the merge's starting value), and the scatter visits `v`'s
//! columns in ascending order, so `acc[u]` receives exactly the merge's
//! products of `(v_c, u_c)`, in the merge's order, through the same
//! [`DotScalar::add_product`] step. The scatter then resets the slots it
//! touched, and only those, by walking the same columns again.

use crate::sparse::CsrMatrix;

/// A scalar sparse dot products accumulate in: `f32` (the steps of
/// [`CsrMatrix::row_dot`]) or `f64` (those of [`CsrMatrix::row_dot_f64`]).
/// `Default` is the starting value `+0.0`.
pub trait DotScalar: Copy + Default {
    /// `self + x · y`, one step of a dot product over a shared column.
    fn add_product(self, x: f32, y: f32) -> Self;
}

impl DotScalar for f32 {
    #[inline]
    fn add_product(self, x: f32, y: f32) -> f32 {
        self + x * y
    }
}

impl DotScalar for f64 {
    #[inline]
    fn add_product(self, x: f32, y: f32) -> f64 {
        self + x as f64 * y as f64
    }
}

/// How [`RowDots::dots`] took one row's dot products.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DotStrategy {
    /// Scatter the row through the transposed columns.
    Scatter,
    /// One sorted-index merge per target.
    Merge,
}

/// Dense per-thread accumulator for [`RowDots::dots`]: one slot per row
/// of the matrix, every slot `+0.0` between calls.
#[derive(Clone, Debug)]
pub struct DotScratch<T> {
    acc: Vec<T>,
}

/// A CSR matrix together with its transpose, answering `dot(v, u)` for
/// one row `v` against a list of rows `u`.
#[derive(Clone, Debug)]
pub struct RowDots {
    rows: CsrMatrix,
    /// `rows` transposed: row `c` lists the rows storing column `c`.
    cols: CsrMatrix,
}

impl RowDots {
    /// Wraps `rows`, building its transpose.
    pub fn new(rows: CsrMatrix) -> Self {
        let cols = rows.transpose();
        Self { rows, cols }
    }

    /// The matrix whose rows are dotted.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.rows
    }

    /// A zeroed accumulator sized for this matrix.
    pub fn scratch<T: DotScalar>(&self) -> DotScratch<T> {
        DotScratch { acc: vec![T::default(); self.rows.rows()] }
    }

    /// Exact work of the scatter for row `v`: `Σ_{c ∈ cols(v)} nnz(col c)`.
    pub fn scatter_cost(&self, v: usize) -> usize {
        self.rows.row_slices(v).0.iter().map(|&c| self.cols.row_nnz(c)).sum()
    }

    /// The cheaper way to take row `v`'s dots with `targets`: the scatter
    /// when its [cost](RowDots::scatter_cost) is strictly below the
    /// merges' exact work `Σ_{u ∈ targets} (nnz(v) + nnz(u))`, else the
    /// merges. Stops reading `targets` once the merges cost more.
    pub fn strategy(&self, v: usize, targets: impl IntoIterator<Item = usize>) -> DotStrategy {
        let scatter = self.scatter_cost(v);
        let nv = self.rows.row_nnz(v);
        let mut merge = 0usize;
        for u in targets {
            merge += nv + self.rows.row_nnz(u);
            if merge > scatter {
                return DotStrategy::Scatter;
            }
        }
        DotStrategy::Merge
    }

    /// Calls `f(u, dot(v, u))` for every `u` of `targets`, in order,
    /// with each dot bit-identical to [`CsrMatrix::row_dot`]`(v, u)` in
    /// `f32` and to [`CsrMatrix::row_dot_f64`]`(v, u)` in `f64`.
    /// Takes the cheaper [`strategy`](RowDots::strategy) and returns it.
    pub fn dots<T, I>(
        &self,
        v: usize,
        targets: I,
        scratch: &mut DotScratch<T>,
        f: impl FnMut(usize, T),
    ) -> DotStrategy
    where
        T: DotScalar,
        I: IntoIterator<Item = usize> + Clone,
    {
        let strategy = self.strategy(v, targets.clone());
        self.dots_by(strategy, v, targets, scratch, f);
        strategy
    }

    /// [`dots`](RowDots::dots) with the strategy given.
    ///
    /// # Panics
    /// Panics if `scratch` was not made by [`scratch`](RowDots::scratch)
    /// on a matrix with as many rows. A panic inside `f` during a scatter
    /// leaves the scratch dirty; do not reuse it after one.
    pub fn dots_by<T: DotScalar>(
        &self,
        strategy: DotStrategy,
        v: usize,
        targets: impl IntoIterator<Item = usize>,
        scratch: &mut DotScratch<T>,
        mut f: impl FnMut(usize, T),
    ) {
        match strategy {
            DotStrategy::Merge => {
                for u in targets {
                    f(u, self.rows.row_dot_as(v, u));
                }
            }
            DotStrategy::Scatter => {
                let acc = scratch.acc.as_mut_slice();
                assert_eq!(acc.len(), self.rows.rows(), "scratch sized for another matrix");
                let (v_cols, v_vals) = self.rows.row_slices(v);
                for (&c, &x) in v_cols.iter().zip(v_vals) {
                    let (us, ys) = self.cols.row_slices(c);
                    for (&u, &y) in us.iter().zip(ys) {
                        acc[u] = acc[u].add_product(x, y);
                    }
                }
                for u in targets {
                    f(u, acc[u]);
                }
                for &c in v_cols {
                    for &u in self.cols.row_slices(c).0 {
                        acc[u] = T::default();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_dense(&Matrix::from_vec(
            4,
            5,
            vec![
                1.0, 0.0, 2.0, 0.0, 0.0, //
                0.0, 3.0, 0.0, 4.0, 0.0, //
                5.0, 6.0, 7.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, 0.0,
            ],
        ))
    }

    #[test]
    fn transpose_round_trips_and_matches_dense() {
        let m = sample();
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (5, 4));
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        assert_eq!(t.transpose(), m);
        assert_eq!(t.row_nnz(4), 0, "an empty column is an empty row");
    }

    #[test]
    fn costs_are_exact_counts() {
        let d = RowDots::new(sample());
        // Row 2 stores columns 0, 1, 2, held by 2, 2 and 2 rows.
        assert_eq!(d.scatter_cost(2), 6);
        assert_eq!(d.strategy(2, [3]), DotStrategy::Merge, "3 < 6");
        assert_eq!(d.strategy(2, [2]), DotStrategy::Merge, "a tie merges: 6 = 6");
        assert_eq!(d.strategy(2, [0, 1]), DotStrategy::Scatter, "10 > 6");
        assert_eq!(d.strategy(3, 0..4), DotStrategy::Scatter, "an empty row scatters nothing");
        assert_eq!(d.strategy(0, []), DotStrategy::Merge, "no targets, no merges");
    }

    #[test]
    fn cancelled_and_disjoint_rows_score_positive_zero() {
        // Rows 0·1 cancel exactly, rows 0·2 share no column, and rows
        // 2·3 underflow to -0.0 in f32: every dot must be +0.0 either way.
        let d = RowDots::new(CsrMatrix::from_dense(&Matrix::from_vec(
            4,
            3,
            vec![1.0, 1.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 1e-30, 0.0, 0.0, -1e-30],
        )));
        for strategy in [DotStrategy::Scatter, DotStrategy::Merge] {
            let mut s = d.scratch::<f32>();
            let mut got = Vec::new();
            d.dots_by(strategy, 0, [1, 2], &mut s, |_, x: f32| got.push(x.to_bits()));
            d.dots_by(strategy, 2, [3], &mut s, |_, x: f32| got.push(x.to_bits()));
            assert_eq!(got, vec![0.0f32.to_bits(); 3], "{strategy:?}");
        }
    }

    #[test]
    fn both_strategies_match_the_merge_and_leave_the_scratch_clean() {
        let d = RowDots::new(sample());
        let mut s = d.scratch::<f64>();
        for v in 0..4 {
            for strategy in [DotStrategy::Scatter, DotStrategy::Merge] {
                let mut got = Vec::new();
                d.dots_by(strategy, v, 0..4, &mut s, |u, x: f64| got.push((u, x.to_bits())));
                let want: Vec<_> =
                    (0..4).map(|u| (u, d.matrix().row_dot_f64(v, u).to_bits())).collect();
                assert_eq!(got, want, "row {v} by {strategy:?}");
                assert!(s.acc.iter().all(|x| x.to_bits() == 0), "scratch left dirty");
            }
        }
    }
}
