//! Property-based tests of the tensor substrate: algebraic identities
//! that must hold for arbitrary inputs.

use proptest::prelude::*;

use graphrare_tensor::{CsrMatrix, Matrix, Tape};

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn arb_square(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec(-5.0f32..5.0, n * n)
            .prop_map(move |data| Matrix::from_vec(n, n, data))
    })
}

/// A non-negative matrix with about three quarters of its entries zero
/// (bag-of-words-like) and row `zero_row % rows` forced all-zero.
fn arb_sparse_nonneg(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=3 * max_dim, 0usize..64).prop_flat_map(|(r, c, zero_row)| {
        proptest::collection::vec(-3.0f32..1.0, r * c).prop_map(move |data| {
            let mut m = Matrix::from_vec(r, c, data.into_iter().map(|v| v.max(0.0)).collect());
            m.row_mut(zero_row % r).fill(0.0);
            m
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_row_dots_are_bit_identical_to_dense_loops(m in arb_sparse_nonneg(7)) {
        // The dense reference loops exactly as the entropy tables and
        // rewirers computed them before they switched to CSR.
        let csr = CsrMatrix::from_dense(&m);
        for i in 0..m.rows() {
            for j in 0..m.rows() {
                let (a, b) = (m.row(i), m.row(j));
                let dense64: f64 = a.iter().zip(b).map(|(&x, &y)| (x as f64) * (y as f64)).sum();
                let dense32: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                prop_assert_eq!(csr.row_dot_f64(i, j).to_bits(), dense64.to_bits());
                prop_assert_eq!(csr.row_dot(i, j).to_bits(), dense32.to_bits());
            }
        }
    }

    #[test]
    fn sparse_products_are_bit_identical_to_dense(
        m in arb_sparse_nonneg(6),
        seed in 0u64..1000,
    ) {
        // Layer-1 forward (X·W) and backward (Xᵀ·G) on the CSR input match
        // the zero-skipping dense kernels bit for bit.
        let csr = CsrMatrix::from_dense(&m);
        let w = Matrix::from_fn(m.cols(), 3, |k, j| ((seed as usize + 7 * k + j) % 11) as f32 - 5.0);
        let g = Matrix::from_fn(m.rows(), 3, |r, j| ((seed as usize + 3 * r + j) % 7) as f32 * 0.3 - 1.0);
        let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&csr.spmm(&w)), bits(&m.matmul(&w)));
        prop_assert_eq!(bits(&csr.spmm_t(&g)), bits(&m.matmul_tn(&g)));
    }

    #[test]
    fn transpose_is_involution(m in arb_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_left_right(m in arb_square(8)) {
        let id = Matrix::identity(m.rows());
        prop_assert!(m.matmul(&id).max_abs_diff(&m) < 1e-5);
        prop_assert!(id.matmul(&m).max_abs_diff(&m) < 1e-5);
    }

    #[test]
    fn matmul_transpose_fusions_agree(a in arb_matrix(6), b in arb_matrix(6)) {
        // a^T b defined when rows match.
        if a.rows() == b.rows() {
            let fused = a.matmul_tn(&b);
            let explicit = a.transpose().matmul(&b);
            prop_assert!(fused.max_abs_diff(&explicit) < 1e-4);
        }
        if a.cols() == b.cols() {
            let fused = a.matmul_nt(&b);
            let explicit = a.matmul(&b.transpose());
            prop_assert!(fused.max_abs_diff(&explicit) < 1e-4);
        }
    }

    #[test]
    fn softmax_rows_shift_invariant(m in arb_matrix(6), shift in -50.0f32..50.0) {
        let shifted = m.map(|v| v + shift);
        let a = m.softmax_rows();
        let b = shifted.softmax_rows();
        prop_assert!(a.max_abs_diff(&b) < 1e-4);
        for r in 0..a.rows() {
            let sum: f32 = a.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(a.row(r).iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn hcat_then_slice_recovers_parts(a in arb_matrix(5), b in arb_matrix(5)) {
        if a.rows() == b.rows() {
            let cat = a.hcat(&b);
            prop_assert_eq!(cat.cols(), a.cols() + b.cols());
            let mut tape = Tape::new();
            let v = tape.constant(cat);
            let left = tape.slice_cols(v, 0, a.cols());
            let right = tape.slice_cols(v, a.cols(), b.cols());
            prop_assert_eq!(tape.value(left), &a);
            prop_assert_eq!(tape.value(right), &b);
        }
    }

    #[test]
    fn csr_roundtrip_preserves_values(
        entries in proptest::collection::vec((0usize..6, 0usize..6, -5.0f32..5.0), 0..20)
    ) {
        // Deduplicate coordinates so expectations are unambiguous.
        let mut seen = std::collections::HashSet::new();
        let unique: Vec<(usize, usize, f32)> = entries
            .into_iter()
            .filter(|&(r, c, _)| seen.insert((r, c)))
            .filter(|&(_, _, v)| v != 0.0)
            .collect();
        let m = CsrMatrix::from_triplets(6, 6, &unique);
        for &(r, c, v) in &unique {
            prop_assert_eq!(m.get(r, c), Some(v));
        }
        prop_assert_eq!(m.nnz(), unique.len());
        // Dense roundtrip.
        let dense = m.to_dense();
        for &(r, c, v) in &unique {
            prop_assert_eq!(dense.get(r, c), v);
        }
    }

    #[test]
    fn spmm_linear_in_dense_argument(
        entries in proptest::collection::vec((0usize..5, 0usize..5, -3.0f32..3.0), 1..12),
        x in arb_matrix(5),
        alpha in -3.0f32..3.0,
    ) {
        if x.rows() == 5 {
            let m = CsrMatrix::from_triplets(5, 5, &entries);
            let lhs = m.spmm(&x.scale(alpha));
            let rhs = m.spmm(&x).scale(alpha);
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
        }
    }

    #[test]
    fn backward_of_sum_gives_ones(m in arb_matrix(6)) {
        let mut tape = Tape::new();
        let x = tape.leaf(m.clone());
        let s = tape.sum_all(x);
        tape.backward(s);
        let g = tape.grad(x).unwrap();
        prop_assert!(g.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn chain_rule_scale_compose(m in arb_matrix(5), a in -4.0f32..4.0, b in -4.0f32..4.0) {
        // d/dx sum(a * (b * x)) = a * b everywhere.
        let mut tape = Tape::new();
        let x = tape.leaf(m);
        let y = tape.scale(x, b);
        let z = tape.scale(y, a);
        let s = tape.sum_all(z);
        tape.backward(s);
        let g = tape.grad(x).unwrap();
        prop_assert!(g.as_slice().iter().all(|&v| (v - a * b).abs() < 1e-4));
    }

    #[test]
    fn log_softmax_rows_are_log_probabilities(m in arb_matrix(6)) {
        let ls = m.log_softmax_rows();
        for r in 0..ls.rows() {
            let sum: f32 = ls.row(r).iter().map(|&v| v.exp()).sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {r}: {sum}");
            prop_assert!(ls.row(r).iter().all(|&v| v <= 1e-6));
        }
    }
}
