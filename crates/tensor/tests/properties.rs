//! Property-based tests of the tensor substrate: algebraic identities
//! that must hold for arbitrary inputs.

use std::rc::Rc;

use proptest::prelude::*;

use graphrare_tensor::matrix::{log_softmax_slice, softmax_slice, NT_PANEL};
use graphrare_tensor::{CsrMatrix, DotStrategy, Matrix, RowDots, Tape};

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

/// Signed values drawn from a small table, about half zeros, so rows
/// overlap, cancel exactly (`1·1 + 1·(−1) = +0`), underflow to `±0` in
/// `f32`, or share no column at all; row `empty_row % rows` is all-zero.
fn arb_signed_sparse(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    const VALUES: [f32; 8] = [1.0, -1.0, 2.0, -2.0, 0.5, -3.0, 1e-30, -1e-30];
    (1..=max_rows, 1..=max_cols, 0usize..64).prop_flat_map(|(r, c, empty_row)| {
        proptest::collection::vec(0usize..16, r * c).prop_map(move |picks| {
            let data = picks.into_iter().map(|i| if i < 8 { 0.0 } else { VALUES[i - 8] }).collect();
            let mut m = Matrix::from_vec(r, c, data);
            m.row_mut(empty_row % r).fill(0.0);
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
    fn row_dots_match_pairwise_merges_bit_for_bit(m in arb_signed_sparse(10, 12)) {
        // Both strategies, and the cost rule's pick, give every pair the
        // bits of `row_dot_f64` / `row_dot`, with one scratch per scalar
        // reused across rows and strategies (so a dirty reset shows).
        let csr = CsrMatrix::from_dense(&m);
        prop_assert_eq!(csr.transpose().to_dense(), m.transpose());
        let dots = RowDots::new(csr.clone());
        let (mut s64, mut s32) = (dots.scratch::<f64>(), dots.scratch::<f32>());
        let n = m.rows();
        for v in 0..n {
            for strategy in [None, Some(DotStrategy::Scatter), Some(DotStrategy::Merge)] {
                let (mut got64, mut got32) = (Vec::new(), Vec::new());
                match strategy {
                    None => {
                        dots.dots(v, 0..n, &mut s64, |u, x: f64| got64.push((u, x.to_bits())));
                        dots.dots(v, 0..n, &mut s32, |u, x: f32| got32.push((u, x.to_bits())));
                    }
                    Some(st) => {
                        dots.dots_by(st, v, 0..n, &mut s64, |u, x: f64| got64.push((u, x.to_bits())));
                        dots.dots_by(st, v, 0..n, &mut s32, |u, x: f32| got32.push((u, x.to_bits())));
                    }
                }
                let want64: Vec<_> = (0..n).map(|u| (u, csr.row_dot_f64(v, u).to_bits())).collect();
                let want32: Vec<_> = (0..n).map(|u| (u, csr.row_dot(v, u).to_bits())).collect();
                prop_assert_eq!(got64, want64);
                prop_assert_eq!(got32, want32);
            }
            // A row sharing no column with `v` scores +0.0, never -0.0.
            for u in 0..n {
                let shared = (0..m.cols()).any(|c| m.get(v, c) != 0.0 && m.get(u, c) != 0.0);
                if !shared {
                    prop_assert_eq!(csr.row_dot_f64(v, u).to_bits(), 0.0f64.to_bits());
                    prop_assert_eq!(csr.row_dot(v, u).to_bits(), 0.0f32.to_bits());
                }
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

/// An `r x c` matrix in which about a quarter of the entries are `+0.0`
/// and another quarter `-0.0`.
fn arb_signed_zeros(r: usize, c: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec((0u32..4, -4.0f32..4.0), r * c).prop_map(move |cells| {
        let data = cells
            .into_iter()
            .map(|(kind, v)| match kind {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            })
            .collect();
        Matrix::from_vec(r, c, data)
    })
}

/// `a * b^T` as the scalar dot-product loop `matmul_nt` ran before it was
/// blocked: every output summed from `+0.0` in ascending `k`.
fn matmul_nt_dot_loop(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.rows(), |i, j| {
        let mut acc = 0.0;
        for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
            acc += x * y;
        }
        acc
    })
}

/// Forward values and logit gradients of the fused multi-discrete ops as
/// they were computed before the per-head softmax was shared: each
/// forward and each backward recomputes every head's softmax. `w_lp` and
/// `w_ent` are the upstream gradients of the log-prob and entropy
/// outputs; the returned gradient is the sum of both ops' contributions.
fn multi_discrete_recompute(
    logits: &Matrix,
    arity: usize,
    actions: &[u8],
    w_lp: &[f32],
    w_ent: &[f32],
) -> (Vec<f32>, Vec<f32>, Matrix) {
    let heads = logits.cols() / arity;
    let (mut lp, mut ent) = (Vec::new(), Vec::new());
    for r in 0..logits.rows() {
        let row = logits.row(r);
        let (mut total_lp, mut total_ent) = (0.0f32, 0.0f32);
        for h in 0..heads {
            let mut scratch = row[h * arity..(h + 1) * arity].to_vec();
            log_softmax_slice(&mut scratch);
            total_lp += scratch[actions[r * heads + h] as usize];
            let mut p = row[h * arity..(h + 1) * arity].to_vec();
            softmax_slice(&mut p);
            total_ent -= p.iter().filter(|&&q| q > 0.0).map(|&q| q * q.ln()).sum::<f32>();
        }
        lp.push(total_lp);
        ent.push(total_ent);
    }
    let mut d_lp = Matrix::zeros(logits.rows(), logits.cols());
    let mut d_ent = Matrix::zeros(logits.rows(), logits.cols());
    for r in 0..logits.rows() {
        let row = logits.row(r);
        for h in 0..heads {
            let mut p = row[h * arity..(h + 1) * arity].to_vec();
            softmax_slice(&mut p);
            if w_lp[r] != 0.0 {
                let chosen = actions[r * heads + h] as usize;
                for (k, &pk) in p.iter().enumerate() {
                    let ind = if k == chosen { 1.0 } else { 0.0 };
                    d_lp.add_at(r, h * arity + k, w_lp[r] * (ind - pk));
                }
            }
            if w_ent[r] != 0.0 {
                let h_ent: f32 = -p.iter().filter(|&&q| q > 0.0).map(|&q| q * q.ln()).sum::<f32>();
                for (k, &pk) in p.iter().enumerate() {
                    if pk > 0.0 {
                        d_ent.add_at(r, h * arity + k, w_ent[r] * (-pk * (pk.ln() + h_ent)));
                    }
                }
            }
        }
    }
    d_ent.add_assign(&d_lp);
    (lp, ent, d_ent)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_nt_is_bit_identical_to_the_dot_product_loop(
        (a, b) in (1usize..=4, 0usize..=9, 1usize..=2 * NT_PANEL + 3)
            .prop_flat_map(|(m, k, n)| (arb_signed_zeros(m, k), arb_signed_zeros(n, k)))
    ) {
        // n ranges over full panels, partial panels and a single row;
        // k = 0 leaves every output at +0.0.
        prop_assert_eq!(bits(&a.matmul_nt(&b)), bits(&matmul_nt_dot_loop(&a, &b)));
    }

    #[test]
    fn shared_head_softmax_matches_recompute_in_backward(
        (logits, actions, w_lp, w_ent) in (1usize..=3, 1usize..=5).prop_flat_map(|(b, heads)| (
            proptest::collection::vec(-6.0f32..6.0, b * heads * 3)
                .prop_map(move |v| Matrix::from_vec(b, heads * 3, v)),
            proptest::collection::vec(0u8..3, b * heads),
            proptest::collection::vec((0u32..4, -2.0f32..2.0), b),
            proptest::collection::vec((0u32..4, -2.0f32..2.0), b),
        )),
        entropy_first in any::<bool>(),
    ) {
        // A zero upstream weight exercises the backward's skipped rows.
        let weight = |w: Vec<(u32, f32)>| -> Vec<f32> {
            w.into_iter().map(|(kind, v)| if kind == 0 { 0.0 } else { v }).collect()
        };
        let (w_lp, w_ent) = (weight(w_lp), weight(w_ent));
        let (want_lp, want_ent, want_grad) =
            multi_discrete_recompute(&logits, 3, &actions, &w_lp, &w_ent);

        let rows = logits.rows();
        let mut tape = Tape::new();
        let x = tape.leaf(logits);
        let actions = Rc::new(actions);
        // Either op may be the one that computes the shared softmax.
        let (lp, ent) = if entropy_first {
            let ent = tape.multi_discrete_entropy(x, 3);
            (tape.multi_discrete_log_prob(x, 3, actions), ent)
        } else {
            let lp = tape.multi_discrete_log_prob(x, 3, actions);
            (lp, tape.multi_discrete_entropy(x, 3))
        };
        let wl = tape.mul_const(lp, Rc::new(Matrix::from_vec(rows, 1, w_lp)));
        let we = tape.mul_const(ent, Rc::new(Matrix::from_vec(rows, 1, w_ent)));
        let both = tape.add(wl, we);
        let loss = tape.sum_all(both);
        tape.backward(loss);

        let col_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(tape.value(lp)), col_bits(&want_lp));
        prop_assert_eq!(bits(tape.value(ent)), col_bits(&want_ent));
        prop_assert_eq!(bits(tape.grad(x).unwrap()), bits(&want_grad));
    }
}
