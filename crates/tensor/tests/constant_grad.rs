//! The tape builds no gradient for a constant operand: backward of
//! `matmul(constant, param)` runs no `g·Wᵀ` kernel at all.
//!
//! Kept in its own test binary because it reads the process-wide
//! telemetry counters, which concurrently running tests would disturb.

use graphrare_tensor::{CsrMatrix, Matrix, Param, Tape};

fn counter(name: &str) -> u64 {
    graphrare_telemetry::snapshot().counter(name)
}

#[test]
fn constant_times_param_backward_runs_no_matmul_nt() {
    graphrare_telemetry::set_enabled(true);
    let x = Matrix::from_fn(8, 5, |r, c| if (r + 2 * c) % 3 == 0 { 1.0 } else { 0.0 });
    let w = Param::new("w", Matrix::from_fn(5, 3, |k, j| 0.1 * (k + j) as f32 - 0.2));

    // Dense constant input.
    let mut t = Tape::new();
    let vx = t.constant(x.clone());
    let vw = t.param(&w);
    let y = t.matmul(vx, vw);
    let s = t.sum_all(y);
    let (nt_before, tn_before) =
        (counter("kernel.matmul_nt.calls"), counter("kernel.matmul_tn.calls"));
    t.backward(s);
    assert_eq!(counter("kernel.matmul_nt.calls"), nt_before, "gradient built for the constant");
    assert_eq!(counter("kernel.matmul_tn.calls"), tn_before + 1, "param gradient still built");
    let dense_grad = w.grad();
    let want = x.matmul_tn(&Matrix::ones(8, 3));
    assert_eq!(dense_grad, want);

    // The same product with the constant in CSR form: spmm backward is the
    // param gradient alone, bit-identical to the dense tape's.
    w.zero_grad();
    let mut t = Tape::new();
    let vw = t.param(&w);
    let y = t.spmm(std::rc::Rc::new(CsrMatrix::from_dense(&x)), vw);
    let s = t.sum_all(y);
    let nt_before = counter("kernel.matmul_nt.calls");
    t.backward(s);
    assert_eq!(counter("kernel.matmul_nt.calls"), nt_before);
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&w.grad()), bits(&dense_grad));
}
