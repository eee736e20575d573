//! First-order optimisers.
//!
//! The paper trains all GNNs with Adam (Section V-C) and the PPO module with
//! Adam via Stable-Baselines3; SGD with momentum is provided for ablations.

use std::collections::HashMap;

use crate::matrix::Matrix;
use crate::param::Param;

/// A gradient-descent style optimiser over shared [`Param`]s.
pub trait Optimizer {
    /// Applies one update step using the currently accumulated gradients,
    /// then leaves gradients untouched (call
    /// [`zero_grads`](crate::param::zero_grads) before the next pass).
    fn step(&mut self, params: &[Param]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Serializable snapshot of an [`Sgd`] optimiser's internal state.
///
/// `velocity[i]` is the momentum buffer of the `i`-th parameter of the
/// `params` slice the snapshot was exported against; parameters the
/// optimiser has never stepped export as zero matrices, which is exactly
/// the state a fresh step would lazily create.
#[derive(Clone, Debug, PartialEq)]
pub struct SgdSnapshot {
    /// Per-parameter momentum buffers, in `params`-slice order.
    pub velocity: Vec<Matrix>,
}

/// Serializable snapshot of an [`Adam`] optimiser's internal state.
///
/// Captures the global step counter `t` (which drives bias correction)
/// and the first/second moment estimates per parameter, in the order of
/// the `params` slice the snapshot was exported against.
#[derive(Clone, Debug, PartialEq)]
pub struct AdamSnapshot {
    /// Global step count (bias-correction exponent).
    pub t: u64,
    /// Per-parameter `(m, v)` moment pairs, in `params`-slice order.
    pub moments: Vec<(Matrix, Matrix)>,
}

/// Stochastic gradient descent with optional momentum and decoupled weight
/// decay.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: HashMap<usize, Matrix>,
}

impl Sgd {
    /// Creates an SGD optimiser.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Self { lr, momentum, weight_decay, velocity: HashMap::new() }
    }

    /// Exports the momentum buffers for `params` (in slice order); never-
    /// stepped parameters export as zeros.
    pub fn export_state(&self, params: &[Param]) -> SgdSnapshot {
        SgdSnapshot {
            velocity: params
                .iter()
                .map(|p| {
                    let (r, c) = p.shape();
                    self.velocity.get(&key(p)).cloned().unwrap_or_else(|| Matrix::zeros(r, c))
                })
                .collect(),
        }
    }

    /// Restores momentum buffers exported by [`Sgd::export_state`] against
    /// the same parameter list (matched by order).
    ///
    /// # Panics
    /// Panics on length or shape mismatch — state files are validated by
    /// the store layer before they reach an optimiser.
    pub fn import_state(&mut self, params: &[Param], snap: &SgdSnapshot) {
        assert_eq!(params.len(), snap.velocity.len(), "sgd import: parameter count mismatch");
        self.velocity.clear();
        for (p, vel) in params.iter().zip(&snap.velocity) {
            assert_eq!(p.shape(), vel.shape(), "sgd import: shape mismatch for {}", p.name());
            self.velocity.insert(key(p), vel.clone());
        }
    }
}

fn key(p: &Param) -> usize {
    // Optimiser state is keyed by the parameter's shared-storage address,
    // stable while the parameter is alive (an optimiser never outlives the
    // model it trains).
    p.storage_key()
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &[Param]) {
        let (lr, momentum, weight_decay) = (self.lr, self.momentum, self.weight_decay);
        for p in params {
            let (rows, cols) = p.shape();
            let entry = self.velocity.entry(key(p)).or_insert_with(|| Matrix::zeros(rows, cols));
            p.update(|value, g| {
                for ((v, vel), &gr) in
                    value.as_mut_slice().iter_mut().zip(entry.as_mut_slice()).zip(g.as_slice())
                {
                    let step = gr + weight_decay * *v;
                    *vel = momentum * *vel + step;
                    *v -= lr * *vel;
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

struct AdamState {
    m: Matrix,
    v: Matrix,
}

/// Adam (Kingma & Ba, 2015) with bias correction and L2 weight decay applied
/// to the gradient (PyTorch `Adam(weight_decay=...)` semantics, which is
/// what the paper's hyper-parameter table refers to).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    state: HashMap<usize, AdamState>,
}

impl Adam {
    /// Creates Adam with the standard betas `(0.9, 0.999)`.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self::with_betas(lr, weight_decay, 0.9, 0.999)
    }

    /// Creates Adam with explicit betas.
    pub fn with_betas(lr: f32, weight_decay: f32, beta1: f32, beta2: f32) -> Self {
        Self { lr, beta1, beta2, eps: 1e-8, weight_decay, t: 0, state: HashMap::new() }
    }

    /// Exports the step counter and moment estimates for `params` (in
    /// slice order); never-stepped parameters export as zero moments.
    pub fn export_state(&self, params: &[Param]) -> AdamSnapshot {
        AdamSnapshot {
            t: self.t,
            moments: params
                .iter()
                .map(|p| {
                    let (r, c) = p.shape();
                    self.state.get(&key(p)).map_or_else(
                        || (Matrix::zeros(r, c), Matrix::zeros(r, c)),
                        |s| (s.m.clone(), s.v.clone()),
                    )
                })
                .collect(),
        }
    }

    /// Restores state exported by [`Adam::export_state`] against the same
    /// parameter list (matched by order). A subsequent [`Optimizer::step`]
    /// continues the original optimisation trajectory bit-for-bit.
    ///
    /// # Panics
    /// Panics on length or shape mismatch — state files are validated by
    /// the store layer before they reach an optimiser.
    pub fn import_state(&mut self, params: &[Param], snap: &AdamSnapshot) {
        assert_eq!(params.len(), snap.moments.len(), "adam import: parameter count mismatch");
        self.t = snap.t;
        self.state.clear();
        for (p, (m, v)) in params.iter().zip(&snap.moments) {
            assert_eq!(p.shape(), m.shape(), "adam import: m shape mismatch for {}", p.name());
            assert_eq!(p.shape(), v.shape(), "adam import: v shape mismatch for {}", p.name());
            self.state.insert(key(p), AdamState { m: m.clone(), v: v.clone() });
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &[Param]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps, weight_decay) =
            (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        for p in params {
            let (rows, cols) = p.shape();
            let entry = self.state.entry(key(p)).or_insert_with(|| AdamState {
                m: Matrix::zeros(rows, cols),
                v: Matrix::zeros(rows, cols),
            });
            p.update(|value, g| {
                for (((w, m), v), &gr) in value
                    .as_mut_slice()
                    .iter_mut()
                    .zip(entry.m.as_mut_slice())
                    .zip(entry.v.as_mut_slice())
                    .zip(g.as_slice())
                {
                    let gr = gr + weight_decay * *w;
                    *m = beta1 * *m + (1.0 - beta1) * gr;
                    *v = beta2 * *v + (1.0 - beta2) * gr * gr;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    *w -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::zero_grads;
    use crate::tape::Tape;

    /// Minimise f(w) = (w - 3)^2 and expect convergence near 3.
    fn quadratic_descent(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let w = Param::new("w", Matrix::scalar(0.0));
        for _ in 0..steps {
            zero_grads(std::slice::from_ref(&w));
            let mut t = Tape::new();
            let vw = t.param(&w);
            let shifted = t.add_scalar(vw, -3.0);
            let loss = t.square(shifted);
            let loss = t.sum_all(loss);
            t.backward(loss);
            opt.step(std::slice::from_ref(&w));
        }
        w.value().scalar_value()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let w = quadratic_descent(&mut opt, 100);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        let w = quadratic_descent(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1, 0.0);
        let w = quadratic_descent(&mut opt, 300);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn weight_decay_shrinks_solution() {
        // With decay the fixed point of (w-3)^2 + (wd/2)w^2 is below 3.
        let mut opt = Adam::new(0.05, 0.5);
        let w = quadratic_descent(&mut opt, 500);
        assert!(w < 2.9 && w > 1.0, "w = {w}");
    }

    /// One full autograd step of `f(w) = (w - 3)^2` for a given parameter.
    fn one_step(opt: &mut dyn Optimizer, w: &Param) {
        zero_grads(std::slice::from_ref(w));
        let mut t = Tape::new();
        let vw = t.param(w);
        let shifted = t.add_scalar(vw, -3.0);
        let loss = t.square(shifted);
        let loss = t.sum_all(loss);
        t.backward(loss);
        opt.step(std::slice::from_ref(w));
    }

    #[test]
    fn adam_export_import_resumes_trajectory_bitwise() {
        let w1 = Param::new("w", Matrix::scalar(0.0));
        let mut opt1 = Adam::new(0.1, 0.01);
        for _ in 0..7 {
            one_step(&mut opt1, &w1);
        }
        let snap = opt1.export_state(std::slice::from_ref(&w1));
        let value_at_snap = w1.value();

        // Fresh optimiser + parameter restored from the snapshot.
        let w2 = Param::new("w", value_at_snap);
        let mut opt2 = Adam::new(0.1, 0.01);
        opt2.import_state(std::slice::from_ref(&w2), &snap);

        for _ in 0..20 {
            one_step(&mut opt1, &w1);
            one_step(&mut opt2, &w2);
        }
        assert_eq!(
            w1.value().as_slice(),
            w2.value().as_slice(),
            "resumed Adam diverged from the uninterrupted trajectory"
        );
    }

    #[test]
    fn adam_export_of_unstepped_params_is_zero() {
        let w = Param::new("w", Matrix::zeros(2, 3));
        let opt = Adam::new(0.1, 0.0);
        let snap = opt.export_state(std::slice::from_ref(&w));
        assert_eq!(snap.t, 0);
        assert_eq!(snap.moments.len(), 1);
        assert_eq!(snap.moments[0].0.as_slice(), &[0.0; 6]);
        assert_eq!(snap.moments[0].1.as_slice(), &[0.0; 6]);
    }

    #[test]
    fn sgd_export_import_resumes_trajectory_bitwise() {
        let w1 = Param::new("w", Matrix::scalar(0.0));
        let mut opt1 = Sgd::new(0.05, 0.9, 0.0);
        for _ in 0..5 {
            one_step(&mut opt1, &w1);
        }
        let snap = opt1.export_state(std::slice::from_ref(&w1));
        let w2 = Param::new("w", w1.value());
        let mut opt2 = Sgd::new(0.05, 0.9, 0.0);
        opt2.import_state(std::slice::from_ref(&w2), &snap);
        for _ in 0..20 {
            one_step(&mut opt1, &w1);
            one_step(&mut opt2, &w2);
        }
        assert_eq!(w1.value().as_slice(), w2.value().as_slice());
    }

    #[test]
    fn learning_rate_roundtrip() {
        let mut opt = Adam::new(0.01, 0.0);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.2);
        assert_eq!(opt.learning_rate(), 0.2);
    }
}
