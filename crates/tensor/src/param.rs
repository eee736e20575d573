//! Trainable parameters shared between tapes and optimisers.

use std::cell::{Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::matrix::Matrix;

struct ParamInner {
    name: String,
    /// Shared copy-on-write with the tapes that bound it: binding is a
    /// reference-count bump, and an update copies only while a tape still
    /// holds the old value.
    value: Rc<Matrix>,
    grad: Matrix,
}

/// A named, trainable matrix with an accumulated gradient.
///
/// `Param` is a cheap `Rc` handle: cloning it shares storage. A forward pass
/// binds the parameter onto a [`Tape`](crate::tape::Tape) with
/// [`Tape::param`](crate::tape::Tape::param) without copying its value (the
/// tape keeps the value it was bound with); `Tape::backward` then
/// accumulates the parameter's gradient here, where an
/// [`Optimizer`](crate::optim::Optimizer) consumes it.
#[derive(Clone)]
pub struct Param {
    inner: Rc<RefCell<ParamInner>>,
}

impl Param {
    /// Creates a parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        let value = Rc::new(value);
        Self { inner: Rc::new(RefCell::new(ParamInner { name: name.into(), value, grad })) }
    }

    /// The parameter's name (used in diagnostics).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Current value (cloned out of the shared cell).
    pub fn value(&self) -> Matrix {
        Matrix::clone(&self.inner.borrow().value)
    }

    /// Current value as a shared handle, without copying it.
    pub(crate) fn shared_value(&self) -> Rc<Matrix> {
        Rc::clone(&self.inner.borrow().value)
    }

    /// Shape of the parameter.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.borrow().value.shape()
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.inner.borrow().value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current accumulated gradient (cloned).
    pub fn grad(&self) -> Matrix {
        self.inner.borrow().grad.clone()
    }

    /// Borrow of the accumulated gradient, without copying it.
    pub(crate) fn grad_ref(&self) -> Ref<'_, Matrix> {
        Ref::map(self.inner.borrow(), |inner| &inner.grad)
    }

    /// Overwrites the value.
    pub fn set_value(&self, value: Matrix) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(inner.value.shape(), value.shape(), "set_value: shape mismatch");
        inner.value = Rc::new(value);
    }

    /// Adds `g` into the accumulated gradient.
    pub fn accumulate_grad(&self, g: &Matrix) {
        self.inner.borrow_mut().grad.add_assign(g);
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad.fill_zero();
    }

    /// Applies `f(value, grad)` to update the value in place (after a
    /// copy if a live tape still shares the current value).
    pub fn update(&self, f: impl FnOnce(&mut Matrix, &Matrix)) {
        let mut inner = self.inner.borrow_mut();
        let ParamInner { value, grad, .. } = &mut *inner;
        f(Rc::make_mut(value), grad);
    }

    /// Whether two handles share the same storage.
    pub fn same_storage(&self, other: &Param) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Identity key of the shared storage, stable for the lifetime of the
    /// parameter. Used by optimisers to key per-parameter state; the key is
    /// only meaningful while the parameter is alive.
    pub fn storage_key(&self) -> usize {
        Rc::as_ptr(&self.inner) as usize
    }
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        write!(f, "Param({}, {}x{})", inner.name, inner.value.rows(), inner.value.cols())
    }
}

/// Zeroes gradients of all parameters in a slice.
pub fn zero_grads(params: &[Param]) {
    for p in params {
        p.zero_grad();
    }
}

/// Global gradient-norm clipping: rescales all gradients so that their joint
/// L2 norm does not exceed `max_norm`. Returns the pre-clip norm.
pub fn clip_grad_norm(params: &[Param], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        total += p.grad_ref().as_slice().iter().map(|v| v * v).sum::<f32>();
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.inner.borrow_mut().grad.map_inplace(|v| v * scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    #[test]
    fn grads_accumulate_and_zero() {
        let p = Param::new("w", Matrix::zeros(2, 2));
        p.accumulate_grad(&Matrix::ones(2, 2));
        p.accumulate_grad(&Matrix::ones(2, 2));
        assert_eq!(p.grad().as_slice(), &[2.0; 4]);
        p.zero_grad();
        assert_eq!(p.grad().as_slice(), &[0.0; 4]);
    }

    #[test]
    fn clones_share_storage() {
        let p = Param::new("w", Matrix::zeros(1, 1));
        let q = p.clone();
        q.accumulate_grad(&Matrix::scalar(5.0));
        assert_eq!(p.grad().scalar_value(), 5.0);
        assert!(p.same_storage(&q));
    }

    #[test]
    fn tapes_share_the_value_and_updates_copy_on_write() {
        let p = Param::new("w", Matrix::ones(2, 2));
        let storage = Rc::as_ptr(&p.shared_value());
        let mut t = Tape::new();
        let v = t.param(&p);
        assert!(std::ptr::eq(t.value(v), storage), "binding must not copy the value");
        p.update(|w, _| w.fill_zero());
        // The live tape keeps the value it was bound with.
        assert_eq!(t.value(v).as_slice(), &[1.0; 4]);
        assert_eq!(p.value().as_slice(), &[0.0; 4]);
        drop(t);
        // With no tape holding it, an update writes in place.
        let storage = Rc::as_ptr(&p.shared_value());
        p.update(|w, _| w.map_inplace(|x| x + 2.0));
        assert_eq!(Rc::as_ptr(&p.shared_value()), storage);
        assert_eq!(p.value().as_slice(), &[2.0; 4]);
    }

    #[test]
    fn clip_grad_norm_rescales() {
        let p = Param::new("w", Matrix::zeros(1, 2));
        p.accumulate_grad(&Matrix::row_vector(&[3.0, 4.0]));
        let norm = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let g = p.grad();
        let new_norm = (g.as_slice()[0].powi(2) + g.as_slice()[1].powi(2)).sqrt();
        assert!((new_norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_noop_below_threshold() {
        let p = Param::new("w", Matrix::zeros(1, 2));
        p.accumulate_grad(&Matrix::row_vector(&[0.3, 0.4]));
        clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert_eq!(p.grad().as_slice(), &[0.3, 0.4]);
    }
}
