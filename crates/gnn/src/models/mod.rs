//! The GNN backbones evaluated in the paper.

pub mod gat;
pub mod gcn;
pub mod h2gcn;
pub mod mlp;
pub mod sage;

pub use gat::Gat;
pub use gcn::Gcn;
pub use h2gcn::H2gcn;
pub use mlp::Mlp;
pub use sage::GraphSage;

use crate::model::{Backbone, GnnModel};

/// Hyper-parameters shared by every backbone (paper Sec. V-C).
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Hidden width (paper selects from {48, 64, 128}).
    pub hidden: usize,
    /// Dropout rate (paper: 0.5).
    pub dropout: f32,
    /// Attention heads for GAT.
    pub gat_heads: usize,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self { hidden: 48, dropout: 0.5, gat_heads: 4, seed: 0 }
    }
}

/// Instantiates a backbone for a dataset shape.
pub fn build_model(
    backbone: Backbone,
    in_dim: usize,
    out_dim: usize,
    cfg: &ModelConfig,
) -> Box<dyn GnnModel> {
    match backbone {
        Backbone::Mlp => Box::new(Mlp::new(in_dim, cfg.hidden, out_dim, cfg.dropout, cfg.seed)),
        Backbone::Gcn => Box::new(Gcn::new(in_dim, cfg.hidden, out_dim, cfg.dropout, cfg.seed)),
        Backbone::Sage => {
            Box::new(GraphSage::new(in_dim, cfg.hidden, out_dim, cfg.dropout, cfg.seed))
        }
        Backbone::Gat => {
            let hidden = cfg.hidden - cfg.hidden % cfg.gat_heads;
            Box::new(Gat::new(in_dim, hidden, out_dim, cfg.gat_heads, cfg.dropout, cfg.seed))
        }
        Backbone::H2gcn => Box::new(H2gcn::new(in_dim, cfg.hidden, out_dim, cfg.dropout, cfg.seed)),
    }
}

/// The dense layer-1 reference the sparse feature input must match bit
/// for bit: each backbone's tests re-run their forward pass with the
/// features as a dense `tape.constant`, `tape.dropout` and
/// `Linear::forward`, and compare one training step against the model's
/// own (sparse-input) forward.
#[cfg(test)]
pub(crate) mod dense_reference {
    use std::rc::Rc;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use graphrare_graph::Graph;
    use graphrare_tensor::param::zero_grads;
    use graphrare_tensor::{Matrix, Tape, Var};

    use crate::model::{GnnModel, GraphTensors};

    /// A graph with sparse non-negative bag-of-words features (about one
    /// entry in four stored) and one all-zero feature row.
    pub fn fixture() -> GraphTensors {
        let feats = Matrix::from_fn(9, 14, |r, c| {
            if r == 4 || (3 * r + 5 * c) % 4 != 0 {
                0.0
            } else {
                0.5 + 0.25 * ((r + c) % 3) as f32
            }
        });
        let edges =
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (0, 5), (2, 7)];
        GraphTensors::new(&Graph::from_edges(9, &edges, feats, vec![0, 1, 2, 0, 1, 2, 0, 1, 2], 3))
    }

    /// The dense layer-1 input: features as a constant, with dropout.
    pub fn dense_input(
        tape: &mut Tape,
        gt: &GraphTensors,
        train: bool,
        p: f32,
        rng: &mut StdRng,
    ) -> Var {
        let x = tape.constant(gt.features().to_dense());
        if train && p > 0.0 {
            tape.dropout(x, p, rng)
        } else {
            x
        }
    }

    /// Loss bits and parameter-gradient bits of one training step.
    fn step(
        model: &dyn GnnModel,
        gt: &GraphTensors,
        forward: impl Fn(&mut Tape, &mut StdRng) -> Var,
    ) -> (u32, Vec<Vec<u32>>, u64) {
        zero_grads(&model.params());
        let mut rng = StdRng::seed_from_u64(17);
        let mut tape = Tape::new();
        let logits = forward(&mut tape, &mut rng);
        let lp = tape.log_softmax_rows(logits);
        let n = gt.num_nodes();
        let labels: Vec<usize> = (0..n).map(|v| v % 3).collect();
        let loss = tape.nll_masked(lp, Rc::new(labels), Rc::new((0..n).collect()));
        tape.backward(loss);
        let grads = model
            .params()
            .iter()
            .map(|p| p.grad().as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        (tape.value(loss).scalar_value().to_bits(), grads, rand::Rng::gen::<u64>(&mut rng))
    }

    /// Asserts that a training step (dropout on) and an evaluation pass
    /// of `model` are bit-identical to `dense`, the same model run on the
    /// dense feature input, and leave the dropout RNG in the same state.
    pub fn assert_matches(
        model: &dyn GnnModel,
        dense: impl Fn(&mut Tape, &GraphTensors, bool, &mut StdRng) -> Var,
    ) {
        let gt = fixture();
        let sparse = step(model, &gt, |t, rng| model.forward(t, &gt, true, rng));
        let reference = step(model, &gt, |t, rng| dense(t, &gt, true, rng));
        assert_eq!(sparse.0, reference.0, "{}: training loss", model.name());
        assert_eq!(sparse.1, reference.1, "{}: parameter gradients", model.name());
        assert_eq!(sparse.2, reference.2, "{}: dropout RNG stream", model.name());
        let eval = |f: &dyn Fn(&mut Tape, &mut StdRng) -> Var| {
            let mut tape = Tape::new();
            let y = f(&mut tape, &mut StdRng::seed_from_u64(0));
            tape.value(y).as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(
            eval(&|t, rng| model.forward(t, &gt, false, rng)),
            eval(&|t, rng| dense(t, &gt, false, rng)),
            "{}: evaluation logits",
            model.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GraphTensors;
    use graphrare_graph::Graph;
    use graphrare_tensor::{Matrix, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn factory_builds_every_backbone() {
        let g = Graph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            Matrix::from_fn(6, 5, |r, c| ((r + c) % 2) as f32),
            vec![0, 1, 2, 0, 1, 2],
            3,
        );
        let gt = GraphTensors::new(&g);
        let cfg = ModelConfig::default();
        for b in Backbone::ALL {
            let m = build_model(b, 5, 3, &cfg);
            let mut t = Tape::new();
            let mut rng = StdRng::seed_from_u64(0);
            let y = m.forward(&mut t, &gt, false, &mut rng);
            assert_eq!(t.value(y).shape(), (6, 3), "{}", m.name());
            assert!(m.num_weights() > 0);
        }
    }
}
