//! Node relative entropy `H(v, u) = H_f(v, u) + λ·H_s(v, u)` (Eq. 9).

use graphrare_graph::Graph;
use graphrare_tensor::{DotScratch, DotStrategy, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::feature::{Embedding, FeatureEntropyTable, Normalization};
use crate::structural::StructuralEntropyTable;

/// Configuration of the relative-entropy computation.
#[derive(Clone, Copy, Debug)]
pub struct RelativeEntropyConfig {
    /// The paper's `λ` (Eq. 9) weighting structural entropy; Table IV
    /// sweeps {0.1, 0.5, 1.0, 10.0} and settles on 1.0.
    pub lambda: f64,
    /// Embedding function `φ` of Eq. (3).
    pub embedding: Embedding,
    /// Normaliser strategy for the global pair softmax.
    pub normalization: Normalization,
    /// Rescale the feature entropy to `[0, 1]` over the graph so that
    /// `λ = 1` weighs the two terms comparably. `H_s` is already in
    /// `[0, 1]` by construction (Eq. 8), while raw `H_f = −P log P`
    /// values scale like `(log N²)/N²` — without rescaling the λ-sweep
    /// semantics of Table IV (λ=0.1 ≈ feature-only, λ=10 ≈
    /// structure-only) cannot hold. The rescale is min–max in the *log*
    /// domain (`log P`, i.e. the pairwise dot products), which orders
    /// pairs identically to Eq. 4 but spreads them evenly instead of
    /// letting one high-dot pair exponentially squash all others.
    /// Enabled by default.
    pub rescale_feature: bool,
}

impl Default for RelativeEntropyConfig {
    fn default() -> Self {
        Self {
            lambda: 1.0,
            embedding: Embedding::Identity,
            normalization: Normalization::Auto,
            rescale_feature: true,
        }
    }
}

/// Precomputed pairwise node relative entropy.
///
/// Built once before training (Algorithm 1, lines 1–5); queries are `O(h +
/// M)` per pair, or a whole row at a time with
/// [`entropy_row`](Self::entropy_row).
pub struct RelativeEntropyTable {
    feature: FeatureEntropyTable,
    structural: StructuralEntropyTable,
    lambda: f64,
    rescaled: bool,
    f_offset: f64,
    f_scale: f64,
}

impl RelativeEntropyTable {
    /// Computes both entropy components for `g`.
    pub fn new(g: &Graph, cfg: &RelativeEntropyConfig) -> Self {
        // Scoped guards give each build phase its own node in the span
        // tree; the stopwatch laps only feed the summary event below.
        let mut clock = graphrare_telemetry::Stopwatch::start();
        let feature = {
            let _span = graphrare_telemetry::span("entropy.feature_table");
            FeatureEntropyTable::new(g, cfg.embedding, cfg.normalization)
        };
        let feature_ns = clock.lap_ns();
        let structural = {
            let _span = graphrare_telemetry::span("entropy.structural_table");
            StructuralEntropyTable::new(g)
        };
        let structural_ns = clock.lap_ns();
        let (f_offset, f_scale) = {
            let _span = graphrare_telemetry::span("entropy.feature_range");
            if cfg.rescale_feature {
                feature_range(&feature, g.num_nodes())
            } else {
                (0.0, 1.0)
            }
        };
        let range_ns = clock.lap_ns();
        graphrare_telemetry::emit_with(|| {
            graphrare_telemetry::Event::new("entropy_table")
                .u64("nodes", g.num_nodes() as u64)
                .u64("feature_ns", feature_ns)
                .u64("structural_ns", structural_ns)
                .u64("range_ns", range_ns)
        });
        Self {
            feature,
            structural,
            lambda: cfg.lambda,
            rescaled: cfg.rescale_feature,
            f_offset,
            f_scale,
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.structural.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.structural.is_empty()
    }

    /// The λ in use.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Feature entropy `H_f(v, u)` after optional rescaling (see
    /// [`RelativeEntropyConfig::rescale_feature`]); without rescaling this
    /// is exactly Eq. 4's `−P log P`.
    pub fn feature_entropy(&self, v: usize, u: usize) -> f64 {
        self.feature_entropy_of_dot(self.feature.dots().matrix().row_dot_f64(v, u))
    }

    /// [`feature_entropy`](Self::feature_entropy) of a pair whose
    /// embedding dot is already known.
    #[inline]
    fn feature_entropy_of_dot(&self, dot: f64) -> f64 {
        if self.rescaled {
            ((self.feature.log_prob_of_dot(dot) - self.f_offset) * self.f_scale).clamp(0.0, 1.0)
        } else {
            self.feature.entropy_of_dot(dot)
        }
    }

    /// Structural entropy `H_s(v, u)` (Eq. 8).
    pub fn structural_entropy(&self, v: usize, u: usize) -> f64 {
        self.structural.entropy(v, u)
    }

    /// Node relative entropy `H(v, u)` (Eq. 9).
    pub fn entropy(&self, v: usize, u: usize) -> f64 {
        self.feature_entropy(v, u) + self.lambda * self.structural_entropy(v, u)
    }

    /// Calls `f(u, H(v, u))` for every `u` of `targets`, in order, each
    /// value bit-identical to [`entropy`](Self::entropy)`(v, u)`. Row `v`'s
    /// feature dots come from one [`RowDots::dots`] call (scatter or
    /// merges, whichever costs less); returns which one it took.
    ///
    /// [`RowDots::dots`]: graphrare_tensor::RowDots::dots
    pub fn entropy_row(
        &self,
        v: usize,
        targets: &[usize],
        scratch: &mut DotScratch<f64>,
        mut f: impl FnMut(usize, f64),
    ) -> DotStrategy {
        self.feature.dots().dots(v, targets.iter().copied(), scratch, |u, dot| {
            f(u, self.feature_entropy_of_dot(dot) + self.lambda * self.structural_entropy(v, u))
        })
    }

    /// A zeroed accumulator for [`entropy_row`](Self::entropy_row), one
    /// per thread.
    pub fn dot_scratch(&self) -> DotScratch<f64> {
        self.feature.dots().scratch()
    }

    /// The structural component table.
    pub fn structural_table(&self) -> &StructuralEntropyTable {
        &self.structural
    }

    /// Refreshes exactly the given structural rows against the current
    /// graph. The feature component depends only on node features, which
    /// topology flips never touch, so it — and the frozen rescale range —
    /// stays valid verbatim.
    pub fn refresh_structural_rows(&mut self, g: &Graph, rows: &[usize]) {
        self.structural.refresh_rows(g, rows);
    }

    /// Rebuilds the whole structural component from scratch (the
    /// incremental engine's wholesale fallback). Feature side untouched,
    /// for the same reason as [`Self::refresh_structural_rows`].
    pub fn rebuild_structural(&mut self, g: &Graph) {
        self.structural = StructuralEntropyTable::new(g);
    }

    /// Dense `N x N` matrix of `H(v, u)` values (Fig. 8 visualisation;
    /// intended for small graphs).
    ///
    /// The upper triangle is computed row-parallel (each output row is
    /// owned by one thread), then mirrored serially; results are
    /// bit-identical for any thread count.
    pub fn dense_matrix(&self) -> Matrix {
        let n = self.len();
        let mut m = Matrix::zeros(n, n);
        graphrare_tensor::parallel::par_for_each_row(m.as_mut_slice(), n, |v, row| {
            for (u, slot) in row.iter_mut().enumerate().skip(v) {
                *slot = self.entropy(v, u) as f32;
            }
        });
        for v in 0..n {
            for u in (v + 1)..n {
                let h = m.get(v, u);
                m.set(u, v, h);
            }
        }
        m
    }
}

/// Min–max range of `log P` over the graph's off-diagonal pairs: exact
/// for small graphs, estimated from 100k sampled pairs otherwise.
/// Returns `(offset, scale)` such that `(log_p - offset) * scale ∈ [0, 1]`.
///
/// The exact branch is a parallel min/max fold over the row index, each
/// row's dots taken in one [`RowDots::dots`] call with a per-thread
/// scratch; min and max are exactly associative, so the result is
/// bit-identical for any thread count. The sampled branch keeps its
/// single sequential RNG stream (it is cheap and its determinism depends
/// on draw order).
///
/// [`RowDots::dots`]: graphrare_tensor::RowDots::dots
pub(crate) fn feature_range(feature: &FeatureEntropyTable, n: usize) -> (f64, f64) {
    // The diagonal is excluded: self-dots of sparse bag-of-words features
    // are far larger than any cross-pair dot and would squash every real
    // candidate pair into a sliver of the unit interval.
    let (lo, hi) = if n <= 1200 {
        let dots = feature.dots();
        let (lo, hi, _) = graphrare_tensor::parallel::par_fold(
            n,
            || (f64::INFINITY, f64::NEG_INFINITY, dots.scratch()),
            |(mut lo, mut hi, mut scratch), v| {
                dots.dots(v, (v + 1)..n, &mut scratch, |_, dot| {
                    let h = feature.log_prob_of_dot(dot);
                    lo = lo.min(h);
                    hi = hi.max(h);
                });
                (lo, hi, scratch)
            },
            |(lo_a, hi_a, scratch), (lo_b, hi_b, _)| (lo_a.min(lo_b), hi_a.max(hi_b), scratch),
        );
        (lo, hi)
    } else {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut rng = StdRng::seed_from_u64(0xfea7);
        for _ in 0..100_000 {
            let v = rng.gen_range(0..n);
            let u = rng.gen_range(0..n);
            if v != u {
                let h = feature.log_prob(v, u);
                lo = lo.min(h);
                hi = hi.max(h);
            }
        }
        (lo, hi)
    };
    if !lo.is_finite() || !hi.is_finite() || hi - lo < 1e-300 {
        (0.0, 1.0)
    } else {
        (lo, 1.0 / (hi - lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphrare_tensor::Matrix;

    fn two_block_graph() -> Graph {
        // Nodes 0-2 share features & labels; 3-5 share different ones.
        let mut feats = Matrix::zeros(6, 4);
        for v in 0..3 {
            feats.set(v, 0, 1.0);
            feats.set(v, 1, 1.0);
        }
        for v in 3..6 {
            feats.set(v, 2, 1.0);
            feats.set(v, 3, 1.0);
        }
        Graph::from_edges(
            6,
            &[(0, 3), (1, 4), (2, 5), (0, 1), (3, 4)],
            feats,
            vec![0, 0, 0, 1, 1, 1],
            2,
        )
    }

    #[test]
    fn entropy_combines_components_linearly() {
        let g = two_block_graph();
        let cfg = RelativeEntropyConfig { lambda: 2.0, ..Default::default() };
        let t = RelativeEntropyTable::new(&g, &cfg);
        let h = t.entropy(0, 1);
        let want = t.feature_entropy(0, 1) + 2.0 * t.structural_entropy(0, 1);
        assert!((h - want).abs() < 1e-12);
    }

    #[test]
    fn same_block_pairs_rank_higher() {
        let g = two_block_graph();
        let t = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
        assert!(
            t.entropy(0, 1) > t.entropy(0, 4),
            "same-block {} vs cross-block {}",
            t.entropy(0, 1),
            t.entropy(0, 4)
        );
    }

    #[test]
    fn rescaled_feature_entropy_in_unit_interval() {
        let g = two_block_graph();
        let t = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
        for v in 0..6 {
            for u in 0..6 {
                let f = t.feature_entropy(v, u);
                assert!((0.0..=1.0).contains(&f), "H_f({v},{u}) = {f}");
            }
        }
    }

    #[test]
    fn lambda_zero_is_feature_only() {
        let g = two_block_graph();
        let cfg = RelativeEntropyConfig { lambda: 0.0, ..Default::default() };
        let t = RelativeEntropyTable::new(&g, &cfg);
        for v in 0..6 {
            for u in 0..6 {
                assert_eq!(t.entropy(v, u), t.feature_entropy(v, u));
            }
        }
    }

    #[test]
    fn dense_matrix_is_symmetric() {
        let g = two_block_graph();
        let t = RelativeEntropyTable::new(&g, &RelativeEntropyConfig::default());
        let m = t.dense_matrix();
        assert_eq!(m.shape(), (6, 6));
        for v in 0..6 {
            for u in 0..6 {
                assert_eq!(m.get(v, u), m.get(u, v));
            }
        }
    }
}
