//! Node feature entropy (Eqs. 3–4).
//!
//! Node features are embedded (`z_v = φ(x_v)`, Eq. 3) and a pair's
//! probability mass is its softmax-normalised dot product over all pairs:
//! `P(z_v, z_u) = e^{⟨z_v, z_u⟩} / Σ_{i,j} e^{⟨z_i, z_j⟩}`; the feature
//! entropy is `H_f(v, u) = −P log P` (Eq. 4). Because every pair's `P` is
//! far below `1/e`, `−P log P` is monotone in `P`, so larger feature
//! entropy ⇔ more similar features, exactly as the paper states.
//!
//! Two practical notes (both mirrored from the paper's complexity
//! discussion in Sec. IV-A):
//! * dot products are stabilised by subtracting the maximum observed dot
//!   before exponentiation, otherwise `e^{⟨z,z⟩}` overflows `f32` on
//!   bag-of-words features;
//! * the exact normaliser needs all `N²` dots; for large graphs a sampled
//!   estimate is used ([`Normalization::Sampled`]). The normaliser is a
//!   single shared constant, so sampling changes every `H_f` monotonically
//!   and leaves rankings — the only thing GraphRARE consumes — intact.
//!
//! Embeddings are stored in CSR form, so a dot costs the rows' non-zeros
//! instead of the feature width, with the same bits as the dense loop.
//! Passes over all pairs (the exact normaliser, the rescale range, the
//! sequence build) take a whole row's dots at once from [`RowDots`],
//! which scatters the row through the transposed columns or merges it
//! with each target, whichever costs less; single pairs and the sampled
//! estimates merge one pair ([`CsrMatrix::row_dot_f64`]). Both give the
//! same bits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use graphrare_graph::Graph;
use graphrare_tensor::{init, CsrMatrix, Matrix, RowDots};

/// The embedding function `φ` of Eq. (3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Embedding {
    /// Use the raw features (`φ = id`).
    Identity,
    /// Project to `dim` dimensions with a seeded random Gaussian matrix
    /// scaled by `1/sqrt(dim)` (a Johnson–Lindenstrauss sketch). This is
    /// the untrained stand-in for the paper's MLP embedding and keeps dot
    /// products of high-dimensional bag-of-words features well-scaled.
    RandomProjection {
        /// Target dimensionality `h`.
        dim: usize,
        /// Seed of the projection matrix.
        seed: u64,
    },
}

/// How to estimate the global normaliser `Σ_{i,j} e^{⟨z_i, z_j⟩}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Normalization {
    /// Exact double sum (`O(N²)` dots) — fine for a few thousand nodes.
    Exact,
    /// Monte-Carlo estimate from this many uniformly sampled pairs.
    Sampled(usize),
    /// `Exact` below 1500 nodes, `Sampled(200_000)` above.
    Auto,
}

/// Precomputed feature-entropy table: embeddings plus the shared
/// log-normaliser, supporting `O(h)` pairwise queries.
pub struct FeatureEntropyTable {
    /// Embedded features `z_v`, one CSR row per node, with the transpose
    /// for whole-row dots.
    z: RowDots,
    /// Stabiliser subtracted from every dot product.
    max_dot: f64,
    /// `log Σ_{i,j} e^{⟨z_i,z_j⟩ − max_dot}`.
    log_norm: f64,
}

impl FeatureEntropyTable {
    /// Builds the table from a graph's features.
    pub fn new(g: &Graph, embedding: Embedding, normalization: Normalization) -> Self {
        Self::from_features(g.features(), embedding, normalization)
    }

    /// Builds the table from an explicit feature matrix.
    pub fn from_features(
        features: &Matrix,
        embedding: Embedding,
        normalization: Normalization,
    ) -> Self {
        let x = CsrMatrix::from_dense(features);
        let z = match embedding {
            Embedding::Identity => x,
            Embedding::RandomProjection { dim, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let proj = init::normal(&mut rng, features.cols(), dim, 1.0 / (dim as f32).sqrt());
                CsrMatrix::from_dense(&x.spmm(&proj))
            }
        };
        let z = RowDots::new(z);
        let n = z.matrix().rows();
        let normalization = match normalization {
            Normalization::Auto => {
                if n <= 1500 {
                    Normalization::Exact
                } else {
                    Normalization::Sampled(200_000)
                }
            }
            other => other,
        };
        let (max_dot, log_norm) = match normalization {
            Normalization::Exact => exact_log_norm(&z),
            Normalization::Sampled(samples) => sampled_log_norm(z.matrix(), samples),
            Normalization::Auto => unreachable!("resolved above"),
        };
        Self { z, max_dot, log_norm }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.z.matrix().rows()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The embeddings with their transpose, for whole-row dots: row `v`'s
    /// dots with `u` feed [`log_prob_of_dot`](Self::log_prob_of_dot).
    pub(crate) fn dots(&self) -> &RowDots {
        &self.z
    }

    /// Log-probability `log P(z_v, z_u)` under the global pair softmax.
    pub fn log_prob(&self, v: usize, u: usize) -> f64 {
        self.log_prob_of_dot(self.z.matrix().row_dot_f64(v, u))
    }

    /// [`log_prob`](Self::log_prob) of a pair whose dot `⟨z_v, z_u⟩` is
    /// already known.
    #[inline]
    pub(crate) fn log_prob_of_dot(&self, dot: f64) -> f64 {
        dot - self.max_dot - self.log_norm
    }

    /// Feature entropy `H_f(v, u) = −P log P` (Eq. 4). Symmetric; larger
    /// means more similar features.
    pub fn entropy(&self, v: usize, u: usize) -> f64 {
        self.entropy_of_dot(self.z.matrix().row_dot_f64(v, u))
    }

    /// [`entropy`](Self::entropy) of a pair whose dot is already known.
    #[inline]
    pub(crate) fn entropy_of_dot(&self, dot: f64) -> f64 {
        let lp = self.log_prob_of_dot(dot);
        let p = lp.exp();
        if p <= 0.0 {
            0.0
        } else {
            -p * lp
        }
    }
}

/// Exact `(max_dot, log Σ e^{dot − max_dot})` over all ordered pairs.
pub(crate) fn exact_log_norm(z: &RowDots) -> (f64, f64) {
    let n = z.matrix().rows();
    if n == 0 {
        return (0.0, 0.0);
    }
    // Two passes: find the max dot, then the stabilised sum. Symmetry
    // halves the work; the diagonal is counted once per ordered pair.
    // Row `i` takes its dots with `i..n` in one call, in ascending `j`.
    let mut scratch = z.scratch();
    let mut max_dot = f64::NEG_INFINITY;
    for i in 0..n {
        z.dots(i, i..n, &mut scratch, |_, dot| max_dot = max_dot.max(dot));
    }
    let mut sum = 0.0f64;
    for i in 0..n {
        z.dots(i, i..n, &mut scratch, |j, dot| {
            let e = (dot - max_dot).exp();
            sum += if i == j { e } else { 2.0 * e };
        });
    }
    (max_dot, sum.ln())
}

/// Sampled estimate: `Σ ≈ N² · mean(e^{dot − max_dot})` over `samples`
/// uniform ordered pairs.
fn sampled_log_norm(z: &CsrMatrix, samples: usize) -> (f64, f64) {
    let n = z.rows();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_facade);
    let pairs: Vec<(usize, usize)> =
        (0..samples.max(1)).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
    let dots: Vec<f64> = pairs.iter().map(|&(i, j)| z.row_dot_f64(i, j)).collect();
    // Include the self-dot maximum so no query can exceed the stabiliser by
    // much: the largest dot of all is always some ⟨z_i, z_i⟩ pairing when
    // features are non-negative, and cheap to scan exactly.
    let self_max = (0..n).map(|i| z.row_dot_f64(i, i)).fold(f64::NEG_INFINITY, f64::max);
    let max_dot = dots.iter().copied().fold(self_max, f64::max);
    let mean = dots.iter().map(|&d| (d - max_dot).exp()).sum::<f64>() / dots.len() as f64;
    let log_norm = (n as f64).ln() * 2.0 + mean.max(f64::MIN_POSITIVE).ln();
    (max_dot, log_norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features() -> Matrix {
        // Nodes 0 and 1 nearly identical, node 2 different, node 3 zero.
        Matrix::from_vec(
            4,
            3,
            vec![
                1.0, 1.0, 0.0, //
                1.0, 0.9, 0.1, //
                0.0, 0.0, 1.0, //
                0.0, 0.0, 0.0,
            ],
        )
    }

    fn table() -> FeatureEntropyTable {
        FeatureEntropyTable::from_features(&features(), Embedding::Identity, Normalization::Exact)
    }

    #[test]
    fn probabilities_sum_to_one_exactly() {
        let t = table();
        let n = t.len();
        let total: f64 = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| t.log_prob(i, j).exp())
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total P = {total}");
    }

    #[test]
    fn similar_features_have_higher_entropy() {
        let t = table();
        let similar = t.entropy(0, 1);
        let dissimilar = t.entropy(0, 2);
        assert!(similar > dissimilar, "{similar} vs {dissimilar}");
    }

    #[test]
    fn entropy_is_symmetric() {
        let t = table();
        for i in 0..4 {
            for j in 0..4 {
                assert!((t.entropy(i, j) - t.entropy(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn entropy_is_positive_and_finite() {
        let t = table();
        for i in 0..4 {
            for j in 0..4 {
                let h = t.entropy(i, j);
                assert!(h.is_finite() && h > 0.0, "H_f({i},{j}) = {h}");
            }
        }
    }

    #[test]
    fn large_dots_do_not_overflow() {
        // Bag-of-words row with a huge self-dot.
        let m = Matrix::from_vec(2, 2, vec![60.0, 60.0, 1.0, 0.0]);
        let t = FeatureEntropyTable::from_features(&m, Embedding::Identity, Normalization::Exact);
        assert!(t.entropy(0, 0).is_finite());
        assert!(t.entropy(0, 1).is_finite());
    }

    #[test]
    fn sampled_normalizer_preserves_ranking() {
        let exact = table();
        let sampled = FeatureEntropyTable::from_features(
            &features(),
            Embedding::Identity,
            Normalization::Sampled(5_000),
        );
        // Rankings of pairs by entropy must agree.
        let pairs = [(0, 1), (0, 2), (1, 2), (2, 3)];
        let mut by_exact = pairs;
        by_exact.sort_by(|a, b| exact.entropy(a.0, a.1).total_cmp(&exact.entropy(b.0, b.1)));
        let mut by_sampled = pairs;
        by_sampled.sort_by(|a, b| sampled.entropy(a.0, a.1).total_cmp(&sampled.entropy(b.0, b.1)));
        assert_eq!(by_exact, by_sampled);
    }

    #[test]
    fn random_projection_is_deterministic() {
        let f = features();
        let a = FeatureEntropyTable::from_features(
            &f,
            Embedding::RandomProjection { dim: 8, seed: 3 },
            Normalization::Exact,
        );
        let b = FeatureEntropyTable::from_features(
            &f,
            Embedding::RandomProjection { dim: 8, seed: 3 },
            Normalization::Exact,
        );
        assert_eq!(a.entropy(0, 1), b.entropy(0, 1));
    }
}
