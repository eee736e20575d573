//! Every all-pairs pass that takes whole-row dots ([`RowDots`]) against
//! the per-pair code it replaced, bit for bit: the exact normaliser, the
//! exact rescale range, [`EntropySequences::build`] and
//! [`EntropySequences::rebuild_rows`].
//!
//! The fixture is WebKB-shaped (1703-dim features at 3% density, with
//! non-binary values so that rounding order shows), and the cases must
//! send the cost rule down both strategies at least once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use graphrare_graph::Graph;
use graphrare_tensor::parallel::with_threads;
use graphrare_tensor::{CsrMatrix, DotStrategy, Matrix, RowDots};

use crate::feature::{exact_log_norm, Embedding, FeatureEntropyTable, Normalization};
use crate::relative::{feature_range, RelativeEntropyConfig, RelativeEntropyTable};
use crate::sequences::{
    build_row, by_entropy_asc, by_entropy_desc, candidates_into, BuildScratch, CandidatePool,
    EntropySequences, SequenceConfig,
};

const NODES: usize = 150;

fn wide_sparse_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let feats = Matrix::from_fn(NODES, 1703, |r, _| {
        // Row 7 stays empty: its dots are all +0.0.
        if r != 7 && rng.gen::<f32>() < 0.03 {
            0.25 + rng.gen::<f32>() * 1.75
        } else {
            0.0
        }
    });
    let edges: Vec<(usize, usize)> =
        (0..2 * NODES).map(|_| (rng.gen_range(0..NODES), rng.gen_range(0..NODES))).collect();
    let labels = (0..NODES).map(|v| v % 5).collect();
    Graph::from_edges(NODES, &edges, feats, labels, 5)
}

fn pools() -> [CandidatePool; 4] {
    [
        CandidatePool::RemoteRing { hops: 3 },
        CandidatePool::RemoteRing { hops: 2 },
        CandidatePool::GlobalSample { per_node: 24, seed: 5 },
        // One or two targets per row: the merges win on most rows.
        CandidatePool::GlobalSample { per_node: 1, seed: 9 },
    ]
}

/// A ranking as `(id, entropy bits)`, compared bit for bit.
type RankingBits = Vec<(u32, u32)>;

fn tally(counts: &mut [usize; 2], strategy: DotStrategy) {
    counts[(strategy == DotStrategy::Merge) as usize] += 1;
}

/// The per-pair build of one row that `build_row` replaced.
fn reference_row(
    g: &Graph,
    table: &RelativeEntropyTable,
    cfg: &SequenceConfig,
    v: usize,
    scratch: &mut BuildScratch,
) -> (RankingBits, RankingBits) {
    candidates_into(g, cfg.pool, v, scratch);
    let mut ranked: Vec<(u32, f32)> =
        scratch.targets.iter().map(|&u| (u as u32, table.entropy(v, u) as f32)).collect();
    ranked.sort_unstable_by(by_entropy_desc);
    ranked.truncate(cfg.max_additions);
    let mut dels: Vec<(u32, f32)> =
        g.neighbors(v).map(|u| (u as u32, table.entropy(v, u) as f32)).collect();
    dels.sort_unstable_by(by_entropy_asc);
    (bits(&ranked), bits(&dels))
}

fn bits(list: &[(u32, f32)]) -> RankingBits {
    list.iter().map(|&(u, h)| (u, h.to_bits())).collect()
}

#[test]
fn exact_normaliser_matches_pairwise_reference() {
    let g = wide_sparse_graph(1);
    let z = RowDots::new(CsrMatrix::from_dense(g.features()));
    let m = z.matrix();
    let mut max_dot = f64::NEG_INFINITY;
    for i in 0..NODES {
        for j in i..NODES {
            max_dot = max_dot.max(m.row_dot_f64(i, j));
        }
    }
    let mut sum = 0.0f64;
    for i in 0..NODES {
        for j in i..NODES {
            let e = (m.row_dot_f64(i, j) - max_dot).exp();
            sum += if i == j { e } else { 2.0 * e };
        }
    }
    let (got_max, got_log_norm) = exact_log_norm(&z);
    assert_eq!(got_max.to_bits(), max_dot.to_bits());
    assert_eq!(got_log_norm.to_bits(), sum.ln().to_bits());

    let mut counts = [0; 2];
    for i in 0..NODES {
        tally(&mut counts, z.strategy(i, i..NODES));
    }
    assert!(counts[0] > 0 && counts[1] > 0, "scatter/merge rows {counts:?}");
}

#[test]
fn feature_range_matches_pairwise_reference() {
    let g = wide_sparse_graph(2);
    let table = FeatureEntropyTable::new(&g, Embedding::Identity, Normalization::Exact);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in 0..NODES {
        for u in (v + 1)..NODES {
            let h = table.log_prob(v, u);
            lo = lo.min(h);
            hi = hi.max(h);
        }
    }
    let want = (lo, 1.0 / (hi - lo));
    for threads in [1, 3] {
        let got = with_threads(threads, || feature_range(&table, NODES));
        assert_eq!((got.0.to_bits(), got.1.to_bits()), (want.0.to_bits(), want.1.to_bits()));
    }

    let mut counts = [0; 2];
    for v in 0..NODES {
        tally(&mut counts, table.dots().strategy(v, (v + 1)..NODES));
    }
    assert!(counts[0] > 0 && counts[1] > 0, "scatter/merge rows {counts:?}");
}

#[test]
fn sequences_match_pairwise_reference() {
    let g = wide_sparse_graph(3);
    let mut counts = [0; 2];
    for rescale_feature in [true, false] {
        let ecfg = RelativeEntropyConfig { rescale_feature, ..Default::default() };
        let table = RelativeEntropyTable::new(&g, &ecfg);
        let mut scratch = BuildScratch::new(&table);
        for pool in pools() {
            let cfg = SequenceConfig { pool, max_additions: 16 };
            let seqs = with_threads(3, || EntropySequences::build(&g, &table, &cfg));
            for v in 0..NODES {
                let (adds, dels) = reference_row(&g, &table, &cfg, v, &mut scratch);
                assert_eq!(bits(seqs.additions(v)), adds, "{pool:?} additions of {v}");
                assert_eq!(bits(seqs.deletions(v)), dels, "{pool:?} deletions of {v}");
                tally(&mut counts, build_row(&g, &table, &cfg, v, &mut scratch).2);
            }
        }
    }
    assert!(counts[0] > 0 && counts[1] > 0, "scatter/merge rows {counts:?}");
}

#[test]
fn rebuild_rows_matches_pairwise_reference() {
    let g = wide_sparse_graph(4);
    // Flip a handful of edges, then rebuild the touched rows against the
    // flipped graph with the table built on the original one.
    let mut flipped = g.clone();
    let mut rows = Vec::new();
    for (u, v) in [(0, 75), (3, 140), (12, 13), (60, 99)] {
        if !flipped.remove_edge(u, v) {
            flipped.add_edge(u, v);
        }
        rows.extend([u, v]);
    }
    for (u, v) in g.edges().take(3) {
        flipped.remove_edge(u, v);
        rows.extend([u, v]);
    }
    rows.sort_unstable();
    rows.dedup();
    for rescale_feature in [true, false] {
        let ecfg = RelativeEntropyConfig { rescale_feature, ..Default::default() };
        let table = RelativeEntropyTable::new(&g, &ecfg);
        let mut scratch = BuildScratch::new(&table);
        for pool in pools() {
            let cfg = SequenceConfig { pool, max_additions: 16 };
            let mut seqs = EntropySequences::build(&g, &table, &cfg);
            let before = seqs.clone();
            with_threads(2, || seqs.rebuild_rows(&flipped, &table, &cfg, &rows));
            for v in 0..NODES {
                let (adds, dels) = if rows.contains(&v) {
                    reference_row(&flipped, &table, &cfg, v, &mut scratch)
                } else {
                    (bits(before.additions(v)), bits(before.deletions(v)))
                };
                assert_eq!(bits(seqs.additions(v)), adds, "{pool:?} additions of {v}");
                assert_eq!(bits(seqs.deletions(v)), dels, "{pool:?} deletions of {v}");
            }
        }
    }
}
