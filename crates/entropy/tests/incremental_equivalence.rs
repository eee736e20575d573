//! Property suite: the incremental entropy engine is bit-identical to a
//! from-scratch build (`RelativeEntropyTable::new` +
//! `EntropySequences::build`) over random graphs and random flip traces,
//! for both candidate pools — the same correctness contract
//! `rewire_equivalence.rs` enforces for the rewiring engine. A second
//! engine synced to the reference graph only every few batches
//! (`sync_to`, one net batch) must land on the same bits.

use proptest::prelude::*;

use graphrare_entropy::{
    CandidatePool, EntropyRefreshStats, EntropySequences, IncrementalEntropy,
    RelativeEntropyConfig, RelativeEntropyTable, SequenceConfig,
};
use graphrare_graph::{EdgeEdit, Graph};
use graphrare_telemetry as telemetry;
use graphrare_tensor::Matrix;

/// Deterministic pseudo-features: enough variation for non-trivial entropy
/// rankings without an RNG in the strategy.
fn features(n: usize) -> Matrix {
    Matrix::from_fn(n, 4, |r, c| ((r * 7 + c * 3 + r * c) % 5) as f32 / 4.0)
}

fn graph(n: usize, edges: &[(usize, usize)]) -> Graph {
    let labels: Vec<usize> = (0..n).map(|v| v % 3).collect();
    Graph::from_edges(n, edges, features(n), labels, 3)
}

fn pool_of(idx: u8) -> CandidatePool {
    if idx.is_multiple_of(2) {
        CandidatePool::RemoteRing { hops: 3 }
    } else {
        CandidatePool::GlobalSample { per_node: 4, seed: 11 }
    }
}

/// The engine's full contract against the reference path: its graph
/// mirror, every `H(v, u)` bit, and both rankings of every node must
/// equal a from-scratch build on the reference graph.
fn assert_matches_fresh(
    engine: &IncrementalEntropy,
    reference: &Graph,
    ecfg: &RelativeEntropyConfig,
) {
    assert_eq!(engine.graph().edge_vec(), reference.edge_vec(), "graph mirror diverged");
    let fresh_table = RelativeEntropyTable::new(reference, ecfg);
    let n = reference.num_nodes();
    for v in 0..n {
        for u in 0..n {
            assert_eq!(
                engine.table().entropy(v, u).to_bits(),
                fresh_table.entropy(v, u).to_bits(),
                "H({v},{u}) diverged"
            );
        }
    }
    let fresh = EntropySequences::build(reference, &fresh_table, engine.config());
    assert_eq!(engine.sequences(), &fresh, "rankings diverged from fresh build");
}

fn edits_of(batch: &[(usize, usize, bool)]) -> Vec<(usize, usize, EdgeEdit)> {
    batch
        .iter()
        .map(|&(u, v, add)| (u, v, if add { EdgeEdit::Add } else { EdgeEdit::Remove }))
        .collect()
}

/// Replays a trace of raw (possibly degenerate) flip batches through the
/// engine and, via `apply_edits`, through a reference graph, checking the
/// contract after every batch.
fn run_trace(
    n: usize,
    edges: &[(usize, usize)],
    pool: CandidatePool,
    trace: &[Vec<(usize, usize, bool)>],
    threshold: f64,
) {
    let ecfg = RelativeEntropyConfig::default();
    let cfg = SequenceConfig { pool, max_additions: 8 };
    let mut reference = graph(n, edges);
    let mut engine = IncrementalEntropy::new(&reference, &ecfg, cfg);
    engine.set_wholesale_threshold(threshold);
    for batch in trace {
        reference.apply_edits(&edits_of(batch));
        engine.apply_flips(batch);
        assert_matches_fresh(&engine, &reference, &ecfg);
    }
}

/// Replays a trace through two engines on the same start graph: one fed
/// every batch in turn, one synced to the reference graph only after
/// every `every`-th batch and after the last. At each sync point both
/// must equal a fresh build, so coalescing batches changes no bit.
fn run_sync_trace(
    n: usize,
    edges: &[(usize, usize)],
    pool: CandidatePool,
    trace: &[Vec<(usize, usize, bool)>],
    every: usize,
) {
    let ecfg = RelativeEntropyConfig::default();
    let cfg = SequenceConfig { pool, max_additions: 8 };
    let mut reference = graph(n, edges);
    let mut batched = IncrementalEntropy::new(&reference, &ecfg, cfg);
    let mut synced = IncrementalEntropy::new(&reference, &ecfg, cfg);
    for (i, batch) in trace.iter().enumerate() {
        reference.apply_edits(&edits_of(batch));
        batched.apply_flips(batch);
        if (i + 1) % every == 0 || i + 1 == trace.len() {
            synced.sync_to(&reference);
            assert_matches_fresh(&synced, &reference, &ecfg);
            assert_matches_fresh(&batched, &reference, &ecfg);
        }
    }
}

/// Inserts, right after the first batch, a batch that puts every pair the
/// first batch touched back to its presence in `edges`: pairs that flip
/// and flip back across batches, which a coalesced sync must see as no
/// change at all.
fn with_flip_back(
    n: usize,
    edges: &[(usize, usize)],
    mut trace: Vec<Vec<(usize, usize, bool)>>,
) -> Vec<Vec<(usize, usize, bool)>> {
    let start = graph(n, edges);
    let undo: Vec<(usize, usize, bool)> =
        trace[0].iter().map(|&(u, v, _)| (u, v, start.has_edge(u, v))).collect();
    trace.insert(1, undo);
    trace
}

/// `(n, edges, pool, trace)` — one random replay instance. Flip batches
/// are raw: duplicates, no-op flips and self-loops are all legal inputs
/// and must normalize identically to `apply_edits`.
type Instance = (usize, Vec<(usize, usize)>, u8, Vec<Vec<(usize, usize, bool)>>);

fn arb_instance() -> impl Strategy<Value = Instance> {
    (8usize..24).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), n / 2..3 * n),
            0u8..2,
            proptest::collection::vec(
                proptest::collection::vec((0..n, 0..n, any::<bool>()), 1..2 * n),
                1..6,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs x random flip traces x both candidate pools at the
    /// default fallback threshold. Small `n` with batches up to `2n`
    /// flips crosses the wholesale threshold naturally, so both the
    /// per-row path and the fallback are exercised.
    #[test]
    fn incremental_matches_fresh_build((n, edges, pool_idx, trace) in arb_instance()) {
        run_trace(n, &edges, pool_of(pool_idx), &trace, 0.5);
    }

    /// Never-fallback variant: threshold above 1 forces the per-row path
    /// even for batches that dirty every node, the hardest case for the
    /// dirty-set rules.
    #[test]
    fn per_row_path_matches_fresh_build((n, edges, pool_idx, trace) in arb_instance()) {
        run_trace(n, &edges, pool_of(pool_idx), &trace, 2.0);
    }

    /// `sync_to` every 1–3 batches (and after the last) matches the
    /// batch-by-batch engine and a fresh build, including traces whose
    /// first batch is undone by the second.
    #[test]
    fn sync_to_matches_batched_and_fresh_build(
        (n, edges, pool_idx, trace) in arb_instance(),
        every in 1usize..4,
        flip_back in any::<bool>(),
    ) {
        let trace = if flip_back { with_flip_back(n, &edges, trace) } else { trace };
        run_sync_trace(n, &edges, pool_of(pool_idx), &trace, every);
    }
}

/// Summed count of spans at paths `root/…/leaf` in `summary`. Telemetry is
/// process-global and the other tests here run concurrently, so counts
/// are taken under a root span only this thread opens.
fn spans_under(summary: &telemetry::Summary, root: &str, leaf: &str) -> u64 {
    summary
        .paths
        .iter()
        .filter(|p| {
            p.path.starts_with(&format!("{root}/")) && p.path.ends_with(&format!("/{leaf}"))
        })
        .map(|p| p.count)
        .sum()
}

/// Syncing to a graph with the engine's own edge set — the same graph, or
/// one reached by a round trip of edits — does nothing: default stats,
/// unchanged rankings, and no `entropy.incremental_refresh` span. A real
/// sync under a second root records exactly one, so the span check is live.
#[test]
fn sync_to_identical_graph_is_a_noop() {
    let n = 12;
    let edges: Vec<(usize, usize)> =
        (0..n - 1).map(|i| (i, i + 1)).chain([(0, 6), (3, 9)]).collect();
    let ecfg = RelativeEntropyConfig::default();
    telemetry::set_enabled(true);
    for pool in [
        CandidatePool::RemoteRing { hops: 3 },
        CandidatePool::GlobalSample { per_node: 4, seed: 7 },
    ] {
        let g = graph(n, &edges);
        let mut engine =
            IncrementalEntropy::new(&g, &ecfg, SequenceConfig { pool, max_additions: 8 });
        let before = engine.sequences().clone();
        let mut round_trip = g.clone();
        round_trip.apply_edits(&[(0, 5, EdgeEdit::Add), (1, 2, EdgeEdit::Remove)]);
        round_trip.apply_edits(&[(0, 5, EdgeEdit::Remove), (1, 2, EdgeEdit::Add)]);
        {
            let _root = telemetry::span("test.sync_noop");
            assert_eq!(engine.sync_to(&g), EntropyRefreshStats::default());
            assert_eq!(engine.sync_to(&round_trip), EntropyRefreshStats::default());
        }
        assert_eq!(engine.sequences(), &before);
        assert_eq!(engine.graph().edge_vec(), g.edge_vec());

        let mut changed = g.clone();
        changed.apply_edits(&[(0, 5, EdgeEdit::Add)]);
        {
            let _root = telemetry::span("test.sync_control");
            assert_ne!(engine.sync_to(&changed), EntropyRefreshStats::default());
        }
        assert_matches_fresh(&engine, &changed, &ecfg);
    }
    let summary = telemetry::snapshot();
    telemetry::set_enabled(false);
    assert_eq!(spans_under(&summary, "test.sync_noop", "entropy.incremental_refresh"), 0);
    assert_eq!(spans_under(&summary, "test.sync_control", "entropy.incremental_refresh"), 2);
}

/// Deterministic cross-check of the two extreme thresholds: the per-row
/// path and the wholesale fallback must agree with each other (both are
/// pinned to the fresh build by `run_trace`'s assertion).
#[test]
fn thresholds_agree_on_fixed_trace() {
    let n = 12;
    let edges: Vec<(usize, usize)> =
        (0..n - 1).map(|i| (i, i + 1)).chain([(0, 6), (3, 9)]).collect();
    let trace: Vec<Vec<(usize, usize, bool)>> = vec![
        vec![(0, 4, true), (5, 6, false)],
        vec![(2, 10, true), (2, 10, false), (2, 10, true)],
        vec![(1, 2, false), (8, 9, false), (0, 11, true)],
    ];
    for pool in [
        CandidatePool::RemoteRing { hops: 3 },
        CandidatePool::GlobalSample { per_node: 4, seed: 7 },
    ] {
        run_trace(n, &edges, pool, &trace, 0.0); // always wholesale
        run_trace(n, &edges, pool, &trace, 2.0); // never wholesale
    }
}
