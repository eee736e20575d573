//! Per-layer metrics: read from the program's own telemetry registry
//! after a traced run, or timed by calling single layers directly on the
//! workload's inputs (outside any timed run, telemetry off).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use graphrare::{
    build_rewirer, persist, GraphRareConfig, RareDriver, RewirerKind, TopoState, TopologyOptimizer,
};
use graphrare_datasets::Split;
use graphrare_entropy::{EntropySequences, RelativeEntropyTable};
use graphrare_gnn::{build_model, evaluate, Backbone, GraphTensors};
use graphrare_graph::{io, Graph};
use graphrare_telemetry::{PathSummary, Summary};

use crate::stats::{secs, Ledger, Samples};

const KERNELS: [&str; 5] = ["matmul", "matmul_nt", "matmul_tn", "spmm", "spmm_t"];

/// The busiest path whose span name satisfies `pred` (the same span can
/// sit under warm-up, step and finish phases).
fn busiest(s: &Summary, pred: impl Fn(&str) -> bool) -> Option<&PathSummary> {
    s.paths.iter().filter(|p| pred(p.name())).max_by_key(|p| p.count)
}

fn span_s(s: &Summary, name: &str) -> f64 {
    s.span(name).map_or(0.0, |sp| sp.total_ns as f64 / 1e9)
}

fn p50_ms(p: Option<&PathSummary>) -> f64 {
    p.map_or(0.0, |p| p.p50_ns as f64 / 1e6)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer counters and span totals recorded by the program itself during
/// the traced pass.
pub fn from_summary(s: &Summary, ledger: &mut Ledger) {
    for op in KERNELS {
        let calls = s.counter(&format!("kernel.{op}.calls"));
        let rows = s.counter(&format!("kernel.{op}.rows"));
        ledger.metric(&format!("tensor.{op}.calls"), calls as f64, "count");
        ledger.metric(&format!("tensor.{op}.rows"), rows as f64, "count");
        ledger.metric(&format!("tensor.{op}.s"), span_s(s, &format!("kernel.{op}")), "s");
    }

    let refresh_calls = s.span("entropy.incremental_refresh").map_or(0, |sp| sp.count) as f64;
    let refresh_reads = s.counter("rewire.entropy_refreshes") as f64;
    ledger.metric("entropy.refresh_s", span_s(s, "entropy.incremental_refresh"), "s");
    ledger.metric("entropy.refresh_calls", refresh_calls, "count");
    ledger.metric("entropy.refresh_reads", refresh_reads, "count");
    ledger.metric(
        "entropy.refresh_reads_per_rebuild",
        ratio(refresh_reads, refresh_calls),
        "ratio",
    );
    for name in ["rows_rebuilt", "rows_dirty", "wholesale_fallbacks"] {
        ledger.metric(
            &format!("entropy.{name}"),
            s.counter(&format!("entropy.{name}")) as f64,
            "count",
        );
    }

    ledger.metric("gnn.train_epochs", s.counter("train.epochs") as f64, "count");
    ledger.metric("gnn.train_epoch_s", span_s(s, "train.epoch"), "s");
    ledger.metric("gnn.epoch_ms_p50", p50_ms(busiest(s, |n| n == "train.epoch")), "ms");

    let propose = busiest(s, |n| n.starts_with("rewire.propose."));
    ledger.metric("rewirer.propose_ms_p50", p50_ms(propose), "ms");
    ledger.metric("rl.updates", s.counter("driver.ppo_updates") as f64, "count");

    ledger.metric("rewire.applies", s.counter("rewire.applies") as f64, "count");
    ledger.metric("rewire.apply_s", span_s(s, "rewire.apply"), "s");
    ledger.metric("rewire.apply_ms_p50", p50_ms(busiest(s, |n| n == "rewire.apply")), "ms");
    let flipped = s.counter("rewire.edges_added") + s.counter("rewire.edges_removed");
    ledger.metric("rewire.edges_flipped", flipped as f64, "count");
    let hits = s.counter("rewire.kept_cache_hits") as f64;
    let lookups = hits + s.counter("rewire.kept_cache_misses") as f64;
    ledger.metric("rewire.kept_cache_hits", hits, "count");
    ledger.metric("rewire.kept_cache_lookups", lookups, "count");
    ledger.metric("rewire.kept_cache_hit_ratio", ratio(hits, lookups), "fraction");

    ledger.metric("store.saves", s.counter("store.saves") as f64, "count");
}

/// Policy entropy of the last PPO update against its uniform maximum
/// 2N·ln 3 over `nodes` nodes (a ratio of 1.0 means the updates left the
/// policy uniform).
pub fn policy_entropy(entropy_last: f64, nodes: usize, ledger: &mut Ledger) {
    let entropy_max = 2.0 * nodes as f64 * 3f64.ln();
    ledger.metric("rl.entropy_last", entropy_last, "nats");
    ledger.metric("rl.entropy_max", entropy_max, "nats");
    ledger.metric("rl.entropy_frac", ratio(entropy_last, entropy_max), "fraction");
}

/// Share of the summed `try_step` time (`step_total_s`, timed by the
/// benchmark) that no child span of `driver.step` covers.
pub fn step_unattributed(s: &Summary, step_total_s: f64) -> f64 {
    let covered: f64 = s
        .paths
        .iter()
        .filter(|p| p.name() == "driver.step")
        .map(|p| (p.total_ns - p.self_ns) as f64 / 1e9)
        .sum();
    ratio(step_total_s - covered, step_total_s)
}

fn time<T>(reps: usize, samples: &mut Samples, scale: f64, mut f: impl FnMut() -> T) -> T {
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let v = black_box(f());
        samples.push(secs(t) * scale);
        out = Some(v);
    }
    out.expect("reps > 0")
}

/// Times the public layer entry points the driver hides, on one
/// workload graph: entropy table and sequences, strategy construction,
/// an evaluation forward and a window-end policy update.
pub fn direct_calls(
    g: &Graph,
    split: &Split,
    cfg: &GraphRareConfig,
    reps: usize,
    ledger: &mut Ledger,
) {
    let mut t = Samples::default();
    let table = time(reps, &mut t, 1.0, || RelativeEntropyTable::new(g, &cfg.entropy));
    ledger.metric("entropy.table_s", t.median(), "s");
    ledger.timing("direct.entropy_table_s", &t, "s");

    let mut t = Samples::default();
    let seqs = time(reps, &mut t, 1.0, || EntropySequences::build(g, &table, &cfg.sequences));
    ledger.metric("entropy.sequences_s", t.median(), "s");
    ledger.timing("direct.entropy_sequences_s", &t, "s");

    let topo = TopologyOptimizer::new(g.clone(), seqs, cfg.edit_mode);
    for kind in RewirerKind::ALL {
        let c = GraphRareConfig { rewirer: kind, ..*cfg };
        let mut t = Samples::default();
        time(reps, &mut t, 1.0, || build_rewirer(&topo, &c, &split.train));
        ledger.metric(&format!("rewirer.build_s.{}", kind.name()), t.median(), "s");
        ledger.timing(&format!("direct.rewirer_build_s.{}", kind.name()), &t, "s");
    }

    let model = build_model(Backbone::Gcn, g.feat_dim(), g.num_classes(), &cfg.model);
    let gt = GraphTensors::new(g);
    let mut t = Samples::default();
    time(4 * reps, &mut t, 1e3, || evaluate(model.as_ref(), &gt, g.labels(), &split.val));
    ledger.metric("gnn.eval_ms_p50", t.median(), "ms");
    ledger.timing("direct.evaluate_ms", &t, "ms");

    // Window-end PPO update at the workload's N: fill one update window
    // with proposals, then time the feedback call that runs the update.
    let c = GraphRareConfig { rewirer: RewirerKind::Ppo, ..*cfg };
    let mut agent = build_rewirer(&topo, &c, &split.train);
    let mut state = TopoState::new(topo.k_bounds(c.k_cap), topo.d_bounds(c.k_cap));
    let mut t = Samples::default();
    for _ in 0..reps {
        for i in 0..c.update_every {
            let actions = agent.propose(&state);
            state.apply(&actions);
            let reward = 0.01 * (i as f32 + 1.0);
            if i + 1 == c.update_every {
                let clock = Instant::now();
                black_box(agent.feedback(reward, true, false, &state));
                t.push(secs(clock) * 1e3);
            } else {
                agent.feedback(reward, false, false, &state);
            }
        }
    }
    ledger.metric("rl.update_ms_p50", t.median(), "ms");
    ledger.timing("direct.rl_update_ms", &t, "ms");
}

/// Times `persist::save_checkpoint` on a driver a few steps into a
/// frozen-sequence run over `g`. Returns (per-call milliseconds, bytes).
pub fn checkpoint(
    g: &Graph,
    split: &Split,
    cfg: &GraphRareConfig,
    reps: usize,
    path: &Path,
) -> Result<(Samples, u64), String> {
    // Checkpoints reject entropy-refresh mode, so the probe driver runs
    // with frozen sequences.
    let c = GraphRareConfig { entropy_refresh_every: 0, ..*cfg };
    let mut driver = RareDriver::new(g, split, Backbone::Gcn, &c);
    for _ in 0..c.update_every / 2 {
        driver.try_step().map_err(|e| format!("probe step failed: {e}"))?;
    }
    let mut t = Samples::default();
    let mut bytes = 0;
    for _ in 0..reps {
        let clock = Instant::now();
        bytes = persist::save_checkpoint(path, &driver).map_err(|e| e.to_string())?;
        t.push(secs(clock) * 1e3);
    }
    Ok((t, bytes))
}

/// Times `io::read_graph` on a bundle written from `g`, and checks the
/// round trip keeps the topology and labels.
pub fn read_graph(
    g: &Graph,
    prefix: &Path,
    reps: usize,
    ledger: &mut Ledger,
) -> Result<(), String> {
    io::write_graph(g, prefix).map_err(|e| e.to_string())?;
    let mut t = Samples::default();
    let mut last = None;
    for _ in 0..reps {
        let clock = Instant::now();
        let back = io::read_graph(prefix).map_err(|e| e.to_string())?;
        t.push(secs(clock) * 1e3);
        last = Some(back);
    }
    let back = last.expect("reps > 0");
    ledger.check(
        "io::read_graph returns the written topology and labels",
        back.edge_vec() == g.edge_vec() && back.labels() == g.labels(),
    );
    ledger.metric("io.read_graph_ms", t.median(), "ms");
    ledger.timing("direct.read_graph_ms", &t, "ms");
    Ok(())
}
