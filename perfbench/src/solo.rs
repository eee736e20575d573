//! Solo workloads: one `graphrare` run at a time through the public
//! calls the CLI makes (`RareDriver::new` → `try_step` until `false` →
//! `try_finish`), on a graph, split and config generated from the seed.

use std::path::Path;
use std::time::Instant;

use graphrare::{persist, GraphRareConfig, RareDriver, RareReport};
use graphrare_datasets::{generate_spec, stratified_split, Dataset, DatasetSpec, Split};
use graphrare_gnn::{build_model, evaluate, Backbone, GraphTensors, Trainer};
use graphrare_graph::Graph;
use graphrare_telemetry as telemetry;

use crate::layers;
use crate::stats::{secs, Ledger, Samples};
use crate::Args;

/// One solo workload's shape.
pub struct Workload {
    spec: DatasetSpec,
    steps: usize,
    entropy_refresh_every: usize,
    /// Warm-up epochs, final-phase epochs per candidate graph, and
    /// fine-tune epochs per improving step. Patience is raised to the
    /// longest phase so no phase stops early: every seed trains the same
    /// number of epochs, and run time follows the program's speed rather
    /// than the epoch at which one seed's validation accuracy peaks.
    epochs: (usize, usize, usize),
    /// `RareDriver::new` calls timed before the run window, on top of
    /// the one inside every run.
    setup_reps: usize,
    /// Repetitions of each direct layer call in the traced pass.
    direct_reps: usize,
}

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        let mini = Dataset::Chameleon.spec_mini();
        Some(match name {
            // Chameleon's full 2325-dim sparse features at N=300: wide
            // GNN training and entropy precompute dominate. The phases
            // whose total length depends on the learning path (one final
            // epoch per candidate graph, fine-tunes) are one epoch each.
            "chameleon_wide" => Workload {
                spec: Dataset::Chameleon.spec().scaled(300, 2325),
                steps: 20,
                entropy_refresh_every: 0,
                epochs: (40, 1, 1),
                setup_reps: 2,
                direct_reps: 3,
            },
            // Mini Chameleon with enough DRL steps that try_step is most
            // of the run.
            "drl_loop_mini" => Workload {
                spec: mini,
                steps: 1000,
                entropy_refresh_every: 0,
                epochs: (40, 10, 5),
                setup_reps: 4,
                direct_reps: 5,
            },
            // The same graph with sequences refreshed every 20 steps: the
            // incremental entropy engine absorbs edge flips every step.
            "entropy_refresh_mini" => Workload {
                spec: mini,
                steps: 40,
                entropy_refresh_every: 20,
                epochs: (40, 10, 5),
                setup_reps: 4,
                direct_reps: 5,
            },
            _ => return None,
        })
    }

    fn config(&self, seed: u64) -> GraphRareConfig {
        let mut cfg = GraphRareConfig::default().with_seed(seed);
        cfg.steps = self.steps;
        cfg.entropy_refresh_every = self.entropy_refresh_every;
        cfg.threads = 1;
        (cfg.warmup_epochs, cfg.train.epochs, cfg.finetune_epochs) = self.epochs;
        cfg.train.patience = cfg.warmup_epochs.max(cfg.train.epochs);
        cfg
    }
}

/// One complete run and its timings.
pub(crate) struct RunOut {
    setup_s: f64,
    step_ms: Samples,
    finish_s: f64,
    run_s: f64,
    pub(crate) report: RareReport,
}

pub(crate) fn run_once(g: &Graph, split: &Split, cfg: &GraphRareConfig) -> Result<RunOut, String> {
    let t0 = Instant::now();
    let mut driver = RareDriver::new(g, split, Backbone::Gcn, cfg);
    let setup_s = secs(t0);
    let mut step_ms = Samples::default();
    loop {
        let t = Instant::now();
        let stepped = driver.try_step().map_err(|e| format!("try_step failed: {e}"))?;
        if !stepped {
            break;
        }
        step_ms.push(secs(t) * 1e3);
    }
    let t = Instant::now();
    let report = driver.try_finish().map_err(|e| format!("try_finish failed: {e}"))?;
    let finish_s = secs(t);
    Ok(RunOut { setup_s, step_ms, finish_s, run_s: secs(t0), report })
}

/// Re-derives test accuracy from the report's optimised graph and model
/// parameters through a freshly built model.
fn rederived_test_acc(
    g: &Graph,
    split: &Split,
    cfg: &GraphRareConfig,
    report: &RareReport,
) -> Result<f64, String> {
    let model = build_model(Backbone::Gcn, g.feat_dim(), g.num_classes(), &cfg.model);
    let trainer = Trainer::new(model.as_ref(), &cfg.train);
    persist::apply_model_params(&trainer, &report.model_params).map_err(|e| e.to_string())?;
    let gt = GraphTensors::new(&report.optimized_graph);
    Ok(evaluate(model.as_ref(), &gt, g.labels(), &split.test).accuracy)
}

fn same_outcome(a: &RareReport, b: &RareReport) -> bool {
    a.test_acc.to_bits() == b.test_acc.to_bits()
        && a.best_val_acc.to_bits() == b.best_val_acc.to_bits()
        && a.optimized_graph.edge_vec() == b.optimized_graph.edge_vec()
}

/// Checks one finished run: its test accuracy re-derives exactly, and it
/// matches the reference run of the same inputs when there is one.
fn check_run(
    ledger: &mut Ledger,
    what: &str,
    g: &Graph,
    split: &Split,
    cfg: &GraphRareConfig,
    out: &RunOut,
    reference: Option<&RareReport>,
) {
    let acc = rederived_test_acc(g, split, cfg, &out.report);
    ledger.check(
        format!("{what}: test_acc re-derived from optimized_graph + model_params"),
        acc.as_ref().is_ok_and(|a| a.to_bits() == out.report.test_acc.to_bits()),
    );
    if let Some(reference) = reference {
        ledger.check(
            format!("{what}: test_acc, best_val_acc and optimized_graph equal the first run's"),
            same_outcome(reference, &out.report),
        );
    }
}

pub fn run(w: &Workload, args: &Args, work: &Path, ledger: &mut Ledger) -> Result<(), String> {
    let g = generate_spec(&w.spec, args.seed);
    let split = stratified_split(g.labels(), g.num_classes(), args.seed);
    let cfg = w.config(args.seed);
    println!(
        "workload: N={} |E|={} feat_dim={} classes={} steps={} refresh_every={} seed={}",
        g.num_nodes(),
        g.num_edges(),
        g.feat_dim(),
        g.num_classes(),
        cfg.steps,
        cfg.entropy_refresh_every,
        args.seed
    );
    if args.trace {
        traced(w, &g, &split, &cfg, work, ledger)
    } else {
        untraced(w, args, &g, &split, &cfg, ledger);
        Ok(())
    }
}

/// The end-to-end pass: telemetry off, whole runs back to back for the
/// requested seconds.
fn untraced(
    w: &Workload,
    args: &Args,
    g: &Graph,
    split: &Split,
    cfg: &GraphRareConfig,
    ledger: &mut Ledger,
) {
    let mut setup = Samples::default();
    for _ in 0..w.setup_reps {
        let t = Instant::now();
        let driver = RareDriver::new(g, split, Backbone::Gcn, cfg);
        setup.push(secs(t));
        drop(driver);
    }
    ledger.attempted += w.setup_reps as u64;

    let (mut run_s, mut step_ms, mut finish_s) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut first: Option<RareReport> = None;
    let t0 = Instant::now();
    loop {
        let out = match run_once(g, split, cfg) {
            Ok(out) => out,
            Err(e) => {
                ledger.check(format!("run {} completes: {e}", run_s.len()), false);
                break;
            }
        };
        ledger.attempted += 2 + out.step_ms.len() as u64;
        setup.push(out.setup_s);
        run_s.push(out.run_s);
        step_ms.extend(&out.step_ms);
        finish_s.push(out.finish_s);
        check_run(ledger, &format!("run {}", run_s.len()), g, split, cfg, &out, first.as_ref());
        first.get_or_insert(out.report);
        // Start another run only if it should end inside the window.
        if secs(t0) + out.run_s > args.seconds {
            break;
        }
    }

    ledger.metric("setup_s", setup.median(), "s");
    ledger.metric("run_s", run_s.median(), "s");
    let peak = telemetry::alloc::snapshot().peak_bytes as f64 / (1u64 << 20) as f64;
    ledger.metric("peak_heap_mib", peak, "MiB");
    ledger.timing("setup_s", &setup, "s");
    ledger.timing("run_s", &run_s, "s");
    ledger.timing("driver.try_step_ms", &step_ms, "ms");
    ledger.timing("driver.try_finish_s", &finish_s, "s");
}

/// The per-layer pass: one untraced run, one run of the same inputs with
/// the telemetry registry on (no sinks), then direct layer calls.
fn traced(
    w: &Workload,
    g: &Graph,
    split: &Split,
    cfg: &GraphRareConfig,
    work: &Path,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let plain = run_once(g, split, cfg)?;
    check_run(ledger, "untraced run", g, split, cfg, &plain, None);

    telemetry::reset();
    telemetry::set_enabled(true);
    let traced = run_once(g, split, cfg);
    let summary = telemetry::snapshot();
    telemetry::set_enabled(false);
    let traced = traced?;
    ledger.attempted += 4 + (plain.step_ms.len() + traced.step_ms.len()) as u64;
    check_run(ledger, "traced run", g, split, cfg, &traced, Some(&plain.report));

    layers::from_summary(&summary, ledger);
    let step_total_s = traced.step_ms.sum() / 1e3;
    ledger.metric(
        "driver.step_unattributed_frac",
        layers::step_unattributed(&summary, step_total_s),
        "fraction",
    );
    ledger.metric("driver.finish_s", traced.finish_s, "s");
    ledger.metric("driver.steps", plain.step_ms.len() as f64, "count");
    ledger.metric("driver.step_ms_p50", plain.step_ms.median(), "ms");
    ledger.metric("driver.step_ms_p95", plain.step_ms.quantile(0.95), "ms");
    ledger.metric("trace.overhead_frac", traced.run_s / plain.run_s - 1.0, "fraction");
    ledger.metric("quality.test_acc", plain.report.test_acc, "fraction");
    ledger.timing("untraced.driver.try_step_ms", &plain.step_ms, "ms");
    ledger.timing("traced.driver.try_step_ms", &traced.step_ms, "ms");
    println!(
        "traced run: setup {:.6} s, finish {:.6} s, run {:.6} s (untraced run {:.6} s)",
        traced.setup_s, traced.finish_s, traced.run_s, plain.run_s
    );

    let entropy_last = plain.report.traces.ppo_stats.last().map_or(0.0, |s| s.entropy as f64);
    layers::policy_entropy(entropy_last, g.num_nodes(), ledger);

    layers::direct_calls(g, split, cfg, w.direct_reps, ledger);
    let (t, bytes) = layers::checkpoint(g, split, cfg, w.direct_reps, &work.join("probe.grrs"))?;
    ledger.metric("store.checkpoint_ms_p50", t.median(), "ms");
    ledger.metric("store.checkpoint_bytes", bytes as f64, "bytes");
    ledger.timing("direct.save_checkpoint_ms", &t, "ms");
    layers::read_graph(g, &work.join("bundle"), w.direct_reps, ledger)
}
