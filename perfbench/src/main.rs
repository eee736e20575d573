//! End-to-end run benchmark for GraphRARE.
//!
//! ```text
//! graphrare-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `chameleon_wide`, `drl_loop_mini`, `entropy_refresh_mini`
//! (solo runs through `RareDriver::new` → `try_step` → `try_finish`) and
//! `serve_mixed_mini` (an in-process `graphrare-serve` daemon driven by
//! two closed-loop socket clients). Every input is generated from
//! `--seed`. `--trace 0` measures with telemetry off and reports the
//! end-to-end metrics; `--trace 1` adds a traced pass plus direct calls
//! into single layers and reports the per-layer metrics. Output checks
//! run in both modes; the last stdout line is one JSON object, and the
//! exit code is 1 when a check failed.

mod layers;
mod serve;
mod solo;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::Ledger;

// Peak live heap (`peak_heap_mib`) and per-span allocation attribution.
graphrare_telemetry::install_counting_allocator!();

/// End-to-end metrics, reported by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("run_s", "s"), ("peak_heap_mib", "MiB")];

/// Per-layer metrics, reported by `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("entropy.table_s", "s"),
    ("entropy.sequences_s", "s"),
    ("entropy.refresh_s", "s"),
    ("entropy.refresh_calls", "count"),
    ("entropy.refresh_reads", "count"),
    ("entropy.refresh_reads_per_rebuild", "ratio"),
    ("entropy.rows_rebuilt", "count"),
    ("entropy.rows_dirty", "count"),
    ("entropy.wholesale_fallbacks", "count"),
    ("gnn.train_epochs", "count"),
    ("gnn.train_epoch_s", "s"),
    ("gnn.epoch_ms_p50", "ms"),
    ("gnn.eval_ms_p50", "ms"),
    ("driver.finish_s", "s"),
    ("driver.steps", "count"),
    ("driver.step_ms_p50", "ms"),
    ("driver.step_ms_p95", "ms"),
    ("driver.step_unattributed_frac", "fraction"),
    ("tensor.matmul.calls", "count"),
    ("tensor.matmul.rows", "count"),
    ("tensor.matmul.s", "s"),
    ("tensor.matmul_nt.calls", "count"),
    ("tensor.matmul_nt.rows", "count"),
    ("tensor.matmul_nt.s", "s"),
    ("tensor.matmul_tn.calls", "count"),
    ("tensor.matmul_tn.rows", "count"),
    ("tensor.matmul_tn.s", "s"),
    ("tensor.spmm.calls", "count"),
    ("tensor.spmm.rows", "count"),
    ("tensor.spmm.s", "s"),
    ("tensor.spmm_t.calls", "count"),
    ("tensor.spmm_t.rows", "count"),
    ("tensor.spmm_t.s", "s"),
    ("rewirer.build_s.ppo", "s"),
    ("rewirer.build_s.dhgr", "s"),
    ("rewirer.build_s.reference", "s"),
    ("rewirer.build_s.none", "s"),
    ("rewirer.propose_ms_p50", "ms"),
    ("rl.updates", "count"),
    ("rl.update_ms_p50", "ms"),
    ("rl.entropy_last", "nats"),
    ("rl.entropy_max", "nats"),
    ("rl.entropy_frac", "fraction"),
    ("rewire.applies", "count"),
    ("rewire.apply_s", "s"),
    ("rewire.apply_ms_p50", "ms"),
    ("rewire.edges_flipped", "count"),
    ("rewire.kept_cache_hits", "count"),
    ("rewire.kept_cache_lookups", "count"),
    ("rewire.kept_cache_hit_ratio", "fraction"),
    ("store.saves", "count"),
    ("store.checkpoint_ms_p50", "ms"),
    ("store.checkpoint_bytes", "bytes"),
    ("serve.runs", "count"),
    ("serve.runs_per_s", "1/s"),
    ("serve.run_latency_s_p50", "s"),
    ("serve.run_latency_s_p90", "s"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.status_ms_p50", "ms"),
    ("serve.fetch_ms_p50", "ms"),
    ("serve.busy", "count"),
    ("io.read_graph_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("quality.test_acc", "fraction"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: graphrare-perfbench --workload chameleon_wide|drl_loop_mini|\
         entropy_refresh_mini|serve_mixed_mini --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    if args.workload.is_empty() || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Per-process scratch directory inside the working directory (paths
/// stay relative so unix socket paths stay short).
fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench_work").join(std::process::id().to_string())
}

fn main() -> ExitCode {
    let args = parse_args();
    let work = work_dir();
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut ledger = Ledger::default();
    let outcome = match args.workload.as_str() {
        "serve_mixed_mini" => serve::run(&args, &work, &mut ledger),
        name => match solo::Workload::named(name) {
            Some(w) => solo::run(&w, &args, &work, &mut ledger),
            None => Err(format!("unknown workload {name}")),
        },
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Ok(mut rest) = std::fs::read_dir(".perfbench_work") {
        if rest.next().is_none() {
            let _ = std::fs::remove_dir(".perfbench_work");
        }
    }
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    ledger.print_details();
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", ledger.result_json(names));
    if ledger.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
