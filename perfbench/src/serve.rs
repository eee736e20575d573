//! `serve_mixed_mini`: an in-process `graphrare-serve` daemon (2 worker
//! slots, default checkpoint cadence) driven over its unix socket by two
//! closed-loop clients. Each client submits a run, polls its status until
//! it is done, fetches the artifact, and only then submits the next one.
//! Runs take 40 steps on mini Cornell/Texas/Wisconsin bundles and cycle
//! the `ppo`/`dhgr`/`reference`/`none` strategies.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use graphrare::{persist, RewirerKind, RlAlgo};
use graphrare_datasets::{generate_mini, stratified_split, Dataset};
use graphrare_gnn::Backbone;
use graphrare_graph::{io, Graph};
use graphrare_serve::{
    Connection, Listen, Request, Response, RunSpec, RunState, ServeConfig, Server,
};
use graphrare_telemetry as telemetry;

use crate::layers;
use crate::solo;
use crate::stats::{secs, Ledger, Samples};
use crate::Args;

const DATASETS: [Dataset; 3] = [Dataset::Cornell, Dataset::Texas, Dataset::Wisconsin];
const CLIENTS: usize = 2;
const STEPS: u64 = 40;
/// Runs every window submits at least, whatever `--seconds` says; the
/// accuracy mean is taken over exactly these.
const MIN_RUNS: u64 = 24;
/// Daemon set-ups timed before the run window.
const SETUP_REPS: usize = 7;
const POLL: Duration = Duration::from_millis(5);
const SETUP_POLL: Duration = Duration::from_millis(1);

struct Inputs {
    seed: u64,
    prefixes: Vec<String>,
    graphs: Vec<Graph>,
}

impl Inputs {
    /// The spec of the `i`-th submitted run.
    fn spec(&self, i: u64) -> RunSpec {
        RunSpec {
            input: self.prefixes[(i % 3) as usize].clone(),
            backbone: Backbone::Gcn,
            steps: STEPS,
            seed: self.seed.wrapping_mul(1000).wrapping_add(i),
            split_seed: self.seed,
            k_cap: 10,
            lambda: 1.0,
            algo: RlAlgo::Ppo,
            threads: 1,
            paced: false,
            rewirer: RewirerKind::ALL[(i % 4) as usize],
        }
    }
}

/// What one closed-loop window observed.
#[derive(Default)]
struct Window {
    wall_s: f64,
    latency_s: Samples,
    submit_ms: Samples,
    status_ms: Samples,
    fetch_ms: Samples,
    requests: u64,
    busy: u64,
    errors: Vec<String>,
    /// Run index → reported test accuracy.
    test_acc: BTreeMap<u64, f64>,
    /// Run index → artifact bytes, for the first run of each strategy.
    artifacts: BTreeMap<u64, Vec<u8>>,
}

impl Window {
    fn merge(&mut self, other: Window) {
        self.latency_s.extend(&other.latency_s);
        self.submit_ms.extend(&other.submit_ms);
        self.status_ms.extend(&other.status_ms);
        self.fetch_ms.extend(&other.fetch_ms);
        self.requests += other.requests;
        self.busy += other.busy;
        self.errors.extend(other.errors);
        self.test_acc.extend(other.test_acc);
        self.artifacts.extend(other.artifacts);
    }
}

/// Starts a daemon over a fresh state directory.
fn start(work: &Path, tag: &str) -> Result<(Server, Listen), String> {
    let state = work.join(format!("state-{tag}"));
    let listen = Listen::Unix(work.join(format!("{tag}.sock")));
    let server = Server::start(ServeConfig::new(&state), std::slice::from_ref(&listen))?;
    Ok((server, listen))
}

/// One daemon set-up: from `Server::start` until the first submitted run
/// has taken its first DRL step — the daemon answers on its socket, and
/// the run has read its bundle and built its driver (entropy, warm-up,
/// strategy). Start-until-accept alone is well under a millisecond and
/// set by thread wake-ups, not by the program's work.
fn setup_once(work: &Path, tag: &str, inputs: &Inputs) -> Result<f64, String> {
    let t = Instant::now();
    let (server, listen) = start(work, tag)?;
    let first_step = || -> Result<f64, String> {
        let mut conn = Connection::connect(&listen).map_err(|e| e.to_string())?;
        let run_id = match conn.request(&Request::SubmitRun(inputs.spec(0))) {
            Ok(Response::Submitted(id)) => id,
            other => return Err(format!("set-up submit answered {other:?}")),
        };
        loop {
            match conn.request(&Request::Status(run_id)) {
                Ok(Response::RunStatus(info)) if info.step >= 1 => break,
                Ok(Response::RunStatus(info)) if info.state.is_terminal() => {
                    return Err(format!("set-up run ended {}: {}", info.state.name(), info.error))
                }
                Ok(Response::RunStatus(_)) => std::thread::sleep(SETUP_POLL),
                other => return Err(format!("set-up status answered {other:?}")),
            }
        }
        let setup_s = secs(t);
        // The run is not needed past its first step.
        let _ = conn.request(&Request::Cancel(run_id));
        Ok(setup_s)
    };
    let outcome = first_step();
    stop(server);
    outcome
}

fn stop(server: Server) {
    server.request_shutdown();
    server.join();
}

fn timed(conn: &mut Connection, req: Request, into: &mut Samples) -> Result<Response, String> {
    let t = Instant::now();
    let resp = conn.request(&req).map_err(|e| e.to_string());
    into.push(secs(t) * 1e3);
    resp
}

/// One client: submit, poll to completion, fetch; repeat until the window
/// closes and at least `MIN_RUNS` runs were handed out.
fn client(
    listen: &Listen,
    inputs: &Inputs,
    next: &AtomicU64,
    t0: Instant,
    seconds: f64,
) -> Result<Window, String> {
    let mut conn = Connection::connect(listen).map_err(|e| e.to_string())?;
    let mut w = Window::default();
    while secs(t0) < seconds || next.load(Ordering::SeqCst) < MIN_RUNS {
        let i = next.fetch_add(1, Ordering::SeqCst);
        let start = Instant::now();
        w.requests += 1;
        let run_id = match timed(&mut conn, Request::SubmitRun(inputs.spec(i)), &mut w.submit_ms)? {
            Response::Submitted(id) => id,
            Response::Busy { .. } => {
                w.busy += 1;
                continue;
            }
            other => {
                w.errors.push(format!("run {i}: submit answered {other:?}"));
                continue;
            }
        };
        let info = loop {
            std::thread::sleep(POLL);
            w.requests += 1;
            match timed(&mut conn, Request::Status(run_id), &mut w.status_ms)? {
                Response::RunStatus(info) if info.state.is_terminal() => break info,
                Response::RunStatus(_) => {}
                other => return Err(format!("run {i}: status answered {other:?}")),
            }
        };
        if info.state != RunState::Done {
            w.errors.push(format!("run {i} ended {}: {}", info.state.name(), info.error));
            continue;
        }
        w.requests += 1;
        match timed(&mut conn, Request::FetchResult(run_id), &mut w.fetch_ms)? {
            Response::RunResult { artifact, .. } => {
                w.latency_s.push(secs(start));
                w.test_acc.insert(i, info.test_acc);
                if i < RewirerKind::ALL.len() as u64 {
                    w.artifacts.insert(i, artifact);
                }
            }
            other => w.errors.push(format!("run {i}: fetch answered {other:?}")),
        }
    }
    Ok(w)
}

/// A daemon start plus `CLIENTS` closed-loop clients for `seconds`.
fn window(work: &Path, tag: &str, inputs: &Inputs, seconds: f64) -> Result<Window, String> {
    let (server, listen) = start(work, tag)?;
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let outcomes: Vec<Result<Window, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client(&listen, inputs, &next, t0, seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    let wall_s = secs(t0);
    stop(server);
    let mut w = Window { wall_s, ..Window::default() };
    for outcome in outcomes {
        w.merge(outcome?);
    }
    Ok(w)
}

/// Runs the first spec of each strategy solo (the CLI's path) and checks
/// the served artifact bytes and accuracy against it. Returns the solo
/// `ppo` run's last policy entropy and its graph's node count.
fn check_against_solo(
    inputs: &Inputs,
    w: &Window,
    work: &Path,
    ledger: &mut Ledger,
) -> Result<(f64, usize), String> {
    let mut ppo_entropy = (0.0, 0);
    for i in 0..RewirerKind::ALL.len() as u64 {
        let spec = inputs.spec(i);
        let g = io::read_graph(Path::new(&spec.input)).map_err(|e| e.to_string())?;
        let split = stratified_split(g.labels(), g.num_classes(), spec.split_seed);
        let cfg = spec.to_config();
        let out = solo::run_once(&g, &split, &cfg)?;
        let path = work.join(format!("solo-{i}.grrs"));
        persist::save_model(&path, &out.report).map_err(|e| e.to_string())?;
        let solo_bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        let what = format!("run {i} ({}, {})", spec.rewirer.name(), spec.input);
        ledger.check(
            format!("{what}: served artifact bytes equal the solo run's"),
            w.artifacts.get(&i) == Some(&solo_bytes),
        );
        ledger.check(
            format!("{what}: served test_acc equals the solo run's"),
            w.test_acc.get(&i).map(|a| a.to_bits()) == Some(out.report.test_acc.to_bits()),
        );
        if spec.rewirer == RewirerKind::Ppo {
            let last = out.report.traces.ppo_stats.last().map_or(0.0, |s| s.entropy as f64);
            ppo_entropy = (last, g.num_nodes());
        }
    }
    Ok(ppo_entropy)
}

fn record_window(w: &Window, ledger: &mut Ledger, prefix: &str) {
    ledger.attempted += w.requests + w.latency_s.len() as u64;
    ledger.failed += w.busy;
    for e in &w.errors {
        ledger.check(e.clone(), false);
    }
    ledger.timing(&format!("{prefix}run_latency_s"), &w.latency_s, "s");
    ledger.timing(&format!("{prefix}serve.submit_ms"), &w.submit_ms, "ms");
    ledger.timing(&format!("{prefix}serve.status_ms"), &w.status_ms, "ms");
    ledger.timing(&format!("{prefix}serve.fetch_ms"), &w.fetch_ms, "ms");
    println!(
        "{prefix}window: {} runs in {:.3} s, {} requests, {} busy",
        w.latency_s.len(),
        w.wall_s,
        w.requests,
        w.busy
    );
}

pub fn run(args: &Args, work: &Path, ledger: &mut Ledger) -> Result<(), String> {
    let mut inputs = Inputs { seed: args.seed, prefixes: Vec::new(), graphs: Vec::new() };
    for d in DATASETS {
        let g = generate_mini(d, args.seed);
        let prefix: PathBuf = work.join(d.name().to_lowercase());
        io::write_graph(&g, &prefix).map_err(|e| e.to_string())?;
        inputs.prefixes.push(prefix.to_string_lossy().into_owned());
        inputs.graphs.push(g);
    }
    println!(
        "workload: {} clients, 2 worker slots, {STEPS}-step runs, bundles {}, seed={}",
        CLIENTS,
        inputs.prefixes.join(","),
        args.seed
    );

    if !args.trace {
        let mut setup = Samples::default();
        for rep in 0..SETUP_REPS {
            setup.push(setup_once(work, &format!("setup{rep}"), &inputs)?);
        }
        ledger.attempted += SETUP_REPS as u64;
        let w = window(work, "measure", &inputs, args.seconds)?;
        let peak = telemetry::alloc::snapshot().peak_bytes as f64 / (1u64 << 20) as f64;
        record_window(&w, ledger, "");
        check_against_solo(&inputs, &w, work, ledger)?;
        ledger.metric("setup_s", setup.median(), "s");
        // A mean, not a median: the window mixes four strategies of
        // different cost, and the median of that mixture jumps between them.
        ledger.metric("run_s", w.latency_s.mean(), "s");
        ledger.metric("peak_heap_mib", peak, "MiB");
        ledger.timing("setup_s", &setup, "s");
        return Ok(());
    }

    // Per-layer pass: an untraced window, then the same window with the
    // registry on (the daemon's worker threads record into it too).
    let plain = window(work, "plain", &inputs, args.seconds)?;
    record_window(&plain, ledger, "untraced.");
    telemetry::reset();
    telemetry::set_enabled(true);
    let traced = window(work, "traced", &inputs, args.seconds);
    let summary = telemetry::snapshot();
    telemetry::set_enabled(false);
    let traced = traced?;
    record_window(&traced, ledger, "traced.");
    ledger.check(
        "traced and untraced windows serve identical artifacts",
        traced.artifacts == plain.artifacts,
    );
    let (entropy_last, ppo_nodes) = check_against_solo(&inputs, &plain, work, ledger)?;

    layers::from_summary(&summary, ledger);
    // Client-side timings come from the untraced window; the traced one
    // only adds the program's own spans and counters.
    ledger.metric("serve.runs", plain.latency_s.len() as f64, "count");
    ledger.metric("serve.runs_per_s", plain.latency_s.len() as f64 / plain.wall_s, "1/s");
    ledger.metric("serve.run_latency_s_p50", plain.latency_s.median(), "s");
    ledger.metric("serve.run_latency_s_p90", plain.latency_s.quantile(0.9), "s");
    ledger.metric("serve.submit_ms_p50", plain.submit_ms.median(), "ms");
    ledger.metric("serve.status_ms_p50", plain.status_ms.median(), "ms");
    ledger.metric("serve.fetch_ms_p50", plain.fetch_ms.median(), "ms");
    ledger.metric("serve.busy", (plain.busy + traced.busy) as f64, "count");
    ledger.metric(
        "trace.overhead_frac",
        traced.latency_s.mean() / plain.latency_s.mean() - 1.0,
        "fraction",
    );
    let mut first = Samples::default();
    plain.test_acc.range(..MIN_RUNS).for_each(|(_, a)| first.push(*a));
    ledger.metric("quality.test_acc", first.mean(), "fraction");

    // Direct layer calls on the largest served graph, checkpoints at
    // every served shape.
    let wis = &inputs.graphs[2];
    let split = stratified_split(wis.labels(), wis.num_classes(), args.seed);
    let cfg = inputs.spec(0).to_config();
    layers::direct_calls(wis, &split, &cfg, 5, ledger);
    layers::policy_entropy(entropy_last, ppo_nodes, ledger);
    let (mut ckpt, mut bytes) = (Samples::default(), 0);
    for (d, g) in DATASETS.iter().zip(&inputs.graphs) {
        let split = stratified_split(g.labels(), g.num_classes(), args.seed);
        let path = work.join(format!("probe-{}.grrs", d.name()));
        let (t, b) = layers::checkpoint(g, &split, &cfg, 5, &path)?;
        ledger.timing(&format!("direct.save_checkpoint_ms.{}", d.name()), &t, "ms");
        ckpt.extend(&t);
        bytes += b;
    }
    ledger.metric("store.checkpoint_ms_p50", ckpt.median(), "ms");
    ledger.metric("store.checkpoint_bytes", bytes as f64 / DATASETS.len() as f64, "bytes");
    layers::read_graph(wis, &work.join("reread"), 5, ledger)
}
