//! `telemetry_lint` — validates a GraphRARE telemetry JSONL stream.
//!
//! ```text
//! telemetry_lint EVENTS.jsonl                # validate; exit 1 on any bad line
//! telemetry_lint --make-fixture PREFIX       # write a small graph bundle
//! telemetry_lint --make-wide-fixture PREFIX  # write a WebKB-shaped bundle
//! ```
//!
//! The validator re-uses the schema checks of
//! [`graphrare_telemetry::json`]: every line must parse as RFC 8259
//! JSON and carry an accepted `"v"` schema version (v1–v3) plus an
//! `"event"` kind. `span` events additionally must carry well-formed
//! `span_id`/`parent_id`/`path`/`ns` fields, the optional v3 `run_id`
//! tag must be a positive integer, and the stream as a whole must form
//! a closed span tree — a `parent_id` that never appears as a
//! `span_id` (a truncated trace) fails the lint. An `entropy_sequences`
//! event's `scatter_rows` and `merge_rows` must sum to its `nodes`.
//! `--make-fixture` exists so `scripts/check.sh` can smoke the CLI's
//! `--telemetry-out` flag without shipping a data file;
//! `--make-wide-fixture` writes synthetic Cornell (183 nodes, 1703-dim
//! features at 3% density), whose wide sparse rows the 16-dim toy
//! never has, for `scripts/output_digests.sh`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use graphrare_datasets::{generate, generate_spec, Dataset, DatasetSpec};
use graphrare_graph::{io, Graph};
use graphrare_telemetry::json;

fn usage() -> ! {
    eprintln!(
        "usage: telemetry_lint EVENTS.jsonl | telemetry_lint --make-fixture PREFIX \
         | telemetry_lint --make-wide-fixture PREFIX"
    );
    std::process::exit(2);
}

fn toy_graph() -> Graph {
    let spec = DatasetSpec {
        name: "lint-fixture",
        num_nodes: 50,
        num_edges: 110,
        feat_dim: 16,
        num_classes: 3,
        homophily: 0.15,
        degree_exponent: 0.3,
        feature_signal: 0.8,
        feature_density: 0.05,
    };
    generate_spec(&spec, 1)
}

fn write_fixture(g: &Graph, prefix: &Path) -> ExitCode {
    match io::write_graph(g, prefix) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("failed to write {}: {e}", prefix.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.as_slice() {
        [flag, prefix] if flag == "--make-fixture" => {
            write_fixture(&toy_graph(), &PathBuf::from(prefix))
        }
        [flag, prefix] if flag == "--make-wide-fixture" => {
            write_fixture(&generate(Dataset::Cornell, 1), &PathBuf::from(prefix))
        }
        [path] if !path.starts_with("--") => match json::validate_jsonl_file(Path::new(path)) {
            Ok(n) => {
                let accepted: Vec<String> =
                    json::ACCEPTED_VERSIONS.iter().map(|v| format!("v{v}")).collect();
                println!("{path}: {n} events, span tree closed, schema {}", accepted.join("/"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
