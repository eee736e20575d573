#!/usr/bin/env python3
"""Build and run the GraphRARE end-to-end benchmark.

One workload, one seed (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload drl_loop_mini --seed 1 --seconds 20 --trace 0

Every workload of BENCHMARK.json over several seeds, untraced for the
end-to-end metrics and traced once for the per-layer ledger:

    python3 perfbench/run.py --all [--seeds 1,7] [--seconds 20]

Run from anywhere; the benchmark works inside the repository root. It is
built in release mode, offline, into $CARGO_TARGET_DIR (default
`.bench_build`). The exit code is non-zero when the build fails, a run
fails, or an output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "graphrare-perfbench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Builds the benchmark binary; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr so stdout ends with the result line.
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", BINARY)


def validate(result, expected):
    """Checks the result line against the metrics BENCHMARK.json declares."""
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        return f"metrics {got} do not match BENCHMARK.json {expected}"
    return None


def run_one(binary, bench, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    if not lines:
        return proc.returncode or 1, None
    for line in lines[:-1]:
        if echo:
            print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        return proc.returncode or 1, None
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[section]}
    problem = validate(result, expected)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1, None
    return proc.returncode, result


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def run_all(binary, bench, ledger, seeds, seconds):
    """The one command: every workload, every seed, both passes."""
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in ledger["per_layer"]]
    if missing:
        print(f"perfbench: ledger.json maps no workload for {missing}", file=sys.stderr)
        return 1
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        print(f"== {name}: {w['why']}")
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            code, result = run_one(binary, bench, name, seed, seconds, 0, echo=False)
            if code != 0 or result is None or not result["correct"]:
                print(f"   seed {seed}: FAILED (exit {code})")
                ok = False
                continue
            for metric, v in result["metrics"].items():
                values[metric].append(v["value"])
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            if vals:
                print(f"   {m['name']:<16} {statistics.median(vals):12.6f} {m['unit']:<6}"
                      f" spread {spread(vals):.3f} (bound {m['bound']}) n={len(vals)}:"
                      f" {' '.join(f'{v:.6g}' for v in vals)}")
        code, result = run_one(binary, bench, name, seeds[0], seconds, 1, echo=False)
        if code != 0 or result is None or not result["correct"]:
            print(f"   traced seed {seeds[0]}: FAILED (exit {code})")
            ok = False
            continue
        print(f"   per-layer, traced run at seed {seeds[0]}:")
        for m in bench["per_layer"]:
            v = result["metrics"][m["name"]]["value"]
            moves = ledger["per_layer"][m["name"]]
            print(f"     {m['name']:<36} {v:14.6f} {m['unit']:<8}"
                  f" -> {moves['moves']} on {moves['on']}")
    return 0 if ok else 1


def main():
    os.chdir(ROOT)
    bench = load_json("BENCHMARK.json")
    ledger = load_json(os.path.join("perfbench", "ledger.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=ledger["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds for --all (default: default and held-out)")
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")

    binary = build()
    if binary is None:
        return 1
    if args.all:
        seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
                 else [ledger["seeds"]["default"], ledger["seeds"]["held_out"]])
        return run_all(binary, bench, ledger, seeds, args.seconds)
    code, result = run_one(binary, bench, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
