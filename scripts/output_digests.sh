#!/usr/bin/env bash
# Prints the sha256 digests of what short seeded `graphrare` runs write:
# the optimised graph (`--output`: .edges/.features/.labels) and the saved
# model (`--save-model`), for every backbone x rewirer pair on the
# `telemetry_lint --make-fixture` toy graph. One line per file:
#   BACKBONE REWIRER FILE SHA256
#
# Usage: scripts/output_digests.sh BIN_DIR
#   BIN_DIR holds release builds of `graphrare` and `telemetry_lint`.
#
# check.sh compares this listing against scripts/baselines/output_digests.txt,
# so any change to a run's numeric output fails the gate. Regenerate the
# baseline only when an output change is intended:
#   cargo build --release -p graphrare --bin graphrare \
#       -p graphrare-bench --bin telemetry_lint
#   scripts/output_digests.sh target/release > scripts/baselines/output_digests.txt
set -euo pipefail

bin="${1:?usage: output_digests.sh BIN_DIR}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

"$bin/telemetry_lint" --make-fixture "$work/toy"
for backbone in gcn sage gat h2gcn; do
    for rewirer in ppo dhgr reference; do
        out="$work/$backbone-$rewirer"
        mkdir -p "$out"
        "$bin/graphrare" --input "$work/toy" --steps 6 --seed 1 --threads 1 --quiet \
            --backbone "$backbone" --rewirer "$rewirer" \
            --output "$out/graph" --save-model "$out/model.grrs" > /dev/null
        for file in graph.edges graph.features graph.labels model.grrs; do
            digest="$(sha256sum "$out/$file" | cut -d' ' -f1)"
            echo "$backbone $rewirer $file $digest"
        done
    done
done
