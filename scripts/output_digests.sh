#!/usr/bin/env bash
# Prints the sha256 digests of what short seeded `graphrare` runs write:
# the optimised graph (`--output`: .edges/.features/.labels) and the saved
# model (`--save-model`), for every backbone x rewirer pair on the
# `telemetry_lint --make-fixture` toy graph, then for gcn x ppo/dhgr/reference
# with `--entropy-refresh-every 2` (rewirer column `RW+refresh2`), which
# routes the run through the incremental entropy engine, then for gcn x ppo
# with `--steps 24` and the PPO and A2C learners (rewirer column
# `ppo+steps24` / `a2c+steps24`): the CLI's `update_every` is 10, so only
# these runs reach the agent's policy update (twice). They also digest the
# checkpoint written after the last step (`checkpoint.grrs`), which holds
# the agent's parameters, Adam moments and sampling RNG bit for bit.
# Last come gcn x ppo/dhgr/reference on the `telemetry_lint
# --make-wide-fixture` graph (rewirer column `RW+wide`): synthetic Cornell,
# 1703-dim features at 3% density, the wide sparse rows on which the
# entropy precompute and the feature kNN take their dots by scatter. One
# line per file:
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

# digests BACKBONE REWIRER LABEL [EXTRA_ARGS...]: one run of `$steps` steps
# on `$input`, one line per file; with `checkpoint=1` the final checkpoint
# is a file too.
input="$work/toy"
steps=6
checkpoint=0
digests() {
    local backbone="$1" rewirer="$2" label="$3"
    shift 3
    local out="$work/$backbone-$label"
    local files=(graph.edges graph.features graph.labels model.grrs)
    mkdir -p "$out"
    if [ "$checkpoint" = 1 ]; then
        set -- "$@" --checkpoint-every "$steps" --checkpoint-dir "$out/ckpt"
    fi
    "$bin/graphrare" --input "$input" --steps "$steps" --seed 1 --threads 1 --quiet \
        --backbone "$backbone" --rewirer "$rewirer" "$@" \
        --output "$out/graph" --save-model "$out/model.grrs" > /dev/null
    if [ "$checkpoint" = 1 ]; then
        cp "$out/ckpt/step-$(printf '%06d' "$steps").grrs" "$out/checkpoint.grrs"
        files+=(checkpoint.grrs)
    fi
    for file in "${files[@]}"; do
        digest="$(sha256sum "$out/$file" | cut -d' ' -f1)"
        echo "$backbone $label $file $digest"
    done
}

"$bin/telemetry_lint" --make-fixture "$work/toy"
for backbone in gcn sage gat h2gcn; do
    for rewirer in ppo dhgr reference; do
        digests "$backbone" "$rewirer" "$rewirer"
    done
done
for rewirer in ppo dhgr reference; do
    digests gcn "$rewirer" "$rewirer+refresh2" --entropy-refresh-every 2
done
steps=24
checkpoint=1
digests gcn ppo "ppo+steps24" --algo ppo
digests gcn ppo "a2c+steps24" --algo a2c
"$bin/telemetry_lint" --make-wide-fixture "$work/wide"
input="$work/wide"
steps=6
checkpoint=0
for rewirer in ppo dhgr reference; do
    digests gcn "$rewirer" "$rewirer+wide"
done
