#!/usr/bin/env bash
# Usage: .github/scripts/same_outputs.sh BASE
#
# Runs the seed-0 default pipeline at the git revision BASE and at the
# working tree, and fails if any data product, stdout or stderr log differs
# under `diff -r`. The pipeline is synth --jobs 2, extract of both
# manifests, train, score, eval, sweep-n and sweep-snr --jobs 2. In the
# logs, each run's output directory and source tree are replaced by fixed
# names first, so that only what the commands report is compared. BASE is
# checked out as a detached git worktree in a temporary directory, which is
# removed on exit. Needs python3 with numpy.
#
# A change that alters a product on purpose says so in CHANGES.md; this
# check then fails for that change, and only for it.
set -euo pipefail

base=${1:?usage: same_outputs.sh BASE}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
    git -C "$repo" worktree remove --force "$work/base-src" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT
git -C "$repo" worktree add --quiet --detach "$work/base-src" "$base"

# rfs NAME ARGS...: one CLI command of the package under $src; its stdout and
# stderr go to $out/logs/NAME.out and NAME.err
rfs() {
    local name=$1
    shift
    PYTHONPATH="$src/src" python3 -m rfsentry "$@" \
        >"$out/logs/$name.out" 2>"$out/logs/$name.err" ||
        { cat "$out/logs/$name.err" >&2; return 1; }
}

pipeline() {
    src=$1 out=$2
    mkdir -p "$out/logs"
    rfs synth synth --out "$out/corpus" --seed 0 --jobs 2
    rfs extract-train extract --manifest "$out/corpus/train_manifest.csv" --out "$out/train.csv"
    rfs extract-eval extract --manifest "$out/corpus/eval_manifest.csv" --out "$out/eval.csv"
    rfs train train --features "$out/train.csv" --out "$out/model.json"
    rfs score score --model "$out/model.json" --features "$out/eval.csv" --out "$out/scores.csv"
    rfs eval eval --model "$out/model.json" --features "$out/eval.csv" --out "$out/report"
    rfs sweep-n sweep-n --train-features "$out/train.csv" --eval-features "$out/eval.csv" \
        --out "$out/sweep-n"
    rfs sweep-snr sweep-snr --corpus "$out/corpus" --train-features "$out/train.csv" \
        --out "$out/sweep-snr" --jobs 2
    # the source tree first: the base's lies next to its output directory
    sed -i -e "s|$src|SRC|g" -e "s|$out|OUT|g" "$out"/logs/*
}

pipeline "$work/base-src" "$work/base"
pipeline "$repo" "$work/head"
if diff -r --brief "$work/base" "$work/head"; then
    echo "same outputs as $base"
else
    echo "outputs differ from $base: the files listed above" >&2
    exit 1
fi
