#!/usr/bin/env bash
# Usage: .github/scripts/same_outputs.sh BASE
#
# Runs the default pipeline five times at the git revision BASE and at the
# working tree, and fails if any data product, stdout or stderr log differs
# under `diff -r`. The pipeline is synth, extract of both manifests, train,
# score, eval, sweep-n and sweep-snr:
#
# * seed 0 with --jobs 2 and the default grids;
# * seed 1 with --jobs 1 and unsorted grids (sweep-n --k-grid 30,5,200,10,7;
#   sweep-snr --snr-grid 18,6,30,12 --k-grid 150,100,20), plus a train --k 50
#   --threshold 1.25 and its eval, into model-k50.json and report-k50/, so
#   that a model's k and threshold other than the defaults go through save,
#   load and the report;
# * seed 2 with --jobs 1 at a 1024-sample capture (synth --capture-len 1024
#   --signals-per-device 60, extract --capture-len 1024, sweep-n --k-grid
#   5:50:5, sweep-snr --per-class 50 --k-grid 20,40). At the default 4096
#   samples a wrong capture rule in sweep-snr gives the right result; at
#   1024 it does not.
# * seed 3 with --jobs 2 at 3,200 training rows (synth --signals-per-device
#   1200, sweep-n --k-grid 5:50:5, sweep-snr --per-class 50 --k-grid
#   20,40), plus a train --metric euclidean and a train --no-standardize,
#   each with its score, into model-euclidean.json, scores-euclidean.csv,
#   model-raw.json and scores-raw.csv. At 800 rows every fit measures all
#   pairs; at 3,200 the fits of train, sweep-n and sweep-snr search bands
#   (lof._band_plan) under both metrics and on raw features too, so this run
#   compares that path's products, the Euclidean rounding slack included.
#   Its 3,200-row models also span several of the slices that LofModel.save
#   writes model.json in (lof._SAVE_ROWS rows each), so the slice joins of
#   train, kdist and lrd are compared too.
# * seed 4 with --jobs 2 on a clean corpus (synth --snr inf) at the seed-2
#   run's 1024-sample sizes, so that the manifests and feature CSVs with an
#   empty snr_db column, and the sweeps over clean training rows, are
#   compared too.
#
# In the logs, each run's output directory and source tree are replaced by
# fixed names first, so that only what the commands report is compared.
# BASE's files are unpacked with `git archive` into a temporary directory,
# which is removed on exit; the repository gains no worktree. Needs python3
# with numpy.
#
# A change that alters a product on purpose says so in CHANGES.md; this
# check then fails for that change, and only for it. When the outputs differ,
# each differing CSV or JSON file is listed again with the largest relative
# difference of its numeric fields and whether any other field (a label, a
# key, a row count) differs, so that a declared change can be checked
# against its declaration. The exit status is 1 either way.
set -euo pipefail

base=${1:?usage: same_outputs.sh BASE}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base-src"
git -C "$repo" archive "$base" | tar -x -C "$work/base-src"

# rfs NAME ARGS...: one CLI command of the package under $src; its stdout and
# stderr go to $out/logs/NAME.out and NAME.err
rfs() {
    local name=$1
    shift
    PYTHONPATH="$src/src" python3 -m rfsentry "$@" \
        >"$out/logs/$name.out" 2>"$out/logs/$name.err" ||
        { cat "$out/logs/$name.err" >&2; return 1; }
}

# pipeline SRC OUT SEED JOBS SETTINGS: SETTINGS is "default", "unsorted",
# "capture1024", "band" or "clean1024"
pipeline() {
    src=$1 out=$2
    local seed=$3 jobs=$4 synth=() extract=() sweep_n=() sweep_snr=() more_fits=false k50=false
    case $5 in
    unsorted)
        sweep_n=(--k-grid 30,5,200,10,7)
        sweep_snr=(--snr-grid 18,6,30,12 --k-grid 150,100,20)
        k50=true
        ;;
    capture1024 | clean1024)
        synth=(--capture-len 1024 --signals-per-device 60)
        extract=(--capture-len 1024)
        sweep_n=(--k-grid 5:50:5)
        sweep_snr=(--per-class 50 --k-grid 20,40)
        if [[ $5 == clean1024 ]]; then synth+=(--snr inf); fi
        ;;
    band)
        synth=(--signals-per-device 1200)
        sweep_n=(--k-grid 5:50:5)
        sweep_snr=(--per-class 50 --k-grid 20,40)
        more_fits=true
        ;;
    esac
    mkdir -p "$out/logs"
    rfs synth synth --out "$out/corpus" --seed "$seed" --jobs "$jobs" "${synth[@]}"
    rfs extract-train extract --manifest "$out/corpus/train_manifest.csv" --out "$out/train.csv" \
        "${extract[@]}"
    rfs extract-eval extract --manifest "$out/corpus/eval_manifest.csv" --out "$out/eval.csv" \
        "${extract[@]}"
    rfs train train --features "$out/train.csv" --out "$out/model.json"
    rfs score score --model "$out/model.json" --features "$out/eval.csv" --out "$out/scores.csv"
    if $more_fits; then
        rfs train-euclidean train --features "$out/train.csv" --out "$out/model-euclidean.json" \
            --metric euclidean
        rfs score-euclidean score --model "$out/model-euclidean.json" \
            --features "$out/eval.csv" --out "$out/scores-euclidean.csv"
        rfs train-raw train --features "$out/train.csv" --out "$out/model-raw.json" \
            --no-standardize
        rfs score-raw score --model "$out/model-raw.json" \
            --features "$out/eval.csv" --out "$out/scores-raw.csv"
    fi
    rfs eval eval --model "$out/model.json" --features "$out/eval.csv" --out "$out/report"
    if $k50; then
        rfs train-k50 train --features "$out/train.csv" --out "$out/model-k50.json" \
            --k 50 --threshold 1.25
        rfs eval-k50 eval --model "$out/model-k50.json" --features "$out/eval.csv" \
            --out "$out/report-k50"
    fi
    rfs sweep-n sweep-n --train-features "$out/train.csv" --eval-features "$out/eval.csv" \
        --out "$out/sweep-n" --seed "$seed" "${sweep_n[@]}"
    rfs sweep-snr sweep-snr --corpus "$out/corpus" --train-features "$out/train.csv" \
        --out "$out/sweep-snr" --jobs "$jobs" "${sweep_snr[@]}"
    # the source tree first: the base's lies next to its output directory
    sed -i -e "s|$src|SRC|g" -e "s|$out|OUT|g" "$out"/logs/*
}

# what_moved BASE HEAD: each CSV or JSON file that differs between the two
# output trees, with how far its numbers moved and whether anything else did
what_moved() {
    python3 - "$1" "$2" <<'PY'
import csv
import filecmp
import json
import math
import sys
from pathlib import Path

base, head = map(Path, sys.argv[1:])


def fields(path):
    """Each leaf of a JSON document, or each CSV cell, by its place in the file."""
    if path.suffix == ".json":
        leaves = {}

        def walk(value, where):
            items = (value.items() if isinstance(value, dict)
                     else enumerate(value) if isinstance(value, list) else None)
            if items is None:
                leaves[where] = value
            for key, item in items or ():
                walk(item, where + (key,))

        walk(json.loads(path.read_text()), ())
        return leaves
    with open(path, newline="") as fh:
        return {(r, c): cell for r, row in enumerate(csv.reader(fh)) for c, cell in enumerate(row)}


def number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)  # a JSON number, or a CSV cell's text
    except (TypeError, ValueError):
        return None


def moved(x, y):
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x) and math.isfinite(y) else math.inf


for path in sorted(base.rglob("*")):
    rel = path.relative_to(base)
    other = head / rel
    if path.suffix not in (".csv", ".json") or not other.is_file() or filecmp.cmp(path, other, False):
        continue
    a, b = fields(path), fields(other)
    largest, elsewhere = 0.0, a.keys() != b.keys()
    for key in a.keys() & b.keys():
        x, y = number(a[key]), number(b[key])
        if x is None or y is None:
            elsewhere |= a[key] != b[key]
        else:
            largest = max(largest, moved(x, y))
    print(f"{rel}: numbers moved by at most {largest:.2g} relative; "
          + ("other fields differ too" if elsewhere else "no other field differs"))
PY
}

for run in "0 2 default" "1 1 unsorted" "2 1 capture1024" "3 2 band" "4 2 clean1024"; do
    read -r seed jobs settings <<<"$run"
    pipeline "$work/base-src" "$work/base/seed$seed" "$seed" "$jobs" "$settings"
    pipeline "$repo" "$work/head/seed$seed" "$seed" "$jobs" "$settings"
done
if diff -r --brief "$work/base" "$work/head"; then
    echo "same outputs as $base"
else
    echo "outputs differ from $base: the files listed above" >&2
    what_moved "$work/base" "$work/head" >&2
    exit 1
fi
