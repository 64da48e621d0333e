"""The three benchmark workloads: set-up, one timed iteration, output checks.

Every workload drives ``rfsentry.cli.main(argv)`` in-process, as a closed
loop: each command starts when the previous one returns. Library names are
looked up on their modules at call time (``cli.main``, ``synth.gen_burst``),
so a tracer installed around a call sees it.

* ``corpus_pipeline`` -- synth, extract (train and eval), train, score, eval
  on the default corpus. The only workload that writes and reads the
  on-disk signal format; synth and fingerprinting dominate it, LOF runs
  once at n=800.
* ``sweeps`` -- sweep-n and sweep-snr over a corpus built in set-up. The LOF
  layer runs many times over the same data; sweep-snr also re-noises and
  fingerprints in memory.
* ``lof_scale`` -- train --k 100 and score at n_train=8,000 on feature CSVs
  generated in set-up. The quadratic LOF point; no fingerprinting in the
  timed part.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from rfsentry import cli, features, seeding, signals, synth

LOF_SCALE_TRAIN_PER_DEVICE = 2000
SCORE_REL_TOL = 1e-12
THRESHOLD = 1.5
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Workload:
    """Base of the three workloads.

    ``nominal_s`` is roughly one timed iteration's length at the commit that
    added the benchmark (2-core machine). A run measures
    ``seconds // nominal_s`` iterations, at least one. The count is fixed rather than adaptive, so
    that a slow moment never changes it. This matters because the first
    iteration of a process is colder than the rest.
    """

    name = ""
    nominal_s = 1.0
    products: list[str] = []

    def iterations(self, seconds: float) -> int:
        return max(1, int(seconds // self.nominal_s))

    def setup(self, inputs: Path, seed: int, ops: Ops) -> None:
        """Write the timed part's inputs under ``inputs`` (none by default)."""

    def finish(self, inputs: Path, out: Path, ops: Ops) -> None:
        """Untimed work after the last iteration (none by default)."""


class Ops:
    """Operations attempted and failed: CLI commands, extracted rows, checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(f"check failed: {what}")

    def command(self, argv: list[str]) -> tuple[float, str]:
        """Run one CLI command in-process; returns (seconds, captured stdout)."""
        self.attempted += 1
        buf = io.StringIO()
        start = perf_counter()
        with redirect_stdout(buf):
            code = cli.main(argv)
        seconds = perf_counter() - start
        if code != 0:
            self.fail(f"exit {code}: rfsentry {' '.join(argv)}")
        return seconds, buf.getvalue()

    def extract(self, manifest: Path, out: Path) -> float:
        """extract, counting each manifest row as an operation."""
        seconds, _ = self.command(["extract", "--manifest", str(manifest), "--out", str(out)])
        expected = _data_rows(manifest)
        got = _data_rows(out) if out.exists() else 0
        self.attempted += expected
        if got != expected:
            self.fail(f"{manifest.name}: {expected - got} of {expected} rows skipped",
                      expected - got)
        return seconds


def _data_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def digests(out: Path, names: list[str]) -> dict[str, str]:
    """SHA-256 of each named product under ``out`` ("missing" if absent)."""
    result = {}
    for name in names:
        path = out / name
        result[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return result


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}-seed{seed}.json"
    return json.loads(path.read_text()) if path.exists() else None


# ---------------------------------------------------------------------------
# Workloads that end in score + eval on 2,200 labeled rows.
# ---------------------------------------------------------------------------


def _detection_outputs(out: Path) -> dict:
    rows = _read_csv(out / "scores.csv")
    confusion = _read_csv(out / "report" / "confusion.csv")[0]
    metrics = _read_csv(out / "report" / "metrics.csv")[0]
    return {
        "classes": [r["class"] for r in rows],
        "scores": [float(r["score"]) for r in rows],
        "labels": "".join("o" if r["label"] == "outlier" else "i" for r in rows),
        "confusion": [int(confusion[k]) for k in ("tp", "fp", "fn", "tn")],
        "accuracy": float(metrics["accuracy"]),
    }


class DetectionWorkload(Workload):
    """Checks ``scores.csv`` and the eval report; ``verify`` returns accuracy."""

    rows = 2200

    def verify(self, out: Path, reference: dict | None, ops: Ops) -> float:
        got = _detection_outputs(out)
        ops.check(len(got["scores"]) == self.rows,
                  f"scores.csv has {len(got['scores'])} rows, expected {self.rows}")
        ops.check(
            got["labels"] == "".join("o" if s > THRESHOLD else "i" for s in got["scores"]),
            "score labels disagree with the threshold rule",
        )
        tally = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        for cls, label in zip(got["classes"], got["labels"]):
            tally[("t" if (cls == "uav") == (label == "o") else "f")
                  + ("p" if label == "o" else "n")] += 1
        ops.check(got["confusion"] == [tally[k] for k in ("tp", "fp", "fn", "tn")],
                  "eval confusion disagrees with score labels")
        if reference is not None:
            ops.check(got["confusion"] == reference["confusion"],
                      f"confusion {got['confusion']} != reference {reference['confusion']}")
            ops.check(got["labels"] == reference["labels"], "labels differ from reference")
            ops.check(got["accuracy"] == reference["accuracy"],
                      f"accuracy {got['accuracy']!r} != reference {reference['accuracy']!r}")
            ref_scores = reference["scores"]
            ops.check(
                len(ref_scores) == len(got["scores"])
                and all(abs(a - b) <= SCORE_REL_TOL * max(abs(a), abs(b))
                        for a, b in zip(got["scores"], ref_scores)),
                f"scores differ from reference by more than {SCORE_REL_TOL} relative",
            )
        return got["accuracy"]

    def reference(self, out: Path) -> dict:
        got = _detection_outputs(out)
        del got["classes"]
        return got


# ---------------------------------------------------------------------------
# corpus_pipeline
# ---------------------------------------------------------------------------


class CorpusPipeline(DetectionWorkload):
    name = "corpus_pipeline"
    nominal_s = 6.0
    products = [
        "corpus/corpus.json", "corpus/train_manifest.csv", "corpus/eval_manifest.csv",
        "train.csv", "eval.csv", "model.json", "scores.csv",
        "report/confusion.csv", "report/metrics.csv",
    ]

    def iterate(self, inputs: Path, out: Path, seed: int, ops: Ops) -> dict[str, float]:
        corpus = out / "corpus"
        synth_s, _ = ops.command(["synth", "--out", str(corpus), "--seed", str(seed),
                                  "--jobs", "1"])
        extract_s = ops.extract(corpus / "train_manifest.csv", out / "train.csv")
        extract_s += ops.extract(corpus / "eval_manifest.csv", out / "eval.csv")
        detect_s = 0.0
        for argv in (
            ["train", "--features", str(out / "train.csv"), "--out", str(out / "model.json"),
             "--k", "100"],
            ["score", "--model", str(out / "model.json"), "--features", str(out / "eval.csv"),
             "--out", str(out / "scores.csv")],
            ["eval", "--model", str(out / "model.json"), "--features", str(out / "eval.csv"),
             "--out", str(out / "report")],
        ):
            detect_s += ops.command(argv)[0]
        return {"synth_s": synth_s, "extract_s": extract_s, "detect_s": detect_s}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


class Sweeps(Workload):
    name = "sweeps"
    nominal_s = 8.0
    products = ["report/neighbors_sweep.csv", "report/snr_sweep.csv",
                "report/snr_sweep.svg", "best_k.txt"]

    def setup(self, inputs: Path, seed: int, ops: Ops) -> None:
        corpus = inputs / "corpus"
        ops.command(["synth", "--out", str(corpus), "--seed", str(seed), "--jobs", "1"])
        ops.extract(corpus / "train_manifest.csv", inputs / "train.csv")
        ops.extract(corpus / "eval_manifest.csv", inputs / "eval.csv")

    def iterate(self, inputs: Path, out: Path, seed: int, ops: Ops) -> dict[str, float]:
        report = out / "report"
        sweep_n_s, stdout = ops.command(
            ["sweep-n", "--train-features", str(inputs / "train.csv"),
             "--eval-features", str(inputs / "eval.csv"), "--out", str(report),
             "--seed", str(seed)])
        out.mkdir(parents=True, exist_ok=True)
        (out / "best_k.txt").write_text(stdout)
        sweep_snr_s, _ = ops.command(
            ["sweep-snr", "--corpus", str(inputs / "corpus"),
             "--train-features", str(inputs / "train.csv"), "--out", str(report),
             "--jobs", "1"])
        return {"sweep_n_s": sweep_n_s, "sweep_snr_s": sweep_snr_s}

    def verify(self, out: Path, reference: dict | None, ops: Ops) -> float:
        report = out / "report"
        neighbors = _read_csv(report / "neighbors_sweep.csv")
        snr = _read_csv(report / "snr_sweep.csv")
        best_k = (out / "best_k.txt").read_text()
        ops.check(len(neighbors) == 20, f"neighbors_sweep.csv has {len(neighbors)} rows, not 20")
        ops.check(len(snr) == 6 * 13, f"snr_sweep.csv has {len(snr)} rows, not 78")
        best = max(neighbors, key=lambda r: (float(r["val_acc"]), -int(r["k"])))
        ops.check(best_k == f"{best['k']}\n",
                  f"best-k line {best_k!r} is not the best validation k {best['k']}")
        if reference is not None:
            for key, text in (("neighbors_sweep_csv", (report / "neighbors_sweep.csv").read_text()),
                              ("snr_sweep_csv", (report / "snr_sweep.csv").read_text()),
                              ("best_k", best_k)):
                ops.check(text == reference[key], f"{key} differs from reference")
        return float(best["test_acc"])

    def reference(self, out: Path) -> dict:
        report = out / "report"
        return {
            "neighbors_sweep_csv": (report / "neighbors_sweep.csv").read_text(),
            "snr_sweep_csv": (report / "snr_sweep.csv").read_text(),
            "best_k": (out / "best_k.txt").read_text(),
        }


# ---------------------------------------------------------------------------
# lof_scale
# ---------------------------------------------------------------------------


class LofScale(DetectionWorkload):
    name = "lof_scale"
    nominal_s = 13.0
    products = ["model.json", "scores.csv"]

    def setup(self, inputs: Path, seed: int, ops: Ops) -> None:
        """8,000 recognized training rows and 2,200 held-out queries, in memory.

        Training takes bursts 0..1999 of each recognized device; queries take
        the next 100 of each recognized device and bursts 0..299 of each UAV
        device, the default evaluation class mix (400 + 1,800).
        """
        cfg = synth.CorpusConfig(profiles=synth.default_profiles(),
                                 master_seed=seeding.stage_seed(seed, "corpus"))
        trigger = signals.TriggerConfig()
        train_rows, query_rows = [], []
        for profile in cfg.profiles:
            if profile.signal_class is signals.SignalClass.RECOGNIZED:
                plan = [(train_rows, range(LOF_SCALE_TRAIN_PER_DEVICE)),
                        (query_rows, range(LOF_SCALE_TRAIN_PER_DEVICE,
                                           LOF_SCALE_TRAIN_PER_DEVICE + 100))]
            else:
                plan = [(query_rows, range(cfg.signals_per_device))]
            for rows, indices in plan:
                for index in indices:
                    burst = synth.gen_burst(profile, index, cfg)
                    rows.append((burst.device_id, burst.signal_class, burst.snr_db,
                                 features.fingerprint(burst, trigger)))
        inputs.mkdir(parents=True, exist_ok=True)
        for rows, name in ((train_rows, "train.csv"), (query_rows, "query.csv")):
            features.save_feature_csv(features.FeatureTable.from_rows(rows), inputs / name)
            ops.check(_data_rows(inputs / name) == len(rows), f"{name} row count")

    def iterate(self, inputs: Path, out: Path, seed: int, ops: Ops) -> dict[str, float]:
        out.mkdir(parents=True, exist_ok=True)
        train_s, _ = ops.command(["train", "--features", str(inputs / "train.csv"),
                                  "--out", str(out / "model.json"), "--k", "100"])
        score_s, _ = ops.command(["score", "--model", str(out / "model.json"),
                                  "--features", str(inputs / "query.csv"),
                                  "--out", str(out / "scores.csv")])
        return {"train_s": train_s, "score_s": score_s}

    def finish(self, inputs: Path, out: Path, ops: Ops) -> None:
        """eval once, untimed: it supplies the accuracy and a cross-check."""
        ops.command(["eval", "--model", str(out / "model.json"),
                     "--features", str(inputs / "query.csv"), "--out", str(out / "report")])


WORKLOADS = {w.name: w for w in (CorpusPipeline(), Sweeps(), LofScale())}


def reset(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
