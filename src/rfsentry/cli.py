"""Command-line front end for the burst-fingerprinting pipeline.

Subcommands cover the full workflow: synthesize a corpus, extract feature
CSVs, train/score/evaluate the detector, and run the neighbor-count and SNR
sweeps. Logs go to stderr; data products go only to files (or stdout where
noted), so commands are pipe-safe. A single --seed flag fans out to
per-stage seeds (see seeding.stage_seed), which keeps every subcommand
deterministic without threading seeds through each flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

from .errors import ConfigError, FormatError, RfSentryError
from .evaluate import (
    best_k,
    confusion,
    metrics,
    render_snr_svg,
    save_confusion_csv,
    save_metrics_csv,
    save_neighbors_csv,
    save_snr_csv,
    sweep_neighbors,
    sweep_snr,
)
from .features import FeatureTable, fingerprint, load_feature_csv, save_feature_csv
from .lof import DEFAULT_K, DEFAULT_THRESHOLD, LofModel, fit
from .seeding import map_chunks, stage_seed
from .signals import (
    ManifestRow,
    SignalClass,
    TriggerConfig,
    _fmt,
    _write_csv,
    load_signal,
    read_manifest,
    save_signal,
    write_manifest,
)
from .synth import (
    CorpusConfig,
    balanced_clean_eval,
    default_profiles,
    gen_burst,
    stratified_split_indices,
)

log = logging.getLogger("rfsentry")

CORPUS_FILE = "corpus.json"
CORPUS_FORMAT = "rfsentry-corpus"
CORPUS_FORMAT_VERSION = 1
TRAIN_MANIFEST = "train_manifest.csv"
EVAL_MANIFEST = "eval_manifest.csv"


def _atomic(write_fn, path: Path) -> None:
    """Write via a sibling temp file so a failure never leaves a partial file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _parse_grid(text: str, integral: bool) -> list:
    """Grid syntax: 'start:stop:step' (stop inclusive) or 'v1,v2,...'.

    The argparse type of --k-grid and --snr-grid, so a malformed, empty or
    non-finite grid is a usage error.
    """
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("must be start:stop:step")
            # exact fractions, so the i-th value is start + i * step rounded once;
            # imported here so that the commands without a grid skip its import
            from fractions import Fraction

            start, stop, step = (Fraction(p) for p in parts)
            if step <= 0:
                raise ValueError("step must be > 0")
            count = math.floor((stop - start) / step) + 1 if stop >= start else 0
            values = [float(start + i * step) for i in range(count)]
        else:
            values = [float(p) for p in text.split(",") if p.strip()]
    except (ArithmeticError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"grid {text!r}: {exc}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"grid {text!r} is empty")
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"grid {text!r} holds a non-finite value")
    return [int(round(v)) for v in values] if integral else values


_k_grid = functools.partial(_parse_grid, integral=True)
_snr_grid = functools.partial(_parse_grid, integral=False)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_corpus_config(path: Path) -> CorpusConfig:
    """The configuration in a ``corpus.json`` written by synth; a bad file is a FormatError."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise FormatError(f"{path}: not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CORPUS_FORMAT:
        raise FormatError(f"{path}: not a {CORPUS_FORMAT} document")
    if doc.get("version") != CORPUS_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported corpus version {doc.get('version')!r}")
    if "config" not in doc:
        raise FormatError(f"{path}: missing key config")
    try:
        return CorpusConfig.from_dict(doc["config"])
    except (FormatError, ConfigError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _require_recognized(table: FeatureTable, what: str) -> None:
    uav = sum(1 for c in table.classes if c is SignalClass.UAV)
    if uav:
        raise RfSentryError(
            f"{what} contains {uav} UAV rows; the detector is semi-supervised "
            "and fits on recognized signals only"
        )


def _trigger_config(args) -> TriggerConfig:
    return TriggerConfig(
        window_len=args.window_len,
        energy_threshold=args.energy_threshold,
        capture_len=args.capture_len,
    )


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _synth_bursts(plan: list, cfg: CorpusConfig, out_dir: str) -> list[ManifestRow]:
    """Generate and store each (profile, index) burst of ``plan``; one manifest row each."""
    rows = []
    for profile, index in plan:
        sig = gen_burst(profile, index, cfg)
        rel = f"signals/{profile.name}_{index:05d}.rfsg"
        save_signal(sig, Path(out_dir) / rel)
        rows.append(ManifestRow(path=rel, device_id=sig.device_id,
                                signal_class=sig.signal_class, snr_db=sig.snr_db))
    return rows


def cmd_synth(args) -> int:
    cfg = CorpusConfig(
        profiles=default_profiles(args.capture_len),
        signals_per_device=args.signals_per_device,
        snr_db=args.snr,
        capture_len=args.capture_len,
        master_seed=stage_seed(args.seed, "corpus"),
    )
    out = Path(args.out)
    (out / "signals").mkdir(parents=True, exist_ok=True)
    plan = [(p, i) for p in cfg.profiles for i in range(cfg.signals_per_device)]
    rows = map_chunks(_synth_bursts, plan, args.jobs, cfg, str(out))
    train_rows = [row for (p, i), row in zip(plan, rows) if cfg.is_train(p, i)]
    eval_rows = [row for (p, i), row in zip(plan, rows) if not cfg.is_train(p, i)]

    # manifests and config last, atomically: their presence means a complete corpus
    _atomic(lambda p: write_manifest(train_rows, p), out / TRAIN_MANIFEST)
    _atomic(lambda p: write_manifest(eval_rows, p), out / EVAL_MANIFEST)
    doc = {"format": CORPUS_FORMAT, "version": CORPUS_FORMAT_VERSION, "config": cfg.to_dict()}
    _atomic(
        lambda p: Path(p).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n"),
        out / CORPUS_FILE,
    )
    log.info(
        "corpus at %s: %d train + %d eval signals across %d devices",
        out, len(train_rows), len(eval_rows), len(cfg.profiles),
    )
    return 0


def cmd_extract(args) -> int:
    manifest = Path(args.manifest)
    rows = read_manifest(manifest)
    trigger = _trigger_config(args)
    kept, skipped = [], 0
    for row in rows:
        full = Path(row.path)
        if not full.is_absolute():
            full = manifest.parent / full
        try:
            sig = load_signal(
                full,
                device_id=row.device_id,
                signal_class=row.signal_class,
                snr_db=row.snr_db,
            )
            vec = fingerprint(sig, trigger)
        except RfSentryError as exc:
            skipped += 1
            log.warning("skipping %s: %s", row.path, exc)
            continue
        kept.append((row.device_id, row.signal_class, row.snr_db, vec))
    if not kept:
        raise RfSentryError(
            f"{manifest}: none of its {len(rows)} signals could be fingerprinted"
        )
    table = FeatureTable.from_rows(kept)
    _atomic(lambda p: save_feature_csv(table, p), Path(args.out))
    log.info("extracted %d feature rows, skipped %d of %d", len(table), skipped, len(rows))
    return 0


def cmd_train(args) -> int:
    table = load_feature_csv(args.features)
    _require_recognized(table, "training features")
    model = fit(
        table.matrix,
        k=args.k,
        metric=args.metric,
        threshold=args.threshold,
        standardize=not args.no_standardize,
    )
    _atomic(model.save, Path(args.out))
    log.info(
        "trained on %d recognized fingerprints (k=%d, metric=%s, threshold=%g)",
        len(table), args.k, args.metric, args.threshold,
    )
    return 0


def cmd_score(args) -> int:
    model = LofModel.load(args.model)
    table = load_feature_csv(args.features)
    scores = model.score_batch(table.matrix)
    labels = model.labels(scores)

    rows = (
        [device_id, cls.value, _fmt(snr), _fmt(score), label.value]
        for device_id, cls, snr, score, label in zip(
            table.device_ids, table.classes, table.snr_db, scores, labels
        )
    )
    header = ["device_id", "class", "snr_db", "score", "label"]
    _atomic(lambda p: _write_csv(p, header, rows), Path(args.out))
    log.info("scored %d fingerprints", len(table))
    return 0


def cmd_eval(args) -> int:
    model = LofModel.load(args.model)
    table = load_feature_csv(args.features)
    cm = confusion(table.classes, model.labels(model.score_batch(table.matrix)))
    m = metrics(cm)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic(lambda p: save_confusion_csv(cm, p), out / "confusion.csv")
    _atomic(lambda p: save_metrics_csv(m, p), out / "metrics.csv")
    log.info(
        "accuracy=%.4f precision=%.4f recall=%.4f f1=%.4f (tp=%d fp=%d fn=%d tn=%d)",
        m.accuracy, m.precision, m.recall, m.f1, cm.tp, cm.fp, cm.fn, cm.tn,
    )
    return 0


def cmd_sweep_n(args) -> int:
    train = load_feature_csv(args.train_features)
    _require_recognized(train, "training features")
    ev = load_feature_csv(args.eval_features)
    test_idx, val_idx = stratified_split_indices(
        ev.classes, args.test_frac, stage_seed(args.seed, "split")
    )
    table = sweep_neighbors(
        train,
        ev.select(val_idx),
        ev.select(test_idx),
        k_grid=args.k_grid,
        metric=args.metric,
        threshold=args.threshold,
        standardize=not args.no_standardize,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic(lambda p: save_neighbors_csv(table, p), out / "neighbors_sweep.csv")
    chosen = best_k(table)
    log.info("neighbor sweep written; best k by validation accuracy = %d", chosen)
    print(chosen)
    return 0


def cmd_sweep_snr(args) -> int:
    cfg = _read_corpus_config(Path(args.corpus) / CORPUS_FILE)
    train = load_feature_csv(args.train_features)
    _require_recognized(train, "training features")

    balanced = balanced_clean_eval(
        cfg, args.per_class, stage_seed(cfg.master_seed, "balanced")
    )
    trigger = TriggerConfig(capture_len=cfg.capture_len)
    table = sweep_snr(
        train,
        balanced,
        k_grid=args.k_grid,
        snr_grid=args.snr_grid,
        trigger=trigger,
        metric=args.metric,
        threshold=args.threshold,
        standardize=not args.no_standardize,
        jobs=args.jobs,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic(lambda p: save_snr_csv(table, p), out / "snr_sweep.csv")
    _atomic(lambda p: render_snr_svg(table, p), out / "snr_sweep.svg")
    log.info("SNR sweep written: %d cells", len(table.rows))
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", choices=["manhattan", "euclidean"],
                   default="manhattan", help="distance metric (default manhattan)")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="outlier decision threshold (default %(default)s)")
    p.add_argument("--no-standardize", action="store_true",
                   help="skip z-scoring features with training statistics")


def _add_trigger_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--capture-len", type=int, default=4096,
                   help="transient capture length in samples (default %(default)s)")
    p.add_argument("--window-len", type=int, default=64,
                   help="energy trigger window length (default %(default)s)")
    p.add_argument("--energy-threshold", type=float, default=0.05,
                   help="mean-square energy trigger level (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfsentry",
        description="UAV-controller burst detection via wavelet-packet "
                    "fingerprints and a Local Outlier Factor novelty model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic RF corpus")
    p.add_argument("--out", required=True, help="corpus output directory")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--snr", type=float, default=30.0,
                   help="corpus SNR in dB; inf disables noise (default 30)")
    p.add_argument("--capture-len", type=int, default=4096,
                   help="transient capture length in samples (default %(default)s)")
    p.add_argument("--signals-per-device", type=int, default=300,
                   help="bursts per device (default %(default)s)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (default 1; output is identical)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="manifest of signals -> feature CSV")
    p.add_argument("--manifest", required=True, help="manifest CSV")
    p.add_argument("--out", required=True, help="feature CSV to write")
    _add_trigger_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="fit the detector on recognized features")
    p.add_argument("--features", required=True, help="training feature CSV")
    p.add_argument("--out", required=True, help="model JSON to write")
    p.add_argument("--k", type=int, default=DEFAULT_K,
                   help="neighbor count (default %(default)s)")
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="LOF score for each feature row")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--features", required=True, help="feature CSV to score")
    p.add_argument("--out", required=True, help="score CSV to write")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="confusion matrix + metrics for labeled features")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--features", required=True, help="labeled feature CSV")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-n", help="accuracy vs neighbor count")
    p.add_argument("--train-features", required=True, help="training feature CSV")
    p.add_argument("--eval-features", required=True, help="evaluation feature CSV")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--k-grid", type=_k_grid, default="10:200:10",
                   help="neighbor grid, start:stop:step or comma list "
                        "(default %(default)s)")
    p.add_argument("--test-frac", type=float, default=0.7,
                   help="test share of the stratified eval split (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for the split (default 0)")
    _add_model_flags(p)
    p.set_defaults(func=cmd_sweep_n)

    p = sub.add_parser("sweep-snr", help="accuracy vs SNR for a 30 dB-trained model")
    p.add_argument("--corpus", required=True,
                   help="corpus directory written by synth (provides clean signals)")
    p.add_argument("--train-features", required=True, help="training feature CSV")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--k-grid", type=_k_grid, default="100:200:20",
                   help="neighbor grid (default %(default)s)")
    p.add_argument("--snr-grid", type=_snr_grid, default="6:30:2",
                   help="SNR grid in dB (default %(default)s)")
    p.add_argument("--per-class", type=_positive_int, default=200,
                   help="balanced set size per class (default %(default)s)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (default 1; output is identical)")
    _add_model_flags(p)
    p.set_defaults(func=cmd_sweep_snr)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RfSentryError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
