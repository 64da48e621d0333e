"""Command-line front end for the burst-fingerprinting pipeline.

Subcommands cover the full workflow: synthesize a corpus, extract feature
CSVs, train/score/evaluate the detector, and run the neighbor-count and SNR
sweeps. Logs go to stderr; data products go only to files (or stdout where
noted), so commands are pipe-safe. A single --seed flag fans out to
per-stage seeds (see seeding.stage_seed), which keeps every subcommand
deterministic without threading seeds through each flag. This module holds
no file format, only the corpus directory layout: each format is read and
written by the module of the type it holds. ``synth`` writes its traces in
manifest order, training bursts first (``CorpusConfig.split``); each worker
writes its traces on a helper thread while it generates the next burst
(``signals.save_signals``), and the manifests and corpus.json are removed
before the first trace is written and written last, after every trace is
on disk, so a failed ``synth`` leaves no corpus. Every command runs with
numpy's overflow, invalid and divide warnings off, so stderr holds only the
log: a fit that overflowed is refused by ``lof.fit_grid`` instead.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import FormatError, RfSentryError
from .evaluate import (
    accuracy_grid,
    best_k,
    confusion,
    render_snr_svg,
    save_confusion_csv,
    save_metrics_csv,
    save_neighbors_csv,
    save_scores_csv,
    save_snr_csv,
)
from .features import (FeatureTable, fingerprint, load_feature_csv, save_feature_csv,
                       snr_fingerprints)
from .lof import DEFAULT_K, DEFAULT_THRESHOLD, LofModel, Metric, fit_grid, score_grid
from .seeding import map_chunks, stage_seed
from .signals import (
    ManifestRow,
    SignalClass,
    TriggerConfig,
    load_signal,
    read_manifest,
    save_signals,
    write_manifest,
)
from .synth import (
    CorpusConfig,
    balanced_eval_plan,
    default_profiles,
    gen_burst,
    snr_power_ratio,
    stratified_split_indices,
)

log = logging.getLogger("rfsentry")

CORPUS_FILE = "corpus.json"
TRAIN_MANIFEST = "train_manifest.csv"
EVAL_MANIFEST = "eval_manifest.csv"


def _atomic(write_fn, path: Path) -> None:
    """Write via a sibling temp file so a failure never leaves a partial file.

    A system error about the temp file, or about no file (a write's error
    names none), names ``path``, the file the user asked for.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.strerror is not None and (
                exc.filename is None or os.fspath(exc.filename) == os.fspath(tmp)):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


# The most values a --k-grid or --snr-grid may hold. Each value costs a model
# fit or a re-fingerprinting of the whole balanced set, and the longest grids
# the experiments use hold 20 values; a 'start:stop:step' grid is counted
# before any of its values is built.
MAX_GRID_VALUES = 1000


def _bounded(part: str) -> str:
    """A ``start:stop:step`` part, checked to be cheap for ``Fraction``.

    ``Fraction`` expands a decimal exponent into an exact integer: 0.18 s
    for '1e-1000000', and about 40x that per further decade of exponent,
    where ``float`` reads the same text at once. A nonzero value beyond float range (inf, or
    0 from nonzero digits) is a ValueError and a zero comes back as '0', so
    no exponent that survives is further from float range than the text is
    long. An 'n/d' part has no exponent.
    """
    if "/" in part:
        return part
    value = float(part)
    digits = part.lower().partition("e")[0]
    if math.isinf(value) or (value == 0 and any(c.isdecimal() and int(c) for c in digits)):
        raise ValueError(f"{part.strip()!r} is beyond float range")
    return part if value else "0"


def _parse_grid(text: str, integral: bool) -> list:
    """Grid syntax: 'start:stop:step' (stop inclusive) or 'v1,v2,...'.

    The argparse type of --k-grid and --snr-grid, so a malformed, empty,
    non-finite, repeating or over-long grid (more than MAX_GRID_VALUES values)
    is a usage error, and so is a non-integer value in an integral (k) grid.
    """
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("must be start:stop:step")
            # exact fractions, so the i-th value is start + i * step rounded once;
            # imported here so that the commands without a grid skip its import
            from fractions import Fraction

            start, stop, step = (Fraction(p) for p in [_bounded(p) for p in parts])
            if step <= 0:
                raise ValueError("step must be > 0")
            count = math.floor((stop - start) / step) + 1 if stop >= start else 0
            values = (float(start + i * step) for i in range(count))
        else:
            parts = [p for p in text.split(",") if p.strip()]
            count = len(parts)
            values = (float(p) for p in parts)
        if count > MAX_GRID_VALUES:
            raise ValueError(f"{count} values, more than the {MAX_GRID_VALUES} allowed")
        values = list(values)
    except (ArithmeticError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"grid {text!r}: {exc}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"grid {text!r} is empty")
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"grid {text!r} holds a non-finite value")
    if integral and not all(v.is_integer() for v in values):
        raise argparse.ArgumentTypeError(f"grid {text!r} holds a non-integer value")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"grid {text!r} repeats a value")
    return [int(v) for v in values] if integral else values


_k_grid = functools.partial(_parse_grid, integral=True)
_snr_grid = functools.partial(_parse_grid, integral=False)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_training(path: str) -> FeatureTable:
    """The training feature CSV at ``path``, which must hold recognized rows only."""
    table = load_feature_csv(path)
    uav = sum(1 for c in table.classes if c is SignalClass.UAV)
    if uav:
        raise RfSentryError(
            f"{path}: training features contains {uav} UAV rows; the detector is "
            "semi-supervised and fits on recognized signals only"
        )
    return table


def _model_options(args) -> dict:
    """The ``fit_grid`` keyword arguments that the model flags set."""
    return dict(metric=args.metric, threshold=args.threshold,
                standardize=not args.no_standardize)


def _load_corpus(root: Path) -> CorpusConfig:
    """The corpus.json of corpus directory ``root``, checked against its manifests.

    The manifests must hold ``signals_per_device`` rows per profile, each
    profile must have rows, and the first trace of each must hold the
    ``lead_len + burst_len`` samples that corpus.json generates, so that a
    corpus.json which its own files contradict is a FormatError before a
    burst is generated or the evaluation plan is enumerated.
    """
    path = root / CORPUS_FILE
    cfg = CorpusConfig.load(path)
    rows = read_manifest(root / TRAIN_MANIFEST) + read_manifest(root / EVAL_MANIFEST)
    expected = len(cfg.profiles) * cfg.signals_per_device
    if len(rows) != expected:
        raise FormatError(f"{path}: {len(cfg.profiles)} devices x {cfg.signals_per_device} "
                          f"signals are {expected} bursts, but the manifests hold {len(rows)}")
    first = {row.device_id: row for row in reversed(rows)}  # each device's first row
    for profile in cfg.profiles:
        if profile.name not in first:
            raise FormatError(f"{path}: device {profile.name} has no rows in the manifests")
        trace = root / first[profile.name].path
        count = len(load_signal(trace))
        if count != cfg.lead_len + cfg.burst_len:
            raise FormatError(f"{path}: generates {cfg.lead_len + cfg.burst_len} samples "
                              f"per burst, but {trace} holds {count}")
    return cfg


def _corpus_fingerprints(cfg: CorpusConfig, root: Path, plan: list, snrs: list,
                         jobs: int = 1):
    """``snr_fingerprints`` of corpus ``root``, whose corpus.json an error names.

    A burst that cannot be generated or captured comes from a profile or a
    setting of that file, so its error, of the same type, starts with its path.
    """
    try:
        return snr_fingerprints(cfg, plan, snrs, jobs)
    except RfSentryError as exc:
        raise type(exc)(f"{root / CORPUS_FILE}: {exc}") from exc


def _check_training_source(cfg: CorpusConfig, train: FeatureTable, root: Path,
                           path: str) -> None:
    """Training CSV ``path`` must hold each recognized device's burst 0 of corpus ``root``.

    The burst is fingerprinted as the sweep captures it (``cfg.trigger``), and
    must match a row of its device within 1e-6 relative, as RFSG stores float32.
    """
    recognized = [p for p in cfg.profiles if p.signal_class is SignalClass.RECOGNIZED]
    expected = _corpus_fingerprints(cfg, root, [(p, 0) for p in recognized], [cfg.snr_db])[0]
    for profile, want in zip(recognized, expected):
        if not any(device_id == profile.name
                   and all(math.isclose(x, y, rel_tol=1e-6) for x, y in zip(row, want))
                   for device_id, row in zip(train.device_ids, train.matrix)):
            raise FormatError(
                f"{path}: no {profile.name} row matches burst 0 of {root / CORPUS_FILE} "
                f"captured at its capture_len {cfg.capture_len}; extract the training "
                f"features from that corpus with --capture-len {cfg.capture_len}")


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
    """Generate and store each (profile, index) burst of ``plan``; one manifest row each.

    Each row is built from its profile and the corpus SNR (empty for a clean
    corpus), not from the burst. Each trace is written on a helper thread
    while the next burst is generated (``signals.save_signals``).
    """
    snr_db = None if cfg.snr_db == math.inf else cfg.snr_db
    rows = []

    def bursts():
        for profile, index in plan:
            rel = f"signals/{profile.name}_{index:05d}.rfsg"
            rows.append(ManifestRow(path=rel, device_id=profile.name,
                                    signal_class=profile.signal_class, snr_db=snr_db))
            yield gen_burst(profile, index, cfg), Path(out_dir) / rel

    save_signals(bursts())
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
    for name in (CORPUS_FILE, TRAIN_MANIFEST, EVAL_MANIFEST):  # no stale corpus if this fails
        (out / name).unlink(missing_ok=True)
    train, evaluation = cfg.split()
    rows = map_chunks(_synth_bursts, train + evaluation, args.jobs, cfg, str(out))
    train_rows, eval_rows = rows[:len(train)], rows[len(train):]

    # manifests and config last, atomically: their presence means a complete corpus
    _atomic(lambda p: write_manifest(train_rows, p), out / TRAIN_MANIFEST)
    _atomic(lambda p: write_manifest(eval_rows, p), out / EVAL_MANIFEST)
    _atomic(cfg.save, out / CORPUS_FILE)
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
        try:
            vec = fingerprint(load_signal(manifest.parent / row.path), trigger)
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
    table = _load_training(args.features)
    model = fit_grid(table.matrix, [args.k], **_model_options(args))[0]
    _atomic(model.save, Path(args.out))
    log.info(
        "trained on %d recognized fingerprints (k=%d, metric=%s, threshold=%g)",
        len(table), args.k, args.metric, args.threshold,
    )
    return 0


def cmd_score(args) -> int:
    model = LofModel.load(args.model)
    table = load_feature_csv(args.features)
    scores = score_grid([model], table.matrix)[0]
    _atomic(lambda p: save_scores_csv(table, scores, model.outliers(scores), p), Path(args.out))
    log.info("scored %d fingerprints", len(table))
    return 0


def cmd_eval(args) -> int:
    model = LofModel.load(args.model)
    table = load_feature_csv(args.features)
    cm = confusion(table.classes, model.outliers(score_grid([model], table.matrix)[0]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic(lambda p: save_confusion_csv(cm, p), out / "confusion.csv")
    _atomic(lambda p: save_metrics_csv(cm, p), out / "metrics.csv")
    log.info(
        "accuracy=%.4f precision=%.4f recall=%.4f f1=%.4f (tp=%d fp=%d fn=%d tn=%d)",
        cm.accuracy, cm.precision, cm.recall, cm.f1, cm.tp, cm.fp, cm.fn, cm.tn,
    )
    return 0


def cmd_sweep_n(args) -> int:
    train = _load_training(args.train_features)
    ev = load_feature_csv(args.eval_features)
    test_idx, val_idx = stratified_split_indices(
        ev.classes, args.test_frac, stage_seed(args.seed, "split")
    )
    ks = sorted(args.k_grid)
    models = fit_grid(train.matrix, ks, **_model_options(args))
    sets = [ev.select(idx) for idx in (val_idx, test_idx)]
    acc = accuracy_grid(models, [(t.matrix, t.classes) for t in sets])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic(lambda p: save_neighbors_csv(ks, acc, p), out / "neighbors_sweep.csv")
    chosen = best_k(ks, acc[0])
    log.info("neighbor sweep written; best k by validation accuracy = %d", chosen)
    print(chosen)
    return 0


def cmd_sweep_snr(args) -> int:
    snrs = sorted(args.snr_grid)
    for snr in snrs:  # checked before the corpus, whose path prefixes a burst error
        snr_power_ratio(snr)
    root = Path(args.corpus)
    cfg = _load_corpus(root)
    train = _load_training(args.train_features)
    plan = balanced_eval_plan(cfg, args.per_class)
    _check_training_source(cfg, train, root, args.train_features)
    ks = sorted(args.k_grid)
    models = fit_grid(train.matrix, ks, **_model_options(args))
    truth = [profile.signal_class for profile, _ in plan]
    acc = accuracy_grid(models, [(matrix, truth) for matrix
                                 in _corpus_fingerprints(cfg, root, plan, snrs, args.jobs)])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic(lambda p: save_snr_csv(snrs, ks, acc, p), out / "snr_sweep.csv")
    _atomic(lambda p: render_snr_svg(snrs, ks, acc, p), out / "snr_sweep.svg")
    log.info("SNR sweep written: %d cells", acc.size)
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", choices=[m.value for m in Metric], default=Metric.MANHATTAN.value,
                   help="distance metric (default %(default)s)")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="outlier decision threshold (default %(default)s)")
    p.add_argument("--no-standardize", action="store_true",
                   help="skip z-scoring features with training statistics")


def _add_trigger_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--capture-len", type=int, default=TriggerConfig.capture_len,
                   help="transient capture length in samples (default %(default)s)")
    p.add_argument("--window-len", type=int, default=TriggerConfig.window_len,
                   help="energy trigger window length (default %(default)s)")
    p.add_argument("--energy-threshold", type=float, default=TriggerConfig.energy_threshold,
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
    p.add_argument("--snr", type=float, default=CorpusConfig.snr_db,
                   help="corpus SNR in dB; inf disables noise (default %(default)g)")
    p.add_argument("--capture-len", type=int, default=TriggerConfig.capture_len,
                   help="transient capture length in samples (default %(default)s)")
    p.add_argument("--signals-per-device", type=int, default=CorpusConfig.signals_per_device,
                   help="bursts per device (default %(default)s)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes, at most one per usable CPU; each writes its "
                        "traces on a helper thread as it generates the next burst "
                        "(default 1; output is identical)")
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
                   help="neighbor grid, start:stop:step or comma list of at most "
                        f"{MAX_GRID_VALUES} values (default %(default)s)")
    p.add_argument("--test-frac", type=float, default=0.7,
                   help="test share of the stratified eval split (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed for the split (default 0)")
    _add_model_flags(p)
    p.set_defaults(func=cmd_sweep_n)

    p = sub.add_parser("sweep-snr", help="accuracy vs SNR for a 30 dB-trained model")
    p.add_argument("--corpus", required=True,
                   help="corpus directory written by synth: corpus.json, its two "
                        "manifests and at least one trace per device")
    p.add_argument("--train-features", required=True, help="training feature CSV")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--k-grid", type=_k_grid, default="100:200:20",
                   help=f"neighbor grid, at most {MAX_GRID_VALUES} values "
                        "(default %(default)s)")
    p.add_argument("--snr-grid", type=_snr_grid, default="6:30:2",
                   help=f"SNR grid in dB, at most {MAX_GRID_VALUES} values "
                        "(default %(default)s)")
    p.add_argument("--per-class", type=_positive_int, default=200,
                   help="balanced set size per class (default %(default)s)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes, at most one per usable CPU, that each "
                        "generate, re-noise and fingerprint their own bursts, one at "
                        "a time (default 1; output is identical); the LOF threads "
                        "follow the CPU affinity, not --jobs")
    _add_model_flags(p)
    p.set_defaults(func=cmd_sweep_snr)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except (RfSentryError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
