"""Damaged inputs: each command exits 0 or 2, never a traceback.

Every parser gets truncated and byte-mutated copies of a valid file,
corpus.json also gets one config value replaced by a drawn JSON value,
numeric flags get invalid values, and feature CSVs get values anywhere in
the finite float range; each run is in-process through ``cli.main``, where
pyproject's filter fails a run that lets a RuntimeWarning out. The library
calls get drawn arrays and arguments, and each returns or raises one of the
package's three errors; a model or corpus config that builds also saves
and loads back. Hypothesis is derandomized and has no example
database, so the examples are the same on every run.
"""

import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rfsentry import (
    LofModel,
    RfSentryError,
    Signal,
    TriggerConfig,
    cli,
    fingerprint,
    fit_grid,
    packet_coefficients,
    score_grid,
)
from rfsentry.features import FEATURE_CSV_HEADER
from rfsentry.synth import CorpusConfig, DeviceProfile, default_profiles

MINI = ["--capture-len", "256"]

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A mini corpus with its features and model, written by the CLI."""
    root = tmp_path_factory.mktemp("valid")
    corpus = root / "corpus"
    steps = [
        ["synth", "--out", corpus, "--seed", "3", "--signals-per-device", "12", *MINI],
        ["extract", "--manifest", corpus / "train_manifest.csv",
         "--out", root / "train.csv", *MINI],
        ["extract", "--manifest", corpus / "eval_manifest.csv",
         "--out", root / "eval.csv", *MINI],
        ["train", "--features", root / "train.csv", "--out", root / "model.json",
         "--k", "5"],
    ]
    for argv in steps:
        assert cli.main([str(a) for a in argv]) == 0
    return root


def _damage(data, original: bytes) -> bytes:
    """``original`` cut short, or with one to four bytes replaced.

    Half the replacements land in the first 32 bytes, where the headers are.
    """
    if data.draw(st.booleans(), label="truncate"):
        return original[: data.draw(st.integers(0, len(original) - 1), label="length")]
    damaged = bytearray(original)
    head = st.integers(0, min(31, len(original) - 1))
    anywhere = st.integers(0, len(original) - 1)
    for _ in range(data.draw(st.integers(1, 4), label="replacements")):
        damaged[data.draw(st.one_of(head, anywhere), label="at")] = data.draw(
            st.integers(0, 255), label="byte")
    return bytes(damaged)


def _run(argv) -> int:
    code = cli.main([str(a) for a in argv])
    assert code in (0, 2)
    return code


@FUZZ
@given(data=st.data())
def test_damaged_signal_file(valid, tmp_path, data):
    rfsg = (valid / "corpus" / "signals" / "bt_phone_00000.rfsg").read_bytes()
    (tmp_path / "x.rfsg").write_bytes(_damage(data, rfsg))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,device_id,class,snr_db\nx.rfsg,bt_phone,recognized,30.0\n")
    _run(["extract", "--manifest", manifest, "--out", tmp_path / "f.csv", *MINI])


@FUZZ
@given(data=st.data())
def test_damaged_manifest(valid, tmp_path, data):
    manifest = valid / "corpus" / "damaged_manifest.csv"  # its paths are corpus-relative
    manifest.write_bytes(_damage(data, (valid / "corpus" / "eval_manifest.csv").read_bytes()))
    _run(["extract", "--manifest", manifest, "--out", tmp_path / "f.csv", *MINI])


@FUZZ
@given(data=st.data())
def test_damaged_feature_csv(valid, tmp_path, data):
    features = tmp_path / "train.csv"
    features.write_bytes(_damage(data, (valid / "train.csv").read_bytes()))
    _run(["train", "--features", features, "--out", tmp_path / "model.json", "--k", "5"])


@FUZZ
@given(data=st.data())
def test_damaged_model_json(valid, tmp_path, data):
    model = tmp_path / "model.json"
    model.write_bytes(_damage(data, (valid / "model.json").read_bytes()))
    _run(["score", "--model", model, "--features", valid / "eval.csv",
          "--out", tmp_path / "scores.csv"])


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.text(max_size=8), st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def _close(value):
    """Values of ``value``'s JSON type near it, often valid, so that runs pass the parser."""
    if isinstance(value, bool) or value is None:
        return JSON_VALUES
    if isinstance(value, int):
        return st.integers(value - 2, value + 2)
    if isinstance(value, float):
        return st.floats(*sorted((value / 2, value * 2)))
    return st.sampled_from(["bluetooth", "wifi", "uav_controller", value + "_x"])


def _damage_value(data, original: bytes) -> bytes:
    """corpus.json ``original`` with one leaf of its config or of a profile replaced."""
    doc = json.loads(original)
    config = doc["config"]
    leaves = [(config, key) for key in config if key != "profiles"]
    leaves += [(profile, key) for profile in config["profiles"] for key in profile]
    owner, key = leaves[data.draw(st.integers(0, len(leaves) - 1), label="leaf")]
    close = data.draw(st.booleans(), label="close")
    owner[key] = data.draw(_close(owner[key]) if close else JSON_VALUES, label=key)
    return json.dumps(doc).encode()


@FUZZ
@given(data=st.data())
def test_damaged_corpus_json(valid, tmp_path, data):
    corpus = tmp_path / "corpus"  # the valid manifests and traces, under a damaged corpus.json
    if not corpus.exists():
        shutil.copytree(valid / "corpus", corpus)
    original = (valid / "corpus" / "corpus.json").read_bytes()
    damage = _damage_value if data.draw(st.booleans(), label="value") else _damage
    (corpus / "corpus.json").write_bytes(damage(data, original))
    report = Path(tempfile.mkdtemp(dir=tmp_path)) / "report"
    code = _run(["sweep-snr", "--corpus", corpus, "--train-features", valid / "train.csv",
                 "--out", report, "--k-grid", "5", "--snr-grid", "30", "--per-class", "4"])
    if code == 2:
        assert not report.exists()


BAD_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "x", ""]


def _or_bad(good: str) -> list[str]:
    return [good, *BAD_VALUES]


# Each command's fuzzed flags with the values drawn for each, and its other
# arguments. No drawn value sizes an allocation or a worker pool: --jobs and
# --signals-per-device are pinned, and --per-class only draws values that
# argparse or the balanced split rejects, or a small valid one.
ARGUMENT_CASES = {
    "train": ({"--k": _or_bad("5"), "--threshold": _or_bad("1.5")},
              lambda valid: ["--features", valid / "train.csv"]),
    "extract": ({"--capture-len": _or_bad("256"), "--window-len": _or_bad("64"),
                 "--energy-threshold": _or_bad("0.05")},
                lambda valid: ["--manifest", valid / "corpus" / "train_manifest.csv"]),
    "sweep-n": ({"--test-frac": _or_bad("0.7"), "--threshold": _or_bad("1.5")},
                lambda valid: ["--train-features", valid / "train.csv",
                               "--eval-features", valid / "eval.csv", "--k-grid", "3,5"]),
    "synth": ({"--snr": _or_bad("30"), "--capture-len": _or_bad("256")},
              lambda valid: ["--signals-per-device", "2", "--jobs", "1"]),
    "sweep-snr": ({"--threshold": _or_bad("1.5"), "--per-class": ["2", "0", "-1", "x"],
                   "--snr-grid": _or_bad("30")},
                  lambda valid: ["--corpus", valid / "corpus",
                                 "--train-features", valid / "train.csv",
                                 "--k-grid", "3", "--jobs", "1"]),
}


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("command", ARGUMENT_CASES)
def test_fuzzed_arguments(valid, tmp_path, command, data):
    flags, inputs = ARGUMENT_CASES[command]
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    argv = [command, *inputs(valid), "--out", work / "out"]
    for flag, values in flags.items():
        argv.append(f"{flag}={data.draw(st.sampled_from(values), label=flag)}")
    try:
        code = _run(argv)
    except SystemExit as exc:  # an argparse usage error
        assert exc.code == 2
        code = 2
    if code == 2:
        assert list(work.iterdir()) == []


def _feature_csv(path: Path, rows: list) -> Path:
    """A feature CSV of ``(class, values)`` rows, spread over three devices."""
    path.write_text("\n".join([",".join(FEATURE_CSV_HEADER)] + [
        ",".join([f"dev{i % 3}", cls, "", *map(repr, values)])
        for i, (cls, values) in enumerate(rows)]) + "\n")
    return path


FINITE_ROW = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4)
TRAIN_ROWS = st.lists(st.tuples(st.just("recognized"), FINITE_ROW), min_size=3, max_size=8)
QUERY_ROWS = st.lists(st.tuples(st.sampled_from(["recognized", "uav"]), FINITE_ROW),
                      min_size=1, max_size=6)


@FUZZ
@given(data=st.data())
def test_feature_values_anywhere_in_float_range(tmp_path, data):
    # distances, densities and scalers may overflow: each command then exits
    # 2 or fits finite models that score, and numpy's warnings stay quiet
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    train = _feature_csv(work / "train.csv", data.draw(TRAIN_ROWS, label="train"))
    queries = _feature_csv(work / "eval.csv", data.draw(QUERY_ROWS, label="eval"))
    flags = data.draw(st.sampled_from([[], ["--no-standardize"]]), label="flags")
    model = work / "model.json"
    if _run(["train", "--features", train, "--out", model, "--k", "2", *flags]) == 0:
        _run(["score", "--model", model, "--features", queries, "--out", work / "scores.csv"])
        _run(["eval", "--model", model, "--features", queries, "--out", work / "report"])
    _run(["sweep-n", "--train-features", train, "--eval-features", queries,
          "--out", work / "sweep", "--k-grid", "1,2", *flags])


# -- library calls --------------------------------------------------------------

FLOATS = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
                   st.floats())
DTYPES = [  # float64, int64, bool, complex128, str, numeric str and object
    ("f8", FLOATS),
    ("i8", st.integers(-(2**63), 2**63 - 1)),
    ("?", st.booleans()),
    ("c16", st.complex_numbers()),
    ("U4", st.one_of(st.text(st.characters(exclude_characters="\0"), max_size=4),
                     st.sampled_from(["1.5", "-2", "nan", "inf"]))),
    ("U4", st.sampled_from(["1.5", "-2", "0", "1e3"])),
    ("O", st.one_of(st.none(), FLOATS, st.integers(-(2**70), 2**70), st.text(max_size=3))),
]


@st.composite
def arrays(draw):
    """An array of 0 to 64 entries, 0 to 3 dimensions, of a drawn dtype."""
    shape, room = [], 64
    for _ in range(draw(st.integers(0, 3), label="ndim")):
        side = draw(st.integers(0, room), label="side")
        shape.append(side)
        room //= max(side, 1)
    dtype, elements = draw(st.sampled_from(DTYPES), label="dtype")
    return draw(hnp.arrays(dtype, tuple(shape), elements=elements), label="array")


def usual(rows, cols):
    """Float arrays of a shape the call takes, so that some runs get past its checks."""
    shape = st.tuples(rows, cols) if cols is not None else st.tuples(rows)
    return hnp.arrays(np.float64, shape, elements=st.floats(-10.0, 10.0))


# k below 1, k >= n, repeated k, a k whose k + 1 wraps in int64, and non-integers
KS = st.one_of(st.lists(st.integers(1, 4), min_size=1, max_size=4),
               st.lists(st.one_of(st.integers(-1, 12), st.integers(13, 70),
                                  st.sampled_from([True, 2.0, 2**63 - 1])), max_size=4))
# the int64 edges, the first integer past them and one beyond float range; no
# numpy scalar holds 10**400, and 2**63 is a uint64 one
EDGES = [-(2**63), 2**63 - 1, 2**63, 10**400]
SCALARS = st.one_of(st.integers(-2, 300), FLOATS, st.none(), st.booleans(), st.text(max_size=3),
                    st.sampled_from(EDGES))
NUMPY_SCALARS = st.one_of(st.integers(-2, 300).map(np.int64), FLOATS.map(np.float64),
                          st.floats(width=32).map(np.float32), st.booleans().map(np.bool_),
                          st.sampled_from([np.int64(EDGES[0]), np.int64(EDGES[1]),
                                           np.uint64(EDGES[2])]))


def usual_or(value, other):
    """A draw of ``value`` half the time, else of ``other``; ``one_of`` would flatten ``other``."""
    return st.booleans().flatmap(lambda usual: value if usual else other)


_FIT = fit_grid(np.random.default_rng(51).standard_normal((12, 4)), [1, 3, 3])


def _saves_and_loads(value, load, path):
    """``load(path)`` after ``value.save(path)``; an error of either fails the run."""
    try:
        value.save(path)
        return load(path)
    except RfSentryError as exc:  # not one that the call under test may raise
        pytest.fail(f"save then load raised {exc!r}")


# 6 to 16 training rows of distinct values: k in 1..3 fits them unless some rows are
# closer than the metric resolves
FIT_ROWS = hnp.arrays(np.float64, st.tuples(st.integers(6, 16), st.integers(1, 4)),
                      elements=st.floats(-10.0, 10.0), unique=True)


def _fit(data, tmp_path):
    """The number of models that fit, each saved and loaded back.

    Half the examples draw every argument valid; the others draw each one
    valid or invalid, so that each invalid draw also meets valid others.
    """
    mixed = data.draw(st.booleans(), label="mixed")

    def draw(valid, invalid, label):
        return data.draw(usual_or(valid, invalid) if mixed else valid, label=label)

    ks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), KS, "ks")
    ks = data.draw(st.sampled_from([list, tuple, np.array]), label="container")(ks)
    models = fit_grid(
        draw(FIT_ROWS, st.one_of(usual(st.integers(0, 16), st.integers(1, 4)), arrays()), "train"),
        ks,
        metric=data.draw(st.sampled_from(["manhattan", "euclidean"]), label="metric"),
        threshold=draw(st.just(1.5), SCALARS, "threshold"),
        standardize=draw(st.booleans(), SCALARS, "standardize"))
    for model in models:  # every model that fit_grid returns saves and loads back
        _saves_and_loads(model, LofModel.load, tmp_path / "model.json")
    return len(models)


def _score(data, tmp_path):
    queries = st.one_of(usual(st.integers(0, 16), st.just(4)), arrays())
    score_grid(_FIT, data.draw(queries, label="queries"))


def _outliers(data, tmp_path):
    _FIT[0].outliers(data.draw(arrays(), label="scores"))


def _packets(data, tmp_path):
    samples = st.one_of(usual(st.integers(0, 64), None), arrays())
    packet_coefficients(data.draw(samples, label="samples"))


def _fingerprint(data, tmp_path):
    trigger = TriggerConfig(**{name: data.draw(usual_or(st.just(default), SCALARS), label=name)
                               for name, default in [("window_len", 8), ("capture_len", 16),
                                                     ("energy_threshold", 0.05)]})
    samples = st.one_of(usual(st.integers(16, 64), None), arrays())
    fingerprint(Signal(samples=data.draw(samples, label="samples")), trigger)


def _load(data, tmp_path):
    path = tmp_path / "model.json"
    _FIT[0].save(path)
    doc = json.loads(path.read_text())
    for key in data.draw(st.lists(st.sampled_from(sorted(doc)), min_size=1, max_size=2),
                         label="keys"):
        drawn = data.draw(st.one_of(arrays(), SCALARS), label=key)
        value = drawn.tolist() if isinstance(drawn, np.ndarray) else drawn
        if isinstance(doc[key], list) and data.draw(st.booleans(), label="one entry"):
            doc[key][data.draw(st.integers(0, len(doc[key]) - 1), label="at")] = value
        else:
            doc[key] = value
    path.write_text(json.dumps(doc, default=str))  # complex entries as text
    LofModel.load(path)


def _corpus(data, tmp_path):
    # a drawn profile's fields and the config's: up to two drawn scalars, the
    # others valid, each as a Python value or a numpy scalar
    profiles = list(default_profiles(256))
    at = data.draw(st.integers(0, len(profiles) - 1), label="profile")
    config = {"signals_per_device": 6, "snr_db": 30.0, "capture_len": 256,
              "master_seed": 99, "lead_len": 0}
    drawn = data.draw(st.lists(st.sampled_from([*vars(profiles[at]), *config]), max_size=2),
                      label="drawn")

    def field(name, value):
        if name in drawn:
            return data.draw(st.one_of(SCALARS, NUMPY_SCALARS), label=name)
        return data.draw(st.sampled_from([value, np.asarray(value)[()]]), label=name)

    profiles[at] = DeviceProfile(**{name: field(name, value)
                                    for name, value in vars(profiles[at]).items()})
    cfg = CorpusConfig(profiles, **{name: field(name, value) for name, value in config.items()})
    assert _saves_and_loads(cfg, CorpusConfig.load, tmp_path / "corpus.json") == cfg


LIBRARY_CALLS = {"fit_grid": _fit, "score_grid": _score, "outliers": _outliers,
                 "packet_coefficients": _packets, "fingerprint": _fingerprint,
                 "load": _load, "corpus": _corpus}


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("call", LIBRARY_CALLS)
def test_library_calls_return_or_raise_the_package_errors(tmp_path, call, data):
    # under the CLI's errstate; any other exception, or a warning, fails the run
    with np.errstate(all="ignore"):
        try:
            LIBRARY_CALLS[call](data, tmp_path)
        except RfSentryError:  # ConfigError and FormatError are subclasses
            pass


def test_fuzzed_fits_reach_save_and_load(tmp_path):
    # _fit's draws under the same settings: some of them must fit, or the
    # save-and-load check above runs on no model at all
    saved = []

    @FUZZ
    @given(data=st.data())
    def fits(data):
        with np.errstate(all="ignore"):
            try:
                saved.append(_fit(data, tmp_path))
            except RfSentryError:
                saved.append(0)

    fits()
    assert sum(count > 0 for count in saved) > 0, f"no fit of {len(saved)} examples saved"
