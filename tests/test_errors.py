"""The failure contract: three error types, and every deliberate failure is one of them.

``ConfigError`` is an invalid argument, ``FormatError`` a malformed input
file and a plain ``RfSentryError`` valid input that cannot be processed.
A builtin exception raised by the package is allowed only where argparse
turns it into a usage error, and a library argument that is not a number
is a ``ConfigError``. Only ``errors`` turns an argument into float64.
corpus.json and model.json are read through the constructors of the
records they hold, so a value is refused in a file exactly where the
library refuses it.
"""

import ast
import builtins
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from rfsentry import (LofModel, Signal, TriggerConfig, errors, fit_grid, packet_coefficients,
                      score_grid)
from rfsentry.errors import ConfigError, FormatError
from rfsentry.features import sample_variance
from rfsentry.synth import CorpusConfig, DeviceProfile, default_profiles

SRC = Path(errors.__file__).parent

# cli.py's argparse converters raise ValueError and catch it themselves
CONVERTERS = {("cli.py", "_bounded"), ("cli.py", "_parse_grid")}

BUILTIN_ERRORS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, Exception) and not issubclass(obj, OSError)
}


def test_errors_defines_exactly_three_classes():
    defined = {
        name: obj for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    assert set(defined) == {"RfSentryError", "ConfigError", "FormatError"}
    for name in ("ConfigError", "FormatError"):
        assert defined[name].__bases__ == (errors.RfSentryError, ValueError)


def _raised_builtins(node, function: str):
    """(function, exception name) of each builtin exception raised under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raised_builtins(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                yield function, exc.id
        yield from _raised_builtins(child, function)


def test_only_argparse_converters_raise_builtin_errors():
    stray = []
    converters_raise = set()
    for path in sorted(SRC.glob("*.py")):
        for function, name in _raised_builtins(ast.parse(path.read_text()), "<module>"):
            if (path.name, function) in CONVERTERS:
                converters_raise.add((path.name, function))
            else:
                stray.append(f"{path.name}: {function} raises {name}")
    assert stray == []
    assert converters_raise == CONVERTERS  # the scan does find raises


_X = np.random.default_rng(50).standard_normal((10, 4))
_MODEL = fit_grid(_X, [3])[0]

# a finite np.longdouble beyond float64, where longdouble is wider (x86-64)
LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).max > np.finfo(np.float64).max
_HUGE = np.longdouble(10) ** 400 if LONGDOUBLE_IS_WIDER else None

# library arguments that are not numbers, or not integers where a count is
# asked for, or not of the type asked for: each is a ConfigError that names
# the argument, never numpy's or Python's own error, and never a cast
NOT_NUMBER_CASES = {
    "fit-complex-rows": (lambda: fit_grid(_X * (1 + 1j), [3]),
                         "training features must be numbers, got dtype complex128"),
    "fit-bool-rows": (lambda: fit_grid(_X > 0, [3]),
                      "training features must be numbers, got dtype bool"),
    "fit-huge-threshold": (lambda: fit_grid(_X, [3], threshold=10**5000),
                           "threshold is beyond float range"),  # too long for str()
    "fit-str-standardize": (lambda: fit_grid(_X, [3], standardize="no"),
                            "standardize must be a boolean, got 'no'"),
    "score-numeric-text": (lambda: score_grid([_MODEL], np.array([["1", "2", "3", "4"]])),
                           "query features must be numbers, got dtype <U1"),
    "score-one-model": (lambda: score_grid(_MODEL, _X),
                        "models must be a list or tuple of LofModel"),
    "score-str-models": (lambda: score_grid("ab", _X),
                         "models must be a list or tuple of LofModel"),
    "score-mixed-models": (lambda: score_grid([_MODEL, "x"], _X),
                           "models must be a list or tuple of LofModel"),
    "outliers-complex": (lambda: _MODEL.outliers(np.ones(3, dtype=complex)),
                         "scores must be numbers, got dtype complex128"),
    "packets-complex": (lambda: packet_coefficients(np.ones(8, dtype=complex)),
                        "samples must be numbers, got dtype complex128"),
    "signal-numeric-text": (lambda: Signal(samples=["1", "2"]),
                            "samples must be numbers, got dtype <U1"),
    "variance-str": (lambda: sample_variance("abc"), "x must be numbers, got dtype <U3"),
    "variance-scalar": (lambda: sample_variance(1.0), "x must have at least one axis"),
    "fit-str-rows": (lambda: fit_grid(np.full((5, 4), "a"), [2]),
                     "training features must be numbers"),
    "fit-object-rows": (lambda: fit_grid(np.full((5, 4), object()), [2]),
                        "training features must be numbers"),
    "fit-ragged-rows": (lambda: fit_grid([[1.0, 2.0], [1.0]], [1]),
                        "training features must be numbers"),
    "fit-no-columns": (lambda: fit_grid(np.empty((5, 0)), [2]),
                       "training matrix must have at least one column"),
    "fit-str-threshold": (lambda: fit_grid(_X, [2], threshold="1.5"),
                          "threshold must be a number, got '1.5'"),
    "fit-none-threshold": (lambda: fit_grid(_X, [2], threshold=None),
                           "threshold must be a number, got None"),
    "fit-ndarray-ks": (lambda: fit_grid(_X, np.array([2, 0])), "k must be at least 1, got 0"),
    "fit-int64-max-k": (lambda: fit_grid(_X, np.array([2, 2**63 - 1])),
                        rf"need at least k\+1={2**63} rows, got 10"),
    "score-str": (lambda: score_grid([_MODEL], "abc"), "query features must be numbers"),
    "score-str-rows": (lambda: score_grid([_MODEL], np.full((2, 4), "a")),
                       "query features must be numbers"),
    "outliers-str": (lambda: _MODEL.outliers("abc"), "scores must be numbers"),
    "packets-str": (lambda: packet_coefficients("abcd"), "samples must be numbers"),
    "packets-object": (lambda: packet_coefficients(np.full(8, object())),
                       "samples must be numbers"),
    "signal-str": (lambda: Signal(samples="abc"), "samples must be numbers"),
    "signal-text-snr": (lambda: Signal(samples=[1.0, 2.0], snr_db="x"),
                        "snr_db must be a number, got 'x'"),
    "signal-bool-snr": (lambda: Signal(samples=[1.0, 2.0], snr_db=True),
                        "snr_db must be a number, got True"),
    "signal-huge-snr": (lambda: Signal(samples=[1.0, 2.0], snr_db=10**400),
                        "snr_db is beyond float range"),
    "signal-int-device": (lambda: Signal(samples=[1.0, 2.0], device_id=3),
                          "device_id must be a string, got 3"),
    "signal-none-device": (lambda: Signal(samples=[1.0, 2.0], device_id=None),
                           "device_id must be a string, got None"),
    "trigger-str-window": (lambda: TriggerConfig(window_len="64"),
                           "window_len must be an integer, got '64'"),
    "trigger-str-energy": (lambda: TriggerConfig(energy_threshold="0.05"),
                           "energy_threshold must be a number, got '0.05'"),
    "trigger-float-window": (lambda: TriggerConfig(window_len=64.0),
                             "window_len must be an integer, got 64.0"),
    "trigger-float-capture": (lambda: TriggerConfig(capture_len=4096.0),
                              "capture_len must be an integer, got 4096.0"),
    "longdouble-real": (lambda: errors.real(-_HUGE, "x"), "x is beyond float range"),
    "longdouble-array": (lambda: errors.float_array(np.array([1.0, _HUGE]), "x"),
                         "x is beyond float range"),
    "longdouble-rows": (lambda: fit_grid(np.full((5, 4), _HUGE), [2]),
                        "training features is beyond float range"),
    "longdouble-snr": (lambda: Signal(samples=[1.0, 2.0], snr_db=_HUGE),
                       "snr_db is beyond float range"),
    "longdouble-corpus-snr": (lambda: CorpusConfig(default_profiles(256), capture_len=256,
                                                   snr_db=_HUGE),
                              "snr_db is beyond float range"),
}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.skipif(
        case.startswith("longdouble-") and not LONGDOUBLE_IS_WIDER,
        reason="np.longdouble is no wider than float64 here"))
    for case in NOT_NUMBER_CASES])
def test_library_arguments_that_are_not_numbers_are_config_errors(case):
    call, message = NOT_NUMBER_CASES[case]
    with pytest.raises(ConfigError, match=message):
        call()


def _float64_conversions(tree: ast.Module) -> list[int]:
    """Line of each ``np.asarray``/``np.array`` call that converts a name,
    attribute or subscript with ``dtype=np.float64``."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and ast.unparse(node.func) in ("np.asarray", "np.array")
        and node.args and isinstance(node.args[0], (ast.Name, ast.Attribute, ast.Subscript))
        and any(kw.arg == "dtype" and ast.unparse(kw.value) == "np.float64"
                for kw in node.keywords)
    ]


def test_only_errors_converts_arguments_to_float64():
    # what a number is lives in errors.float_array: numpy's own conversion
    # would cast bool and complex values and parse text
    sample = ("a = np.asarray(x, dtype=np.float64)\n"
              "b = np.array(doc[key], dtype=np.float64)\n"
              "c = np.array([v for v in x], dtype=np.float64)\n"
              "d = np.asarray(x)\n")
    assert _float64_conversions(ast.parse(sample)) == [1, 2]
    stray = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for line in _float64_conversions(ast.parse(path.read_text()))
    ]
    assert stray == []


# -- one type rule for the library and for the file --------------------------

# The JSON values that each field of corpus.json and model.json takes in turn:
# 1.5 only where an integer belongs, null only where null is not valid
JSON_VALUES = [True, 1.5, "1", None, [], {}, 2**63, 10**400]
INTEGER_FIELDS = {"hop_period", "envelope_rise", "device_seed", "signals_per_device",
                  "capture_len", "master_seed", "lead_len", "k"}
NULLABLE_FIELDS = {"hop_period", "snr_db"}

_CFG = CorpusConfig(default_profiles(256), signals_per_device=6, capture_len=256)


def _values(field: str) -> list:
    return [value for value in JSON_VALUES
            if (value != 1.5 or field in INTEGER_FIELDS)
            and (value is not None or field not in NULLABLE_FIELDS)]


def _built(build):
    """What ``build()`` returns, or the message of its ConfigError."""
    try:
        return build()
    except ConfigError as exc:
        return str(exc)


def _state(model: LofModel) -> tuple:
    return (model.k, model.metric, model.threshold, model.standardized,
            *(getattr(model, name).tolist()
              for name in ("train", "kdist", "lrd", "scaler_mean", "scaler_std")))


def _case(path, document: str, field: str, value):
    """The saved document with ``value`` in ``field``, and what its reader
    must give: the constructors' outcome for ``value``, or the message of the
    reader's own steps, the ``profiles`` list check and the ``kind`` lookup."""
    (_CFG if document == "corpus" else _MODEL).save(path)
    doc = json.loads(path.read_text())
    if document == "model":
        doc[field] = value
        expected = _built(lambda: LofModel(**{f.name: doc[f.name] for f in fields(LofModel)}))
        if isinstance(expected, LofModel):
            expected = _state(expected)
        return doc, expected
    first, *rest = _CFG.profiles
    in_profile = field in first.__dataclass_fields__
    (doc["config"]["profiles"][0] if in_profile else doc["config"])[field] = value
    if field == "kind":
        expected = f"unknown kind {value!r}"
    elif field == "profiles" and not isinstance(value, list):
        expected = f"profiles must be a list, got {value!r}"
    elif in_profile:
        expected = _built(lambda: replace(_CFG, profiles=[replace(first, **{field: value}),
                                                          *rest]))
    else:  # an empty profiles list reaches the constructor
        expected = _built(lambda: replace(_CFG, **{field: value}))
    return doc, expected


RECORD_FIELDS = ([("corpus", f.name) for f in fields(CorpusConfig)]
                 + [("corpus", f.name) for f in fields(DeviceProfile)]
                 + [("model", f.name) for f in fields(LofModel)])


@pytest.mark.parametrize("document, field", RECORD_FIELDS,
                         ids=[f"{document}-{field}" for document, field in RECORD_FIELDS])
def test_files_refuse_a_value_where_the_constructor_does(tmp_path, document, field):
    # a reader's FormatError names the file and ends with the constructor's
    # ConfigError for the same value; a value that the constructor takes loads
    load = CorpusConfig.load if document == "corpus" else LofModel.load
    path = tmp_path / f"{document}.json"
    for value in _values(field):
        doc, expected = _case(path, document, field, value)
        path.write_text(json.dumps(doc))
        try:
            loaded = load(path)
        except FormatError as exc:
            assert isinstance(expected, str), (value, str(exc))
            assert str(exc).startswith(f"{path}: ") and str(exc).endswith(expected), value
        else:
            assert (loaded if document == "corpus" else _state(loaded)) == expected, value
