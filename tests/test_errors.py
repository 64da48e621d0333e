"""The failure contract: three error types, and every deliberate failure is one of them.

``ConfigError`` is an invalid argument, ``FormatError`` a malformed input
file and a plain ``RfSentryError`` valid input that cannot be processed.
A builtin exception raised by the package is allowed only where argparse
turns it into a usage error.
"""

import ast
import builtins
from pathlib import Path

from rfsentry import errors

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
