"""Imports between the package's modules: each one used, none of a private name.

An import left behind by a refactor hides which module a decision lives in,
so each ``import x`` / ``from m import x`` in ``src/rfsentry/`` must bind a
name that the module reads. Names listed in a module's ``__all__`` (the
package's re-exports) count as read, so each of them must also be a name
that the package defines: an entry left behind by a deleted import would
otherwise pass the scan and fail only at ``from rfsentry import *``.

A module of the package calls another only through its public names: a
``from .m import _name`` would let a decision live in one module and be made
in another. Tests may import private names.
"""

import ast
from pathlib import Path

import rfsentry
from rfsentry import errors

SRC = Path(errors.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement under ``tree`` that nothing reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def _private_imports(tree: ast.Module) -> list[str]:
    """``module.name`` of each ``_``-prefixed name imported from a module of the package."""
    return [
        f"{node.module}.{alias.name}" if node.module else alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "rfsentry")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_scan_finds_an_unused_import():
    source = (
        "import math\n"
        "import os.path\n"
        "from dataclasses import dataclass, replace\n"
        "from .x import y as z\n"
        "__all__ = ['z']\n"
        "@dataclass\n"
        "class A:\n"
        "    def f(self):\n"
        "        return os.path.sep\n"
    )
    assert _unused_imports(ast.parse(source)) == ["math", "replace"]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert unused == []


def test_every_exported_name_resolves_on_the_package():
    assert [name for name in rfsentry.__all__ if not hasattr(rfsentry, name)] == []


def test_scan_finds_a_private_import_from_a_package_module():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .signals import Signal, _fmt, _parse_float as parse\n"
        "from . import _helpers\n"
        "from rfsentry.seeding import _usable_cpus, derive_seed\n"
        "def f():\n"
        "    from .lof import _kdist\n"
    )
    assert _private_imports(ast.parse(source)) == [
        "signals._fmt", "signals._parse_float", "_helpers",
        "rfsentry.seeding._usable_cpus", "lof._kdist",
    ]


def test_no_module_imports_a_private_name_from_another():
    private = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _private_imports(ast.parse(path.read_text()))
    ]
    assert private == []
