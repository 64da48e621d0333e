"""Every name a module of the package imports is used in that module.

An import left behind by a refactor hides which module a decision lives in,
so each ``import x`` / ``from m import x`` in ``src/rfsentry/`` must bind a
name that the module reads. Names listed in a module's ``__all__`` (the
package's re-exports) count as read.
"""

import ast
from pathlib import Path

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
