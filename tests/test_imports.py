"""Every name a module of the package imports, it also reads.

An import nothing reads is left over from code that moved or was deleted.
The one allowed kind is a name the benchmark's tracer wraps where it is
imported, listed in ``bench/tracing.py``'s ``ENTRY_POINTS``. The package's
``__init__`` is not checked: its imports are its exports.
"""

import ast
from pathlib import Path

import pytest

from test_bench_contract import _entry_points

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "intransit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never loads."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_unread_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom a import b, c\nprint(c)\n"
    assert unread_imports(source) == ["b", "os", "system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    module = f"intransit.{path.stem}"
    traced = {attr for mod, attr in _entry_points() if mod == module}
    unread = [n for n in unread_imports(path.read_text(encoding="utf-8")) if n not in traced]
    assert unread == [], f"{module} imports {unread} and never reads them"
