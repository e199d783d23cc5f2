"""The names the benchmark wraps or reads still exist where it looks them up.

``bench/tracing.py`` swaps each ``(module, attribute)`` in its
``ENTRY_POINTS`` for a timing wrapper, and the other benchmark files
import names from ``intransit`` and read attributes of its modules. A
rename in ``src/`` that misses one of them breaks the benchmark without
failing any other test, and so does a change to which of these calls
nest in which.
"""

import ast
import contextlib
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import intransit.benders as bd
import intransit.milp as milp
from intransit import MODE_WINDOW, simplex

from conftest import readme_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _entry_points():
    # tracing.py imports only the standard library, so loading it pulls in
    # nothing of the benchmark's
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.ENTRY_POINTS]


@pytest.mark.parametrize("module, attribute", _entry_points())
def test_entry_point_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def _names_read(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for each ``from intransit... import name`` in the
    file and each attribute read on a name bound to an ``intransit``
    module, by ``import intransit.x as alias`` or ``import intransit``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "intransit":
            names.update((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "intransit":
                    # plain "import intransit.x" binds the package itself
                    aliases[a.asname or "intransit"] = a.name if a.asname else "intransit"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            names.add((aliases[node.value.id], node.attr))
    return sorted(names)


BENCH_NAMES = [
    pytest.param(module, name, id=f"{path.name}:{module}.{name}")
    for path in sorted(BENCH.glob("*.py"))
    for module, name in _names_read(path)
]


def test_bench_reads_names_of_every_file_that_imports_intransit():
    files = {param.id.split(":")[0] for param in BENCH_NAMES}
    assert {"workloads.py", "selftest.py", "port_instance.py", "run.py"} <= files


@pytest.mark.parametrize("module, name", BENCH_NAMES)
def test_bench_name_resolves(module, name):
    parent = importlib.import_module(module)
    # a submodule read as an attribute of its package is imported on the way
    if not hasattr(parent, name) and hasattr(parent, "__path__"):
        with contextlib.suppress(ModuleNotFoundError):
            importlib.import_module(f"{module}.{name}")
    assert hasattr(parent, name), f"{module} has no {name}"


def test_solve_lp_takes_warm_by_keyword():
    warm = inspect.signature(simplex.solve_lp).parameters["warm"]
    assert warm.kind is inspect.Parameter.KEYWORD_ONLY


def test_every_benders_lp_runs_inside_its_one_master(monkeypatch):
    # the benchmark's benders.master_* and subproblem metrics sort the
    # solve_lp spans by the benders.solve_master span they nest in
    masters = []
    inside = {"intransit.milp": [], "intransit.benders": []}
    solve_master = bd.solve_master

    def master(*args, **kwargs):
        masters.append("open")
        try:
            return solve_master(*args, **kwargs)
        finally:
            masters[-1] = "closed"

    monkeypatch.setattr(bd, "solve_master", master)
    for module in (milp, bd):
        calls = inside[module.__name__]

        def lp(*args, _solve=module.solve_lp, _calls=calls, **kwargs):
            _calls.append(masters == ["open"])
            return _solve(*args, **kwargs)

        monkeypatch.setattr(module, "solve_lp", lp)
    bd.run_benders(readme_instance(), MODE_WINDOW)
    assert masters == ["closed"]
    # node LPs come through milp, subproblem LPs through benders
    for calls in inside.values():
        assert calls and all(calls)
