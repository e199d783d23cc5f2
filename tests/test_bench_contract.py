"""The names the benchmark wraps still exist where it looks them up.

``bench/tracing.py`` swaps each ``(module, attribute)`` in its
``ENTRY_POINTS`` for a timing wrapper. A rename in ``src/`` that misses
one of them breaks the benchmark without failing any other test, and so
does a change to which of these calls nest in which.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import intransit.benders as bd
import intransit.milp as milp
from intransit import MODE_WINDOW, simplex

from conftest import readme_instance

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
