"""The names the benchmark wraps still exist where it looks them up.

``bench/tracing.py`` swaps each ``(module, attribute)`` in its
``ENTRY_POINTS`` for a timing wrapper. A rename in ``src/`` that misses
one of them breaks the benchmark without failing any other test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from intransit import simplex

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
