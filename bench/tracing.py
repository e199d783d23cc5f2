"""Spans around the public entry points of each intransit layer.

The traced run swaps module attributes for wrappers that record a span per
call: name, start, end, parent span and op id. Each wrapper is installed
where its callers look the function up (``intransit.milp.solve_lp`` is what
branch and bound calls, ``intransit.benders.solve_lp`` what the
decomposition calls), so the program itself is not edited. Spans stay in
memory until the run ends. Untraced runs never install a wrapper.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
from time import perf_counter

MARK = "__bench_span__"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "error", "info")

    def __init__(self, span_id, name, parent, op):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else self.parent.id,
            "op": self.op,
            "error": self.error,
            "info": self.info,
        }


class Tracer:
    """Collects spans, with the stack of spans open at the moment."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op: str | None = None

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self.stack[-1] if self.stack else None, self.op)
        self.spans.append(span)
        self.stack.append(span)
        return span

    @contextlib.contextmanager
    def op_span(self, op: str):
        """Root span of one op; every span opened inside carries its id."""
        self.op = op
        span = self._open("op")
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self.stack.pop()
            self.op = None

    def wrap(self, name: str, fn, describe=None):
        """``fn`` with a span per call. The span is closed, and the error
        type recorded, when the call raises."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        setattr(traced, MARK, name)
        return traced


def _lp_info(args, kwargs, outcome):
    return {"warm": kwargs.get("warm") is not None, "status": outcome.status, "pivots": outcome.pivots}


def _milp_info(args, kwargs, outcome):
    return {"status": outcome.status, "nodes": outcome.nodes}


def _model_info(args, kwargs, model):
    return {"num_vars": model.num_vars, "num_rows": model.num_rows}


# (module, attribute, span name, describe). Each entry is a place where a
# caller looks the function up, so the same function can appear several
# times under one span name.
ENTRY_POINTS = [
    ("intransit.milp", "solve_lp", "simplex.solve_lp", _lp_info),
    ("intransit.benders", "solve_lp", "simplex.solve_lp", _lp_info),
    ("intransit.milp", "solve_milp", "milp.solve_milp", _milp_info),
    ("intransit.benders", "solve_milp", "milp.solve_milp", _milp_info),
    ("intransit.cli", "solve_milp", "milp.solve_milp", _milp_info),
    ("intransit.benders", "solve_master", "benders.solve_master", None),
    ("intransit.benders", "run_benders", "benders.run_benders", None),
    ("intransit.benders", "lp_relaxation", "benders.lp_relaxation", None),
    ("intransit.model", "build_mip", "model.build_mip", _model_info),
    ("intransit.benders", "build_mip", "model.build_mip", _model_info),
    ("intransit.cli", "build_mip", "model.build_mip", _model_info),
    ("intransit.model", "validate_routes", "instance.validate_routes", None),
    ("intransit.benders", "validate_routes", "instance.validate_routes", None),
    ("intransit.cli", "validate_routes", "instance.validate_routes", None),
    ("intransit.instance", "generate_synthetic", "instance.generate_synthetic", None),
    ("intransit.cli", "load_instance", "instance.load_instance", None),
    ("intransit.cli", "_emit_outputs", "report.emit_outputs", None),
    ("intransit.cli", "export_solution_json", "report.export_solution_json", None),
    ("intransit.cli", "scenario_row", "report.scenario_row", None),
    ("intransit.cli", "delivery_histogram", "report.delivery_histogram", None),
    ("intransit.cli", "consolidation_share", "report.consolidation_share", None),
    ("intransit.cli", "run", "cli.run", None),
]


def wrapped_entry_points() -> list[str]:
    """Entry points that currently hold a wrapper; empty outside a traced run."""
    found = []
    for module, attr, _, _ in ENTRY_POINTS:
        if hasattr(getattr(importlib.import_module(module), attr), MARK):
            found.append(f"{module}.{attr}")
    return found


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then put the
    original functions back, also when the block raises."""
    saved = []
    try:
        for module_name, attr, name, describe in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, describe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced run


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part its child spans cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent.id] -= s.duration
    return own


def _has_ancestor(span: Span, test) -> bool:
    p = span.parent
    while p is not None:
        if test(p.name):
            return True
        p = p.parent
    return False


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Aggregate spans into the per-layer metrics, as (value, unit).
    ``cli.import_s`` and ``trace.overhead_frac`` are not in the spans; the
    traced run adds them."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(items):
        return sum(s.duration for s in items)

    lps = named("simplex.solve_lp")
    cold = [s for s in lps if not (s.info and s.info["warm"])]
    warm = [s for s in lps if s.info and s.info["warm"]]
    masters = named("benders.solve_master")
    milps = named("milp.solve_milp")
    runs = named("benders.run_benders")
    node_lps = [s for s in lps if s.parent is not None and s.parent.name == "milp.solve_milp"]
    master_nodes = [s for s in node_lps if _has_ancestor(s, lambda n: n == "benders.solve_master")]
    subs = [s for s in lps if s.parent is not None and s.parent.name == "benders.run_benders"]
    first_subs, later_subs, seen = [], [], set()
    for s in subs:
        (later_subs if s.parent.id in seen else first_subs).append(s)
        seen.add(s.parent.id)
    builds = named("model.build_mip")
    validates = named("instance.validate_routes")
    reports = [s for s in spans if s.name.startswith("report.") and not _has_ancestor(s, lambda n: n.startswith("report."))]

    def piv(items):
        return sum(s.info["pivots"] for s in items if s.info)

    call_ms = [s.duration * 1e3 for s in lps]
    master_s = total(masters)
    benders_s = total(runs)
    milp_s = total(milps)
    return {
        "benders.master_s": (master_s, "s"),
        "benders.master_nodes": (len(master_nodes), "count"),
        "benders.master_ms_per_node": (master_s * 1e3 / len(master_nodes) if master_nodes else 0.0, "ms"),
        "benders.master_share": (master_s / benders_s if benders_s else 0.0, "ratio"),
        "benders.iterations": (len(masters), "count"),
        "benders.cuts_optimality": (sum(1 for s in subs if s.info and s.info["status"] == "optimal"), "count"),
        "benders.cuts_feasibility": (sum(1 for s in subs if s.info and s.info["status"] == "infeasible"), "count"),
        "benders.self_s": (sum(own[s.id] for s in runs), "s"),
        "benders.sub_first_s": (total(first_subs), "s"),
        "benders.sub_first_pivots": (piv(first_subs), "count"),
        "benders.sub_calls": (len(later_subs), "count"),
        "benders.sub_s": (total(later_subs), "s"),
        "benders.sub_pivots": (piv(later_subs), "count"),
        "milp.self_s": (sum(own[s.id] for s in milps), "s"),
        "milp.nodes": (len(node_lps), "count"),
        "milp.ms_per_node": (milp_s * 1e3 / len(node_lps) if node_lps else 0.0, "ms"),
        "simplex.calls": (len(lps), "count"),
        "simplex.call_ms_p50": (_quantile(call_ms, 50), "ms"),
        "simplex.call_ms_p99": (_quantile(call_ms, 99), "ms"),
        "simplex.cold_calls": (len(cold), "count"),
        "simplex.cold_s": (total(cold), "s"),
        "simplex.cold_pivots": (piv(cold), "count"),
        "simplex.warm_calls": (len(warm), "count"),
        "simplex.warm_s": (total(warm), "s"),
        "simplex.warm_pivots": (piv(warm), "count"),
        "simplex.pivots_per_warm_call": (piv(warm) / len(warm) if warm else 0.0, "count"),
        "simplex.infeasible_calls": (sum(1 for s in lps if s.info and s.info["status"] == "infeasible"), "count"),
        "simplex.pivots": (piv(lps), "count"),
        "model.build_calls": (len(builds), "count"),
        "model.build_s": (total(builds), "s"),
        "model.num_vars": (max((s.info["num_vars"] for s in builds if s.info), default=0), "count"),
        "model.num_rows": (max((s.info["num_rows"] for s in builds if s.info), default=0), "count"),
        "instance.generate_s": (total(named("instance.generate_synthetic")), "s"),
        "instance.load_s": (total(named("instance.load_instance")), "s"),
        "instance.validate_calls": (len(validates), "count"),
        "instance.validate_s": (total(validates), "s"),
        "report.s": (total(reports), "s"),
        "cli.self_s": (sum(own[s.id] for s in named("cli.run")), "s"),
        "trace.spans": (len(spans), "count"),
    }


def op_breakdown(spans: list[Span]) -> dict[str, dict]:
    """Per op: wall time, self time by layer, node LPs and pivots."""
    own = self_times(spans)
    ops: dict[str, dict] = {}
    for s in spans:
        if s.op is None:
            continue
        entry = ops.setdefault(s.op, {"wall_s": 0.0, "self_s": {}, "node_lps": 0, "pivots": 0})
        if s.name == "op":
            entry["wall_s"] += s.duration
        layer = s.name.split(".")[0]
        entry["self_s"][layer] = entry["self_s"].get(layer, 0.0) + own[s.id]
        if s.name == "simplex.solve_lp" and s.info:
            entry["pivots"] += s.info["pivots"]
            if s.parent is not None and s.parent.name == "milp.solve_milp":
                entry["node_lps"] += 1
    return ops
