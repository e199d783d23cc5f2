"""Checks on the benchmark's own machinery: spans, wrappers, and the split
between traced and untraced runs.

    python3 bench/selftest.py          # or: python -m pytest bench/selftest.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench_run  # noqa: E402

bench_run.import_program()

import intransit.benders as bd  # noqa: E402
import intransit.milp as milp_mod  # noqa: E402
from intransit import BendersParams, GeneratorConfig, SolverError, generate_synthetic  # noqa: E402
from intransit.model import MODE_WINDOW  # noqa: E402

from tracing import Tracer, instrument, layer_metrics, op_breakdown, wrapped_entry_points  # noqa: E402
from workloads import Config, Op, Outcome, Workload  # noqa: E402


def _readme_instance():
    cfg = GeneratorConfig(n_products=5, n_suppliers=2, n_gateways=2, horizon_days=12, window_days=6)
    return generate_synthetic(cfg, 4)


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def fails():
        raise SolverError("node limit")

    wrapped = tracer.wrap("boom", fails)
    try:
        wrapped()
    except SolverError:
        pass
    else:
        raise AssertionError("the wrapper swallowed the error")
    (span,) = tracer.spans
    assert span.error == "SolverError"
    assert span.end >= span.start > 0.0
    assert tracer.stack == []


def test_instrument_restores_the_originals_also_on_error():
    before = (milp_mod.solve_lp, bd.solve_master, bd.run_benders)
    try:
        with instrument(Tracer()):
            assert "intransit.benders.run_benders" in wrapped_entry_points()
            raise KeyError("leave the block by an error")
    except KeyError:
        pass
    assert (milp_mod.solve_lp, bd.solve_master, bd.run_benders) == before
    assert wrapped_entry_points() == []


def test_master_that_hits_the_node_limit_still_reports_its_nodes():
    tracer = Tracer()
    instance = _readme_instance()
    with instrument(tracer):
        with tracer.op_span("benders"):
            try:
                bd.run_benders(instance, MODE_WINDOW, BendersParams(node_limit=3))
            except SolverError:
                pass
            else:
                raise AssertionError("expected the master to hit its node limit")
    masters = [s for s in tracer.spans if s.name == "benders.solve_master"]
    failing = masters[-1]
    assert failing.error == "SolverError" and failing.end > failing.start
    failing_nodes = [
        s for s in tracer.spans
        if s.name == "simplex.solve_lp" and s.parent is not None and s.parent.parent is failing
    ]
    assert len(failing_nodes) == 3  # its whole node budget
    metrics = layer_metrics(tracer.spans)
    assert metrics["benders.iterations"][0] == len(masters)
    assert metrics["benders.master_nodes"][0] >= len(failing_nodes) + len(masters) - 1
    assert metrics["benders.sub_first_pivots"][0] > 0


class _Probe(Workload):
    """Small ops, one per end-to-end op metric, that record which
    wrappers they saw."""

    name = "probe"

    def setup(self):
        self.instance = _readme_instance()
        self.seen = []

    def ops(self):
        def run():
            self.seen.append(wrapped_entry_points())
            return bd.lp_relaxation(self.instance, MODE_WINDOW)

        return [
            Op(f"probe_{metric}", metric, run, lambda result: Outcome(), samples=2)
            for metric in ("relax_s", "milp_s", "benders_s")
        ]


def _args(trace: int):
    return argparse.Namespace(seed=3, seconds=0.0, trace=trace)


def _probe():
    config = Config(
        decomp_seed=4, port_weight_seed=7,
        work_dir=bench_run.WORK, src_dir=bench_run.SRC, in_process_cli=False,
    )
    return _Probe(config)


def test_untraced_run_sees_no_wrapper():
    workload = _probe()
    run, values, _ = bench_run.run_untraced(workload, _args(0))
    assert workload.seen and all(seen == [] for seen in workload.seen)
    assert run.attempted == 6 and run.failed == 0
    assert values["relax_s"][0] > 0.0


def test_self_times_go_to_the_layer_that_spent_them():
    tracer = Tracer()
    inner = tracer.wrap("inner.work", lambda: time.sleep(0.02))

    def outer_work():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer.work", outer_work)
    with tracer.op_span("op") as root:
        outer()
    entry = op_breakdown(tracer.spans)["op"]
    assert entry["wall_s"] == root.duration
    assert 0.04 <= entry["self_s"]["inner"] < 0.07
    assert 0.01 <= entry["self_s"]["outer"] < 0.035  # the inner calls are not counted twice
    assert entry["self_s"]["op"] < 0.01


def test_traced_run_times_each_op_untraced_then_traced():
    bench_run.WORK.mkdir(exist_ok=True)
    workload = _probe()
    run, values, detail = bench_run.run_traced(workload, _args(1))
    # each op ran once without and once with the wrappers, in that order
    assert len(workload.seen) == 6
    assert all(seen == [] for seen in workload.seen[0::2])
    assert all("intransit.benders.lp_relaxation" in seen for seen in workload.seen[1::2])
    assert run.attempted == 6 and run.failed == 0
    assert values["trace.overhead_frac"][0] > -1.0
    assert all(detail["ops"][op]["untraced_s"] > 0.0 for op in run.samples)
    assert wrapped_entry_points() == []


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == bench_run.E2E_UNITS
    layer = {name: unit for name, (_, unit) in layer_metrics([]).items()}
    layer.update({"cli.import_s": "s", "trace.overhead_frac": "ratio"})
    assert layer == {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
