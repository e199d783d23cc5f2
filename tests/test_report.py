"""Reporting: delivery histograms, consolidation share, scenario tables."""

import io
import json

import numpy as np
import pytest

from intransit import (
    MODE_EXACT_DAY,
    MODE_WINDOW,
    ScenarioReport,
    VarKey,
    audit_flows,
    build_mip,
    consolidation_share,
    delivery_histogram,
    export_solution_json,
    run_benders,
    scenario_row,
    solution_flows,
)
from intransit.errors import IntransitError

from conftest import build_instance, path_column, solution_vector


def phantom_prone_instance():
    """The land lane from s0 takes 5 days against a 3-day window; a lane
    from s1, where nothing is picked up, takes 1."""
    return build_instance(
        horizon_days=12,
        window_days=3,
        suppliers=("s0", "s1"),
        pickups={("p0", "s0", 0): 1000.0},
        land_time={("s0", "g0"): 5, ("s1", "g0"): 1},
        air_time=1,
        fcl_cost=1e6,
    )


def key(kind, *ids):
    """VarKey from its ids in string order: X/Y (p,s,h,d), Z/U/I (p,h,d),
    T (h,d)."""
    *names, d = ids
    if kind in ("X", "Y"):
        return VarKey(kind, *names, d)
    if kind == "T":
        return VarKey(kind, None, None, *names, d)
    return VarKey(kind, names[0], None, names[1], d)


class TestAuditFlows:
    # tiny instance: 1000 lb of p0 at s0 on day 0, land 2 days, second leg
    # 1 day, due day 4
    HONEST = {
        key("X", "p0", "s0", "g0", 0): 1000.0,
        key("I", "p0", "g0", 3): 1000.0,
        key("Z", "p0", "g0", 3): 1000.0,
    }

    def test_honest_plan_passes(self, tiny_instance):
        faults = audit_flows(tiny_instance, self.HONEST)
        assert not faults, faults

    def test_solved_plans_pass(self, tiny_instance):
        for mode in (MODE_WINDOW, MODE_EXACT_DAY):
            res = run_benders(tiny_instance, mode)
            faults = audit_flows(tiny_instance, solution_flows(res.model, res.x_full))
            assert not faults, (mode, faults)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({key("X", "p0", "s0", "g0", 0): 900.0}, "first leg moves 900 lb of p0 from s0 on day 0"),
            ({key("Y", "p0", "s0", "g0", 5): 50.0}, "from s0 on day 5, picked up 0"),
            ({key("Z", "p0", "g0", 3): 0.0, key("Z", "p0", "g0", 1): 1000.0}, "it has not received by day 1"),
            ({key("Z", "p0", "g0", 3): 600.0}, "400 lb of p0 stay at g0"),
            ({key("Z", "p0", "g0", 3): 0.0, key("Z", "p0", "g0", 4): 1000.0}, "due by day 4"),
            ({key("Z", "p0", "g0", 3): 0.0, key("U", "p0", "g0", 3): 1000.0}, "into 0 lb of containers"),
            ({key("Z", "p0", "g0", 3): 0.0, key("Z", "p0", "g0", 9): 1000.0}, "past the horizon"),
            ({key("X", "p0", "s0", "g0", 0): -5.0}, "is negative"),
        ],
        ids=["short", "phantom", "ships-early", "stranded", "late", "no-box", "sink", "negative"],
    )
    def test_each_fault_is_named(self, tiny_instance, change, message):
        faults = audit_flows(tiny_instance, {**self.HONEST, **change})
        assert any(message in fault for fault in faults), faults

    def test_paid_container_carries_the_load(self, tiny_instance):
        plan = {**self.HONEST, key("Z", "p0", "g0", 3): 0.0, key("U", "p0", "g0", 3): 1000.0}
        plan[key("T", "g0", 3)] = 1.0
        assert audit_flows(tiny_instance, plan) == ()

    def test_rejects_the_phantom_freight_plan(self):
        """The 1030 plan a full (p, s, h, d) first-leg grid admitted: 1000
        lb of phantom freight from s1 meets the due date, while the real
        1000 lb wait at the gateway and leave on the last day, landing past
        the horizon."""
        inst = phantom_prone_instance()
        plan = {
            key("X", "p0", "s1", "g0", 0): 1000.0,
            key("Z", "p0", "g0", 1): 1000.0,
            key("X", "p0", "s0", "g0", 0): 1000.0,
            **{key("I", "p0", "g0", d): 1000.0 for d in range(6, 12)},
            key("Z", "p0", "g0", 11): 1000.0,
        }
        cost = 2 * 1000 * 0.30 + 2 * 1000 * 0.20 + 6 * 1000 * 0.005
        assert cost == pytest.approx(1030.0)
        faults = audit_flows(inst, plan)
        assert len(faults) == 2
        assert "from s1 on day 0, picked up 0" in faults[1]
        assert "Z[p0,g0,11] carries 1000 lb that land on day 12" in faults[0]
        # neither phantom shipment has a column to stand for it
        model = build_mip(inst, MODE_WINDOW)
        every = solution_flows(model, np.ones(model.num_vars))
        assert key("X", "p0", "s1", "g0", 0) not in every
        assert key("Z", "p0", "g0", 11) not in every


class TestDeliveryHistogram:
    def test_window_solution_lags(self, tiny_instance):
        res = run_benders(tiny_instance, MODE_WINDOW)
        hist = delivery_histogram(res.model, res.x_full)
        assert hist.total_weight == pytest.approx(1000.0)
        assert hist.max_lag() <= tiny_instance.window_days
        # optimal plan ships LCL the day it reaches the gateway: lag 3
        assert hist.bins[3].weight == pytest.approx(1000.0)
        assert hist.bins[3].products == 1

    def test_exact_day_mass_sits_at_window(self, tiny_instance):
        res = run_benders(tiny_instance, MODE_EXACT_DAY)
        hist = delivery_histogram(res.model, res.x_full)
        lag = tiny_instance.window_days
        assert set(hist.bins) == {lag}
        assert hist.bins[lag].weight == pytest.approx(hist.total_weight)

    def test_multi_product_exact_day(self):
        inst = build_instance(
            products=("p0", "p1"),
            horizon_days=12,
            pickups={("p0", "s0", 0): 800.0, ("p1", "s0", 3): 1200.0},
        )
        res = run_benders(inst, MODE_EXACT_DAY)
        hist = delivery_histogram(res.model, res.x_full)
        assert set(hist.bins) == {inst.window_days}
        assert hist.total_weight == pytest.approx(2000.0)
        assert hist.bins[inst.window_days].products == 2

    def test_rejects_infeasible_solution(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        with pytest.raises(IntransitError, match="feasibility"):
            delivery_histogram(model, np.zeros(model.num_vars))

    def test_csv_export(self, tiny_instance):
        res = run_benders(tiny_instance, MODE_WINDOW)
        hist = delivery_histogram(res.model, res.x_full)
        buf = io.StringIO()
        hist.export_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "lag_days,delivered_weight_lbs,product_count"
        assert len(lines) == 1 + len(hist.bins)


class TestConsolidationShare:
    def test_all_lcl(self, tiny_instance):
        res = run_benders(tiny_instance, MODE_WINDOW)
        assert consolidation_share(res.model, res.x_full) == 0.0

    def test_none_when_nothing_moves(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        assert consolidation_share(model, np.zeros(model.num_vars)) is None

    def test_mixed_flow(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        pickup = ("p0", "s0", 0)
        x = solution_vector(
            model,
            {
                path_column(model, pickup, "g0", 3, container=True): 750.0,
                path_column(model, pickup, "g0", 2): 250.0,
            },
        )
        assert consolidation_share(model, x) == pytest.approx(0.75)


class TestScenarioReport:
    def test_row_totals(self, tiny_instance):
        res = run_benders(tiny_instance, MODE_WINDOW)
        row = scenario_row("window", res.model, res.x_full)
        assert row.costs.total == pytest.approx(res.objective, rel=1e-9)
        assert row.costs.grand_total == pytest.approx(res.objective + 80.0, rel=1e-9)
        assert row.containers == 0.0

    def test_csv_and_table(self, tiny_instance):
        res = run_benders(tiny_instance, MODE_WINDOW)
        report = ScenarioReport(rows=[scenario_row("window", res.model, res.x_full)])
        buf = io.StringIO()
        report.export_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("label,containers,")
        assert lines[1].startswith("window,")
        table = report.format_table()
        assert "window" in table
        assert "grand total" in table


class TestSolutionExport:
    def test_json_shape(self, tmp_path, tiny_instance):
        res = run_benders(tiny_instance, MODE_WINDOW)
        path = tmp_path / "solution.json"
        export_solution_json(res.model, res.x_full, res.objective, path)
        payload = json.loads(path.read_text())
        assert payload["mode"] == MODE_WINDOW
        assert payload["objective"] == pytest.approx(500.0)
        assert payload["num_variables"] == res.model.num_vars
        # keys are printable variable names; zeros are dropped
        assert all(v != 0.0 for v in payload["variables"].values())
        assert any(key.startswith("X[") for key in payload["variables"])
