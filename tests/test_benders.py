"""Decomposition loop: cuts, master, bounds, and oracle agreement."""

import io
import itertools
import json

import numpy as np
import pytest

from intransit import (
    MODE_EXACT_DAY,
    MODE_WINDOW,
    GeneratorConfig,
    build_mip,
    check_solution,
    generate_synthetic,
    lp_relaxation,
    run_benders,
    save_instance,
    solve_master,
    solve_milp,
    validate_routes,
)
import intransit.benders as bd
from intransit.benders import _master_row, _prepare, _solve_sub
from intransit.cli import run
from intransit.errors import InfeasibleInstanceError, SolverError
from intransit.milp import MILP_NODE_LIMIT, append_rows, lp_from_mip
from intransit.model import FAMILY_CAPACITY
from intransit.simplex import STATUS_OPTIMAL, solve_lp

from arc_model import build_mip as build_arc
from conftest import (
    as_array,
    build_instance,
    highs_objective,
    random_small_config,
    readme_instance,
    route_invalid_instance,
    strong_lp_bound,
    t_column,
)


def optimality_row(sub, result):
    """The master row of the optimality cut an optimal subproblem gives."""
    return _master_row(result.y, sub)


def tight_instance(rng):
    """A random instance with 1-5 pickups whose windows (1-6 days) and
    horizon (3-12 days) leave little room for first legs of 1-5 days,
    air no slower than land."""
    products = [f"p{i}" for i in range(rng.integers(1, 3))]
    suppliers = [f"s{i}" for i in range(rng.integers(1, 3))]
    gateways = [f"g{i}" for i in range(rng.integers(1, 3))]
    horizon = int(rng.integers(3, 13))
    land = {(s, h): int(rng.integers(1, 6)) for s in suppliers for h in gateways}
    pickups = {}
    for _ in range(rng.integers(1, 6)):
        day = int(rng.integers(0, horizon))
        pickups[str(rng.choice(products)), str(rng.choice(suppliers)), day] = float(
            rng.uniform(100.0, 60000.0)
        )
    return build_instance(
        horizon_days=horizon,
        window_days=int(rng.integers(1, 7)),
        products=products,
        suppliers=suppliers,
        gateways=gateways,
        pickups=pickups,
        land_time=land,
        air_time={k: int(rng.integers(1, t + 1)) for k, t in land.items()},
        second_leg_time={h: int(rng.integers(1, 4)) for h in gateways},
    )


def cut_value(row, t):
    """``y'(b - B t)`` of the cut whose master row is ``row``: its bound on
    q at t."""
    coefficients, rhs = row
    return float(coefficients[: len(t)] @ t) - rhs


def add_once(row):
    """A master separator that adds ``row`` at its first call and then
    takes every integral point it is shown as an incumbent."""
    calls = []

    def separate(x, bound):
        calls.append(x)
        return (row, None) if len(calls) == 1 else (None, x)

    return separate


@pytest.mark.parametrize(
    "entry",
    ["build_mip", "lp_relaxation", "run_benders", "relax", "solve", "benders", "compare"],
)
def test_an_unroutable_instance_is_refused_the_same_way_everywhere(entry, tmp_path, capsys):
    # build_mip alone validates routes; every entry point and command
    # builds its models there
    inst = route_invalid_instance()
    functions = {"build_mip": build_mip, "lp_relaxation": lp_relaxation, "run_benders": run_benders}
    if entry in functions:
        with pytest.raises(InfeasibleInstanceError, match=r"^pickup \(p0, s0, day 0\) "):
            functions[entry](inst, MODE_WINDOW)
        return
    path = str(save_instance(inst, tmp_path / "inst"))
    assert run([entry, "--instance", path]) == 1
    assert capsys.readouterr().err.startswith("infeasible: pickup (")


@pytest.mark.parametrize("mode", [MODE_WINDOW, MODE_EXACT_DAY])
def test_free_lcl_builds_no_container_and_every_solver_ships_all_lcl(mode, tmp_path):
    # with LCL free at every gateway no container path undercuts its LCL
    # column, so the model has no T column and no capacity row, and each
    # solver's plan sends all 1,500 lb as LCL at the arc model's optimum
    inst = build_instance(
        gateways=("g0", "g1"),
        pickups={("p0", "s0", 0): 1000.0, ("p0", "s0", 2): 500.0},
        lcl_cost=0.0,
    )
    model = build_mip(inst, mode)
    assert len(model.integer_columns) == 0
    assert FAMILY_CAPACITY not in model.family_counts()
    assert not model.paths.container.any()
    want = highs_objective(build_arc(inst, mode))

    relaxed, x, _ = lp_relaxation(inst, mode)
    milp = solve_milp(model)
    benders = run_benders(inst, mode)
    assert milp.status == "optimal" and benders.status == "optimal" and benders.proven
    assert len(benders.t_values) == 0
    for objective, plan in ((relaxed, x), (milp.objective, milp.x), (benders.objective, benders.x_full)):
        assert objective == pytest.approx(want, rel=1e-9)
        assert plan.sum() == pytest.approx(1500.0, rel=1e-12)

    out = tmp_path / "out"
    path = str(save_instance(inst, tmp_path / "inst"))
    assert run(["benders", "--instance", path, "--mode", mode.replace("_", "-"), "--out", str(out)]) == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["objective"] == pytest.approx(want, rel=1e-9)
    kinds = {key.split("[")[0] for key in payload["variables"]}
    assert "T" not in kinds and "U" not in kinds
    lcl = sum(v for key, v in payload["variables"].items() if key.startswith("Z["))
    assert lcl == pytest.approx(1500.0, rel=1e-12)


def tiny_sub(instance):
    """The window subproblem of the tiny instance, and a zero T vector over
    its T columns: one per day a container column leaves on, days 2 and 3."""
    sub = _prepare(build_mip(instance, MODE_WINDOW))
    return sub, np.zeros(len(sub.model.integer_columns))


class TestSubproblem:
    def test_zero_containers_means_all_lcl(self, tiny_instance):
        sub, t = tiny_sub(tiny_instance)
        result = _solve_sub(sub, t)
        assert result.status == STATUS_OPTIMAL
        # land 0.30 + LCL 0.20 on 1000 lbs; no container appears
        assert result.objective == pytest.approx(500.0, rel=1e-9)

    def test_container_unlocks_cheaper_leg(self, tiny_instance):
        sub, t = tiny_sub(tiny_instance)
        base = _solve_sub(sub, t)
        t[t_column(sub.model, "g0", 2)] = 1.0  # the day the land shipment reaches the gateway
        with_box = _solve_sub(sub, t)
        assert with_box.status == STATUS_OPTIMAL
        # the 0.20/lb LCL charge on 1000 lbs disappears into the container
        assert base.objective - with_box.objective == pytest.approx(200.0, rel=1e-9)

    def test_fractional_containers_are_priced_with_the_linking_rows(
        self, tiny_instance
    ):
        # 1000 lbs, so W_p = 1000: a 1/48 container carries at most 1000/48
        # lbs under U <= W_p·T, not the 1000 the capacity row alone allows
        sub, t = tiny_sub(tiny_instance)
        t[t_column(sub.model, "g0", 2)] = 1.0 / 48.0
        result = _solve_sub(sub, t)
        assert result.status == STATUS_OPTIMAL
        assert result.objective == pytest.approx(500.0 - 200.0 / 48.0, rel=1e-9)
        link = sub.model.linking
        assert not len(link.violated(result.x))
        # the cut is tight at the fractional T and valid at integral ones,
        # whose value the linking rows leave unchanged
        row = optimality_row(sub, result)
        assert cut_value(row, t) == pytest.approx(result.objective, rel=1e-9)
        t[t_column(sub.model, "g0", 2)] = 1.0
        whole = _solve_sub(sub, t)
        assert whole.objective == pytest.approx(300.0, rel=1e-9)
        assert cut_value(row, t) <= whole.objective + 1e-6

    def test_linking_bounds_price_as_the_linking_rows(self):
        # the subproblem is the model's own LP, and no solve adds to it; at
        # a fixed T each linking row is the bound u <= W·T of its container
        # column, so every T prices as the LP with the linking rows does
        model = build_mip(readme_instance(), MODE_WINDOW)
        link = model.linking
        sub = _prepare(model)
        every = np.arange(len(link.u_cols))
        rows = append_rows(sub.lp, link.block(every, model.A), np.zeros(len(every)))
        rng = np.random.default_rng(5)
        n_t = len(sub.t_cols)
        for t in (np.zeros(n_t), rng.uniform(0.0, 1.0, n_t), rng.integers(0, 3, n_t) + 0.0):
            result = _solve_sub(sub, t)
            fixed = np.zeros(rows.num_cols)
            fixed[sub.t_cols] = t
            upper = rows.upper.copy()
            upper[sub.t_cols] = t
            with_rows = solve_lp(rows.with_bounds(fixed, upper))
            assert result.objective == pytest.approx(with_rows.objective, rel=1e-9)
            assert not len(link.violated(result.x))
        assert sub.lp.num_rows == model.num_rows
        np.testing.assert_array_equal(as_array(sub.lp.A), as_array(model.A))
        np.testing.assert_array_equal(sub.lp.rhs, model.rhs)
        assert sub.lp.senses.tolist() == model.senses.tolist()

    def test_priced_flow_holds_t_fixed_bitwise(self):
        # T is fixed by its bounds, so the subproblem's x carries T as given
        sub = _prepare(build_mip(readme_instance(), MODE_WINDOW))
        rng = np.random.default_rng(11)
        n_t = len(sub.t_cols)
        for t in (
            np.zeros(n_t),
            rng.integers(0, 3, size=n_t).astype(np.float64),
            rng.uniform(0.0, 2.0, n_t),
        ):
            result = _solve_sub(sub, t)
            assert result.status == STATUS_OPTIMAL
            assert result.x[sub.t_cols].tobytes() == t.tobytes()


class TestOptimalityCuts:
    def _sub_and_result(self, instance):
        sub, t = tiny_sub(instance)
        result = _solve_sub(sub, t)
        assert result.status == STATUS_OPTIMAL
        return sub, t, result

    def test_tight_at_generator(self, tiny_instance):
        sub, t, result = self._sub_and_result(tiny_instance)
        row = optimality_row(sub, result)
        assert cut_value(row, t) == pytest.approx(result.objective, rel=1e-6)

    def test_valid_at_other_points(self, tiny_instance):
        sub, t0, result = self._sub_and_result(tiny_instance)
        row = optimality_row(sub, result)
        rng = np.random.default_rng(1)
        for _ in range(6):
            t = rng.integers(0, 3, size=len(t0)).astype(np.float64)
            other = _solve_sub(sub, t)
            assert other.status == STATUS_OPTIMAL
            tol = 1e-6 * (1.0 + abs(other.objective))
            assert cut_value(row, t) <= other.objective + tol

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_duals_keep_each_cut_under_every_integral_t(self, seed):
        # at a T_bar with zero entries a container column is fixed at zero
        # and may price d_j < 0; its bound's dual enters the cut at W_j·T.
        # Against brute force, each cut is tight at T_bar and no higher
        # than the subproblem's value at any integral T of the box
        cfg = GeneratorConfig(
            n_products=3,
            n_suppliers=2,
            n_gateways=2,
            horizon_days=6,
            window_days=4,
            weight_min=500.0,
            weight_max=60000.0,
            container_capacity=40000.0,
        )
        inst = generate_synthetic(cfg, seed=seed)
        sub = _prepare(build_mip(inst, MODE_WINDOW))
        n_t = len(sub.t_cols)
        bound = inst.container_bound()
        box = np.array(list(itertools.product(range(bound + 1), repeat=n_t)), dtype=np.float64)
        values = np.array([_solve_sub(sub, t).objective for t in box])
        rng = np.random.default_rng(seed)
        t_bars = [np.zeros(n_t)]
        for _ in range(4):
            t = rng.choice([0.0, 0.5, 1.0, float(bound)], size=n_t)
            t[rng.integers(n_t)] = 0.0
            t_bars.append(t)
        lifted = 0
        for t_bar in t_bars:
            result = _solve_sub(sub, t_bar)
            row = optimality_row(sub, result)
            tol = 1e-6 * (1.0 + abs(result.objective))
            assert abs(cut_value(row, t_bar) - result.objective) <= tol
            cuts = box @ row[0][:n_t] - row[1]
            assert (cuts <= values + 1e-6 * (1.0 + np.abs(values))).all()
            # the row's own -(A'y)_T misses the bound term: a zero entry
            # whose coefficient lies below it carries one
            own = -(as_array(sub.lp.A).T @ result.y)[sub.t_cols]
            lifted += bool((row[0][:n_t] < own - 1e-9)[t_bar == 0].any())
        assert lifted

    def test_dimension_mismatch(self, tiny_instance):
        sub, _, _ = self._sub_and_result(tiny_instance)
        with pytest.raises(SolverError, match="rows"):
            _master_row(np.zeros(sub.lp.num_rows + 1), sub)

    def test_zero_duals_give_the_master_row(self, tiny_instance, monkeypatch):
        sub, t = tiny_sub(tiny_instance)
        row, rhs = _master_row(np.zeros(sub.lp.num_rows), sub)
        problems = []
        solve = bd.solve_milp

        def recorded(problem, *args, **kwargs):
            problems.append(problem)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(bd, "solve_milp", recorded)
        solve_master(np.ones(len(t)), 3.0)
        (master,) = problems
        # the master starts from the one row q >= 0, which zero duals give
        assert master.lp.A.tolist() == [row.tolist()]
        assert master.lp.rhs.tolist() == [rhs]
        assert row.tolist() == [0.0] * len(t) + [-1.0]


class TestCompleteRecourse:
    """A path's container and LCL columns share their entries but in the
    capacity and linking rows, which hold no LCL column, so the subproblem
    is feasible at every T or at none, and on a route-valid model at T = 0:
    every cut is an optimality cut."""

    @staticmethod
    def _status_at_each_t(instance, mode, rng):
        """The subproblem's status at T = 0, at the container bound and at
        a fractional T, each priced on a fresh subproblem."""
        model = build_mip(instance, mode)
        n_t = len(model.integer_columns)
        bound = float(instance.container_bound())
        points = (np.zeros(n_t), np.full(n_t, bound), rng.uniform(0.0, bound, n_t))
        return [_solve_sub(_prepare(model), t).status for t in points]

    @pytest.mark.parametrize("mode", [MODE_WINDOW, MODE_EXACT_DAY])
    def test_optimal_at_every_t_on_route_valid_instances(self, mode):
        # the acceptance sweep's first instances
        rng = np.random.default_rng(20260823)
        points = np.random.default_rng(3)
        for seed in range(40):
            inst = generate_synthetic(random_small_config(rng), seed=seed)
            statuses = self._status_at_each_t(inst, mode, points)
            assert statuses == [STATUS_OPTIMAL] * 3, f"seed {seed}"

    @pytest.mark.parametrize("mode", [MODE_WINDOW, MODE_EXACT_DAY])
    def test_every_route_valid_tight_instance_is_feasible(self, mode):
        # instances whose windows barely admit a route: most fail route
        # validation, and each one that passes must have an optimal
        # relaxation and subproblem, or a route-valid model could still
        # be infeasible
        rng = np.random.default_rng(20261019)
        valid = 0
        for i in range(500):
            inst = tight_instance(rng)
            if not validate_routes(inst).feasible:
                continue
            valid += 1
            model = build_mip(inst, mode)
            assert solve_lp(lp_from_mip(model)).status == STATUS_OPTIMAL, f"instance {i}"
            n_t = len(model.integer_columns)
            for t in (np.zeros(n_t), np.full(n_t, float(inst.container_bound()))):
                assert _solve_sub(_prepare(model), t).status == STATUS_OPTIMAL, f"instance {i}"
        assert valid >= 50


class TestMaster:
    def _master_costs(self, instance):
        model = build_mip(instance, MODE_WINDOW)
        return model.objective[model.integer_columns], float(instance.container_bound())

    def test_init_pool_picks_zero(self, tiny_instance):
        out = solve_master(*self._master_costs(tiny_instance))
        assert not out.x.any()  # T = 0, q = 0
        assert out.bound == 0.0

    def test_lower_bound_after_first_cut(self, tiny_instance):
        h_costs, t_upper = self._master_costs(tiny_instance)
        sub, t = tiny_sub(tiny_instance)
        result = _solve_sub(sub, t)
        row = optimality_row(sub, result)
        lb = solve_master(h_costs, t_upper, separate=add_once(row)).bound
        # closed form: min over T of c3'T + max(0, q(0) - w'T)
        w = -row[0][: len(t)]
        candidates = [result.objective]  # T = 0
        for j in range(len(t)):
            for n in (1, 2, 3):
                candidates.append(
                    h_costs[j] * n + max(0.0, result.objective - w[j] * n)
                )
        assert lb == pytest.approx(min(candidates), rel=1e-9)


class TestRunBenders:
    def test_zero_demand_terminates_immediately(self):
        inst = build_instance(pickups={("p0", "s0", 0): 0.0})
        res = run_benders(inst, MODE_WINDOW)
        assert res.status == "optimal"
        assert res.objective == 0.0
        assert res.iterations == 1

    def test_matches_monolithic_on_tiny(self, tiny_instance):
        res = run_benders(tiny_instance, MODE_WINDOW)
        assert res.status == "optimal"
        assert res.proven
        assert res.objective == pytest.approx(500.0, rel=1e-9)
        assert check_solution(res.model, res.x_full).ok(1e-6)

    def test_window_beats_exact_day_strictly(self, tiny_instance):
        window = run_benders(tiny_instance, MODE_WINDOW)
        exact = run_benders(tiny_instance, MODE_EXACT_DAY)
        assert window.objective == pytest.approx(500.0, rel=1e-9)
        assert exact.objective == pytest.approx(505.0, rel=1e-9)
        assert window.objective < exact.objective

    def test_relaxation_is_a_lower_bound(self, tiny_instance):
        relax_obj, x, breakdown = lp_relaxation(tiny_instance, MODE_WINDOW)
        res = run_benders(tiny_instance, MODE_WINDOW)
        assert relax_obj == pytest.approx(400.0, rel=1e-9)
        assert relax_obj <= res.objective + 1e-9
        assert breakdown.total == pytest.approx(relax_obj, rel=1e-9)

    def test_relaxation_sends_everything_fcl_when_cheaper(self, tiny_instance):
        # per-lb container rate 4800/48000 = 0.10 undercuts LCL at 0.20
        _, x, _ = lp_relaxation(tiny_instance, MODE_WINDOW)
        model = build_mip(tiny_instance, MODE_WINDOW)
        z_cols = model.path_columns()[~model.paths.container]
        assert len(z_cols) == 1
        assert float(np.abs(x[z_cols]).max(initial=0.0)) <= 1e-9

    def test_bounds_monotone(self):
        cfg = GeneratorConfig(
            n_products=3, n_suppliers=2, n_gateways=2, horizon_days=10, window_days=5
        )
        inst = generate_synthetic(cfg, seed=14)
        res = run_benders(inst, MODE_WINDOW)
        assert res.status == "optimal"
        lows = [r.lower for r in res.trace.records]
        ups = [r.upper for r in res.trace.records]
        assert all(b >= a - 1e-9 for a, b in zip(lows, lows[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(ups, ups[1:]))
        assert all(l <= u + 1e-9 for l, u in zip(lows, ups))

    def test_every_cut_tight_at_generator(self):
        # every cut's tightness at its generator is re-checked as it is made
        cfg = GeneratorConfig(
            n_products=2, n_suppliers=2, n_gateways=2, horizon_days=8, window_days=4
        )
        inst = generate_synthetic(cfg, seed=2)
        res = run_benders(inst, MODE_WINDOW)
        assert res.status == "optimal"
        assert any(r.cut for r in res.trace.records)

    def test_trace_export(self, tiny_instance):
        res = run_benders(tiny_instance, MODE_WINDOW)
        buf = io.StringIO()
        res.trace.export_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "iteration,candidate,lb,ub,gap,cut_kind,subproblem_value"
        assert len(lines) == res.iterations + 1
        assert lines[1].startswith("1,integral,")

    def test_root_rounds_reach_the_lp_relaxation(self, master_outcomes):
        inst = readme_instance()
        res = run_benders(inst, MODE_WINDOW)
        relax, _, _ = lp_relaxation(inst, MODE_WINDOW)
        strong = strong_lp_bound(build_arc(inst, MODE_WINDOW))
        # the linking rows lift the LP bound of the model's own rows
        assert strong > relax * 1.05
        assert res.status == "optimal"
        assert res.objective == pytest.approx(36272.8545878, abs=1e-6)
        records = res.trace.records
        # the root starts integral at T = 0, then turns fractional until the
        # rounds end; only integral nodes are priced after that
        kinds = [r.fractional for r in records]
        assert kinds[0] is False
        last_root = max(i for i, fractional in enumerate(kinds) if fractional)
        assert all(kinds[1 : last_root + 1])
        assert not any(kinds[last_root + 1 :])
        # the rounds lift the root to the strong bound, and the first solve
        # after them starts from it
        (master,) = master_outcomes
        assert master.nodes <= 30
        assert master.root_bound == pytest.approx(strong, rel=1e-9)
        assert records[last_root + 1].lower == pytest.approx(strong, rel=1e-9)
        # fractional solves never give an upper bound
        assert records[last_root].upper == records[0].upper

    def test_node_limit_returns_bounds(self):
        from intransit import BendersParams

        # the master tree closes in 9 nodes
        res = run_benders(
            readme_instance(), MODE_WINDOW, BendersParams(node_limit=5)
        )
        assert res.status == MILP_NODE_LIMIT
        assert not res.proven
        assert res.lower_bound <= res.upper_bound
        assert res.objective == res.upper_bound
        assert res.lower_bound < res.upper_bound - 1.0

    @pytest.mark.parametrize("seed", range(12))
    def test_oracle_equivalence_sample(self, seed):
        rng = np.random.default_rng(900 + seed)
        cfg = GeneratorConfig(
            n_products=int(rng.integers(1, 4)),
            n_suppliers=int(rng.integers(1, 3)),
            n_gateways=int(rng.integers(1, 3)),
            horizon_days=int(rng.integers(6, 13)),
            window_days=int(rng.integers(4, 10)),
        )
        inst = generate_synthetic(cfg, seed=seed)
        benders = run_benders(inst, MODE_WINDOW)
        mono = solve_milp(build_mip(inst, MODE_WINDOW))
        assert benders.status == "optimal"
        assert mono.status == "optimal"
        scale = 1.0 + abs(mono.objective)
        assert abs(benders.objective - mono.objective) <= 1e-6 * scale

    def test_scenario_ordering_random(self):
        cfg = GeneratorConfig(
            n_products=3, n_suppliers=2, n_gateways=2, horizon_days=10, window_days=6
        )
        for seed in (21, 22, 23):
            inst = generate_synthetic(cfg, seed=seed)
            relax_obj, _, _ = lp_relaxation(inst, MODE_WINDOW)
            window = run_benders(inst, MODE_WINDOW)
            exact = run_benders(inst, MODE_EXACT_DAY)
            assert relax_obj <= window.objective + 1e-9 * (1 + abs(window.objective))
            assert window.objective <= exact.objective + 1e-9 * (1 + abs(exact.objective))


class TestInOutRounds:
    """The fractional root rounds price an in-out point between the root's
    T and a core point first, and the root's T only when that cut misses."""

    @staticmethod
    def _logged_run(monkeypatch, instance):
        """Run Benders and log, per separator call, its x and the
        (T, stabilised) of each subproblem solve it made."""
        calls = []
        solve_master, solve_sub = bd.solve_milp, bd._solve_sub

        def master(*args, separate, **kwargs):
            def logged(x, bound):
                calls.append((x.copy(), []))
                return separate(x, bound)

            return solve_master(*args, separate=logged, **kwargs)

        def sub(s, t, stabilised=False):
            calls[-1][1].append((t.copy(), stabilised))
            return solve_sub(s, t, stabilised)

        monkeypatch.setattr(bd, "solve_milp", master)
        monkeypatch.setattr(bd, "_solve_sub", sub)
        return run_benders(instance, MODE_WINDOW), calls

    def test_a_stabilised_cut_that_misses_prices_the_root_in_the_same_round(
        self, monkeypatch
    ):
        # the README example's config at seed 9, whose last in-out cut misses
        cfg = GeneratorConfig(
            n_products=5, n_suppliers=2, n_gateways=2, horizon_days=12, window_days=6
        )
        inst = generate_synthetic(cfg, seed=9)
        res, calls = self._logged_run(monkeypatch, inst)
        assert res.status == "optimal"
        records = iter(res.trace.records)
        n_t = len(res.t_values)
        bound = float(inst.container_bound())
        core = None
        missed = 0
        for x, solves in calls:
            t = x[:n_t]
            if not solves or (t == np.round(t)).all():
                assert all(not stabilised for _, stabilised in solves)
                for _ in solves:
                    assert next(records).candidate == "integral"
                continue
            # the core starts one container above the first root's T, within
            # the container bound, and moves to each round's in-out point
            if core is None:
                core = np.minimum(bound, np.ceil(t) + 1.0)
            core = (core + t) / 2.0
            (t_in, first), *rest = solves
            assert first
            np.testing.assert_array_equal(t_in, core)
            first_record = next(records)
            assert first_record.candidate == "stabilised"
            if first_record.cut:
                assert rest == []
                continue
            missed += 1
            ((t_root, second),) = rest
            assert not second
            np.testing.assert_array_equal(t_root, t)
            assert next(records).candidate == "fractional"
        assert next(records, None) is None
        # the last round's in-out cut misses, and so does the root's own
        assert missed >= 1

    def test_stabilised_solves_keep_their_own_warm_chain(self, monkeypatch):
        log = []  # (stabilised, warm, outcome) per subproblem LP
        solve_lp, solve_sub = bd.solve_lp, bd._solve_sub
        kind = []

        def lp(problem, warm=None):
            out = solve_lp(problem, warm=warm)
            log.append((kind[-1], warm, out))
            return out

        def sub(s, t, stabilised=False):
            kind.append(stabilised)
            return solve_sub(s, t, stabilised)

        monkeypatch.setattr(bd, "solve_lp", lp)
        monkeypatch.setattr(bd, "_solve_sub", sub)
        res = run_benders(readme_instance(), MODE_WINDOW)
        assert res.status == "optimal"
        assert sum(kind) >= 2
        # the first stabilised solve starts cold; each LP starts from the
        # last optimal basis of its own chain
        last = {True: None, False: None}
        for stabilised, warm, out in log:
            assert warm is last[stabilised]
            if out.status == STATUS_OPTIMAL:
                last[stabilised] = out.basis
        first_stabilised = next(warm for stabilised, warm, _ in log if stabilised)
        assert first_stabilised is None

    def test_generated_20x5x3x30_seed_2_closes_at_the_monolithic_optimum(
        self, master_outcomes
    ):
        cfg = GeneratorConfig(n_products=20, n_suppliers=5, n_gateways=3, horizon_days=30)
        inst = generate_synthetic(cfg, seed=2)
        res = run_benders(inst, MODE_WINDOW)
        assert res.status == "optimal"
        assert res.proven
        # solve_milp's optimum on the same model, which HiGHS confirms
        assert res.objective == pytest.approx(36624.453707, abs=1e-6)
        # the rounds still end at the strong LP bound
        (master,) = master_outcomes
        strong = strong_lp_bound(build_arc(inst, MODE_WINDOW))
        assert master.root_bound == pytest.approx(strong, rel=1e-9)
