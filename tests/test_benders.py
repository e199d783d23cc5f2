"""Decomposition loop: cuts, master, bounds, and oracle agreement."""

import io
import math

import numpy as np
import pytest
import scipy.sparse as sp

from intransit import (
    MODE_EXACT_DAY,
    MODE_WINDOW,
    GeneratorConfig,
    LpProblem,
    MasterData,
    build_mip,
    check_solution,
    generate_synthetic,
    lp_relaxation,
    make_feasibility_cut,
    make_optimality_cut,
    run_benders,
    solve_lp,
    solve_master,
    solve_milp,
    solve_subproblem,
)
from intransit.benders import Cut
from intransit.errors import InfeasibleInstanceError, SolverError
from intransit.simplex import STATUS_INFEASIBLE, STATUS_OPTIMAL

from conftest import build_instance


class TestSubproblem:
    def test_zero_containers_means_all_lcl(self, tiny_instance):
        result = solve_subproblem(tiny_instance, np.zeros(10), MODE_WINDOW)
        assert result.status == STATUS_OPTIMAL
        # land 0.30 + LCL 0.20 on 1000 lbs; no container appears
        assert result.value == pytest.approx(500.0, rel=1e-9)

    def test_container_unlocks_cheaper_leg(self, tiny_instance):
        base = solve_subproblem(tiny_instance, np.zeros(10), MODE_WINDOW)
        t = np.zeros(10)
        t[2] = 1.0  # container on the day the land shipment reaches the gateway
        with_box = solve_subproblem(tiny_instance, t, MODE_WINDOW)
        assert with_box.status == STATUS_OPTIMAL
        # the 0.20/lb LCL charge on 1000 lbs disappears into the container
        assert base.value - with_box.value == pytest.approx(200.0, rel=1e-9)

    def test_negative_t_rejected(self, tiny_instance):
        with pytest.raises(SolverError):
            solve_subproblem(tiny_instance, np.array([-1.0] + [0.0] * 9), MODE_WINDOW)

    def test_wrong_shape_rejected(self, tiny_instance):
        with pytest.raises(SolverError, match="shape"):
            solve_subproblem(tiny_instance, np.zeros(3), MODE_WINDOW)

    def test_infeasible_instance_gives_farkas(self):
        inst = build_instance(window_days=2, land_time=4, air_time=3)
        result = solve_subproblem(
            inst, np.zeros(10), MODE_WINDOW, require_routes=False
        )
        assert result.status == STATUS_INFEASIBLE
        assert result.farkas_ray is not None


class TestOptimalityCuts:
    def _master_and_duals(self, instance, t):
        from intransit.benders import _prepare, _solve_sub

        model = build_mip(instance, MODE_WINDOW)
        sub = _prepare(model)
        result = _solve_sub(sub, t)
        assert result.status == STATUS_OPTIMAL
        return sub.master, result

    def test_tight_at_generator(self, tiny_instance):
        t = np.zeros(10)
        master, result = self._master_and_duals(tiny_instance, t)
        cut = make_optimality_cut(result.duals, master)
        assert cut.value_at(t) == pytest.approx(result.value, rel=1e-6)

    def test_valid_at_other_points(self, tiny_instance):
        t0 = np.zeros(10)
        master, result = self._master_and_duals(tiny_instance, t0)
        cut = make_optimality_cut(result.duals, master)
        rng = np.random.default_rng(1)
        for _ in range(6):
            t = rng.integers(0, 3, size=10).astype(np.float64)
            other = solve_subproblem(tiny_instance, t, MODE_WINDOW)
            assert other.status == STATUS_OPTIMAL
            assert cut.value_at(t) <= other.value + 1e-6 * (1.0 + abs(other.value))

    def test_dimension_mismatch(self, tiny_instance):
        master, _ = self._master_and_duals(tiny_instance, np.zeros(10))
        with pytest.raises(SolverError, match="rows"):
            make_optimality_cut(np.zeros(3), master)

    def test_zero_duals_reproduce_init_bound(self, tiny_instance):
        master, _ = self._master_and_duals(tiny_instance, np.zeros(10))
        cut = make_optimality_cut(np.zeros(master.B.shape[0]), master)
        assert cut.constant == 0.0
        assert not cut.t_coefficients.any()


class TestFeasibilityCuts:
    def _harness(self, k=48000.0, demand=100.0):
        """One U variable: a fixed equality forces U = demand, capacity
        bounds U by k per container."""
        A_sub = sp.csr_matrix(np.array([[1.0], [1.0]]))
        senses = np.array(["=", "<"])
        b = np.array([demand, 0.0])
        B = sp.csr_matrix(np.array([[0.0], [-k]]))
        master = MasterData(
            B=B, b=b, h_costs=np.array([4800.0]), t_upper=5.0,
            cuts=[Cut("optimality", np.zeros(1), 0.0, 0)],
        )
        return A_sub, senses, master

    def _farkas(self, A_sub, senses, master, t):
        rhs = master.b - master.B @ np.asarray(t, dtype=np.float64)
        out = solve_lp(
            LpProblem(objective=np.zeros(1), A=A_sub, senses=senses, rhs=rhs)
        )
        assert out.status == STATUS_INFEASIBLE
        return out.farkas_ray

    def test_cut_raises_container_lower_bound(self):
        A_sub, senses, master = self._harness()
        ray = self._farkas(A_sub, senses, master, [0.0])
        cut = make_feasibility_cut(ray, master)
        # violated at the generating point, satisfied once T covers demand
        assert cut.value_at(np.array([0.0])) > 0.0
        assert cut.value_at(np.array([1.0])) <= 1e-9
        # the implied bound is T >= demand / capacity
        t_min = cut.constant / cut.t_coefficients[0]
        assert t_min == pytest.approx(100.0 / 48000.0, rel=1e-9)

    def test_master_point_respects_cut(self):
        A_sub, senses, master = self._harness()
        ray = self._farkas(A_sub, senses, master, [0.0])
        master.cuts.append(make_feasibility_cut(ray, master))
        # T = 0 is cut off; one container is the cheapest schedule left
        t, q, lb = solve_master(master)
        assert t.tolist() == [1.0]
        assert q == 0.0
        assert lb == pytest.approx(4800.0)

    def test_zero_ray_rejected(self):
        _, _, master = self._harness()
        with pytest.raises(SolverError, match="zero Farkas"):
            make_feasibility_cut(np.zeros(2), master)

    def test_dimension_mismatch(self):
        _, _, master = self._harness()
        with pytest.raises(SolverError, match="rows"):
            make_feasibility_cut(np.ones(5), master)


class TestMaster:
    def test_init_pool_picks_zero(self, tiny_instance):
        from intransit.benders import _prepare

        master = _prepare(build_mip(tiny_instance, MODE_WINDOW)).master
        t, q, lb = solve_master(master)
        assert not t.any()
        assert q == 0.0
        assert lb == 0.0

    def test_empty_pool_rejected(self, tiny_instance):
        from intransit.benders import _prepare

        master = _prepare(build_mip(tiny_instance, MODE_WINDOW)).master
        master.cuts = []
        with pytest.raises(SolverError):
            solve_master(master)

    def test_lower_bound_after_first_cut(self, tiny_instance):
        from intransit.benders import _prepare, _solve_sub

        sub = _prepare(build_mip(tiny_instance, MODE_WINDOW))
        master = sub.master
        result = _solve_sub(sub, np.zeros(10))
        master.cuts.append(make_optimality_cut(result.duals, master))
        t, q, lb = solve_master(master)
        # closed form: min over T of c3'T + max(0, q(0) - w'T)
        w = master.cuts[-1].t_coefficients
        candidates = [result.value]  # T = 0
        for j in range(10):
            for n in (1, 2, 3):
                candidates.append(
                    master.h_costs[j] * n + max(0.0, result.value - w[j] * n)
                )
        assert lb == pytest.approx(min(candidates), rel=1e-9)

    def test_feasibility_cut_propagates_infeasibility(self):
        master = MasterData(
            B=sp.csr_matrix(np.zeros((1, 1))),
            b=np.array([1.0]),
            h_costs=np.array([1.0]),
            t_upper=3.0,
            cuts=[
                Cut("optimality", np.zeros(1), 0.0, 0),
                Cut("feasibility", np.zeros(1), 1.0, 1),  # 1 <= 0: never
            ],
        )
        with pytest.raises(InfeasibleInstanceError):
            solve_master(master)


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
        ix = model.indexer
        z = x[ix.offsets["Z"] : ix.offsets["Z"] + ix.sizes["Z"]]
        assert float(np.abs(z).max(initial=0.0)) <= 1e-9

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
        kinds = {r.cut_kind for r in res.trace.records}
        assert "optimality" in kinds

    def test_infeasible_instance_reported(self):
        inst = build_instance(window_days=2, land_time=4, air_time=3)
        res = run_benders(inst, MODE_WINDOW)
        assert res.status == "infeasible"
        assert res.objective is None
        assert res.proven

    def test_infeasible_caught_by_master_without_validation(self):
        inst = build_instance(window_days=2, land_time=4, air_time=3)
        res = run_benders(inst, MODE_WINDOW, validate=False)
        assert res.status == "infeasible"

    def test_max_iters_flagged_unproven(self, tiny_instance):
        from intransit import BendersParams

        res = run_benders(
            tiny_instance, MODE_WINDOW, BendersParams(max_iters=1)
        )
        assert res.status == "max_iters"
        assert not res.proven
        assert res.lower_bound <= res.upper_bound

    def test_trace_export(self, tiny_instance):
        res = run_benders(tiny_instance, MODE_WINDOW)
        buf = io.StringIO()
        res.trace.export_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "iteration,lb,ub,gap,cut_kind,subproblem_value"
        assert len(lines) == res.iterations + 1

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
