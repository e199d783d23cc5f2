"""End-to-end acceptance checks, one test per guarantee the library makes.

Every expected number here was frozen from an independent oracle: exhaustive
vertex enumeration for the LP engine, a brute-force sweep of integer
container grids for the branch-and-bound solver, and a third-party MILP
solve for the decomposition objectives. Run with ``pytest -v`` to get one
pass/fail line per guarantee.
"""

import itertools
import math
import resource
import time

import numpy as np
import pytest

from intransit import (
    MODE_EXACT_DAY,
    MODE_WINDOW,
    GeneratorConfig,
    Instance,
    build_mip,
    default_zone_table,
    delivery_histogram,
    expected_num_vars,
    fcl_threshold,
    generate_synthetic,
    lp_relaxation,
    make_optimality_cut,
    rate_class_params,
    run_benders,
    solve_lp,
    solve_milp,
    solve_subproblem,
    verify_certificate,
    zone_lookup,
)
from intransit.benders import _prepare
from intransit.simplex import STATUS_INFEASIBLE, STATUS_OPTIMAL

from test_simplex import enumerate_vertices, random_problem

GIGABYTE = 1024**3


def port_network_instance():
    """A 20-product, 5-supplier, 3-gateway, 30-day planning problem.

    Two pickup waves land heavy freight at the first gateway, where full
    containers are priced well below the break-even fill; the other two
    gateways price containers above break-even, so the optimal plan
    consolidates at exactly one port.
    """
    products = [f"p{i}" for i in range(20)]
    suppliers = [f"s{i}" for i in range(5)]
    gateways = ["g0", "g1", "g2"]
    home = {"s0": "g0", "s1": "g1", "s2": "g2", "s3": "g0", "s4": "g1"}
    land_cost, air_cost, land_time, air_time = {}, {}, {}, {}
    for s in suppliers:
        for h in gateways:
            near = h == home[s]
            land_cost[(s, h)] = 0.29 if near else 0.62
            air_cost[(s, h)] = 3 * land_cost[(s, h)]
            land_time[(s, h)] = 2 if near else 4
            air_time[(s, h)] = 1
    rng = np.random.default_rng(7)
    pickups = {}
    for i, p in enumerate(products):
        s = suppliers[i % 5]
        day = 0 if i < 10 else 12
        heavy = s in ("s0", "s3")
        lo, hi = (15000, 20000) if heavy else (800, 2000)
        pickups[(p, s, day)] = float(rng.integers(lo, hi))
    return Instance(
        horizon_days=30,
        window_days=4,
        products=products,
        suppliers=suppliers,
        gateways=gateways,
        pickups=pickups,
        land_cost=land_cost,
        air_cost=air_cost,
        land_time=land_time,
        air_time=air_time,
        lcl_cost={"g0": 0.2550, "g1": 0.1713, "g2": 0.1602},
        fcl_cost={
            "g0": 4773.0,
            "g1": 1.05 * 0.1713 * 48000.0,
            "g2": 1.05 * 0.1602 * 48000.0,
        },
        hold_cost={h: 0.04 for h in gateways},
        second_leg_time={"g0": 1, "g1": 2, "g2": 1},
        container_capacity=48000.0,
    )


def random_small_config(rng):
    # horizon leaves room for the delivery window, keeping routes feasible
    window = int(rng.integers(4, 10))
    return GeneratorConfig(
        n_products=int(rng.integers(1, 4)),
        n_suppliers=int(rng.integers(1, 3)),
        n_gateways=int(rng.integers(1, 3)),
        horizon_days=min(12, window + int(rng.integers(2, 4))),
        window_days=window,
    )


def test_decomposition_matches_monolithic_on_100_random_instances():
    """Benders and the one-shot MILP agree within 1e-6 relative, in < 120 s."""
    rng = np.random.default_rng(20260823)
    started = time.perf_counter()
    for seed in range(100):
        inst = generate_synthetic(random_small_config(rng), seed=seed)
        benders = run_benders(inst, MODE_WINDOW)
        mono = solve_milp(build_mip(inst, MODE_WINDOW))
        assert benders.status == "optimal", f"seed {seed}: {benders.status}"
        assert mono.status == "optimal", f"seed {seed}: {mono.status}"
        scale = 1.0 + abs(mono.objective)
        assert abs(benders.objective - mono.objective) <= 1e-6 * scale, (
            f"seed {seed}: benders {benders.objective} vs milp {mono.objective}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"100-instance sweep took {elapsed:.1f} s"


@pytest.mark.parametrize(
    "mode, expected",
    [(MODE_WINDOW, 36272.8545878), (MODE_EXACT_DAY, 37884.9638368)],
    ids=["window", "exact-day"],
)
def test_readme_example_decomposition_matches_monolithic(mode, expected):
    """On the README example (5 products, 2 suppliers, 2 gateways, 12 days,
    window 6, seed 4) Benders and the monolithic MILP reach the optimum
    HiGHS reports, in both delivery modes."""
    cfg = GeneratorConfig(
        n_products=5, n_suppliers=2, n_gateways=2, horizon_days=12, window_days=6
    )
    inst = generate_synthetic(cfg, seed=4)
    benders = run_benders(inst, mode)
    mono = solve_milp(build_mip(inst, mode))
    assert benders.status == "optimal" and benders.proven
    assert mono.status == "optimal"
    assert benders.objective == pytest.approx(expected, abs=1e-6)
    assert mono.objective == pytest.approx(expected, abs=1e-6)


def test_branch_and_bound_matches_exhaustive_container_grid():
    """On small instances the MILP optimum equals the brute-force minimum
    over every integer container grid, each grid priced by the LP."""
    cfg = GeneratorConfig(
        n_products=2,
        n_suppliers=1,
        n_gateways=1,
        horizon_days=5,
        window_days=4,
        weight_min=500.0,
        weight_max=60000.0,
        container_capacity=40000.0,
    )
    for seed in range(6):
        inst = generate_synthetic(cfg, seed=seed)
        model = build_mip(inst, MODE_WINDOW)
        h_costs = model.objective[model.integer_columns]
        best = math.inf
        for grid in itertools.product(range(3), repeat=len(model.integer_columns)):
            t = np.asarray(grid, dtype=np.float64)
            result = solve_subproblem(inst, t, MODE_WINDOW)
            if result.status == STATUS_OPTIMAL:
                best = min(best, result.value + float(h_costs @ t))
        out = solve_milp(model)
        assert out.status == "optimal"
        assert abs(out.objective - best) <= 1e-7 * (1 + abs(best)), (
            f"seed {seed}: milp {out.objective} vs grid {best}"
        )


def test_break_even_fill_fractions_for_east_coast_ports(east_coast_ports):
    """Published port rates give break-even container fills of 39.0%,
    58.4%, and 50.6%."""
    expected = {"jacksonville": 0.390, "elizabeth": 0.584, "miami": 0.506}
    for port, share in expected.items():
        assert fcl_threshold(east_coast_ports, port) == pytest.approx(
            share, abs=1e-3
        ), port


def test_zone_rate_classes_reproduce_published_tariff():
    """Class A1 prices at 2 days and $0.29/lb, class E2 at 6 days and
    $0.46/lb, exactly."""
    table = default_zone_table({("a", "a"): "A1", ("a", "b"): "E2", ("b", "a"): "E2", ("b", "b"): "A1"})
    assert zone_lookup(table, "a", "a") == "A1"
    assert rate_class_params(table, "A1") == (2, 0.29)
    assert rate_class_params(table, "E2") == (6, 0.46)


def test_relaxation_routes_everything_through_containers(tiny_instance):
    """When per-pound container space undercuts the LCL rate everywhere,
    the LP relaxation carries zero LCL weight."""
    k = tiny_instance.container_capacity
    for h in tiny_instance.gateways:
        assert tiny_instance.fcl_cost[h] / k < tiny_instance.lcl_cost[h]
    _, x, _ = lp_relaxation(tiny_instance, MODE_WINDOW)
    model = build_mip(tiny_instance, MODE_WINDOW)
    z_cols = [c for c in range(model.num_vars) if model.indexer.key_of(c).kind == "Z"]
    u_cols = [c for c in range(model.num_vars) if model.indexer.key_of(c).kind == "U"]
    assert float(np.max(x[z_cols], initial=0.0)) <= 1e-9
    assert float(np.sum(x[u_cols])) == pytest.approx(
        tiny_instance.total_demand(), rel=1e-9
    )


def test_scenario_cost_ordering(tiny_instance):
    """Relaxation <= windowed delivery <= exact-day delivery on every
    feasible instance, strictly on one where only early delivery lets a
    shipment wait for its container."""
    rng = np.random.default_rng(5)
    for seed in range(8):
        inst = generate_synthetic(random_small_config(rng), seed=seed)
        relax_obj, _, _ = lp_relaxation(inst, MODE_WINDOW)
        window = run_benders(inst, MODE_WINDOW)
        exact = run_benders(inst, MODE_EXACT_DAY)
        tol = 1e-9 * (1 + abs(exact.objective))
        assert relax_obj <= window.objective + tol, f"seed {seed}"
        assert window.objective <= exact.objective + tol, f"seed {seed}"
    relax_obj, _, _ = lp_relaxation(tiny_instance, MODE_WINDOW)
    window = run_benders(tiny_instance, MODE_WINDOW)
    exact = run_benders(tiny_instance, MODE_EXACT_DAY)
    assert relax_obj < window.objective < exact.objective


def test_bounds_monotone_and_cuts_tight_at_generator():
    """Every trace has a nondecreasing lower bound, a nonincreasing upper
    bound, and a closed final gap; every optimality cut touches its
    generating subproblem value within 1e-6."""
    rng = np.random.default_rng(17)
    for seed in range(8):
        inst = generate_synthetic(random_small_config(rng), seed=seed)
        res = run_benders(inst, MODE_WINDOW)
        assert res.status == "optimal"
        lows = [r.lower for r in res.trace.records]
        highs = [r.upper for r in res.trace.records]
        assert all(a <= b + 1e-9 for a, b in zip(lows, lows[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(highs, highs[1:]))
        final = res.trace.records[-1]
        assert final.gap <= 1e-9

        # rebuild each recorded optimality cut and check tightness
        master = _prepare(build_mip(inst, MODE_WINDOW)).master
        for rec in res.trace.records:
            if rec.cut_kind != "optimality" or rec.subproblem_value is None:
                continue
            sub = solve_subproblem(inst, rec.t_candidate, MODE_WINDOW)
            assert sub.status == STATUS_OPTIMAL
            cut = make_optimality_cut(sub.duals, master)
            slack = cut.value_at(rec.t_candidate) - sub.value
            assert abs(slack) <= 1e-6 * (1 + abs(sub.value))


def test_delivery_lag_never_exceeds_window():
    """Solved plans never deliver later than the window; exact-day plans
    put all weight exactly at the window length."""
    rng = np.random.default_rng(29)
    for seed in range(6):
        inst = generate_synthetic(random_small_config(rng), seed=seed)
        for mode in (MODE_WINDOW, MODE_EXACT_DAY):
            res = run_benders(inst, mode)
            hist = delivery_histogram(res.model, res.x_full)
            assert hist.max_lag() <= inst.window_days, (seed, mode)
            if mode == MODE_EXACT_DAY:
                assert set(hist.bins) == {inst.window_days}, seed
                assert hist.bins[inst.window_days].weight == pytest.approx(
                    hist.total_weight
                )


def test_simplex_matches_vertex_enumeration_on_500_random_lps():
    """The simplex engine agrees with brute-force vertex enumeration on
    500 random LPs within 1e-7; infeasible cases carry a verified Farkas
    ray; a classic degenerate cycling example terminates."""
    checked = 0
    block = 0
    while checked < 500:
        rng = np.random.default_rng(31000 + block)
        block += 1
        for _ in range(60):
            prob = random_problem(rng)
            best, feasible = enumerate_vertices(prob)
            out = solve_lp(prob)
            assert verify_certificate(prob, out).ok
            if out.status == STATUS_OPTIMAL:
                assert feasible
                assert best is not None
                assert abs(out.objective - best) <= 1e-7 * (1 + abs(best))
            elif out.status == STATUS_INFEASIBLE:
                assert not feasible
                assert out.farkas_ray is not None
            checked += 1
    assert checked >= 500

    # degenerate objective ties that cycle under naive pivoting
    cycling = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    from intransit import LpProblem

    prob = LpProblem(
        objective=np.array([-0.75, 150.0, -0.02, 6.0]),
        A=cycling,
        senses=np.array(["<", "<", "<"]),
        rhs=np.array([0.0, 0.0, 1.0]),
    )
    out = solve_lp(prob)
    assert out.status == STATUS_OPTIMAL
    assert verify_certificate(prob, out).ok


def test_scale_assembly_and_full_solve():
    """A 100x20x3x60 model assembles in < 10 s and < 2 GB with the
    closed-form variable and row counts; a 20x5x3x30 instance solves to
    proven optimality in < 5 min."""
    cfg = GeneratorConfig(
        n_products=100, n_suppliers=20, n_gateways=3, horizon_days=60
    )
    inst = generate_synthetic(cfg, seed=1)
    started = time.perf_counter()
    model = build_mip(inst, MODE_WINDOW)
    build_seconds = time.perf_counter() - started
    assert build_seconds < 10.0, f"assembly took {build_seconds:.1f} s"
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 < 2 * GIGABYTE
    assert model.num_vars == expected_num_vars(100, 20, 3, 60, MODE_WINDOW)
    n_p, n_h, n_d = 100, 3, 60
    expected_rows = len(inst.pickups) + n_h * n_d + n_p * n_h * n_d + n_p * n_d
    assert model.num_rows == expected_rows

    inst = port_network_instance()
    started = time.perf_counter()
    res = run_benders(inst, MODE_WINDOW)
    solve_seconds = time.perf_counter() - started
    assert solve_seconds < 300.0, f"solve took {solve_seconds:.1f} s"
    assert res.status == "optimal"
    assert res.proven
    # frozen from an independent MILP solve of the monolithic model
    assert res.objective == pytest.approx(67599.1768, rel=1e-6)
    assert float(res.t_values.sum()) == 3.0
