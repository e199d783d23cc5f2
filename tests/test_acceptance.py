"""End-to-end acceptance checks, one test per guarantee the library makes.

Every expected number here was frozen from an independent oracle: exhaustive
vertex enumeration for the LP engine, a brute-force sweep of integer
container grids for the branch-and-bound solver, and a third-party MILP
solve for the decomposition objectives. Run with ``pytest -v`` to get one
pass/fail line per guarantee.
"""

import itertools
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from intransit import (
    MODE_EXACT_DAY,
    MODE_WINDOW,
    GeneratorConfig,
    Instance,
    LpProblem,
    audit_flows,
    build_mip,
    default_zone_table,
    delivery_histogram,
    fcl_threshold,
    generate_synthetic,
    lp_from_mip,
    lp_relaxation,
    rate_class_params,
    run_benders,
    save_instance,
    simplex,
    solve_lp,
    solve_milp,
    solution_flows,
    verify_certificate,
    zone_lookup,
)
from intransit.benders import _master_row, _prepare, _solve_sub
from intransit.errors import SolverError
from intransit.model import DENSE_ROWS
from intransit.simplex import STATUS_INFEASIBLE, STATUS_OPTIMAL

from arc_model import build_mip as build_arc
from conftest import (
    as_array,
    build_instance,
    expected_shape,
    highs_objective,
    random_small_config,
    readme_instance,
    strong_lp_bound,
)
from test_report import phantom_prone_instance
from test_simplex import enumerate_vertices, random_problem

GIGABYTE = 1024**3
SRC = Path(__file__).resolve().parents[1] / "src"


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


def assert_flows_trace(inst, model, x, label):
    """The independent auditor follows every pound of ``x`` from a real
    pickup to an on-time delivery."""
    faults = audit_flows(inst, solution_flows(model, x))
    assert not faults, f"{label}: {faults}"


def assert_linking_holds(model, x, label):
    """``x`` meets every strong linking row ``U <= W_p·T``."""
    link = model.linking
    violated = link.violated(x)
    assert not len(violated), f"{label}: linking rows {violated.tolist()} violated"


def test_decomposition_matches_monolithic_on_100_random_instances():
    """Benders, the one-shot MILP and HiGHS on the arc reference agree
    within 1e-6 relative in both delivery modes, and the flow auditor
    passes both solvers' plans, which meet every strong linking row, in
    < 120 s."""
    rng = np.random.default_rng(20260823)
    started = time.perf_counter()
    for seed in range(100):
        inst = generate_synthetic(random_small_config(rng), seed=seed)
        for mode in (MODE_WINDOW, MODE_EXACT_DAY):
            label = f"seed {seed} {mode}"
            benders = run_benders(inst, mode)
            model = build_mip(inst, mode)
            mono = solve_milp(model)
            assert benders.status == "optimal", f"{label}: {benders.status}"
            assert mono.status == "optimal", f"{label}: {mono.status}"
            scale = 1.0 + abs(mono.objective)
            assert abs(benders.objective - mono.objective) <= 1e-6 * scale, (
                f"{label}: benders {benders.objective} vs milp {mono.objective}"
            )
            highs = highs_objective(build_arc(inst, mode))
            assert abs(benders.objective - highs) <= 1e-6 * (1.0 + abs(highs)), (
                f"{label}: benders {benders.objective} vs HiGHS {highs}"
            )
            assert_flows_trace(inst, benders.model, benders.x_full, f"{label} benders")
            assert_flows_trace(inst, model, mono.x, f"{label} milp")
            assert_linking_holds(model, benders.x_full, f"{label} benders")
            assert_linking_holds(model, mono.x, f"{label} milp")
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
    HiGHS reports on the arc reference, in both delivery modes, with plans
    the flow auditor passes."""
    inst = readme_instance()
    benders = run_benders(inst, mode)
    model = build_mip(inst, mode)
    mono = solve_milp(model)
    assert benders.status == "optimal" and benders.proven
    assert mono.status == "optimal"
    assert highs_objective(build_arc(inst, mode)) == pytest.approx(expected, abs=1e-6)
    assert benders.objective == pytest.approx(expected, abs=1e-6)
    assert mono.objective == pytest.approx(expected, abs=1e-6)
    assert_flows_trace(inst, benders.model, benders.x_full, "benders")
    assert_flows_trace(inst, model, mono.x, "milp")


@pytest.mark.parametrize("mode", [MODE_WINDOW, MODE_EXACT_DAY])
@pytest.mark.parametrize(
    "instance", [readme_instance, port_network_instance], ids=["readme", "port"]
)
def test_each_priced_point_is_one_subproblem_lp(monkeypatch, instance, mode):
    """``run_benders`` solves one LP for each T it prices, one per trace
    record: the model's own rows, with T fixed by its bounds and each
    container column bounded by ``W·T`` of its gateway and day, the bound
    its strong linking row becomes at that T."""
    import intransit.benders as bd

    problems = []

    def counted(problem, **kwargs):
        problems.append(problem)
        return solve_lp(problem, **kwargs)

    monkeypatch.setattr(bd, "solve_lp", counted)
    res = run_benders(instance(), mode)
    assert res.status == "optimal"
    assert len(problems) == len(res.trace.records)
    link = res.model.linking
    for problem, record in zip(problems, res.trace.records):
        t = record.t_candidate
        assert problem.num_rows == res.model.num_rows
        assert problem.lower[: len(t)].tobytes() == t.tobytes()
        assert problem.upper[: len(t)].tobytes() == t.tobytes()
        np.testing.assert_array_equal(problem.upper[link.u_cols], link.weights * t[link.t_cols])


def generated_20x5x3x30(seed):
    return lambda: generate_synthetic(GeneratorConfig(20, 5, 3, 30), seed=seed)


@pytest.mark.parametrize("mode", [MODE_WINDOW, MODE_EXACT_DAY])
@pytest.mark.parametrize(
    "instance",
    [readme_instance, port_network_instance, *map(generated_20x5x3x30, (1, 2, 3))],
    ids=["readme", "port", "gen-1", "gen-2", "gen-3"],
)
def test_every_column_sits_in_a_row_and_no_gateway_row_outlives_its_departures(
    instance, mode
):
    """Every column of the model has a nonzero, and every capacity row lies
    on a day before its gateway's last departure: the row holds its own T
    column, which names the gateway and day, and only container columns
    that leave that gateway on that day. The path model has no gateway
    balance rows."""
    inst = instance()
    model = build_mip(inst, mode)
    A = as_array(model.A)
    assert (A != 0).any(axis=0).all(), "a column appears in no row"
    assert set(model.family_counts()) <= {"pickup", "capacity", "due"}
    n_t = len(model.integer_columns)
    paths = model.paths
    for r in np.flatnonzero(model.row_tags == "capacity"):
        cols = np.flatnonzero(A[r])
        (t,) = cols[cols < n_t]
        h, d = model.t_gateway[t], model.t_day[t]
        assert d < inst.horizon_days - inst.second_leg_time[inst.gateways[h]], f"row {r}"
        i = cols[cols >= n_t] - n_t
        assert paths.container[i].all(), f"row {r} holds an LCL column"
        assert (paths.gateway[i] == h).all() and (paths.day[i] == d).all(), f"row {r}"


@pytest.mark.parametrize("mode", [MODE_WINDOW, MODE_EXACT_DAY])
@pytest.mark.parametrize(
    "instance",
    [readme_instance, port_network_instance, generated_20x5x3x30(1)],
    ids=["readme", "port", "gen-1"],
)
def test_every_capacity_row_holds_a_container_column(instance, mode):
    """A T column only exists where some container column leaves its
    gateway on its day: a T column whose capacity row held none could only
    cost, and each container column's linking T is the T of its row."""
    model = build_mip(instance(), mode)
    n_t = len(model.integer_columns)
    assert n_t > 0
    np.testing.assert_array_equal(np.unique(model.linking.t_cols), np.arange(n_t))


@pytest.mark.parametrize("solver", ["milp", "benders"])
@pytest.mark.parametrize(
    "instance, mode",
    [
        (readme_instance, MODE_WINDOW),
        (readme_instance, MODE_EXACT_DAY),
        (port_network_instance, MODE_WINDOW),
    ],
    ids=["readme-window", "readme-exact-day", "port"],
)
def test_root_bound_after_linking_rounds_is_the_strong_lp_bound(
    master_outcomes, instance, mode, solver
):
    """The root bound of the monolithic tree, and of the Benders master,
    after their separation rounds equals HiGHS's LP optimum over the arc
    reference's rows plus every strong linking row, within 1e-9."""
    inst = instance()
    model = build_mip(inst, mode)
    if solver == "milp":
        outcome = solve_milp(model)
    else:
        assert run_benders(inst, mode).status == "optimal"
        (outcome,) = master_outcomes
    assert outcome.status == "optimal"
    strong = strong_lp_bound(build_arc(inst, mode))
    assert outcome.root_bound == pytest.approx(strong, rel=1e-9)


@pytest.fixture
def certified_lps(monkeypatch):
    """The status of every LP a solve rests on, each node LP of the
    monolithic tree and of the Benders master and each subproblem, and the
    ``verify_certificate`` failures among them."""
    import intransit.benders as bd
    import intransit.milp as mp

    statuses, failures = [], []

    def certified(problem, **kwargs):
        outcome = solve_lp(problem, **kwargs)
        report = verify_certificate(problem, outcome)
        statuses.append(outcome.status)
        if not report.ok:
            failures.append((len(statuses), outcome.status, report.failures))
        return outcome

    monkeypatch.setattr(mp, "solve_lp", certified)
    monkeypatch.setattr(bd, "solve_lp", certified)
    return statuses, failures


@pytest.mark.parametrize("solver", ["milp", "benders"])
@pytest.mark.parametrize(
    "instance, mode",
    [
        (readme_instance, MODE_WINDOW),
        (readme_instance, MODE_EXACT_DAY),
        (port_network_instance, MODE_WINDOW),
    ],
    ids=["readme-window", "readme-exact-day", "port"],
)
def test_every_lp_of_a_solve_is_certified(certified_lps, instance, mode, solver):
    """Every LP outcome a solve rests on passes ``verify_certificate``."""
    statuses, failures = certified_lps
    inst = instance()
    if solver == "milp":
        assert solve_milp(build_mip(inst, mode)).status == "optimal"
    else:
        assert run_benders(inst, mode).status == "optimal"
    assert statuses and not failures, failures


def test_no_node_lp_abandons_a_start_on_gen_seed_3(certified_lps, monkeypatch):
    """On generated 20x5x3x30 seed 3 the monolithic tree solves every node
    LP from its first start: no pivot the ratio test admits is refused as
    too small, so no start is given up. Its node count moves with
    tie-breaks, so only the optimum is pinned."""
    statuses, failures = certified_lps
    breakdowns = []
    original = simplex._dual_iterate

    def recorded(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except SolverError as exc:
            breakdowns.append(str(exc))
            raise

    monkeypatch.setattr(simplex, "_dual_iterate", recorded)
    out = solve_milp(build_mip(generated_20x5x3x30(3)(), MODE_WINDOW))
    assert out.status == "optimal"
    assert out.objective == pytest.approx(72272.8973518, abs=1e-6)
    assert not breakdowns, breakdowns
    assert statuses and not failures, failures


def test_phantom_freight_reproducer_costs_the_honest_optimum():
    """Where an idle lane could carry freight nobody picked up and the real
    freight could leave past the horizon, every solver pays the honest
    1100: air to the gateway, LCL to the customer."""
    inst = phantom_prone_instance()
    model = build_mip(inst, MODE_WINDOW)
    mono = solve_milp(model)
    benders = run_benders(inst, MODE_WINDOW)
    assert mono.status == "optimal" and benders.status == "optimal"
    assert mono.objective == pytest.approx(1100.0, abs=1e-6)
    assert benders.objective == pytest.approx(1100.0, abs=1e-6)
    assert highs_objective(build_arc(inst, MODE_WINDOW)) == pytest.approx(1100.0, abs=1e-6)
    assert_flows_trace(inst, model, mono.x, "milp")
    assert_flows_trace(inst, benders.model, benders.x_full, "benders")


@pytest.mark.parametrize(
    "mode, expected",
    [(MODE_WINDOW, 1050.0), (MODE_EXACT_DAY, 1055.0)],
    ids=["window", "exact-day"],
)
def test_pickup_due_past_the_horizon_is_due_on_the_last_day(mode, expected):
    """A day-7 pickup with a 4-day window in a 10-day horizon is due on day
    9. By land it would reach the gateway on day 9, after the last
    departure there (day 8), so it has no land column and flies: 500 lb at
    0.90 + 0.20. The day-0 pickup goes by land and LCL, in exact-day mode
    after one day held at the gateway."""
    inst = build_instance(pickups={("p0", "s0", 0): 1000.0, ("p0", "s0", 7): 500.0})
    model = build_mip(inst, mode)
    mono = solve_milp(model)
    benders = run_benders(inst, mode)
    assert mono.status == "optimal" and benders.status == "optimal"
    assert mono.objective == pytest.approx(expected, abs=1e-6)
    assert benders.objective == pytest.approx(expected, abs=1e-6)
    assert highs_objective(build_arc(inst, mode)) == pytest.approx(expected, abs=1e-6)
    assert_flows_trace(inst, model, mono.x, "milp")
    assert_flows_trace(inst, benders.model, benders.x_full, "benders")


def pooled_pickups_instance(products=("p0", "p0")):
    """Two pickups, by default of one product: 1000 lb at the far supplier
    s0 on day 0, due on day 4, and 1000 lb at the near supplier s1 on day
    1, due on day 5. Land costs 0.30/lb from both and lands at g0 on day
    4, reaching the customer on day 5. Air lands on day 2, at 0.90/lb from
    s0 and 0.40/lb from s1. LCL costs 0.20/lb, holding 0.005/lb a day."""
    p_far, p_near = products
    return build_instance(
        products=tuple(dict.fromkeys(products)),
        suppliers=("s0", "s1"),
        pickups={(p_far, "s0", 0): 1000.0, (p_near, "s1", 1): 1000.0},
        land_time={("s0", "g0"): 4, ("s1", "g0"): 3},
        air_time={("s0", "g0"): 2, ("s1", "g0"): 1},
        air_cost={("s0", "g0"): 0.90, ("s1", "g0"): 0.40},
    )


@pytest.mark.parametrize(
    "mode, pooled, separate",
    [(MODE_WINDOW, 1100.0, 1600.0), (MODE_EXACT_DAY, 1105.0, 1605.0)],
    ids=["window", "exact-day"],
)
def test_a_later_pickup_covers_an_earlier_ones_due_day(mode, pooled, separate):
    """Pounds of one product are interchangeable at the customer, so s1's
    later pickup flies (0.40 + 0.20, in exact-day mode plus a day held) to
    cover day 4, while s0's freight goes the cheap slow way by land and LCL
    (0.50) and arrives on day 5, after its own due day. Held each to its own
    due day, as two products, s0's freight must fly at 0.90 instead and
    s1's goes by land: 1600, or 1605. Without the due row both pickups
    would go by land, for 1000."""
    for products, expected in ((("p0", "p0"), pooled), (("p0", "p1"), separate)):
        inst = pooled_pickups_instance(products)
        model = build_mip(inst, mode)
        mono = solve_milp(model)
        benders = run_benders(inst, mode)
        assert mono.status == "optimal" and benders.status == "optimal"
        assert mono.objective == pytest.approx(expected, abs=1e-6)
        assert benders.objective == pytest.approx(expected, abs=1e-6)
        assert highs_objective(build_arc(inst, mode)) == pytest.approx(expected, abs=1e-6)
        assert_flows_trace(inst, model, mono.x, f"{products} milp")
        assert_flows_trace(inst, benders.model, benders.x_full, f"{products} benders")
    assert separate > pooled


def pooled_instance(seed):
    """A generated instance whose products are merged, in order, into
    products of two or three pickups each."""
    rng = np.random.default_rng(seed)
    window = int(rng.integers(3, 7))
    cfg = GeneratorConfig(
        n_products=int(rng.integers(4, 8)),
        n_suppliers=int(rng.integers(1, 4)),
        n_gateways=int(rng.integers(1, 3)),
        horizon_days=window + int(rng.integers(4, 8)),
        window_days=window,
    )
    inst = generate_synthetic(cfg, seed)
    merged, left = [], len(inst.products)
    while left:
        size = left if left in (2, 3) else 2 if left == 4 else int(rng.integers(2, 4))
        merged += [f"q{len(set(merged))}"] * size
        left -= size
    into = dict(zip(inst.products, merged))
    pickups = {}
    for (p, s, d), w in inst.pickups.items():
        pickups[into[p], s, d] = pickups.get((into[p], s, d), 0.0) + w
    inst.products = list(dict.fromkeys(merged))
    inst.pickups = pickups
    inst.validate()
    return inst


@pytest.mark.parametrize("mode", [MODE_WINDOW, MODE_EXACT_DAY])
def test_pooled_products_match_highs_on_the_arc_model(mode):
    """On generated instances whose products have two or three pickups
    each, the relaxation, the monolithic MILP and Benders equal HiGHS on
    the arc reference within 1e-6 relative, and the flow auditor passes
    both solvers' plans."""
    due_rows = 0
    for seed in range(12):
        inst = pooled_instance(seed)
        arc = build_arc(inst, mode)
        model = build_mip(inst, mode)
        due_rows += model.family_counts().get("due", 0)
        for label, value, relaxed in (
            ("relaxation", lp_relaxation(inst, mode)[0], True),
            ("milp", solve_milp(model).objective, False),
            ("benders", run_benders(inst, mode).objective, False),
        ):
            want = highs_objective(arc, relaxed=relaxed)
            assert value == pytest.approx(want, rel=1e-6, abs=1e-6), f"seed {seed} {label}"
        mono = solve_milp(model)
        benders = run_benders(inst, mode)
        assert_flows_trace(inst, model, mono.x, f"seed {seed} milp")
        assert_flows_trace(inst, benders.model, benders.x_full, f"seed {seed} benders")
    assert due_rows >= 12


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
        sub = _prepare(model)
        h_costs = model.objective[model.integer_columns]
        best = math.inf
        for grid in itertools.product(range(3), repeat=len(model.integer_columns)):
            t = np.asarray(grid, dtype=np.float64)
            result = _solve_sub(sub, t)
            if result.status == STATUS_OPTIMAL:
                best = min(best, result.objective + float(h_costs @ t))
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
    flows = solution_flows(build_mip(tiny_instance, MODE_WINDOW), x)
    assert not [k for k in flows if k.kind == "Z"]
    assert sum(w for k, w in flows.items() if k.kind == "U") == pytest.approx(
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
    bound, and a closed final gap; every optimality cut, priced at the
    root's fractional containers or at an integral node, touches its
    generating subproblem value within 1e-6."""
    rng = np.random.default_rng(3)
    stabilised_checked = fractional_checked = 0
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

        # re-price every solve, with or without a cut added, and check the
        # tightness of the optimality cut its duals give. The solves are
        # replayed in order on a fresh subproblem, each kind on its own warm
        # chain, so each starts from the basis it started from in the run
        sub = _prepare(build_mip(inst, MODE_WINDOW))
        for rec in res.trace.records:
            priced = _solve_sub(sub, rec.t_candidate, rec.stabilised)
            assert priced.status == STATUS_OPTIMAL
            assert priced.objective == pytest.approx(rec.subproblem_value, rel=1e-9)
            coefficients, rhs = _master_row(priced.y, sub)
            t = rec.t_candidate
            slack = float(coefficients[: len(t)] @ t) - rhs - priced.objective
            assert abs(slack) <= 1e-6 * (1 + abs(priced.objective))
            stabilised_checked += rec.stabilised
            fractional_checked += rec.candidate == "fractional"
    assert stabilised_checked > 0 and fractional_checked > 0


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

    # degenerate objective ties that cycle under naive pivoting; the
    # negative-cost columns get upper bounds the optimum does not reach
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
        upper=np.array([1.0, np.inf, 2.0, np.inf]),
    )
    out = solve_lp(prob)
    assert out.status == STATUS_OPTIMAL
    assert verify_certificate(prob, out).ok
    assert out.objective == pytest.approx(-1.0 / 20.0, abs=1e-12)


@pytest.mark.parametrize(
    "instance, mode, shape",
    [
        (readme_instance, MODE_WINDOW, (16, 35)),
        (readme_instance, MODE_EXACT_DAY, (13, 23)),
        (port_network_instance, MODE_WINDOW, (30, 62)),
        (port_network_instance, MODE_EXACT_DAY, (26, 46)),
    ],
    ids=["readme-window", "readme-exact-day", "port-window", "port-exact-day"],
)
def test_model_is_the_path_model(instance, mode, shape):
    """``build_mip`` builds the path model, rows x columns: in window mode
    16 x 35 on the README example and 30 x 62 on the port network,
    where the arc model is 185 x 385 and 2,426 x 5,886."""
    assert build_mip(instance(), mode).A.shape == shape


@pytest.mark.parametrize(
    "instance, most_pivots",
    [(readme_instance, 25), (port_network_instance, 60)],
    ids=["readme", "port"],
)
def test_cold_relaxation_pivot_count(instance, most_pivots):
    """The cold LP relaxation reaches its optimum in few pivots: dual Devex
    pricing and the Harris ratio test take 16 on the README example's path
    model and 40 on the port network's, where the arc model took 44 and
    150. Pivot counts repeat exactly, so this gate does not depend on the
    machine."""
    out = solve_lp(lp_from_mip(build_mip(instance(), MODE_WINDOW)))
    assert out.status == STATUS_OPTIMAL
    assert out.pivots <= most_pivots


@pytest.mark.parametrize(
    "instance",
    [readme_instance, port_network_instance, *map(generated_20x5x3x30, (1, 2, 3))],
    ids=["readme", "port", "gen-1", "gen-2", "gen-3"],
)
def test_dense_and_sparse_storage_solve_alike(instance):
    """The LP relaxation stored dense and stored sparse, which runs it on
    the explicit inverse or on the sparse LU, ends in the same status and
    objective, each with duals that certify it."""
    lp = lp_from_mip(build_mip(instance(), MODE_WINDOW))
    outcomes = []
    for A in (as_array(lp.A), sp.csr_matrix(lp.A)):
        problem = LpProblem(lp.objective, A, lp.senses, lp.rhs)
        outcomes.append(solve_lp(problem))
        assert verify_certificate(problem, outcomes[-1]).ok
    dense, sparse = outcomes
    assert dense.status == sparse.status == STATUS_OPTIMAL
    assert dense.objective == pytest.approx(sparse.objective, rel=1e-9)


@pytest.mark.parametrize(
    "instance, sparse",
    [(readme_instance, False), (port_network_instance, False), (generated_20x5x3x30(1), True)],
    ids=["readme", "port", "gen-1"],
)
def test_models_above_dense_rows_are_stored_sparse(instance, sparse):
    """``build_mip`` stores a model of at most ``DENSE_ROWS`` rows as a
    dense array and a taller one as a scipy sparse matrix."""
    model = build_mip(instance(), MODE_WINDOW)
    assert (model.num_rows > DENSE_ROWS) == sparse
    assert sp.issparse(model.A) == sparse


def test_cli_on_a_short_model_never_imports_scipy(tmp_path):
    """In a fresh interpreter, importing the CLI and running ``validate``,
    ``relax``, ``solve`` and ``benders`` on the README example and the port
    network loads no scipy module: a short model is stored dense, its
    Benders subproblem (the model's own rows, 30 on the port) as the model
    is, and scipy is imported only to build or factor a sparse matrix. Nor
    does it load ``numpy.ma``, which a bare ``np.unique`` imports."""
    script = "import sys\nimport intransit.cli as cli\n"
    for name, instance in (("readme", readme_instance), ("port", port_network_instance)):
        instance_dir = str(save_instance(instance(), tmp_path / name))
        script += f"assert cli.run(['validate', '--instance', {instance_dir!r}]) == 0\n"
        for command in ("relax", "solve", "benders"):
            out = str(tmp_path / f"{name}-{command}")
            script += (
                f"assert cli.run([{command!r}, '--instance', {instance_dir!r}, "
                f"'--out', {out!r}]) == 0\n"
            )
    script += (
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('scipy') or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_scale_assembly_and_full_solve():
    """A 100x20x3x60 model assembles in < 10 s and < 2 GB with the
    closed-form variable and row counts; a 20x5x3x30 instance solves to
    proven optimality in < 5 min, with a plan the flow auditor passes."""
    cfg = GeneratorConfig(
        n_products=100, n_suppliers=20, n_gateways=3, horizon_days=60
    )
    inst = generate_synthetic(cfg, seed=1)
    started = time.perf_counter()
    model = build_mip(inst, MODE_WINDOW)
    build_seconds = time.perf_counter() - started
    assert build_seconds < 10.0, f"assembly took {build_seconds:.1f} s"
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 < 2 * GIGABYTE
    assert (model.num_rows, model.num_vars) == expected_shape(inst, MODE_WINDOW)

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
    assert_flows_trace(inst, res.model, res.x_full, "port")
