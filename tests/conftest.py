"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from intransit import GeneratorConfig, Instance, generate_synthetic


def build_instance(
    *,
    horizon_days=10,
    window_days=4,
    products=("p0",),
    suppliers=("s0",),
    gateways=("g0",),
    pickups=None,
    land_cost=0.30,
    air_cost=None,
    land_time=2,
    air_time=1,
    lcl_cost=0.20,
    fcl_cost=4800.0,
    hold_cost=0.005,
    second_leg_time=1,
    container_capacity=48000.0,
    pickup_fixed_cost=80.0,
):
    """A small instance with uniform rates; scalar arguments are broadcast.

    Dict arguments are taken as-is so individual tests can vary one pair
    or one gateway without spelling out the whole table.
    """
    products = list(products)
    suppliers = list(suppliers)
    gateways = list(gateways)
    pairs = [(s, h) for s in suppliers for h in gateways]

    def per_pair(value):
        return dict(value) if isinstance(value, dict) else {k: value for k in pairs}

    def per_gateway(value):
        return dict(value) if isinstance(value, dict) else {h: value for h in gateways}

    if pickups is None:
        pickups = {(products[0], suppliers[0], 0): 1000.0}
    if air_cost is None:
        air_cost = {k: 3.0 * v for k, v in per_pair(land_cost).items()}
    return Instance(
        horizon_days=horizon_days,
        window_days=window_days,
        products=products,
        suppliers=suppliers,
        gateways=gateways,
        pickups=dict(pickups),
        land_cost=per_pair(land_cost),
        air_cost=per_pair(air_cost),
        land_time=per_pair(land_time),
        air_time=per_pair(air_time),
        lcl_cost=per_gateway(lcl_cost),
        fcl_cost=per_gateway(fcl_cost),
        hold_cost=per_gateway(hold_cost),
        second_leg_time=per_gateway(second_leg_time),
        container_capacity=container_capacity,
        pickup_fixed_cost=pickup_fixed_cost,
    )


@pytest.fixture
def tiny_instance():
    return build_instance()


def route_invalid_instance():
    """A pickup whose window closes before even air freight can land."""
    return build_instance(window_days=2, land_time=4, air_time=3)


def random_small_config(rng):
    """A small generator config; the acceptance sweep draws its instances
    from these."""
    # horizon leaves room for the delivery window, keeping routes feasible
    window = int(rng.integers(4, 10))
    return GeneratorConfig(
        n_products=int(rng.integers(1, 4)),
        n_suppliers=int(rng.integers(1, 3)),
        n_gateways=int(rng.integers(1, 3)),
        horizon_days=min(12, window + int(rng.integers(2, 4))),
        window_days=window,
    )


def readme_instance():
    """The README example: 5 products, 2 suppliers, 2 gateways, 12 days,
    window 6, seed 4."""
    cfg = GeneratorConfig(
        n_products=5, n_suppliers=2, n_gateways=2, horizon_days=12, window_days=6
    )
    return generate_synthetic(cfg, seed=4)


@pytest.fixture
def master_outcomes(monkeypatch):
    """The outcome of every master tree ``run_benders`` solves in the test."""
    import intransit.benders as bd

    outcomes = []
    solve = bd.solve_milp

    def recorded(*args, **kwargs):
        outcomes.append(solve(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(bd, "solve_milp", recorded)
    return outcomes


@pytest.fixture
def east_coast_ports():
    """Three-gateway instance with the published port rate card."""
    gateways = ["jacksonville", "elizabeth", "miami"]
    return build_instance(
        horizon_days=20,
        window_days=9,
        gateways=gateways,
        pickups={("p0", "s0", 0): 12000.0},
        lcl_cost={"jacksonville": 0.2550, "elizabeth": 0.1713, "miami": 0.1602},
        fcl_cost={"jacksonville": 4773.00, "elizabeth": 4805.46, "miami": 3888.00},
        second_leg_time={"jacksonville": 1, "elizabeth": 2, "miami": 1},
        land_time=3,
        air_time=1,
    )


def assert_instances_equal(a: Instance, b: Instance) -> None:
    assert a.horizon_days == b.horizon_days
    assert a.window_days == b.window_days
    assert a.products == b.products
    assert a.suppliers == b.suppliers
    assert a.gateways == b.gateways
    assert a.container_capacity == b.container_capacity
    assert a.pickup_fixed_cost == b.pickup_fixed_cost
    for name in (
        "pickups",
        "land_cost",
        "air_cost",
        "land_time",
        "air_time",
        "lcl_cost",
        "fcl_cost",
        "hold_cost",
        "second_leg_time",
    ):
        da, db = getattr(a, name), getattr(b, name)
        assert set(da) == set(db), name
        for key in da:
            # rates stored per 100 lbs pick up one ulp of unit-conversion noise
            assert da[key] == pytest.approx(db[key], rel=1e-12), (name, key)


def solution_vector(model, assignments: dict) -> np.ndarray:
    """Dense solution vector from {column: value}."""
    x = np.zeros(model.num_vars)
    for col, val in assignments.items():
        x[col] = val
    return x


def expected_shape(instance, mode) -> tuple[int, int]:
    """Rows and columns of ``build_mip``'s path model, worked out from the
    instance. Columns: T on each gateway's departure days, then a container
    and an LCL column per positive pickup, gateway and departure day on or
    after the pickup's faster (air) leg lands, whose freight reaches the
    customer by its product's last due day in window mode, or on one of
    them in exact-day mode. Rows: one per positive pickup, a capacity row
    per T column, and a due row per due day of a product but its last."""
    nD = instance.horizon_days
    pickups = [(p, s, d) for (p, s, d), w in instance.pickups.items() if w > 0]
    due_days = {}
    for p, _, d in pickups:
        due_days.setdefault(p, set()).add(min(d + instance.window_days, nD - 1))
    n_t = sum(max(0, nD - instance.second_leg_time[h]) for h in instance.gateways)
    paths = 0
    for p, s, d in pickups:
        for h in instance.gateways:
            t2, lands = instance.second_leg_time[h], d + instance.air_time[s, h]
            if mode == "window":
                paths += max(0, max(due_days[p]) - t2 - lands + 1)
            else:
                paths += sum(due - t2 >= lands for due in due_days[p])
    rows = len(pickups) + n_t + sum(len(days) - 1 for days in due_days.values())
    return rows, n_t + 2 * paths


def path_column(model, pickup, gateway, day, container=False) -> int:
    """The container (or LCL) column of ``pickup`` (product, supplier, day)
    leaving ``gateway`` on ``day``."""
    r = model.instance.positive_pickups().index(pickup)
    h = model.instance.gateways.index(gateway)
    paths = model.paths
    (i,) = np.flatnonzero((paths.pickup == r) & (paths.gateway == h) & (paths.day == day))
    u_cols, z_cols = model.path_columns()
    return int((u_cols if container else z_cols)[i])


def t_column(model, gateway, day) -> int:
    """The T column of ``gateway`` on ``day``."""
    h = model.instance.gateways.index(gateway)
    (j,) = np.flatnonzero((model.t_gateway == h) & (model.t_day == day))
    return int(model.integer_columns[j])


def highs_objective(model, *, relaxed=False) -> float:
    """The optimum HiGHS (``scipy.optimize.milp``) proves for an assembled
    model, path or arc, container counts integer unless ``relaxed``."""
    A = sp.csr_matrix(model.A)
    le = model.senses == "<"
    constraints = []
    if le.any():
        constraints.append(LinearConstraint(A[le], -np.inf, model.rhs[le]))
    if (~le).any():
        constraints.append(LinearConstraint(A[~le], model.rhs[~le], model.rhs[~le]))
    integrality = np.zeros(model.num_vars)
    if not relaxed:
        integrality[np.asarray(model.integer_columns)] = 1
    res = milp(
        model.objective,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(0, np.inf),
        options={"mip_rel_gap": 1e-10},
    )
    assert res.status == 0, f"HiGHS stopped with status {res.status}: {res.message}"
    return float(res.fun)


def strong_lp_bound(model) -> float:
    """The LP optimum HiGHS (``scipy.optimize.linprog``) finds for a
    model's own rows plus every strong linking row, containers continuous.
    On the arc reference (``arc_model.build_mip``) this is the bound the
    path model's root rounds must reach where every product has one
    pickup: there the two models' linking rows are the same rows."""
    link = model.linking
    linking_rows = link.block(np.arange(len(link.u_cols)), model.num_vars)
    le = model.senses == "<"
    res = linprog(
        model.objective,
        A_ub=sp.vstack([model.A[le], linking_rows]),
        b_ub=np.concatenate([model.rhs[le], np.zeros(len(link.u_cols))]),
        A_eq=model.A[~le],
        b_eq=model.rhs[~le],
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, f"HiGHS stopped with status {res.status}: {res.message}"
    return float(res.fun)
