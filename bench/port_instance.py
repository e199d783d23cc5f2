"""The acceptance port network, kept here so edits to the test suite
cannot move the benchmark."""

import numpy as np

from intransit import Instance


def port_network_instance(weight_seed: int = 7) -> Instance:
    """A 20-product, 5-supplier, 3-gateway, 30-day planning problem.

    Two pickup waves land heavy freight at the first gateway, where full
    containers are priced well below the break-even fill; the other two
    gateways price containers above break-even, so the optimal plan
    consolidates at one port. ``weight_seed`` draws the pickup weights.
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
    rng = np.random.default_rng(weight_seed)
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
