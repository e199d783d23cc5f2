"""Show what the LP relaxation does to container decisions.

On a small single-lane instance the relaxation buys a fractional slice of a
container and prices every consolidated pound at the container's per-pound
rate. Because that rate beats LCL here, the relaxed plan carries no LCL
freight at all, and its objective is a strict lower bound on the integer
optimum, which must pay the LCL rate for anything short of a whole box.

That fractional slice is what a strong linking row ``U <= W·T`` removes,
with W the 1,000 lb the product ships in all: the monolithic solver adds
the violated rows at its root, and the root bound it then proves is shown
beside the relaxation's.
"""

from intransit import (
    MODE_WINDOW,
    build_mip,
    lp_relaxation,
    run_benders,
    solution_flows,
    solve_milp,
)
from intransit.instance import Instance


def lane_instance() -> Instance:
    return Instance(
        horizon_days=10,
        window_days=4,
        products=["p0"],
        suppliers=["s0"],
        gateways=["g0"],
        pickups={("p0", "s0", 0): 1000.0},
        land_cost={("s0", "g0"): 0.30},
        air_cost={("s0", "g0"): 0.90},
        land_time={("s0", "g0"): 2},
        air_time={("s0", "g0"): 1},
        lcl_cost={"g0": 0.20},
        fcl_cost={"g0": 4800.0},
        hold_cost={"g0": 0.005},
        second_leg_time={"g0": 1},
        container_capacity=48000.0,
    )


def main() -> None:
    inst = lane_instance()
    per_pound_fcl = inst.fcl_cost["g0"] / inst.container_capacity
    print(f"LCL rate:            ${inst.lcl_cost['g0']:.3f}/lb")
    print(f"full-container rate: ${per_pound_fcl:.3f}/lb (if the box were full)")

    relaxed_obj, relaxed_x, relaxed_parts = lp_relaxation(inst, MODE_WINDOW)
    model = build_mip(inst, MODE_WINDOW)
    flows = solution_flows(model, relaxed_x)
    t_total = sum(w for key, w in flows.items() if key.kind == "T")
    z_total = sum(w for key, w in flows.items() if key.kind == "Z")
    print(f"\nrelaxation objective: ${relaxed_obj:.2f}")
    print(f"  fractional containers bought: {t_total:.4f}")
    print(f"  LCL pounds shipped:           {z_total:.1f}")
    print("  the relaxation pays the full-container rate on a sliver of a box,")
    print("  so LCL never enters the optimal relaxed plan here")

    root_bound = solve_milp(model).root_bound
    print(f"\nroot bound after the linking rounds: ${root_bound:.2f}")
    weight = inst.total_demand()
    print(f"  U <= {weight:,.0f}·T makes each pound in a box buy 1/{weight:,.0f} of it,")
    print(f"  ${inst.fcl_cost['g0'] / weight:.2f}/lb against LCL's "
          f"${inst.lcl_cost['g0']:.2f}/lb, which lifts the bound by "
          f"${root_bound - relaxed_obj:.2f}")

    result = run_benders(inst, MODE_WINDOW)
    parts = result.breakdown
    print(f"\ninteger optimum:      ${result.objective:.2f}")
    print(f"  first leg ${parts.first_leg:.2f}, LCL ${parts.lcl:.2f}, "
          f"holding ${parts.hold:.2f}, containers ${parts.fcl:.2f}")
    gap = result.objective - relaxed_obj
    print(f"\nintegrality gap: ${gap:.2f}; 1000 lbs is nowhere near the "
          f"{inst.container_capacity:,.0f} lb box, so whole containers lose to LCL")

    frac = relaxed_parts.fcl / relaxed_obj if relaxed_obj else 0.0
    print(f"(container spend is {frac:.0%} of the relaxed objective)")


if __name__ == "__main__":
    main()
