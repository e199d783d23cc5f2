"""Run the decomposition solver on a synthetic instance and narrate the trace.

Generates a mid-size instance, solves it, and prints one line per subproblem
solve: whether it priced a stabilised point of a root round, the root's own
fractional container counts, or an integral node, the master tree's lower
bound climbing, the incumbent upper bound falling, and the kind of cut the
solve produced. While the root's container counts are fractional, each round
prices a point halfway between them and a core point first, and the root's
own counts only if that cut misses the root; the rounds end when no cut cuts
the root off. Then the subproblem is priced whenever a node of the master's
branch-and-bound tree has integral container counts; the last line carries
the bound the tree proved when it closed. Ends with the delivery-lag
histogram for the optimal plan.
"""

import io

from intransit import (
    MODE_WINDOW,
    GeneratorConfig,
    delivery_histogram,
    generate_synthetic,
    run_benders,
    solution_flows,
)


def main() -> None:
    cfg = GeneratorConfig(
        n_products=6,
        n_suppliers=2,
        n_gateways=2,
        horizon_days=14,
        window_days=6,
        weight_min=2000.0,
        weight_max=30000.0,
        container_capacity=40000.0,
    )
    inst = generate_synthetic(cfg, seed=11)
    total = sum(inst.pickups.values())
    print(f"instance: {len(inst.products)} products, {total:,.0f} lbs total, "
          f"{inst.container_capacity:,.0f} lb containers")

    result = run_benders(inst, MODE_WINDOW)
    print(f"\n{'solve':>5} {'candidate':>10} {'lower':>12} {'upper':>12} {'gap':>10}  cut")
    for rec in result.trace.records:
        ub = f"{rec.upper:12.2f}" if rec.upper < float("inf") else f"{'--':>12}"
        print(f"{rec.iteration:>5} {rec.candidate:>10} {rec.lower:12.2f} {ub} {rec.gap:10.2e}  "
              f"{'optimality' if rec.cut else '--'}")

    print(f"\nstatus: {result.status}, objective ${result.objective:,.2f} "
          f"after {result.iterations} subproblem solves")
    containers = {
        key: count
        for key, count in solution_flows(result.model, result.x_full).items()
        if key.kind == "T" and count > 0.5
    }
    if containers:
        print("containers bought:")
        for key, count in containers.items():
            print(f"  {key}: {count:.0f}")
    else:
        print("no consolidation pays at these rates; everything moves LCL")

    hist = delivery_histogram(result.model, result.x_full)
    buf = io.StringIO()
    hist.export_csv(buf)
    print("\ndelivery lag histogram:")
    print(buf.getvalue().rstrip())


if __name__ == "__main__":
    main()
