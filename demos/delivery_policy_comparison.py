"""Compare delivery-window flexibility against rigid exact-day delivery.

Solves the same instance twice: once allowing each pickup to arrive any day
inside its delivery window, once forcing arrival exactly at the window's end.
Flexibility can only help: early arrivals let freight wait at the gateway for
a fuller container instead of shipping a half-empty one on a fixed date.
"""

from intransit import (
    MODE_EXACT_DAY,
    MODE_WINDOW,
    GeneratorConfig,
    ScenarioReport,
    generate_synthetic,
    run_benders,
    scenario_row,
)


def main() -> None:
    cfg = GeneratorConfig(
        n_products=3,
        n_suppliers=2,
        n_gateways=2,
        horizon_days=10,
        window_days=6,
    )
    inst = generate_synthetic(cfg, seed=34)

    rows = []
    for label, mode in (("window", MODE_WINDOW), ("exact_day", MODE_EXACT_DAY)):
        result = run_benders(inst, mode)
        rows.append(scenario_row(label, result.model, result.x_full))
        print(f"{label:>10}: ${result.objective:,.2f} "
              f"({result.iterations} iterations)")

    report = ScenarioReport(rows=rows)
    print()
    print(report.format_table())

    window, exact = (row.costs for row in rows)
    saving = exact.total - window.total
    if saving > 1e-6:
        print(f"\nwindow flexibility saves ${saving:,.2f} "
              f"({saving / exact.total:.1%} of the exact-day cost)")
    else:
        print("\nno saving on this instance; the exact-day plan was already "
              "consolidating as well as possible")


if __name__ == "__main__":
    main()
