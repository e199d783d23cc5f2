"""Solution reporting: delivery-lag histograms, scenario tables, exports."""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import IntransitError
from .instance import Instance
from .model import (
    CostBreakdown,
    MipModel,
    VarKey,
    check_solution,
    objective_breakdown,
    solution_flows,
)

LAG_TOL = 1e-6
AUDIT_TOL = 1e-6


def audit_flows(instance: Instance, flows: Mapping[VarKey, float]) -> tuple[str, ...]:
    """Trace every pound of a plan from a real pickup to an on-time delivery.

    Reads only the instance and the plan's shipments keyed by
    :class:`VarKey`, never a model's rows, so a wrong model cannot vouch
    for itself. Stocks (I, N) are recomputed from the shipments and their
    values ignored. Weight of one product is interchangeable at a gateway
    and at the customer, as in the model. The plan passes when:

    - the first-leg shipments of each pickup carry exactly its weight, and
      none leaves from a supplier on a day without a pickup;
    - every shipment arrives inside the horizon;
    - no gateway ships weight it has not yet received or keeps any at the
      end of the horizon;
    - container loads fit in the containers bought;
    - matched first in first out, each pickup reaches the customer within
      ``window_days`` of its pickup day.

    Returns one message per fault found; the plan passes when there are
    none. It checks the window, not exact-day timing. Weights are compared
    to ``AUDIT_TOL`` times one plus the largest pickup.
    """
    nD = instance.horizon_days
    eps = AUDIT_TOL * (1.0 + max(instance.pickups.values(), default=0.0))
    faults: list[str] = []
    picked: dict[tuple[str, str, int], float] = defaultdict(float)
    gateway_net: dict[tuple[str, str], np.ndarray] = defaultdict(lambda: np.zeros(nD))
    arrivals: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(nD))
    loads: dict[tuple[str, int], float] = defaultdict(float)
    boxes: dict[tuple[str, int], float] = {}

    for key, w in flows.items():
        if key.kind in ("I", "N"):
            continue
        if w < -eps:
            faults.append(f"{key} is negative ({w:.6g})")
        if key.kind == "T":
            boxes[key.h, key.d] = w
            continue
        if key.kind in ("X", "Y"):
            times = instance.land_time if key.kind == "X" else instance.air_time
            picked[key.p, key.s, key.d] += w
            lands = key.d + times[key.s, key.h]
            if lands < nD:
                gateway_net[key.p, key.h][lands] += w
        else:
            gateway_net[key.p, key.h][key.d] -= w
            lands = key.d + instance.second_leg_time[key.h]
            if lands < nD:
                arrivals[key.p][lands] += w
            if key.kind == "U":
                loads[key.h, key.d] += w
        if lands >= nD and w > eps:
            faults.append(f"{key} carries {w:.6g} lb that land on day {lands}, past the horizon")

    for pickup in sorted(set(picked) | {k for k, w in instance.pickups.items() if w > 0}):
        want, sent = instance.pickups.get(pickup, 0.0), picked.get(pickup, 0.0)
        if abs(sent - want) > eps:
            p, s, d = pickup
            faults.append(f"first leg moves {sent:.6g} lb of {p} from {s} on day {d}, picked up {want:.6g}")
    for (p, h), net in sorted(gateway_net.items()):
        stock = np.cumsum(net)
        if stock.min() < -eps:
            d = int(np.argmin(stock))
            faults.append(f"{h} ships {-stock[d]:.6g} lb of {p} it has not received by day {d}")
        if stock[-1] > eps:
            faults.append(f"{stock[-1]:.6g} lb of {p} stay at {h} past the horizon")
    for (h, d), load in sorted(loads.items()):
        room = instance.container_capacity * boxes.get((h, d), 0.0)
        if load > room + eps:
            faults.append(f"{h} loads {load:.6g} lb into {room:.6g} lb of containers on day {d}")

    # the checks above keep every arrival after its pickup; by each day,
    # cumulative arrivals must also cover what is due, so that the
    # first-in-first-out match is on time
    due_on: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(nD))
    for (p, _, d), w in instance.pickups.items():
        if w > 0:
            due_on[p][min(d + instance.window_days, nD - 1)] += w
    for p in instance.products:
        late = np.cumsum(due_on[p]) - np.cumsum(arrivals[p])
        if late.max() > eps:
            d = int(np.argmax(late))
            faults.append(f"{late[d]:.6g} lb of {p} due by day {d} have not reached the customer")
    return tuple(faults)


@dataclass(frozen=True)
class HistogramBin:
    weight: float
    products: int


@dataclass
class DeliveryHistogram:
    """Delivered weight binned by pickup-to-delivery lag in days."""

    bins: dict[int, HistogramBin] = field(default_factory=dict)

    @property
    def total_weight(self) -> float:
        return sum(b.weight for b in self.bins.values())

    def max_lag(self) -> int | None:
        return max(self.bins) if self.bins else None

    def export_csv(self, stream: TextIO) -> None:
        writer = csv.writer(stream)
        writer.writerow(["lag_days", "delivered_weight_lbs", "product_count"])
        for lag in sorted(self.bins):
            b = self.bins[lag]
            writer.writerow([lag, f"{b.weight:.6f}", b.products])


def delivery_histogram(model: MipModel, solution: np.ndarray, tol: float = 1e-6) -> DeliveryHistogram:
    """Bin each delivered pound by its pickup-to-delivery lag.

    Arrivals of a product are matched to its pickups first-in-first-out,
    which is consistent with the window constraints: cumulative arrivals
    never trail cumulative due demand. Rejects infeasible solutions.
    """
    report = check_solution(model, solution, tol)
    if not report.ok(tol * (1.0 + abs(float(np.abs(model.rhs).max(initial=0.0))))):
        raise IntransitError(
            f"solution fails feasibility check: residuals {report.family_residuals}, "
            f"integrality {report.max_integrality_violation:.3g}"
        )
    inst = model.instance
    arrivals: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(inst.horizon_days))
    for key, w in solution_flows(model, solution, tol).items():
        if key.kind in ("U", "Z"):
            arrivals[key.p][key.d + inst.second_leg_time[key.h]] += w
    weight_bins: dict[int, float] = {}
    product_bins: dict[int, set[str]] = {}

    for p in inst.products:
        pickups = sorted(
            ((d, inst.pickups[p, s, d]) for (pp, s, d) in inst.pickups if pp == p and inst.pickups[pp, s, d] > 0),
            key=lambda t: t[0],
        )
        # FIFO matching of arrival mass to pickup mass
        pi = 0
        remaining = pickups[pi][1] if pickups else 0.0
        for day in range(inst.horizon_days):
            mass = arrivals[p][day]
            while mass > tol and pi < len(pickups):
                take = min(mass, remaining)
                lag = day - pickups[pi][0]
                weight_bins[lag] = weight_bins.get(lag, 0.0) + take
                product_bins.setdefault(lag, set()).add(p)
                mass -= take
                remaining -= take
                if remaining <= tol:
                    pi += 1
                    remaining = pickups[pi][1] if pi < len(pickups) else 0.0
            if mass > tol and pi >= len(pickups):
                raise IntransitError(
                    f"product {p}: arrivals exceed pickups by {mass:.3g} lbs"
                )

    hist = DeliveryHistogram()
    for lag, w in weight_bins.items():
        hist.bins[lag] = HistogramBin(weight=w, products=len(product_bins[lag]))
    bad = [lag for lag in hist.bins if lag > inst.window_days + LAG_TOL]
    if bad:
        raise IntransitError(f"delivery lag exceeds the window: lags {sorted(bad)}")
    return hist


def consolidation_share(model: MipModel, solution: np.ndarray) -> float | None:
    """FCL-delivered weight over total delivered weight; None if nothing moved."""
    x = np.asarray(solution, dtype=np.float64)
    u, z = (x[cols].sum() for cols in model.path_columns())
    total = u + z
    if total <= 0.0:
        return None
    return float(u / total)


@dataclass(frozen=True)
class ScenarioRow:
    label: str
    containers: float
    costs: CostBreakdown


def _cost_cells(c: CostBreakdown) -> tuple[float, ...]:
    """A row's costs in the report's column order, after label and containers."""
    return (c.fixed_pickup, c.first_leg, c.lcl, c.hold, c.fcl, c.total, c.grand_total)


@dataclass
class ScenarioReport:
    rows: list[ScenarioRow] = field(default_factory=list)

    def export_csv(self, stream: TextIO) -> None:
        writer = csv.writer(stream)
        writer.writerow(
            [
                "label",
                "containers",
                "fixed_pickup_cost",
                "first_leg_cost",
                "lcl_cost",
                "hold_cost",
                "fcl_cost",
                "total",
                "grand_total",
            ]
        )
        for r in self.rows:
            writer.writerow(
                [r.label, f"{r.containers:g}", *(f"{v:.2f}" for v in _cost_cells(r.costs))]
            )

    def format_table(self) -> str:
        headers = [
            "scenario",
            "containers",
            "fixed",
            "first leg",
            "LCL",
            "hold",
            "FCL",
            "total",
            "grand total",
        ]
        body = [
            [r.label, f"{r.containers:g}", *(f"{v:,.2f}" for v in _cost_cells(r.costs))]
            for r in self.rows
        ]
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h) for i, h in enumerate(headers)]
        lines = [
            "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)


def scenario_row(label: str, model: MipModel, solution: np.ndarray) -> ScenarioRow:
    """Build one report row from a solution vector."""
    containers = float(np.asarray(solution)[model.integer_columns].sum())
    return ScenarioRow(label, containers, objective_breakdown(model, solution))


def export_solution_json(
    model: MipModel, solution: np.ndarray, objective: float, path: Path, *, threshold: float = 1e-9
) -> None:
    """Write nonzero variable values keyed by their VarKey string form."""
    variables = {str(k): v for k, v in solution_flows(model, solution, threshold).items()}
    payload = {
        "mode": model.mode,
        "objective": objective,
        "num_variables": model.num_vars,
        "variables": variables,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
