"""Sparse MIP assembly for the consolidation problem: the path model.

Columns (all nonnegative; times 0-based days):

  T[h,d]  container count at gateway h on day d (integer), on each
          gateway's departure days ``d < horizon - t2(h)``, whose arrival
          lands inside the horizon
  paths   for each positive pickup r, gateway h and departure day d from
          which r's freight can still reach the customer in time, one
          container column and one LCL column: the lbs of r that leave h
          on day d inside containers, or as LCL

A path carries its freight the whole way: on a first leg (land or air)
that lands at h by day d, held at h until d, then on the second leg. It
takes the leg whose rate plus ``hold_h·(d - arrival)`` is least (land wins
a tie), and costs that per lb, plus ``lcl_h`` on the LCL column.

Rows:

  pickup    per positive pickup: its paths carry all its weight
  capacity  per T column (h,d): container lbs leaving then <= capacity * T
  due       per product with K > 1 distinct due days, one per due day but
            the last

A pickup on day d is due on day ``min(d + window, horizon - 1)``. In
window mode a path arrives no later than its product's last due day, and
a due row asks the product's arrivals up to its day to cover what is due
by then. In exact-day mode a path arrives on one of its product's due
days, and a due row asks the arrivals on its day to equal what is due
then. The pickup rows deliver the rest on the last due day, so a product
with one pickup has no due row.

Why this is exact. The flows these columns stand for are the arc model's:
first legs X (land) and Y (air) into gateway stock I, second legs U
(containers) and Z (LCL) out of it, and the customer's early stock N.
Only the capacity rows bind across products, and first legs and stocks
are uncapacitated and priced per lb, so any arc flow splits into
per-pickup paths at no change in cost (flow decomposition on an acyclic
network: Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 3); holding
costs lb-days, whichever pickup's pounds stay. No path costs less than
its column, and a column maps back to arc flows at its price, so both
models have the same optimum at every T: the path form of service network
design (Crainic, EJOR 122, 2000). Pounds of one product are
interchangeable at the customer, so one pickup's freight may arrive after
its own due day if another's came early enough to cover it; the due rows
keep that cumulative balance, which needs checking on due days only,
since what is due changes only there. :func:`solution_flows` expands a
solution into those arc flows, keyed by :class:`VarKey`.

The strong linking rows ``u <= W·T[h,d]``, one per container column, with
W the smaller of the container capacity and the pickup's weight, are valid
but not among the rows: :class:`Linking` lists them for the solvers to
separate where a fractional point violates them (Gendron, Crainic &
Frangioni, 1999).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np
import scipy.sparse as sp

from .errors import InfeasibleInstanceError, ModelError
from .instance import Instance, validate_routes

MODE_WINDOW = "window"
MODE_EXACT_DAY = "exact_day"

FAMILY_PICKUP = "pickup"
FAMILY_CAPACITY = "capacity"
FAMILY_DUE = "due"


# a linking row is violated when u exceeds W·T by more than this times 1 + W
LINKING_TOL = 1e-6


class VarKey(NamedTuple):
    """Key of an arc flow; unused indices are None.

      X[p,s,h,d]  lbs of pickup (p,s,d) sent supplier->gateway by land
      Y[p,s,h,d]  lbs of pickup (p,s,d) sent supplier->gateway by air
      Z[p,h,d]    lbs sent gateway->customer as LCL on day d
      U[p,h,d]    lbs sent gateway->customer inside containers on day d
      T[h,d]      container count at gateway h on day d
      I[p,h,d]    lbs of product p held at gateway h at the start of day d
      N[p,d]      lbs of product p delivered early, on hand at the customer
                  at the start of day d (window mode)
    """

    kind: str
    p: str | None
    s: str | None
    h: str | None
    d: int

    def __str__(self) -> str:
        parts = [x for x in (self.p, self.s, self.h) if x is not None]
        parts.append(str(self.d))
        return f"{self.kind}[{','.join(parts)}]"


class Paths(NamedTuple):
    """The (pickup, gateway, departure day) triples of the path columns.

    Triple i has container column ``n_t + i`` and LCL column
    ``n_t + n + i``, for n_t T columns and n triples, in (pickup, gateway,
    day) order. Pickups are positions in ``Instance.positive_pickups()``,
    gateways in ``Instance.gateways``. Costs are per lb.
    """

    pickup: np.ndarray
    gateway: np.ndarray
    day: np.ndarray  # leaves the gateway
    arrival: np.ndarray  # the first leg lands at the gateway
    air: np.ndarray  # the first leg flies
    first_leg: np.ndarray  # the first leg's rate
    hold: np.ndarray  # hold_h·(day - arrival)
    lcl: np.ndarray  # lcl_h, paid on the LCL column only


class Linking(NamedTuple):
    """The strong linking rows ``u - W·T[h,d] <= 0``, one per container
    column u of a pickup leaving h on day d.

    They never cut off an integral point: at ``T >= 1`` the rows already
    bound u by both the capacity and the pickup's own weight, and at
    ``T = 0`` the capacity row forces ``u = 0``. At a fractional T they
    tighten the weak aggregate capacity row.
    """

    u_cols: np.ndarray
    t_cols: np.ndarray  # the T column of the same gateway and day
    weights: np.ndarray  # W

    def violated(self, x: np.ndarray) -> np.ndarray:
        """Entries whose u value in ``x``, a vector over the model's
        columns, exceeds ``W·T`` by more than the tolerance."""
        excess = x[self.u_cols] - self.weights * x[self.t_cols]
        return np.flatnonzero(excess > LINKING_TOL * (1.0 + self.weights))

    def block(self, entries: np.ndarray, num_cols: int) -> sp.csr_matrix:
        """The rows of ``entries`` over the model's columns, each ``<= 0``."""
        k = len(entries)
        return sp.csr_matrix(
            (
                np.concatenate([np.ones(k), -self.weights[entries]]),
                (
                    np.tile(np.arange(k), 2),
                    np.concatenate([self.u_cols[entries], self.t_cols[entries]]),
                ),
            ),
            shape=(k, num_cols),
        )


@dataclass
class MipModel:
    """Sparse constraint system with objective and integrality marks.

    Rows are stored as ``A x (sense) rhs`` with sense ``=`` or ``<``. The
    T columns come first, one per (``t_gateway``, ``t_day``), in gateway
    then day order; the path columns follow (see :class:`Paths`).
    """

    instance: Instance
    mode: str
    objective: np.ndarray
    A: sp.csr_matrix
    senses: np.ndarray
    rhs: np.ndarray
    row_tags: np.ndarray
    integer_columns: np.ndarray
    t_gateway: np.ndarray  # gateway position of each T column
    t_day: np.ndarray
    paths: Paths
    linking: Linking

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    def path_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The container and the LCL column of each path triple."""
        n_t, n = len(self.integer_columns), len(self.paths.day)
        return n_t + np.arange(n), n_t + n + np.arange(n)

    def family_counts(self) -> dict[str, int]:
        tags, counts = np.unique(self.row_tags, return_counts=True)
        return dict(zip(tags.tolist(), counts.tolist()))

    def export_text(self, stream: TextIO) -> None:
        """Deterministic plain-text dump: one row per line."""
        acsr = self.A
        for r in range(self.num_rows):
            lo, hi = acsr.indptr[r], acsr.indptr[r + 1]
            cols = acsr.indices[lo:hi]
            vals = acsr.data[lo:hi]
            pairs = " ".join(f"{c}:{v:.12g}" for c, v in zip(cols, vals))
            stream.write(
                f"{self.row_tags[r]} {self.senses[r]} {self.rhs[r]:.12g} {pairs}\n"
            )


def _due_day(instance: Instance, day: int) -> int:
    """The day a pickup made on ``day`` is due at the customer."""
    return min(day + instance.window_days, instance.horizon_days - 1)


def _paths(instance: Instance, mode: str) -> Paths:
    """Every path on which a pickup's freight reaches the customer in
    time, priced at its cheapest first leg and holding."""
    gateways = instance.gateways
    pickups = instance.positive_pickups()
    due_days: dict[str, set[int]] = {}
    for p, _, d in pickups:
        due_days.setdefault(p, set()).add(_due_day(instance, d))
    rows = []
    for r, (p, s, d0) in enumerate(pickups):
        days = sorted(due_days[p])
        for hi, h in enumerate(gateways):
            t2, hold = instance.second_leg_time[h], instance.hold_cost[h]
            legs = (
                (instance.land_cost[s, h], d0 + instance.land_time[s, h], False),
                (instance.air_cost[s, h], d0 + instance.air_time[s, h], True),
            )
            first = min(a for _, a, _ in legs)
            if mode == MODE_WINDOW:
                leave = range(first, days[-1] - t2 + 1)
            else:
                leave = [due - t2 for due in days if due - t2 >= first]
            for d in leave:
                # the cheapest leg landing by day d; land wins a tie
                _, air, rate, a = min(
                    (rate + hold * (d - a), air, rate, a) for rate, a, air in legs if a <= d
                )
                rows.append((r, hi, d, a, air, rate, hold * (d - a), instance.lcl_cost[h]))
    columns = list(zip(*rows)) or [()] * len(Paths._fields)
    types = (np.int64, np.int64, np.int64, np.int64, bool, np.float64, np.float64, np.float64)
    return Paths(*(np.array(c, dtype=t) for c, t in zip(columns, types)))


def build_mip(instance: Instance, mode: str = MODE_WINDOW) -> MipModel:
    """Assemble the path model of an instance.

    Raises :class:`InfeasibleInstanceError` if the instance fails
    :func:`validate_routes`. Every model built is then feasible: each
    pickup's own on-time path, all of it sent LCL, is a plan at ``T = 0``.
    """
    if mode not in (MODE_WINDOW, MODE_EXACT_DAY):
        raise ModelError(f"unknown mode {mode!r}")
    issues = validate_routes(instance).issues
    if issues:
        first = issues[0]
        raise InfeasibleInstanceError(
            f"pickup ({first.product}, {first.supplier}, day {first.day}) {first.reason} "
            f"({len(issues)} pickup(s) fail route validation)"
        )

    gateways = instance.gateways
    t2 = np.array([instance.second_leg_time[h] for h in gateways], dtype=np.int64)
    departures = np.maximum(instance.horizon_days - t2, 0)
    t_gateway = np.repeat(np.arange(len(gateways)), departures)
    t_start = np.concatenate(([0], np.cumsum(departures)))
    t_day = np.arange(len(t_gateway)) - t_start[t_gateway]
    n_t = len(t_gateway)

    paths = _paths(instance, mode)
    n = len(paths.day)
    u_cols, z_cols = n_t + np.arange(n), n_t + n + np.arange(n)
    t_of_path = t_start[paths.gateway] + paths.day
    pickups = instance.positive_pickups()
    weight = np.array([instance.pickups[key] for key in pickups])

    # rows: one per pickup over its paths, one capacity row per T column,
    # then the due rows of each product with more than one due day
    rows_r = [paths.pickup, paths.pickup, len(pickups) + t_of_path, len(pickups) + np.arange(n_t)]
    rows_c = [u_cols, z_cols, u_cols, np.arange(n_t)]
    rows_v = [np.ones(n), np.ones(n), np.ones(n), np.full(n_t, -instance.container_capacity)]
    rhs = [*weight, *np.zeros(n_t)]
    senses = ["="] * len(pickups) + ["<"] * n_t

    due = np.array([_due_day(instance, d) for _, _, d in pickups], dtype=np.int64)
    p_index = {p: i for i, p in enumerate(instance.products)}
    product = np.array([p_index[p] for p, _, _ in pickups], dtype=np.int64)
    path_product = product[paths.pickup]
    lands = paths.day + t2[paths.gateway]
    for p in range(len(instance.products)):
        mine = product == p
        for day in np.unique(due[mine])[:-1]:
            if mode == MODE_WINDOW:
                # arrivals by day cover what is due by then, as a <= row
                cols = np.flatnonzero((path_product == p) & (lands <= day))
                sign, sense, owed = -1.0, "<", weight[mine & (due <= day)].sum()
            else:
                cols = np.flatnonzero((path_product == p) & (lands == day))
                sign, sense, owed = 1.0, "=", weight[mine & (due == day)].sum()
            rows_r.append(np.full(2 * len(cols), len(rhs)))
            rows_c.append(np.concatenate([u_cols[cols], z_cols[cols]]))
            rows_v.append(np.full(2 * len(cols), sign))
            rhs.append(sign * owed)
            senses.append(sense)

    m = len(rhs)
    A = sp.csr_matrix(
        (np.concatenate(rows_v), (np.concatenate(rows_r), np.concatenate(rows_c))),
        shape=(m, n_t + 2 * n),
    )
    fcl = np.array([instance.fcl_cost[h] for h in gateways])
    carried = paths.first_leg + paths.hold
    tags = [FAMILY_PICKUP] * len(pickups) + [FAMILY_CAPACITY] * n_t
    tags += [FAMILY_DUE] * (m - len(tags))

    return MipModel(
        instance=instance,
        mode=mode,
        objective=np.concatenate([fcl[t_gateway], carried, carried + paths.lcl]),
        A=A,
        senses=np.array(senses, dtype="<U1"),
        rhs=np.array(rhs, dtype=np.float64),
        row_tags=np.array(tags),
        integer_columns=np.arange(n_t),
        t_gateway=t_gateway,
        t_day=t_day,
        paths=paths,
        linking=Linking(
            u_cols=u_cols,
            t_cols=t_of_path,
            weights=np.minimum(instance.container_capacity, weight[paths.pickup]),
        ),
    )


def solution_flows(model: MipModel, solution: np.ndarray, threshold: float = 1e-9) -> dict[VarKey, float]:
    """The arc flows a solution stands for, by VarKey, those above
    ``threshold`` in magnitude.

    Each path column above ``threshold`` puts its lbs on its pickup's
    first leg (X or Y), in stock at its gateway (I) from the day after the
    leg lands to the day it leaves, and on its second leg (U or Z) that
    day. T is the solution's. In window mode, N on day d is the product's
    arrivals before d less what was due before d.
    """
    inst = model.instance
    x = np.asarray(solution, dtype=np.float64)
    flows: dict[VarKey, float] = defaultdict(float)
    for col, h, d in zip(model.integer_columns, model.t_gateway, model.t_day):
        if abs(x[col]) > threshold:
            flows[VarKey("T", None, None, inst.gateways[h], int(d))] = float(x[col])
    pickups = inst.positive_pickups()
    paths = model.paths
    arrivals: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(inst.horizon_days))
    for kind, cols in zip(("U", "Z"), model.path_columns()):
        for i in np.flatnonzero(np.abs(x[cols]) > threshold):
            w = float(x[cols[i]])
            p, s, picked = pickups[paths.pickup[i]]
            h, d = inst.gateways[paths.gateway[i]], int(paths.day[i])
            flows[VarKey("Y" if paths.air[i] else "X", p, s, h, picked)] += w
            for held in range(int(paths.arrival[i]) + 1, d + 1):
                flows[VarKey("I", p, None, h, held)] += w
            flows[VarKey(kind, p, None, h, d)] += w
            arrivals[p][d + inst.second_leg_time[h]] += w
    if model.mode == MODE_WINDOW:
        due_on: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(inst.horizon_days))
        for p, s, d in pickups:
            due_on[p][_due_day(inst, d)] += inst.pickups[p, s, d]
        for p, arrived in arrivals.items():
            early = np.cumsum(arrived - due_on[p])[:-1]
            for d in np.flatnonzero(np.abs(early) > threshold):
                flows[VarKey("N", p, None, None, int(d) + 1)] = float(early[d])
    return dict(flows)


@dataclass(frozen=True)
class CostBreakdown:
    """Objective split into its cost components plus the fixed line."""

    first_leg: float
    lcl: float
    hold: float
    fcl: float
    fixed_pickup: float

    @property
    def total(self) -> float:
        return self.first_leg + self.lcl + self.hold + self.fcl

    @property
    def grand_total(self) -> float:
        return self.total + self.fixed_pickup


def _solution(model: MipModel, solution: np.ndarray) -> np.ndarray:
    x = np.asarray(solution, dtype=np.float64)
    if x.shape != (model.num_vars,):
        raise ModelError(
            f"solution length {x.shape} does not match {model.num_vars} columns"
        )
    return x


def objective_breakdown(model: MipModel, solution: np.ndarray) -> CostBreakdown:
    """Recompute cost components from a solution vector.

    The pickup fixed cost is a post-hoc reporting line: fixed cost times the
    number of positive-weight pickup events, never part of the objective.
    """
    x = _solution(model, solution)
    u, z = model.path_columns()
    paths = model.paths
    carried = x[u] + x[z]
    t = model.integer_columns
    return CostBreakdown(
        first_leg=float(paths.first_leg @ carried),
        lcl=float(paths.lcl @ x[z]),
        hold=float(paths.hold @ carried),
        fcl=float(model.objective[t] @ x[t]),
        fixed_pickup=model.instance.pickup_fixed_cost * len(model.instance.positive_pickups()),
    )


@dataclass(frozen=True)
class ResidualReport:
    """Max-residual summary of a candidate solution against the model."""

    family_residuals: dict[str, float]
    max_integrality_violation: float
    max_negativity: float

    def ok(self, tol: float) -> bool:
        worst = max(self.family_residuals.values(), default=0.0)
        return (
            worst <= tol
            and self.max_integrality_violation <= tol
            and self.max_negativity <= tol
        )


def check_solution(model: MipModel, solution: np.ndarray, tol: float = 1e-6) -> ResidualReport:
    """Report constraint residuals per row family (pickup, capacity, due),
    T integrality drift, and negativity."""
    x = _solution(model, solution)
    resid = model.A @ x - model.rhs
    le = model.senses == "<"
    resid_mag = np.abs(resid)
    resid_mag[le] = np.maximum(resid[le], 0.0)
    families: dict[str, float] = {}
    for tag in (FAMILY_PICKUP, FAMILY_CAPACITY, FAMILY_DUE):
        mask = model.row_tags == tag
        families[tag] = float(resid_mag[mask].max()) if mask.any() else 0.0
    t_vals = x[model.integer_columns]
    integrality = float(np.abs(t_vals - np.round(t_vals)).max()) if len(t_vals) else 0.0
    negativity = float(np.maximum(-x, 0.0).max()) if len(x) else 0.0
    return ResidualReport(
        family_residuals=families,
        max_integrality_violation=integrality,
        max_negativity=negativity,
    )
