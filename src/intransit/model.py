"""MIP assembly for the consolidation problem: the path model.

Columns (all nonnegative; times 0-based days):

  T[h,d]  container count at gateway h on day d (integer), one per
          gateway and day that some container column leaves on
  paths   the lbs of positive pickup r that leave gateway h on day d
          inside containers, or as LCL, on a path that reaches the
          customer in time: a container column per such path that costs
          less than r's LCL column of its due bucket, and one LCL column
          per pickup and due bucket, its cheapest LCL path (ties: first in
          gateway, day order)

A path carries its freight the whole way: on a first leg (land or air)
that lands at h by day d, held at h until d, then on the second leg. It
takes the leg whose rate plus ``hold_h·(d - arrival)`` is least (land wins
a tie), and costs that per lb, plus ``lcl_h`` as LCL. Its due bucket is
the due day it counts toward: the first due day of its product on or
after it lands in window mode, the day it lands in exact-day mode.

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

Why only these paths. The paths of one pickup and due bucket share their
pickup row and their due rows; a container column also stands in one
capacity row, an LCL column in none. So an LCL path other than its
bucket's cheapest has that column's entries at no lower cost, and a
container path that costs no less than that column can hand it its lbs at
no greater cost, which leaves every capacity and linking row slacker.
Neither is needed for an optimum at any T, of the LP, the LP with the
linking rows, or the MILP, so neither is built. A T column of a gateway
and day that no kept container column leaves on would stand only in its
own capacity row ``-cap·T <= 0`` and in the objective at ``fcl_h >= 0``,
and in no linking row; setting it to 0 keeps every plan feasible at no
greater cost, so neither it nor its row is built either.

The strong linking rows ``u <= W·T[h,d]``, one per container column, with
W the smaller of the container capacity and the pickup's weight, are valid
but not among the rows: :class:`Linking` lists them for the solvers to
separate where a fractional point violates them (Gendron, Crainic &
Frangioni, 1999).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InfeasibleInstanceError, ModelError
from .instance import Instance, validate_routes
from .simplex import issparse

if TYPE_CHECKING:
    import scipy.sparse as sp

MODE_WINDOW = "window"
MODE_EXACT_DAY = "exact_day"

FAMILY_PICKUP = "pickup"
FAMILY_CAPACITY = "capacity"
FAMILY_DUE = "due"


# a linking row is violated when u exceeds W·T by more than this times 1 + W
LINKING_TOL = 1e-6

# A model of at most this many rows stores A as a dense array, a taller one
# as CSR; the storage picks the simplex basis. The Benders subproblem is the
# model's own LP, its linking rows column bounds, so it has the model's
# rows and storage. In alternating runs the dense basis solved the
# relaxation, the tree and the decomposition of every generated model up to
# 42 rows faster; from 43 rows the decomposition ran slower, as every warm
# start's dense inverse costs O(m^3)
DENSE_ROWS = 42


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
    """The path columns, entry i the column ``n_t + i`` after the n_t T
    columns: the container columns, then the LCL columns, each in
    (pickup, gateway, day) order. Pickups are positions in
    ``Instance.positive_pickups()``, gateways in ``Instance.gateways``.
    Costs are per lb.
    """

    pickup: np.ndarray
    gateway: np.ndarray
    day: np.ndarray  # leaves the gateway
    arrival: np.ndarray  # the first leg lands at the gateway
    air: np.ndarray  # the first leg flies
    first_leg: np.ndarray  # the first leg's rate
    hold: np.ndarray  # hold_h·(day - arrival)
    lcl: np.ndarray  # lcl_h on an LCL column, 0 on a container column
    container: np.ndarray  # the column carries freight inside containers


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

    def block(self, entries: np.ndarray, A) -> np.ndarray | sp.csr_matrix:
        """The rows of ``entries`` over the columns of ``A``, each ``<= 0``,
        stored as ``A`` is: CSR if it is sparse, else dense."""
        k = len(entries)
        return _matrix(
            np.concatenate([np.ones(k), -self.weights[entries]]),
            np.tile(np.arange(k), 2),
            np.concatenate([self.u_cols[entries], self.t_cols[entries]]),
            (k, A.shape[1]),
            sparse=issparse(A),
        )


def _matrix(values, rows, cols, shape, *, sparse: bool) -> np.ndarray | sp.csr_matrix:
    """The matrix of the entries ``(rows, cols, values)``, as CSR or as a
    dense array; a repeated position sums, as in CSR."""
    if sparse:
        import scipy.sparse as sp

        return sp.csr_matrix((values, (rows, cols)), shape=shape)
    A = np.zeros(shape)
    np.add.at(A, (rows, cols), values)
    return A


@dataclass
class MipModel:
    """Constraint system with objective and integrality marks.

    Rows are stored as ``A x (sense) rhs`` with sense ``=`` or ``<``; ``A``
    is a dense array if there are at most ``DENSE_ROWS`` rows, else a CSR
    matrix. The T columns come first, one per (``t_gateway``, ``t_day``)
    that some container column leaves on, in gateway then day order, each
    with its capacity row; the path columns follow (see :class:`Paths`).
    """

    instance: Instance
    mode: str
    objective: np.ndarray
    A: np.ndarray | sp.csr_matrix
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

    def path_columns(self) -> np.ndarray:
        """The column of each entry of :attr:`paths`."""
        return len(self.integer_columns) + np.arange(len(self.paths.day))

    def family_counts(self) -> dict[str, int]:
        tags, counts = np.unique(self.row_tags, return_counts=True)
        return dict(zip(tags.tolist(), counts.tolist()))


def _due_day(instance: Instance, day: int) -> int:
    """The day a pickup made on ``day`` is due at the customer."""
    return min(day + instance.window_days, instance.horizon_days - 1)


def _paths(instance: Instance, mode: str) -> Paths:
    """The path columns an optimum can use: on each path by which a
    pickup's freight reaches the customer in time, priced at its cheapest
    first leg and holding, a container column if it costs less than the
    pickup's LCL column of the same due bucket; one LCL column per pickup
    and due bucket, its cheapest LCL path (ties: first in gateway, day
    order)."""
    gateways = instance.gateways
    pickups = instance.positive_pickups()
    due_days: dict[str, set[int]] = {}
    for p, _, d in pickups:
        due_days.setdefault(p, set()).add(_due_day(instance, d))
    found = []  # (path, its cost by container, its pickup and due bucket)
    cheapest: dict[tuple[int, int], tuple] = {}  # bucket -> (LCL cost, path)
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
                held, lcl = hold * (d - a), instance.lcl_cost[h]
                path = (r, hi, d, a, air, rate, held, lcl)
                # the first due day on or after it lands: in exact-day mode,
                # the day it lands
                bucket = (r, days[bisect_left(days, d + t2)])
                found.append((path, rate + held, bucket))
                if bucket not in cheapest or rate + held + lcl < cheapest[bucket][0]:
                    cheapest[bucket] = (rate + held + lcl, path)
    rows = [(*path[:-1], 0.0, True) for path, carried, b in found if carried < cheapest[b][0]]
    rows += [(*path, False) for path in sorted(path for _, path in cheapest.values())]
    columns = list(zip(*rows)) or [()] * len(Paths._fields)
    types = (np.int64, np.int64, np.int64, np.int64, bool, np.float64, np.float64, np.float64, bool)
    return Paths(*(np.array(c, dtype=t) for c, t in zip(columns, types)))


def build_mip(instance: Instance, mode: str = MODE_WINDOW) -> MipModel:
    """Assemble the path model of an instance.

    Raises :class:`InfeasibleInstanceError` if the instance fails
    :func:`validate_routes`. Every model built is then feasible: each
    pickup sent whole on the LCL column of an on-time path's due bucket
    is a plan at ``T = 0``. ``A`` is dense up to ``DENSE_ROWS`` rows and
    CSR above, so building and solving a short model never imports scipy.
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
    paths = _paths(instance, mode)
    box = paths.container
    # one T column per (gateway, day) some container column leaves on
    keys, t_of_box = np.unique(
        paths.gateway[box] * instance.horizon_days + paths.day[box], return_inverse=True
    )
    t_gateway, t_day = np.divmod(keys, instance.horizon_days)
    n_t, n = len(keys), len(paths.day)
    cols = n_t + np.arange(n)
    pickups = instance.positive_pickups()
    weight = np.array([instance.pickups[key] for key in pickups])

    # rows: one per pickup over its paths, one capacity row per T column,
    # then the due rows of each product with more than one due day
    rows_r = [paths.pickup, len(pickups) + t_of_box, len(pickups) + np.arange(n_t)]
    rows_c = [cols, cols[box], np.arange(n_t)]
    rows_v = [np.ones(n), np.ones(len(t_of_box)), np.full(n_t, -instance.container_capacity)]
    rhs = [*weight, *np.zeros(n_t)]
    senses = ["="] * len(pickups) + ["<"] * n_t

    due = np.array([_due_day(instance, d) for _, _, d in pickups], dtype=np.int64)
    p_index = {p: i for i, p in enumerate(instance.products)}
    product = np.array([p_index[p] for p, _, _ in pickups], dtype=np.int64)
    path_product = product[paths.pickup]
    lands = paths.day + t2[paths.gateway]
    for p in range(len(instance.products)):
        mine = product == p
        # not np.unique: its bare form imports numpy.ma
        for day in sorted(set(due[mine].tolist()))[:-1]:
            if mode == MODE_WINDOW:
                # arrivals by day cover what is due by then, as a <= row
                on = (path_product == p) & (lands <= day)
                sign, sense, owed = -1.0, "<", weight[mine & (due <= day)].sum()
            else:
                on = (path_product == p) & (lands == day)
                sign, sense, owed = 1.0, "=", weight[mine & (due == day)].sum()
            rows_r.append(np.full(on.sum(), len(rhs)))
            rows_c.append(cols[on])
            rows_v.append(np.full(on.sum(), sign))
            rhs.append(sign * owed)
            senses.append(sense)

    m = len(rhs)
    A = _matrix(
        np.concatenate(rows_v),
        np.concatenate(rows_r),
        np.concatenate(rows_c),
        (m, n_t + n),
        sparse=m > DENSE_ROWS,
    )
    fcl = np.array([instance.fcl_cost[h] for h in gateways])
    tags = [FAMILY_PICKUP] * len(pickups) + [FAMILY_CAPACITY] * n_t
    tags += [FAMILY_DUE] * (m - len(tags))

    return MipModel(
        instance=instance,
        mode=mode,
        objective=np.concatenate([fcl[t_gateway], paths.first_leg + paths.hold + paths.lcl]),
        A=A,
        senses=np.array(senses, dtype="<U1"),
        rhs=np.array(rhs, dtype=np.float64),
        row_tags=np.array(tags),
        integer_columns=np.arange(n_t),
        t_gateway=t_gateway,
        t_day=t_day,
        paths=paths,
        linking=Linking(
            u_cols=cols[box],
            t_cols=t_of_box,
            weights=np.minimum(instance.container_capacity, weight[paths.pickup[box]]),
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
    carried = x[model.path_columns()]
    for i in np.flatnonzero(np.abs(carried) > threshold):
        w = float(carried[i])
        p, s, picked = pickups[paths.pickup[i]]
        h, d = inst.gateways[paths.gateway[i]], int(paths.day[i])
        flows[VarKey("Y" if paths.air[i] else "X", p, s, h, picked)] += w
        for held in range(int(paths.arrival[i]) + 1, d + 1):
            flows[VarKey("I", p, None, h, held)] += w
        flows[VarKey("U" if paths.container[i] else "Z", p, None, h, d)] += w
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
    paths = model.paths
    carried = x[model.path_columns()]
    t = model.integer_columns
    return CostBreakdown(
        first_leg=float(paths.first_leg @ carried),
        lcl=float(paths.lcl @ carried),
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
