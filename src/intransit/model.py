"""Sparse MIP assembly for the consolidation problem.

Variables (all nonnegative; times 0-based days):

  X[p,s,h,d]  lbs of pickup (p,s,d) sent supplier->gateway by land
  Y[p,s,h,d]  lbs of pickup (p,s,d) sent supplier->gateway by air
  Z[p,h,d]    lbs sent gateway->customer as LCL on day d
  U[p,h,d]    lbs sent gateway->customer inside containers on day d
  T[h,d]      container count at gateway h on day d (integer)
  I[p,h,d]    lbs of product p held at gateway h at the start of day d
  N[p,d]      lbs of product p delivered early, on hand at the customer
              at the start of day d (absent in exact-day mode)

Z and U exist only on departure days ``d < horizon - t2(h)``, whose
arrival lies inside the horizon; a later departure could only act as a
sink for unwanted freight. First-leg columns exist only per positive
pickup, gateway and mode, and only when the shipment lands at the gateway
on one of its departure days (``d + t1 + t2 < horizon``), so no gateway
can receive freight that was never picked up, or freight that could never
leave again.

Constraint families:

  pickup                 per positive pickup (p,s,d): all weight leaves that day
  capacity               per (h,d): container weight <= capacity * T
  gateway_balance        per (p,h,d): inflow + held = outflow + carried
  customer_balance_late  per (p,d), d >= window: arrivals + stock = due + carry
  customer_balance_early per (p,d), d < window: arrivals + stock = carry

The strong linking rows ``U[p,h,d] <= W_p·T[h,d]``, with ``W_p`` the
smaller of the container capacity and p's total pickup weight, are valid
but not among the rows: :class:`Linking` lists them for the solvers to
separate where a fractional point violates them (Gendron, Crainic &
Frangioni, 1999).

A pickup on day d is due on day ``min(d + window, horizon - 1)``: one whose
window runs past the horizon is due on the last day. Lagged references
falling before day 0 contribute nothing; inventories carried past the last
day are fixed to zero, so every picked-up pound is delivered within the
horizon. Start-of-horizon stocks I[.,.,0] and N[.,0] are likewise empty:
those columns exist in the index map but appear in no constraint row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np
import scipy.sparse as sp

from .errors import ModelError
from .instance import Instance, validate_routes

MODE_WINDOW = "window"
MODE_EXACT_DAY = "exact_day"

KINDS = ("X", "Y", "Z", "U", "T", "I", "N")

FAMILY_PICKUP = "pickup"
FAMILY_CAPACITY = "capacity"
FAMILY_GATEWAY = "gateway_balance"
FAMILY_CUSTOMER_LATE = "customer_balance_late"
FAMILY_CUSTOMER_EARLY = "customer_balance_early"


# a linking row is violated when U exceeds W_p·T by more than this times 1 + W_p
LINKING_TOL = 1e-6


class VarKey(NamedTuple):
    """Typed variable key; unused indices are None."""

    kind: str
    p: str | None
    s: str | None
    h: str | None
    d: int

    def __str__(self) -> str:
        parts = [x for x in (self.p, self.s, self.h) if x is not None]
        parts.append(str(self.d))
        return f"{self.kind}[{','.join(parts)}]"


class VarIndexer:
    """Bijective key <-> column mapping for one instance/mode.

    Column order is X, Y, Z, U, T, I, N blocks. X and Y hold one column per
    positive pickup and gateway whose arrival lands on one of the gateway's
    departure days, in C order over (product, supplier, gateway, day)
    positions. Z and U hold, per (product, gateway) in C order, the
    departure days ``0 .. departures[h] - 1``. T, I and N are full
    (gateway, day), (product, gateway, day) and (product, day) grids.
    """

    def __init__(self, instance: Instance, mode: str):
        if mode not in (MODE_WINDOW, MODE_EXACT_DAY):
            raise ModelError(f"unknown mode {mode!r}")
        self.instance = instance
        self.mode = mode
        self.nP = len(instance.products)
        self.nS = len(instance.suppliers)
        self.nH = len(instance.gateways)
        self.nD = instance.horizon_days
        self.p_index = {p: i for i, p in enumerate(instance.products)}
        self.s_index = {s: i for i, s in enumerate(instance.suppliers)}
        self.h_index = {h: i for i, h in enumerate(instance.gateways)}

        # second leg: departure days whose arrival lands inside the horizon
        self.departures = np.array(
            [max(0, self.nD - instance.second_leg_time[h]) for h in instance.gateways],
            dtype=np.int64,
        )
        # first leg: the (p, s, h, d) positions of each shipment that lands
        # at its gateway on one of the departure days there, per mode
        self.legs: dict[str, np.ndarray] = {}
        self._leg_pos: dict[str, dict[tuple[int, int, int, int], int]] = {}
        for kind, times in (("X", instance.land_time), ("Y", instance.air_time)):
            legs = sorted(
                (self.p_index[p], self.s_index[s], hi, d)
                for (p, s, d) in instance.positive_pickups()
                for hi, h in enumerate(instance.gateways)
                if d + times[s, h] < self.departures[hi]
            )
            self.legs[kind] = np.array(legs, dtype=np.int64).reshape(-1, 4)
            self._leg_pos[kind] = {leg: i for i, leg in enumerate(legs)}

        self._dep_start = np.concatenate(([0], np.cumsum(self.departures)))
        self._dep_total = int(self._dep_start[-1])

        ph = self.nP * self.nH * self.nD
        sizes = {
            "X": len(self.legs["X"]),
            "Y": len(self.legs["Y"]),
            "Z": self.nP * self._dep_total,
            "U": self.nP * self._dep_total,
            "T": self.nH * self.nD,
            "I": ph,
            "N": self.nP * self.nD if mode == MODE_WINDOW else 0,
        }
        self.offsets: dict[str, int] = {}
        total = 0
        for kind in KINDS:
            self.offsets[kind] = total
            total += sizes[kind]
        self.sizes = sizes
        self.num_vars = total

    # index arguments below are integer positions, not ids
    def col_x(self, p: int, s: int, h: int, d: int) -> int:
        return self._leg_col("X", p, s, h, d)

    def col_y(self, p: int, s: int, h: int, d: int) -> int:
        return self._leg_col("Y", p, s, h, d)

    def col_z(self, p: int, h: int, d: int) -> int:
        return self._departure_col("Z", p, h, d)

    def col_u(self, p: int, h: int, d: int) -> int:
        return self._departure_col("U", p, h, d)

    def col_t(self, h: int, d: int) -> int:
        return self.offsets["T"] + h * self.nD + d

    def col_i(self, p: int, h: int, d: int) -> int:
        return self.offsets["I"] + (p * self.nH + h) * self.nD + d

    def col_n(self, p: int, d: int) -> int:
        if self.mode != MODE_WINDOW:
            raise ModelError("N columns do not exist in exact-day mode")
        return self.offsets["N"] + p * self.nD + d

    def departure_cols(self, kind: str, p: int, h: int) -> np.ndarray:
        """The Z or U columns of product p at gateway h, one per departure day."""
        start = self.offsets[kind] + p * self._dep_total + int(self._dep_start[h])
        return np.arange(start, start + int(self.departures[h]))

    def _leg_col(self, kind: str, p: int, s: int, h: int, d: int) -> int:
        pos = self._leg_pos[kind].get((p, s, h, d))
        if pos is None:
            raise ModelError(
                f"no {kind} column at positions {(p, s, h, d)}: "
                "no pickup there, or it lands after the gateway's last departure"
            )
        return self.offsets[kind] + pos

    def _departure_col(self, kind: str, p: int, h: int, d: int) -> int:
        if not 0 <= d < self.departures[h]:
            raise ModelError(
                f"no {kind} column on day {d} at gateway position {h}: "
                "it would arrive after the horizon"
            )
        return self.offsets[kind] + p * self._dep_total + int(self._dep_start[h]) + d

    def key_of(self, col: int) -> VarKey:
        if not 0 <= col < self.num_vars:
            raise ModelError(f"column {col} out of range")
        inst = self.instance
        for kind in reversed(KINDS):
            if col >= self.offsets[kind] and self.sizes[kind] > 0:
                rem = col - self.offsets[kind]
                if kind in ("X", "Y"):
                    p, s, h, d = self.legs[kind][rem].tolist()
                    return VarKey(kind, inst.products[p], inst.suppliers[s], inst.gateways[h], d)
                if kind in ("Z", "U"):
                    p, rem = divmod(rem, self._dep_total)
                    h = int(np.searchsorted(self._dep_start, rem, side="right")) - 1
                    d = rem - int(self._dep_start[h])
                    return VarKey(kind, inst.products[p], None, inst.gateways[h], d)
                if kind == "I":
                    rem, d = divmod(rem, self.nD)
                    p, h = divmod(rem, self.nH)
                    return VarKey("I", inst.products[p], None, inst.gateways[h], d)
                if kind == "T":
                    return VarKey("T", None, None, inst.gateways[rem // self.nD], rem % self.nD)
                return VarKey("N", inst.products[rem // self.nD], None, None, rem % self.nD)
        raise ModelError(f"column {col} out of range")


class Linking(NamedTuple):
    """The strong linking rows ``U[p,h,d] - W_p·T[h,d] <= 0``, one per U column.

    They never cut off an integral point: at ``T >= 1`` the rows already
    bound U by both the capacity and p's own weight, and at ``T = 0`` the
    capacity row forces ``U = 0``. At a fractional T they tighten the weak
    aggregate capacity row.
    """

    u_cols: np.ndarray
    t_cols: np.ndarray  # the T column of the same gateway and day
    weights: np.ndarray  # W_p

    def violated(self, u_values: np.ndarray, t_values: np.ndarray) -> np.ndarray:
        """Entries whose U value exceeds ``W_p·T`` by more than the tolerance."""
        excess = u_values - self.weights * t_values
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

    Rows are stored as ``A x (sense) rhs`` with sense ``=`` or ``<``.
    ``cost_class`` labels each column's objective partition: ``f`` first
    leg, ``g`` LCL plus holding, ``h`` FCL containers, `` `` costless.
    """

    indexer: VarIndexer
    objective: np.ndarray
    A: sp.csr_matrix
    senses: np.ndarray
    rhs: np.ndarray
    row_tags: np.ndarray
    integer_columns: np.ndarray
    cost_class: np.ndarray
    linking: Linking

    @property
    def instance(self) -> Instance:
        return self.indexer.instance

    @property
    def mode(self) -> str:
        return self.indexer.mode

    @property
    def num_vars(self) -> int:
        return self.indexer.num_vars

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

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


def build_mip(instance: Instance, mode: str = MODE_WINDOW, *, require_routes: bool = True) -> MipModel:
    """Assemble the full consolidation MIP for an instance.

    With ``require_routes`` (the default) the instance must pass
    :func:`validate_routes`; disable it only to study infeasible models.
    """
    if require_routes:
        diag = validate_routes(instance)
        if not diag.feasible:
            first = diag.issues[0]
            raise ModelError(
                f"instance fails route validation ({len(diag.issues)} pickup(s)); "
                f"first: ({first.product}, {first.supplier}, {first.day}) "
                f"{first.reason}"
            )

    ix = VarIndexer(instance, mode)
    nP, nH, nD = ix.nP, ix.nH, ix.nD
    k = instance.container_capacity
    dep = ix.departures
    obj = np.zeros(ix.num_vars)

    rows_r: list[np.ndarray] = []
    rows_c: list[np.ndarray] = []
    rows_v: list[np.ndarray] = []

    def add(r, c, v) -> None:
        rows_r.append(np.asarray(r, dtype=np.int64).ravel())
        rows_c.append(np.asarray(c, dtype=np.int64).ravel())
        rows_v.append(np.asarray(v, dtype=np.float64).ravel())

    senses: list[str] = []
    rhs: list[float] = []
    tags: list[str] = []
    row = 0

    # pickup rows: one per positive-demand (p,s,d), over its first-leg
    # columns; each column also lands in the gateway balance row of its
    # arrival day, and costs its lane's rate
    pickup_keys = instance.positive_pickups()
    pickup_row = {
        (ix.p_index[p], ix.s_index[s], d): r for r, (p, s, d) in enumerate(pickup_keys)
    }
    gw_row0 = len(pickup_keys) + nH * nD

    def gw_row(p, h, d) -> np.ndarray:
        return gw_row0 + ((p * nH + h) * nD) + d

    for kind, times, costs in (
        ("X", instance.land_time, instance.land_cost),
        ("Y", instance.air_time, instance.air_cost),
    ):
        legs = ix.legs[kind]
        cols = ix.offsets[kind] + np.arange(len(legs))
        lanes = [(instance.suppliers[s], instance.gateways[h]) for _, s, h, _ in legs.tolist()]
        t1 = np.array([times[lane] for lane in lanes], dtype=np.int64)
        add([pickup_row[p, s, d] for p, s, _, d in legs.tolist()], cols, np.ones(len(cols)))
        add(gw_row(legs[:, 0], legs[:, 2], legs[:, 3] + t1), cols, -np.ones(len(cols)))
        obj[cols] = [costs[lane] for lane in lanes]
    senses += ["="] * len(pickup_keys)
    rhs += [instance.pickups[key] for key in pickup_keys]
    tags += [FAMILY_PICKUP] * len(pickup_keys)
    row += len(pickup_keys)

    # capacity rows: one per (h,d)
    cap_row0 = row
    days = np.arange(nD)
    for h in range(nH):
        rr = cap_row0 + h * nD + days
        for p in range(nP):
            add(rr[: dep[h]], ix.departure_cols("U", p, h), np.ones(dep[h]))
        add(rr, ix.col_t(h, 0) + days, np.full(nD, -k))
    senses += ["<"] * (nH * nD)
    rhs += [0.0] * (nH * nD)
    tags += [FAMILY_CAPACITY] * (nH * nD)
    row += nH * nD

    # gateway balance rows: one per (p,h,d)
    assert row == gw_row0, "first-leg arrivals were placed in the wrong rows"
    for p in range(nP):
        for h in range(nH):
            rr = gw_row(p, h, days)
            add(rr[: dep[h]], ix.departure_cols("U", p, h), np.ones(dep[h]))
            add(rr[: dep[h]], ix.departure_cols("Z", p, h), np.ones(dep[h]))
            # carried stock: +I[d+1] (d < nD-1), -I[d] (d > 0)
            if nD > 1:
                add(rr[:-1], ix.col_i(p, h, 0) + days[1:], np.ones(nD - 1))
                add(rr[1:], ix.col_i(p, h, 0) + days[1:], -np.ones(nD - 1))
    senses += ["="] * (nP * nH * nD)
    rhs += [0.0] * (nP * nH * nD)
    tags += [FAMILY_GATEWAY] * (nP * nH * nD)
    row += nP * nH * nD

    # customer balance rows: one per (p,d)
    cust_row0 = row
    tw = instance.window_days

    def cust_row(p: int, d) -> np.ndarray:
        return cust_row0 + p * nD + d

    for p in range(nP):
        for h in range(nH):
            rr = cust_row(p, np.arange(dep[h]) + instance.second_leg_time[instance.gateways[h]])
            add(rr, ix.departure_cols("U", p, h), np.ones(dep[h]))
            add(rr, ix.departure_cols("Z", p, h), np.ones(dep[h]))
        if mode == MODE_WINDOW:
            # +N[d] for d >= 1, -N[d+1] for d <= nD-2
            if nD > 1:
                add(cust_row(p, days[1:]), ix.col_n(p, 0) + days[1:], np.ones(nD - 1))
                add(cust_row(p, days[:-1]), ix.col_n(p, 0) + days[1:], -np.ones(nD - 1))
    cust_rhs = np.zeros(nP * nD)
    for (p, s, d) in pickup_keys:
        cust_rhs[ix.p_index[p] * nD + min(d + tw, nD - 1)] += instance.pickups[p, s, d]
    senses += ["="] * (nP * nD)
    rhs += cust_rhs.tolist()
    for p in range(nP):
        tags += [FAMILY_CUSTOMER_EARLY] * min(tw, nD)
        tags += [FAMILY_CUSTOMER_LATE] * max(0, nD - tw)
    row += nP * nD

    m = row
    r_all = np.concatenate(rows_r) if rows_r else np.zeros(0, dtype=np.int64)
    c_all = np.concatenate(rows_c) if rows_c else np.zeros(0, dtype=np.int64)
    v_all = np.concatenate(rows_v) if rows_v else np.zeros(0)
    A = sp.coo_matrix((v_all, (r_all, c_all)), shape=(m, ix.num_vars)).tocsr()
    A.sum_duplicates()

    # rest of the objective and the cost partition
    cost_class = np.full(ix.num_vars, " ", dtype="<U1")
    for h in range(nH):
        hid = instance.gateways[h]
        for p in range(nP):
            i0 = ix.col_i(p, h, 0)
            obj[ix.departure_cols("Z", p, h)] = instance.lcl_cost[hid]
            obj[i0 : i0 + nD] = instance.hold_cost[hid]
        t0 = ix.col_t(h, 0)
        obj[t0 : t0 + nD] = instance.fcl_cost[hid]
    cost_class[ix.offsets["X"] : ix.offsets["X"] + ix.sizes["X"]] = "f"
    cost_class[ix.offsets["Y"] : ix.offsets["Y"] + ix.sizes["Y"]] = "f"
    cost_class[ix.offsets["Z"] : ix.offsets["Z"] + ix.sizes["Z"]] = "g"
    cost_class[ix.offsets["I"] : ix.offsets["I"] + ix.sizes["I"]] = "g"
    cost_class[ix.offsets["T"] : ix.offsets["T"] + ix.sizes["T"]] = "h"

    integer_columns = np.arange(ix.offsets["T"], ix.offsets["T"] + ix.sizes["T"])

    # one linking entry per U column, in the U block's (p, h, d) order
    weight = np.zeros(nP)
    for (p, s, d) in pickup_keys:
        weight[ix.p_index[p]] += instance.pickups[p, s, d]
    t_of_u = np.concatenate([ix.col_t(h, 0) + np.arange(dep[h]) for h in range(nH)])
    linking = Linking(
        u_cols=ix.offsets["U"] + np.arange(ix.sizes["U"]),
        t_cols=np.tile(t_of_u, nP),
        weights=np.repeat(np.minimum(k, weight), len(t_of_u)),
    )

    return MipModel(
        indexer=ix,
        objective=obj,
        A=A,
        senses=np.array(senses, dtype="<U1"),
        rhs=np.asarray(rhs, dtype=np.float64),
        row_tags=np.array(tags),
        integer_columns=integer_columns,
        cost_class=cost_class,
        linking=linking,
    )


@dataclass(frozen=True)
class CostBreakdown:
    """Objective split into the three cost components plus the fixed line."""

    first_leg: float
    lcl_and_hold: float
    fcl: float
    fixed_pickup: float

    @property
    def total(self) -> float:
        return self.first_leg + self.lcl_and_hold + self.fcl

    @property
    def grand_total(self) -> float:
        return self.total + self.fixed_pickup


def objective_breakdown(model: MipModel, solution: np.ndarray) -> CostBreakdown:
    """Recompute cost components from a solution vector.

    The pickup fixed cost is a post-hoc reporting line: fixed cost times the
    number of positive-weight pickup events, never part of the objective.
    """
    x = np.asarray(solution, dtype=np.float64)
    if x.shape != (model.num_vars,):
        raise ModelError(
            f"solution length {x.shape} does not match {model.num_vars} columns"
        )
    contrib = model.objective * x
    f = float(contrib[model.cost_class == "f"].sum())
    g = float(contrib[model.cost_class == "g"].sum())
    h = float(contrib[model.cost_class == "h"].sum())
    fixed = model.instance.pickup_fixed_cost * len(model.instance.positive_pickups())
    return CostBreakdown(first_leg=f, lcl_and_hold=g, fcl=h, fixed_pickup=fixed)


def lcl_hold_split(model: MipModel, solution: np.ndarray) -> tuple[float, float]:
    """Split the g component into (LCL freight, gateway holding)."""
    ix = model.indexer
    x = np.asarray(solution, dtype=np.float64)
    z = slice(ix.offsets["Z"], ix.offsets["Z"] + ix.sizes["Z"])
    i = slice(ix.offsets["I"], ix.offsets["I"] + ix.sizes["I"])
    return (
        float((model.objective[z] * x[z]).sum()),
        float((model.objective[i] * x[i]).sum()),
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
    """Report constraint residuals, T integrality drift, and negativity."""
    x = np.asarray(solution, dtype=np.float64)
    if x.shape != (model.num_vars,):
        raise ModelError(
            f"solution length {x.shape} does not match {model.num_vars} columns"
        )
    ax = model.A @ x
    resid = ax - model.rhs
    le = model.senses == "<"
    resid_mag = np.abs(resid)
    resid_mag[le] = np.maximum(resid[le], 0.0)
    families: dict[str, float] = {}
    for tag in (
        FAMILY_PICKUP,
        FAMILY_CAPACITY,
        FAMILY_GATEWAY,
        FAMILY_CUSTOMER_LATE,
        FAMILY_CUSTOMER_EARLY,
    ):
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
