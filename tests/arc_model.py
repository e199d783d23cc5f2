"""The arc formulation of the consolidation MIP, kept as a test reference.

``intransit.model.build_mip`` builds the path model; this module builds
the arc model it reduces, so that HiGHS can solve both and the tests can
check that the reduction loses nothing. The code is the arc assembly as it
stood in ``src/`` before the path model, with only its imports changed.

Variables (all nonnegative; times 0-based days):

  X[p,s,h,d]  lbs of pickup (p,s,d) sent supplier->gateway by land
  Y[p,s,h,d]  lbs of pickup (p,s,d) sent supplier->gateway by air
  Z[p,h,d]    lbs sent gateway->customer as LCL on day d
  U[p,h,d]    lbs sent gateway->customer inside containers on day d
  T[h,d]      container count at gateway h on day d (integer)
  I[p,h,d]    lbs of product p held at gateway h at the start of day d
  N[p,d]      lbs of product p delivered early, on hand at the customer
              at the start of day d (absent in exact-day mode)

Z, U and T exist only on departure days ``d < horizon - t2(h)``, whose
arrival lies inside the horizon; a later departure could only act as a
sink for unwanted freight. The stock I exists on the same days but day 0,
and so do the capacity and gateway balance rows: after its last departure
a gateway holds nothing, since nothing it holds could leave. First-leg
columns exist only per positive pickup, gateway and mode, and only when
the shipment lands at the gateway on one of its departure days
(``d + t1 + t2 < horizon``), so no gateway can receive freight that was
never picked up, or freight that could never leave again.

Constraint families:

  pickup                 per positive pickup (p,s,d): all weight leaves that day
  capacity               per T column (h,d): container weight <= capacity * T
  gateway_balance        per Z column (p,h,d): inflow + held = outflow + carried
  customer_balance_late  per (p,d), d >= window: arrivals + stock = due + carry
  customer_balance_early per (p,d), d < window: arrivals + stock = carry

The strong linking rows ``U[p,h,d] <= W_p·T[h,d]``, with ``W_p`` the
smaller of the container capacity and p's total pickup weight, are valid
but not among the rows: :class:`Linking` lists them for the solvers to
separate where a fractional point violates them (Gendron, Crainic &
Frangioni, 1999).

A pickup on day d is due on day ``min(d + window, horizon - 1)``: one whose
window runs past the horizon is due on the last day. Stocks start empty,
so I and N begin at day 1; stocks carried past a gateway's last departure
or the customer's last day are zero, so every picked-up pound is delivered
within the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from intransit.errors import ModelError
from intransit.instance import Instance, validate_routes
from intransit.model import (
    FAMILY_CAPACITY,
    FAMILY_PICKUP,
    MODE_EXACT_DAY,
    MODE_WINDOW,
    Linking,
    VarKey,
)

KINDS = ("X", "Y", "Z", "U", "T", "I", "N")

FAMILY_GATEWAY = "gateway_balance"
FAMILY_CUSTOMER_LATE = "customer_balance_late"
FAMILY_CUSTOMER_EARLY = "customer_balance_early"


class VarIndexer:
    """Bijective key <-> column mapping for one instance/mode.

    Column order is X, Y, Z, U, T, I, N blocks. X and Y hold one column per
    positive pickup and gateway whose arrival lands on one of the gateway's
    departure days, in C order over (product, supplier, gateway, day)
    positions. The other blocks run over days, in C order over (product,
    gateway, day): Z, U and T over each gateway's departure days
    ``0 .. departures[h] - 1``, I over the same days but day 0, and N over
    days ``1 .. nD - 1``. T has no product position and N no gateway one.
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

        # day blocks: the first day, and where each gateway's run of days
        # starts within a product's runs (N has one run, in window mode only)
        customer_days = [self.nD - 1 if mode == MODE_WINDOW else 0]
        self._runs = {
            kind: (first, np.concatenate(([0], np.cumsum(days))))
            for kind, first, days in (
                ("Z", 0, self.departures),
                ("U", 0, self.departures),
                ("T", 0, self.departures),
                ("I", 1, np.maximum(self.departures - 1, 0)),
                ("N", 1, customer_days),
            )
        }
        sizes = {kind: len(self.legs[kind]) for kind in ("X", "Y")}
        for kind, (_, starts) in self._runs.items():
            sizes[kind] = (1 if kind == "T" else self.nP) * int(starts[-1])
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
        return self._day_col("Z", p, h, d)

    def col_u(self, p: int, h: int, d: int) -> int:
        return self._day_col("U", p, h, d)

    def col_t(self, h: int, d: int) -> int:
        return self._day_col("T", 0, h, d)

    def col_i(self, p: int, h: int, d: int) -> int:
        return self._day_col("I", p, h, d)

    def col_n(self, p: int, d: int) -> int:
        return self._day_col("N", p, 0, d)

    def block(self, kind: str) -> np.ndarray:
        """Every column of one kind, in order."""
        return np.arange(self.offsets[kind], self.offsets[kind] + self.sizes[kind])

    def day_positions(self, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (product, gateway, day) positions of a day block's columns,
        in column order; 0 stands in for T's product and N's gateway."""
        first, starts = self._runs[kind]
        h = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        d = np.arange(len(h)) - starts[h] + first
        reps = self.sizes[kind] // max(len(h), 1)
        return np.repeat(np.arange(reps), len(h)), np.tile(h, reps), np.tile(d, reps)

    def day_cols(self, kind: str, p, h, d):
        """Columns of a day block at positions (p, h, d), scalars or arrays,
        unchecked."""
        first, starts = self._runs[kind]
        return self.offsets[kind] + p * starts[-1] + starts[h] + d - first

    def _leg_col(self, kind: str, p: int, s: int, h: int, d: int) -> int:
        pos = self._leg_pos[kind].get((p, s, h, d))
        if pos is None:
            raise ModelError(
                f"no {kind} column at positions {(p, s, h, d)}: "
                "no pickup there, or it lands after the gateway's last departure"
            )
        return self.offsets[kind] + pos

    def _day_col(self, kind: str, p: int, h: int, d: int) -> int:
        first, starts = self._runs[kind]
        if not first <= d < first + starts[h + 1] - starts[h]:
            raise ModelError(
                f"no {kind} column on day {d} at positions {(p, h)}: no freight "
                "can leave, be held or arrive early there within the horizon"
            )
        return int(self.day_cols(kind, p, h, d))

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
                first, starts = self._runs[kind]
                p, rem = divmod(rem, int(starts[-1]))
                h = int(np.searchsorted(starts, rem, side="right")) - 1
                return VarKey(
                    kind,
                    None if kind == "T" else inst.products[p],
                    None,
                    None if kind == "N" else inst.gateways[h],
                    rem - int(starts[h]) + first,
                )
        raise ModelError(f"column {col} out of range")



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
    nP, nD = ix.nP, ix.nD
    k = instance.container_capacity
    obj = np.zeros(ix.num_vars)

    rows_r: list[np.ndarray] = []
    rows_c: list[np.ndarray] = []
    rows_v: list[np.ndarray] = []

    def add(r, c, v) -> None:
        rows_r.append(np.asarray(r, dtype=np.int64).ravel())
        rows_c.append(np.asarray(c, dtype=np.int64).ravel())
        rows_v.append(np.broadcast_to(np.asarray(v, dtype=np.float64), np.shape(c)).ravel())

    # row blocks: pickup rows, then one capacity row per T column and one
    # gateway balance row per Z column, each in its column's order, then
    # customer balance rows per (p, d)
    pickup_keys = instance.positive_pickups()
    pickup_row = {
        (ix.p_index[p], ix.s_index[s], d): r for r, (p, s, d) in enumerate(pickup_keys)
    }
    cap_row0 = len(pickup_keys)
    gw_row0 = cap_row0 + ix.sizes["T"]
    cust_row0 = gw_row0 + ix.sizes["Z"]
    m = cust_row0 + nP * nD

    def gw_row(p, h, d) -> np.ndarray:
        return gw_row0 - ix.offsets["Z"] + ix.day_cols("Z", p, h, d)

    def cust_row(p, d) -> np.ndarray:
        return cust_row0 + p * nD + d

    # pickup rows: one per positive-demand (p,s,d), over its first-leg
    # columns; each column also lands in the gateway balance row of its
    # arrival day, and costs its lane's rate
    for kind, times, costs in (
        ("X", instance.land_time, instance.land_cost),
        ("Y", instance.air_time, instance.air_cost),
    ):
        legs = ix.legs[kind]
        cols = ix.block(kind)
        lanes = [(instance.suppliers[s], instance.gateways[h]) for _, s, h, _ in legs.tolist()]
        t1 = np.array([times[lane] for lane in lanes], dtype=np.int64)
        add([pickup_row[p, s, d] for p, s, _, d in legs.tolist()], cols, 1.0)
        add(gw_row(legs[:, 0], legs[:, 2], legs[:, 3] + t1), cols, -1.0)
        obj[cols] = [costs[lane] for lane in lanes]

    # capacity rows: the containers' weight, every product's U, against T
    t_of_u = np.tile(ix.block("T"), nP)  # the T column of each U column
    add(cap_row0 - ix.offsets["T"] + t_of_u, ix.block("U"), 1.0)
    add(cap_row0 + np.arange(ix.sizes["T"]), ix.block("T"), -k)

    # gateway balance rows: U and Z leave; the stock I[d] is held in on
    # day d and carried out of day d - 1
    gw = gw_row0 + np.arange(ix.sizes["Z"])
    add(gw, ix.block("U"), 1.0)
    add(gw, ix.block("Z"), 1.0)
    p, h, d = ix.day_positions("I")
    add(gw_row(p, h, d), ix.block("I"), -1.0)
    add(gw_row(p, h, d - 1), ix.block("I"), 1.0)

    # customer balance rows: U and Z arrive t2(h) days after they leave; the
    # early stock N[d] is on hand on day d and carried out of day d - 1
    t2 = np.array([instance.second_leg_time[h] for h in instance.gateways], dtype=np.int64)
    p, h, d = ix.day_positions("Z")
    add(cust_row(p, d + t2[h]), ix.block("U"), 1.0)
    add(cust_row(p, d + t2[h]), ix.block("Z"), 1.0)
    p, _, d = ix.day_positions("N")
    add(cust_row(p, d), ix.block("N"), 1.0)
    add(cust_row(p, d - 1), ix.block("N"), -1.0)

    # each pickup's weight leaves on its day and is due at the customer;
    # the weight of each product bounds its linking rows
    rhs = np.zeros(m)
    rhs[:cap_row0] = [instance.pickups[key] for key in pickup_keys]
    weight = np.zeros(nP)
    for (p, s, d), w in zip(pickup_keys, rhs[:cap_row0]):
        rhs[cust_row(ix.p_index[p], min(d + instance.window_days, nD - 1))] += w
        weight[ix.p_index[p]] += w
    senses = np.full(m, "=", dtype="<U1")
    senses[cap_row0:gw_row0] = "<"
    tw = min(instance.window_days, nD)
    tags = (
        [FAMILY_PICKUP] * cap_row0
        + [FAMILY_CAPACITY] * ix.sizes["T"]
        + [FAMILY_GATEWAY] * ix.sizes["Z"]
        + ([FAMILY_CUSTOMER_EARLY] * tw + [FAMILY_CUSTOMER_LATE] * (nD - tw)) * nP
    )

    A = sp.coo_matrix(
        (np.concatenate(rows_v), (np.concatenate(rows_r), np.concatenate(rows_c))),
        shape=(m, ix.num_vars),
    ).tocsr()
    A.sum_duplicates()

    # rest of the objective and the cost partition
    for kind, rates in (
        ("Z", instance.lcl_cost),
        ("I", instance.hold_cost),
        ("T", instance.fcl_cost),
    ):
        per_gateway = np.array([rates[h] for h in instance.gateways])
        obj[ix.block(kind)] = per_gateway[ix.day_positions(kind)[1]]
    cost_class = np.full(ix.num_vars, " ", dtype="<U1")
    for kind, label in (("X", "f"), ("Y", "f"), ("Z", "g"), ("I", "g"), ("T", "h")):
        cost_class[ix.block(kind)] = label

    # one linking entry per U column, in the U block's (p, h, d) order
    linking = Linking(
        u_cols=ix.block("U"),
        t_cols=t_of_u,
        weights=np.repeat(np.minimum(k, weight), ix.sizes["T"]),
    )

    return MipModel(
        indexer=ix,
        objective=obj,
        A=A,
        senses=senses,
        rhs=rhs,
        row_tags=np.array(tags),
        integer_columns=ix.block("T"),
        cost_class=cost_class,
        linking=linking,
    )


def expected_arc_shape(instance, mode) -> tuple[int, int]:
    """Rows and columns of ``build_mip``'s model, worked out from the
    instance. Columns: a first-leg column per positive pickup, gateway and
    mode whose freight can still leave the gateway and arrive inside the
    horizon; Z, U and T on each gateway's departure days, I on the same days
    but day 0, and N on days 1 .. nD - 1 in window mode. Rows: one per
    positive pickup, a capacity row per T column, a gateway balance row per
    Z column, and a customer balance row per product and day."""
    nP, nD = len(instance.products), instance.horizon_days
    departures = [max(0, nD - instance.second_leg_time[h]) for h in instance.gateways]
    pickups = [(p, s, d) for (p, s, d), w in instance.pickups.items() if w > 0]
    legs = sum(
        d + t1 + instance.second_leg_time[h] < nD
        for (p, s, d) in pickups
        for h in instance.gateways
        for t1 in (instance.land_time[s, h], instance.air_time[s, h])
    )
    cols = legs + (2 * nP + 1) * sum(departures) + nP * sum(max(0, n - 1) for n in departures)
    if mode == "window":
        cols += nP * (nD - 1)
    rows = len(pickups) + (nP + 1) * sum(departures) + nP * nD
    return rows, cols
