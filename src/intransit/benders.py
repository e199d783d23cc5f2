"""Decomposition solver: branch and Benders cut over the container counts.

The integer container counts T are the complicating variables. Fixing
``T = T_bar`` leaves a pure LP over the flow variables (the subproblem);
its duals yield an optimality cut.
The master minimizes ``q + fcl_costs . T`` with T integral, from the one
row ``q >= 0``. It is solved as one branch-and-cut tree, and a cut is a
row of that tree's LP from the moment it is made. While the root's LP
optimum is fractional the subproblem is priced in rounds, each re-solved
with the strong linking rows ``u <= W·T`` its flow violates there until
it violates none, and a cut that cuts off the root's (T, q) re-solves the
root: the LP phase of McDaniel & Devine (1977), which lifts the root bound
to the LP bound of the model plus its linking rows before any branching.
The rounds are stabilised in-out (Ben-Ameur & Neto, 2007; Fischetti,
Ljubić & Sinnl, 2017): a round prices ``(T_root + core) / 2`` first, where
the core starts at ``min(container bound, ceil(T_root) + 1)`` at the first
round and then moves to each round's priced point. Only if that cut does
not cut off the root does the same round price ``T_root`` itself, so the
rounds end only where a cut at the root's own T fails. The in-out solves
warm-start along one chain of bases, every other solve along another.
From then on the subproblem is priced at every node whose T is integral,
which gives an upper bound, and its cut joins the tree's LP, so the
tree's bound is the global lower bound. The search ends when the
tree closes or its node limit stops it.

The subproblem is the model's own LP with T's cost set to zero and T
fixed by its bounds, ``lower = upper = T_bar``, followed by the linking
rows that joined (``u - W·T <= 0``). The linking rows cut off no
integral T, so ``q(T)`` at integral T is the same with or without them.
Its optimal duals y give the cut ``y'(b - A_T·T) <= q``, with ``A_T`` the
T columns of its rows: valid at every T, tight at T_bar, and still valid
once more rows join, since they only raise ``q``.

The subproblem has complete recourse, so this one cut family is all the
decomposition needs (Van Slyke & Wets, 1969). A container column has the
entries of the LCL column of its pickup and due bucket but in the
capacity and linking rows, which hold no LCL column, so any flow stays
feasible at every T once its container weight moves to LCL: the
subproblem is feasible at every T or at none.
:func:`~intransit.model.build_mip` refuses an instance that fails route
validation, and on one that passes, each pickup sent whole on the LCL
column of an on-time path's due bucket is feasible at ``T = 0``, so the
subproblem is feasible at every T. An infeasible one is a numerical fault
and raises :class:`SolverError`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import TextIO

import numpy as np

from .errors import SolverError
# validate_routes is not called here (build_mip validates), but the
# benchmark's tracer wraps it under this module's name
from .instance import Instance, validate_routes
from .milp import (
    DEFAULT_GAP_TOL,
    DEFAULT_NODE_LIMIT,
    MilpOutcome,
    MilpProblem,
    Separator,
    append_rows,
    lp_from_mip,
    relative_gap,
    solve_milp,
)
from .model import (
    MODE_WINDOW,
    CostBreakdown,
    MipModel,
    build_mip,
    objective_breakdown,
)
from .simplex import (
    STATUS_INFEASIBLE,
    BasisLabels,
    LpOutcome,
    LpProblem,
    solve_lp,
)

CUT_OPTIMALITY = "optimality"


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    lower: float
    upper: float
    gap: float
    t_candidate: np.ndarray
    subproblem_value: float
    cut_kind: str | None  # None when the solve added no cut
    fractional: bool  # a root round, not an integral node
    stabilised: bool  # a root round's in-out point, not the root's own T

    @property
    def candidate(self) -> str:
        """What was priced: ``stabilised``, ``fractional`` or ``integral``."""
        if self.stabilised:
            return "stabilised"
        return "fractional" if self.fractional else "integral"


@dataclass
class BendersTrace:
    records: list[IterationRecord] = field(default_factory=list)

    def export_csv(self, stream: TextIO) -> None:
        writer = csv.writer(stream)
        writer.writerow(
            ["iteration", "candidate", "lb", "ub", "gap", "cut_kind", "subproblem_value"]
        )
        for r in self.records:
            writer.writerow(
                [
                    r.iteration,
                    r.candidate,
                    f"{r.lower:.9f}",
                    f"{r.upper:.9f}" if math.isfinite(r.upper) else "inf",
                    f"{r.gap:.3e}" if math.isfinite(r.gap) else "inf",
                    r.cut_kind or "",
                    f"{r.subproblem_value:.9f}",
                ]
            )


@dataclass
class BendersResult:
    status: str  # "optimal" or "node_limit"
    objective: float | None
    t_values: np.ndarray | None
    x_full: np.ndarray | None  # over monolithic columns
    breakdown: CostBreakdown | None
    trace: BendersTrace
    lower_bound: float
    upper_bound: float
    proven: bool
    model: MipModel | None = None

    @property
    def iterations(self) -> int:
        return len(self.trace.records)


@dataclass
class _SubStructure:
    model: MipModel
    t_cols: np.ndarray
    lp: LpProblem  # the model's LP, T costless, then the linking rows that joined
    link_joined: np.ndarray  # which linking entries joined the subproblem
    warm_basis: BasisLabels | None = None  # optimal basis of the previous solve
    stabilised_basis: BasisLabels | None = None  # ... of the previous in-out solve


def _prepare(model: MipModel) -> _SubStructure:
    t_cols = np.asarray(model.integer_columns)
    objective = model.objective.copy()
    objective[t_cols] = 0.0
    return _SubStructure(
        model=model,
        t_cols=t_cols,
        lp=replace(lp_from_mip(model), objective=objective),
        link_joined=np.zeros(len(model.linking.u_cols), dtype=bool),
    )


def _solve_sub(
    sub: _SubStructure, t_fixed: np.ndarray, stabilised: bool = False
) -> LpOutcome:
    """Price the flows at ``t_fixed``: the outcome's ``x`` is over the
    model's columns, T among them. The linking rows the optimal flow
    violates there join the subproblem, which is solved again until it
    violates none; at integral T it never does. A ``stabilised`` solve (an
    in-out point of the root rounds) starts from the optimal basis of the
    previous stabilised solve, cold the first time; any other solve from
    that of the previous non-stabilised one."""
    link = sub.model.linking
    lower = np.zeros(sub.lp.num_cols)
    lower[sub.t_cols] = t_fixed
    upper = sub.lp.upper.copy()
    upper[sub.t_cols] = t_fixed
    while True:
        # consecutive subproblems differ only in T's bounds (or in rows that
        # join with their slacks basic), so the previous optimal basis is
        # dual feasible and a short warm run replaces a full solve. The
        # in-out points lie far from the root's T, so each kind keeps its
        # own chain
        warm = sub.stabilised_basis if stabilised else sub.warm_basis
        outcome = solve_lp(sub.lp.with_bounds(lower, upper), warm=warm)
        if outcome.status == STATUS_INFEASIBLE:
            raise SolverError("the subproblem of a route-valid model is infeasible")
        if stabilised:
            sub.stabilised_basis = outcome.basis
        else:
            sub.warm_basis = outcome.basis
        # a row that joined already is met up to the LP's own tolerance
        entries = link.violated(outcome.x)
        entries = entries[~sub.link_joined[entries]]
        if not len(entries):
            return outcome
        # the warm basis names the rows before them, so the next solve
        # starts with their slacks basic
        sub.link_joined[entries] = True
        sub.lp = append_rows(sub.lp, link.block(entries, sub.lp.A), np.zeros(len(entries)))


def _master_row(
    y: np.ndarray, lp: LpProblem, t_cols: np.ndarray
) -> tuple[np.ndarray, float]:
    """The cut ``y'(b - A_T·T) <= q`` from the duals y of the optimal
    subproblem ``lp``, as the master row ``-(A'y)[t_cols]·T - q <= -y'b``
    over the master's columns [T..., q]."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (lp.num_rows,):
        raise SolverError(f"dual vector length {y.shape} does not match {lp.num_rows} rows")
    return np.append(-np.asarray(lp.A.T @ y)[t_cols], -1.0), -float(y @ lp.rhs)


def solve_master(
    h_costs: np.ndarray,
    t_upper: float,
    gap_tol: float = DEFAULT_GAP_TOL,
    node_limit: int = DEFAULT_NODE_LIMIT,
    *,
    separate: Separator | None = None,
) -> MilpOutcome:
    """Solve the master ``min h_costs·T + q`` over columns [T..., q], with
    ``0 <= T <= t_upper`` integral and the one row ``q >= 0``.

    Returns the tree's outcome: status optimal or, at the node limit,
    node_limit with the best incumbent (None if there is none) and the
    proven bound. ``separate`` goes to :func:`solve_milp`, which adds the
    cuts it returns to the same tree; this is how :func:`run_benders`
    prices the subproblem. Optimality cuts bound only q from below, so
    over the box of T the master is never infeasible.
    """
    n_t = len(h_costs)
    # A is dense, so the master's node LPs run on the dense basis
    lp = LpProblem(
        objective=np.append(h_costs, 1.0),
        A=-np.eye(1, n_t + 1, n_t),  # -q <= 0
        senses=np.array(["<"]),
        rhs=np.zeros(1),
        upper=np.append(np.full(n_t, t_upper), np.inf),
    )
    return solve_milp(
        MilpProblem(lp=lp, integer_columns=np.arange(n_t)),
        gap_tol=gap_tol,
        node_limit=node_limit,
        separate=separate,
    )


def lp_relaxation(
    instance: Instance, mode: str = MODE_WINDOW
) -> tuple[float, np.ndarray, CostBreakdown]:
    """Monolithic LP with T continuous: the weak bound of the model's own
    rows, without the strong linking rows that both solvers separate at
    their root. A global lower bound."""
    return relax_model(build_mip(instance, mode))


def relax_model(model: MipModel) -> tuple[float, np.ndarray, CostBreakdown]:
    """:func:`lp_relaxation` of a model already built."""
    outcome = solve_lp(lp_from_mip(model))
    if outcome.status == STATUS_INFEASIBLE:
        raise SolverError("the LP relaxation of a route-valid model is infeasible")
    return outcome.objective, outcome.x, objective_breakdown(model, outcome.x)


@dataclass(frozen=True)
class BendersParams:
    gap_tol: float = DEFAULT_GAP_TOL
    node_limit: int = DEFAULT_NODE_LIMIT


def run_benders(
    instance: Instance, mode: str = MODE_WINDOW, params: BendersParams | None = None
) -> BendersResult:
    """Solve the master in one branch-and-cut tree that prices the flows at
    its fractional root, in in-out rounds until no cut cuts the root off,
    then at every integral node, and adds their cuts there.

    Returns the incumbent container schedule, the assembled full solution
    vector over the monolithic columns, the cost breakdown, and the trace,
    one record per T the subproblem prices (with its re-solves as linking
    rows join). The master's node limit bounds the subproblem solves too,
    at most two per node LP; reaching it returns status ``node_limit``,
    unproven, with the best incumbent (if any) and the proven bounds.
    An instance that fails route validation raises
    :class:`InfeasibleInstanceError` from :func:`build_mip`.
    """
    params = params or BendersParams()
    trace = BendersTrace()
    model = build_mip(instance, mode)
    sub = _prepare(model)
    h_costs = model.objective[sub.t_cols]
    n_t = len(h_costs)
    # the master tree's own objective, so the upper bound and the tree's
    # incumbent are the same float
    objective = np.append(h_costs, 1.0)
    priced: dict[bytes, float] = {}  # subproblem value per integral T

    t_upper = float(instance.container_bound())
    core: np.ndarray | None = None  # the root rounds' in-out core point

    lb = -math.inf
    ub = math.inf
    best_x: np.ndarray | None = None

    def price(
        t: np.ndarray, x: np.ndarray, bound: float, fractional: bool, stabilised: bool = False
    ):
        """Solve the subproblem at ``t`` and record it; return its master row
        (None in a root round if it does not cut off the root's ``x``) and,
        at an integral node, the incumbent it offers."""
        nonlocal lb, ub, best_x
        it = len(trace.records) + 1
        lb = max(lb, bound)
        result = _solve_sub(sub, t, stabilised)
        value = result.objective
        coefficients, rhs = _master_row(result.y, sub.lp, sub.t_cols)
        at_t = float(coefficients[:n_t] @ t) - rhs  # the cut's y'(b - A_T·t)
        if abs(at_t - value) > 1e-6 * (1.0 + abs(value)):
            raise SolverError(
                f"optimality cut not tight at its generator: "
                f"{at_t:.9g} vs q={value:.9g}"
            )
        row = (coefficients, rhs)
        point = None
        if fractional:
            # a root round pays off only if the cut moves the root's (T, q)
            if float(coefficients @ x) - rhs <= 1e-6 * (1.0 + abs(rhs)):
                row = None
        else:
            priced[t.tobytes()] = value
            point = np.append(t, value)
            candidate_ub = float(objective @ point)
            if candidate_ub < ub - 1e-12:
                ub = candidate_ub
                best_x = result.x
        trace.records.append(
            IterationRecord(
                iteration=it,
                lower=lb,
                upper=ub,
                gap=relative_gap(ub, lb),
                t_candidate=t.copy(),
                subproblem_value=value,
                cut_kind=None if row is None else CUT_OPTIMALITY,
                fractional=fractional,
                stabilised=stabilised,
            )
        )
        return row, point

    def separate(x: np.ndarray, bound: float):
        nonlocal core
        t = x[:n_t] + 0.0  # folds -0.0 into 0.0 so equal schedules share a key
        # solve_milp rounds T exactly at integral nodes, never at the root
        if (t == np.round(t)).all():
            key = t.tobytes()
            if key in priced:
                # this T's cut is in the tree already; x misses it by round-off
                return None, np.append(t, priced[key])
            return price(t, x, bound, fractional=False)
        # a fractional root round, stabilised in-out: price halfway between
        # the root's T and a core point above it, which then moves there.
        # Only if that cut misses the root is the root's T priced itself,
        # so the rounds still end only where a Kelley cut at the root fails
        if core is None:
            core = np.minimum(t_upper, np.ceil(t) + 1.0)
        core = (core + t) / 2.0
        row, _ = price(core, x, bound, fractional=True, stabilised=True)
        if row is not None:
            return row, None
        return price(t, x, bound, fractional=True)

    outcome = solve_master(
        h_costs,
        t_upper,
        params.gap_tol,
        params.node_limit,
        separate=separate,
    )
    # the last subproblem solve ran before the tree stopped; its record
    # takes the bound the tree proved
    lb = max(lb, outcome.bound)
    if trace.records:
        trace.records[-1] = replace(trace.records[-1], lower=lb, gap=relative_gap(ub, lb))

    breakdown = None
    objective_value = None
    if best_x is not None:
        breakdown = objective_breakdown(model, best_x)
        objective_value = ub
    return BendersResult(
        status=outcome.status,
        objective=objective_value,
        t_values=None if best_x is None else best_x[sub.t_cols],
        x_full=best_x,
        breakdown=breakdown,
        trace=trace,
        lower_bound=lb,
        upper_bound=ub,
        proven=outcome.status == "optimal",
        model=model,
    )
