"""Decomposition solver: branch and Benders cut over the container counts.

The integer container counts T are the complicating variables. Fixing
``T = T_bar`` leaves a pure LP over the flow variables (the subproblem);
its duals yield an optimality cut, a Farkas ray yields a feasibility cut.
The master minimizes ``q + fcl_costs . T`` over the cuts with T integer.
It is solved as one branch-and-bound tree: at every node whose T is
integral the subproblem is priced, which gives an upper bound, and its cut
joins the tree's LP, so the tree's bound is the global lower bound. The
search ends when the tree closes.

Row convention: the monolithic rows are split as ``A x <=/= b - B T``
where B holds the T coefficients (only capacity rows are nonzero, each
entry ``-capacity``). A dual vector a that is feasible for the subproblem
dual satisfies ``a'(b - B T) <= q(T)`` for every T, with equality at the
generating T_bar; a Farkas ray r of an infeasible subproblem satisfies
``r'(b - B T) <= 0`` for every feasible T.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import TextIO

import numpy as np
import scipy.sparse as sp

from .errors import InfeasibleInstanceError, SolverError
from .instance import Instance, validate_routes
from .milp import (
    DEFAULT_GAP_TOL,
    DEFAULT_NODE_LIMIT,
    MILP_INFEASIBLE,
    MILP_OPTIMAL,
    MilpProblem,
    Separator,
    lp_from_mip,
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
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    LpProblem,
    solve_lp,
)

CUT_OPTIMALITY = "optimality"
CUT_FEASIBILITY = "feasibility"

DEFAULT_MAX_ITERS = 500


@dataclass(frozen=True)
class Cut:
    """Linear inequality over the master variables (T, q).

    The stored expression is ``constant - t_coefficients . T``; an
    optimality cut asserts it is ``<= q``, a feasibility cut ``<= 0``.
    """

    kind: str
    t_coefficients: np.ndarray
    constant: float
    iteration: int

    def value_at(self, t: np.ndarray) -> float:
        return self.constant - float(self.t_coefficients @ t)


@dataclass
class MasterData:
    """Everything the master needs: T-coefficient matrix, rhs, costs, cuts."""

    B: sp.csr_matrix  # monolithic rows x T columns; -capacity in capacity rows
    b: np.ndarray
    h_costs: np.ndarray  # container cost per T column
    t_upper: float
    cuts: list[Cut] = field(default_factory=list)

    @property
    def num_t(self) -> int:
        return self.B.shape[1]


@dataclass
class SubproblemResult:
    status: str
    value: float | None = None
    x: np.ndarray | None = None  # over subproblem (non-T) columns
    duals: np.ndarray | None = None
    farkas_ray: np.ndarray | None = None


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    lower: float
    upper: float
    gap: float
    t_candidate: np.ndarray
    subproblem_value: float | None
    cut_kind: str | None


@dataclass
class BendersTrace:
    records: list[IterationRecord] = field(default_factory=list)

    def export_csv(self, stream: TextIO) -> None:
        writer = csv.writer(stream)
        writer.writerow(["iteration", "lb", "ub", "gap", "cut_kind", "subproblem_value"])
        for r in self.records:
            writer.writerow(
                [
                    r.iteration,
                    f"{r.lower:.9f}",
                    f"{r.upper:.9f}" if math.isfinite(r.upper) else "inf",
                    f"{r.gap:.3e}" if math.isfinite(r.gap) else "inf",
                    r.cut_kind or "",
                    f"{r.subproblem_value:.9f}" if r.subproblem_value is not None else "",
                ]
            )


@dataclass
class BendersResult:
    status: str  # "optimal", "max_iters", "infeasible"
    objective: float | None
    t_values: np.ndarray | None
    x_full: np.ndarray | None  # over monolithic columns
    breakdown: CostBreakdown | None
    trace: BendersTrace
    lower_bound: float
    upper_bound: float
    iterations: int
    proven: bool
    model: MipModel | None = None


@dataclass
class _SubStructure:
    model: MipModel
    non_t_cols: np.ndarray
    t_cols: np.ndarray
    A_sub: sp.csr_matrix
    obj_sub: np.ndarray
    master: MasterData
    warm_basis: object = None  # optimal basis of the previous subproblem solve


def _prepare(model: MipModel) -> _SubStructure:
    t_cols = np.asarray(model.integer_columns)
    mask = np.ones(model.num_vars, dtype=bool)
    mask[t_cols] = False
    non_t = np.flatnonzero(mask)
    A = model.A.tocsc()
    A_sub = A[:, non_t].tocsr()
    B = A[:, t_cols].tocsr()
    master = MasterData(
        B=B,
        b=model.rhs.copy(),
        h_costs=model.objective[t_cols].copy(),
        t_upper=float(model.instance.container_bound()),
        cuts=[Cut(CUT_OPTIMALITY, np.zeros(len(t_cols)), 0.0, 0)],  # q >= 0
    )
    return _SubStructure(
        model=model,
        non_t_cols=non_t,
        t_cols=t_cols,
        A_sub=A_sub,
        obj_sub=model.objective[non_t].copy(),
        master=master,
    )


def _solve_sub(sub: _SubStructure, t_fixed: np.ndarray) -> SubproblemResult:
    rhs = sub.master.b - sub.master.B @ t_fixed
    lp = LpProblem(
        objective=sub.obj_sub, A=sub.A_sub, senses=sub.model.senses, rhs=rhs
    )
    # consecutive subproblems differ only in rhs, so the previous optimal
    # basis is dual feasible and a short warm run replaces a full solve
    outcome = solve_lp(lp, warm=sub.warm_basis)
    if outcome.status == STATUS_OPTIMAL and outcome.basis is not None:
        sub.warm_basis = outcome.basis
    if outcome.status == STATUS_UNBOUNDED:
        raise SolverError(
            "subproblem reported unbounded; with nonnegative costs this "
            "signals a model-assembly bug"
        )
    if outcome.status == STATUS_INFEASIBLE:
        return SubproblemResult(status=STATUS_INFEASIBLE, farkas_ray=outcome.farkas_ray)
    return SubproblemResult(
        status=STATUS_OPTIMAL,
        value=outcome.objective,
        x=outcome.x,
        duals=outcome.y,
    )


def solve_subproblem(
    instance: Instance,
    t_fixed: np.ndarray,
    mode: str = MODE_WINDOW,
    *,
    require_routes: bool = True,
) -> SubproblemResult:
    """Price the flow LP for fixed container counts.

    ``t_fixed`` is indexed like the model's T block: gateway-major, then
    day. Returns duals on optimality or a Farkas ray on infeasibility.
    """
    t_fixed = np.asarray(t_fixed, dtype=np.float64)
    if (t_fixed < 0).any():
        raise SolverError("t_fixed must be componentwise nonnegative")
    model = build_mip(instance, mode, require_routes=require_routes)
    sub = _prepare(model)
    if t_fixed.shape != (sub.master.num_t,):
        raise SolverError(
            f"t_fixed has shape {t_fixed.shape}, expected ({sub.master.num_t},)"
        )
    return _solve_sub(sub, t_fixed)


def make_optimality_cut(
    duals: np.ndarray, master: MasterData, iteration: int = 0
) -> Cut:
    """Cut ``a'(b - B T) <= q`` from an optimal subproblem's duals."""
    duals = np.asarray(duals, dtype=np.float64)
    if duals.shape != (master.B.shape[0],):
        raise SolverError(
            f"dual vector length {duals.shape} does not match {master.B.shape[0]} rows"
        )
    return Cut(
        kind=CUT_OPTIMALITY,
        t_coefficients=np.asarray(master.B.T @ duals),
        constant=float(duals @ master.b),
        iteration=iteration,
    )


def make_feasibility_cut(
    ray: np.ndarray, master: MasterData, iteration: int = 0
) -> Cut:
    """Cut ``r'(b - B T) <= 0`` from an infeasible subproblem's Farkas ray."""
    ray = np.asarray(ray, dtype=np.float64)
    if ray.shape != (master.B.shape[0],):
        raise SolverError(
            f"Farkas ray length {ray.shape} does not match {master.B.shape[0]} rows"
        )
    if float(np.abs(ray).max(initial=0.0)) <= 0.0:
        raise SolverError("zero Farkas ray cannot build a feasibility cut")
    return Cut(
        kind=CUT_FEASIBILITY,
        t_coefficients=np.asarray(master.B.T @ ray),
        constant=float(ray @ master.b),
        iteration=iteration,
    )


def _cut_row(cut: Cut, n_t: int) -> tuple[np.ndarray, float]:
    """A cut as the master row ``-w . T (- q) <= -constant`` over [T..., q]."""
    row = np.zeros(n_t + 1)
    row[:n_t] = -cut.t_coefficients
    if cut.kind == CUT_OPTIMALITY:
        row[n_t] = -1.0
    return row, -cut.constant


def master_problem(master: MasterData) -> MilpProblem:
    """Assemble the integer master over columns [T..., q]."""
    n_t = master.num_t
    rows = [_cut_row(cut, n_t) for cut in master.cuts]
    # T <= t_upper is carried by integer_upper below, not by explicit rows;
    # A is dense, so the master's node LPs run on the dense basis
    lp = LpProblem(
        objective=np.append(master.h_costs, 1.0),
        A=np.array([row for row, _ in rows]),
        senses=np.full(len(rows), "<"),
        rhs=np.array([rhs for _, rhs in rows], dtype=np.float64),
    )
    return MilpProblem(
        lp=lp,
        integer_columns=np.arange(n_t),
        integer_upper=np.full(n_t, master.t_upper),
    )


def solve_master(
    master: MasterData,
    gap_tol: float = DEFAULT_GAP_TOL,
    node_limit: int = DEFAULT_NODE_LIMIT,
    *,
    separate: Separator | None = None,
) -> tuple[np.ndarray, float, float]:
    """Solve the master; returns (T, q value, the tree's lower bound).

    ``separate`` goes to :func:`solve_milp`, which calls it at every node
    with integral T and adds the cuts it returns to the same tree; this is
    how :func:`run_benders` prices the subproblem.
    """
    if not master.cuts:
        raise SolverError("cut pool must contain at least the q >= 0 bound")
    outcome = solve_milp(
        master_problem(master),
        gap_tol=gap_tol,
        node_limit=node_limit,
        separate=separate,
    )
    if outcome.status == MILP_INFEASIBLE:
        raise InfeasibleInstanceError(
            "master problem is infeasible: the instance admits no feasible schedule"
        )
    if outcome.status != MILP_OPTIMAL:
        raise SolverError(
            f"master solve hit the node limit at gap {outcome.gap:.3e}"
        )
    t = np.round(outcome.x[: master.num_t])
    q = float(outcome.x[master.num_t])
    return t, q, float(outcome.bound)


def lp_relaxation(
    instance: Instance, mode: str = MODE_WINDOW
) -> tuple[float, np.ndarray, CostBreakdown]:
    """Monolithic LP with T continuous; a global lower bound."""
    return relax_model(build_mip(instance, mode))


def relax_model(model: MipModel) -> tuple[float, np.ndarray, CostBreakdown]:
    """:func:`lp_relaxation` of a model already built."""
    outcome = solve_lp(lp_from_mip(model))
    if outcome.status == STATUS_INFEASIBLE:
        raise InfeasibleInstanceError("LP relaxation is infeasible")
    if outcome.status == STATUS_UNBOUNDED:
        raise SolverError("LP relaxation unbounded; model-assembly bug")
    return outcome.objective, outcome.x, objective_breakdown(model, outcome.x)


@dataclass(frozen=True)
class BendersParams:
    max_iters: int = DEFAULT_MAX_ITERS  # subproblem solves
    gap_tol: float = DEFAULT_GAP_TOL
    node_limit: int = DEFAULT_NODE_LIMIT


class _IterationLimit(Exception):
    """Raised inside the master tree once ``max_iters`` subproblems are spent."""


def _gap(ub: float, lb: float) -> float:
    return (ub - lb) / (1.0 + abs(ub)) if math.isfinite(ub) else math.inf


def run_benders(
    instance: Instance,
    mode: str = MODE_WINDOW,
    params: BendersParams | None = None,
    *,
    validate: bool = True,
) -> BendersResult:
    """Solve the master in one branch-and-cut tree that prices the flows at
    every integral node and adds their cut there.

    Returns the incumbent container schedule, the assembled full solution
    vector over the monolithic columns, the cost breakdown, and the trace,
    one record per subproblem solve. Instances that fail route validation
    are reported infeasible up front unless ``validate=False`` (then
    feasibility cuts make the master infeasible, which is reported the same
    way).
    """
    params = params or BendersParams()
    trace = BendersTrace()
    if validate:
        diag = validate_routes(instance)
        if not diag.feasible:
            return BendersResult(
                status="infeasible",
                objective=None,
                t_values=None,
                x_full=None,
                breakdown=None,
                trace=trace,
                lower_bound=math.inf,
                upper_bound=math.inf,
                iterations=0,
                proven=True,
            )

    model = build_mip(instance, mode, require_routes=False)
    sub = _prepare(model)
    master = sub.master
    n_t = master.num_t
    # the master tree's own objective, so the upper bound and the tree's
    # incumbent are the same float
    objective = np.append(master.h_costs, 1.0)
    priced: dict[bytes, float | None] = {}  # subproblem value per T; None if infeasible

    lb = -math.inf
    ub = math.inf
    best_t: np.ndarray | None = None
    best_x: np.ndarray | None = None

    def separate(x: np.ndarray, bound: float):
        nonlocal lb, ub, best_t, best_x
        t = x[:n_t] + 0.0  # folds -0.0 into 0.0 so equal schedules share a key
        key = t.tobytes()
        if key in priced:
            # this T's cut is in the tree already; x misses it by round-off
            if priced[key] is None:
                raise SolverError(
                    "feasibility cut does not exclude the generating candidate"
                )
            return None, np.append(t, priced[key])
        if len(trace.records) >= params.max_iters:
            raise _IterationLimit
        it = len(trace.records) + 1
        lb = max(lb, bound)
        result = _solve_sub(sub, t)
        point = None
        if result.status == STATUS_OPTIMAL:
            value = result.value
            cut = make_optimality_cut(result.duals, master, iteration=it)
            tight = cut.value_at(t)
            if abs(tight - value) > 1e-6 * (1.0 + abs(value)):
                raise SolverError(
                    f"optimality cut not tight at its generator: "
                    f"{tight:.9g} vs q={value:.9g}"
                )
            point = np.append(t, value)
            candidate_ub = float(objective @ point)
            if candidate_ub < ub - 1e-12:
                ub = candidate_ub
                best_t = t
                best_x = result.x.copy()
        else:
            value = None
            cut = make_feasibility_cut(result.farkas_ray, master, iteration=it)
            if cut.value_at(t) <= 0.0:
                raise SolverError(
                    "feasibility cut does not exclude the generating candidate"
                )
        priced[key] = value
        master.cuts.append(cut)
        trace.records.append(
            IterationRecord(
                iteration=it,
                lower=lb,
                upper=ub,
                gap=_gap(ub, lb),
                t_candidate=t.copy(),
                subproblem_value=value,
                cut_kind=cut.kind,
            )
        )
        if it >= params.max_iters and trace.records[-1].gap > params.gap_tol:
            raise _IterationLimit  # the last allowed solve left the gap open
        return _cut_row(cut, n_t), point

    status = "optimal"
    try:
        _, _, bound = solve_master(
            master, params.gap_tol, params.node_limit, separate=separate
        )
    except InfeasibleInstanceError:
        return BendersResult(
            status="infeasible",
            objective=None,
            t_values=None,
            x_full=None,
            breakdown=None,
            trace=trace,
            lower_bound=lb,
            upper_bound=ub,
            iterations=len(trace.records),
            proven=True,
            model=model,
        )
    except _IterationLimit:
        status = "max_iters"
    else:
        # the last subproblem solve ran before the tree closed; its record
        # takes the bound the tree proved
        lb = max(lb, bound)
        trace.records[-1] = replace(trace.records[-1], lower=lb, gap=_gap(ub, lb))

    x_full = None
    breakdown = None
    objective_value = None
    if best_t is not None and best_x is not None:
        x_full = np.zeros(model.num_vars)
        x_full[sub.non_t_cols] = best_x
        x_full[sub.t_cols] = best_t
        breakdown = objective_breakdown(model, x_full)
        objective_value = ub
    return BendersResult(
        status=status,
        objective=objective_value,
        t_values=best_t,
        x_full=x_full,
        breakdown=breakdown,
        trace=trace,
        lower_bound=lb,
        upper_bound=ub,
        iterations=len(trace.records),
        proven=status == "optimal",
        model=model,
    )
