"""Best-bound branch-and-bound over the LP engine.

Serves two roles: the monolithic solver for small consolidation models,
which separates the model's strong linking rows at the fractional root,
and, with a separation callback that adds rows lazily, the one
branch-and-cut tree of the decomposition's integer master. Branching
picks the most fractional integer column (ties: lowest index); node
selection is best-bound first (ties: insertion order). Both rules are
deterministic.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np
import scipy.sparse as sp

from .errors import SolverError
from .model import MipModel
from .simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    BasisLabels,
    LpProblem,
    solve_lp,
)

MILP_OPTIMAL = "optimal"
MILP_INFEASIBLE = "infeasible"
MILP_NODE_LIMIT = "node_limit"

INTEGRALITY_TOL = 1e-6
DEFAULT_GAP_TOL = 1e-9
DEFAULT_NODE_LIMIT = 100_000
# the root's separation rounds stop once the root bound rose by no more
# than ROOT_STALL_TOL * (1 + |bound|) over the last ROOT_STALL_ROUNDS rounds
ROOT_STALL_ROUNDS = 10
ROOT_STALL_TOL = 1e-4

# (coefficients, rhs) of rows ``coefficients @ x <= rhs``: one row (a
# vector and a float) or a block (a dense or sparse matrix and a vector)
Rows = tuple[np.ndarray | sp.spmatrix, np.ndarray | float]
Separator = Callable[[np.ndarray, float], tuple[Rows | None, np.ndarray | None]]


@dataclass
class MilpProblem:
    """An LP plus integrality marks and optional integer upper bounds.

    ``integer_upper`` entries are implied bounds: no optimal solution
    exceeds them, so branches above them are pruned, but they are not
    added as rows to node LPs.
    """

    lp: LpProblem
    integer_columns: np.ndarray
    integer_upper: np.ndarray | None = None  # parallel to integer_columns


@dataclass
class MilpOutcome:
    status: str
    x: np.ndarray | None
    objective: float | None
    bound: float
    gap: float
    nodes: int
    root_bound: float  # the root LP's last optimum, after its rounds; -inf if none


def lp_from_mip(model: MipModel) -> LpProblem:
    """The LP relaxation of a consolidation model (integrality dropped)."""
    return LpProblem(
        objective=model.objective, A=model.A, senses=model.senses, rhs=model.rhs
    )


def _as_milp(model) -> MilpProblem:
    if isinstance(model, MilpProblem):
        return model
    if isinstance(model, MipModel):
        # implied container bound keeps the tree finite
        upper = np.full(len(model.integer_columns), float(model.instance.container_bound()))
        return MilpProblem(
            lp=lp_from_mip(model),
            integer_columns=np.asarray(model.integer_columns),
            integer_upper=upper,
        )
    raise SolverError(f"cannot solve object of type {type(model).__name__}")


def _append_rows(base: LpProblem, extra, rhs) -> LpProblem:
    """``base`` plus the rows ``extra @ x <= rhs``, dense when ``base`` is."""
    rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
    if sp.issparse(base.A):
        A = sp.vstack([base.A, sp.csr_matrix(extra)], format="csr")
    else:
        extra = extra.toarray() if sp.issparse(extra) else np.asarray(extra, dtype=np.float64)
        extra = extra.reshape(len(rhs), -1)
        A = np.concatenate([base.A, extra], axis=0)
    # the base LP was validated on construction and the appended rows are
    # built by the tree or its separator, so skip re-validation in this hot path
    lp = LpProblem.__new__(LpProblem)
    lp.objective = base.objective
    lp.A = A
    lp.senses = np.concatenate([base.senses, np.full(len(rhs), "<", dtype="<U1")])
    lp.rhs = np.concatenate([base.rhs, rhs])
    return lp


def _linking_separator(model: MipModel) -> Separator:
    """Separates the model's strong linking rows, every violated one as one
    block. Used at the fractional root only: no integral point violates
    them (see :class:`~intransit.model.Linking`)."""
    link = model.linking

    def separate(x: np.ndarray, bound: float):
        entries = link.violated(x[link.u_cols], x[link.t_cols])
        if not len(entries):
            return None, None
        return (link.block(entries, model.num_vars), np.zeros(len(entries))), None

    return separate


def _node_lp(base: LpProblem, bounds: dict[int, tuple[float, float]]) -> LpProblem:
    """Base LP plus branching bounds encoded as extra <= rows."""
    if not bounds:
        return base
    rows, cols, vals, rhs = [], [], [], []
    for r, (col, kind) in enumerate(_bound_layout(bounds)):
        lo, hi = bounds[col]
        rows.append(r)
        cols.append(col)
        vals.append(1.0 if kind == "hi" else -1.0)
        rhs.append(hi if kind == "hi" else -lo)
    shape = (len(rows), base.num_cols)
    if sp.issparse(base.A):
        extra = sp.coo_matrix((vals, (rows, cols)), shape=shape)
    else:
        extra = np.zeros(shape)
        extra[rows, cols] = vals
    return _append_rows(base, extra, np.asarray(rhs, dtype=np.float64))


def _bound_layout(bounds: dict[int, tuple[float, float]]) -> list[tuple[int, str]]:
    """The (column, kind) identity of each extra row, in _node_lp order."""
    layout = []
    for col in sorted(bounds):
        lo, hi = bounds[col]
        if hi is not None and math.isfinite(hi):
            layout.append((col, "hi"))
        if lo is not None and lo > 0:
            layout.append((col, "lo"))
    return layout


def _translate_basis(
    parent: BasisLabels,
    parent_bounds: dict[int, tuple[float, float]],
    parent_m0: int,
    child_bounds: dict[int, tuple[float, float]],
    m0: int,
) -> BasisLabels | None:
    """Re-index a parent node's basis for a child's row layout.

    The parent was solved over ``parent_m0`` base rows, the child has
    ``m0``: base rows keep their indices; bound rows are matched by (column,
    kind); rows the child adds, base rows appended since and its own bound
    rows, get their own slack. Returns None when a referenced row no longer
    exists.
    """
    parent_layout = _bound_layout(parent_bounds)
    child_layout = _bound_layout(child_bounds)
    child_row = {key: m0 + i for i, key in enumerate(child_layout)}

    def map_row(r: int) -> int | None:
        if r < parent_m0:
            return r
        return child_row.get(parent_layout[r - parent_m0])

    slack_rows: list[int] = []
    art_rows: list[int] = []
    for r in parent.slack_rows:
        mr = map_row(int(r))
        if mr is None:
            return None
        slack_rows.append(mr)
    for r in parent.art_rows:
        mr = map_row(int(r))
        if mr is None:
            return None
        art_rows.append(mr)
    slack_rows.extend(range(parent_m0, m0))
    parent_keys = set(parent_layout)
    for key in child_layout:
        if key not in parent_keys:
            slack_rows.append(child_row[key])
    return BasisLabels(
        struct=parent.struct,
        slack_rows=np.asarray(slack_rows, dtype=np.int64),
        art_rows=np.asarray(art_rows, dtype=np.int64),
    )


def solve_milp(
    model,
    gap_tol: float = DEFAULT_GAP_TOL,
    node_limit: int = DEFAULT_NODE_LIMIT,
    *,
    separate: Separator | None = None,
    node_log: TextIO | None = None,
) -> MilpOutcome:
    """Solve a MipModel or MilpProblem to the requested gap.

    The gap is the hybrid ``(UB - LB) / (1 + |UB|)``. Hitting the node
    limit returns status ``node_limit`` with the best incumbent and bound,
    never a silent "optimal".

    ``separate(x, bound)`` adds constraints lazily, with ``bound`` the
    tree's global lower bound at that moment. It returns ``(rows, point)``:
    ``rows`` are valid constraints ``(coefficients, rhs)`` meaning
    ``coefficients @ x <= rhs``, one row (a vector and a float) or a block
    (a dense or sparse matrix and a vector), or None when it has none to
    add, and ``point`` is a feasible solution offered as incumbent, or
    None. The rows are appended to the LP of every node solved from then
    on. It is called

    - at every node whose LP optimum ``x`` is integral on the integer
      columns (they are rounded first). ``point`` must carry the integer
      values of ``x``. The node goes back on the heap to be solved again
      with the rows unless the incumbent already closes its gap;
    - at the root while its LP optimum is fractional, with ``x``
      unrounded. ``point`` is ignored. Rows re-solve the root from its
      basis, their slacks basic; no rows, or a root bound that stalled
      (see ``ROOT_STALL_ROUNDS``), end these rounds and branching starts.

    Without a separator every integral LP optimum is an incumbent. A
    MipModel without a separator runs the root rounds on its strong
    linking rows (:class:`~intransit.model.Linking`): each round appends
    every linking row the root's LP optimum violates, as one block. They
    cut off no integral point, so integral nodes are not separated.
    """
    prob = _as_milp(model)
    root_separate = separate
    if separate is None and isinstance(model, MipModel):
        root_separate = _linking_separator(model)
    int_cols = np.asarray(prob.integer_columns, dtype=np.int64)

    base = prob.lp

    implied_upper: dict[int, float] = {}
    if prob.integer_upper is not None:
        for col, ub in zip(int_cols, prob.integer_upper):
            implied_upper[int(col)] = float(ub)

    log_writer = None
    if node_log is not None:
        log_writer = csv.writer(node_log)
        log_writer.writerow(["node", "depth", "bound", "incumbent"])

    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    root_rounds = root_separate is not None
    round_bounds: list[float] = []
    root_bound = -math.inf
    nodes = 0
    counter = 0
    # each entry carries the basis it was pushed with and the bounds and
    # base row count that basis was solved under; it is re-indexed on pop
    heap: list[tuple[float, int, int, dict, tuple | None]] = []

    def push(bound: float, depth: int, bounds: dict, warm: tuple | None) -> None:
        nonlocal counter
        heapq.heappush(heap, (bound, counter, depth, bounds, warm))
        counter += 1

    def rel_gap(ub: float, lb: float) -> float:
        if not math.isfinite(ub):
            return math.inf
        return (ub - lb) / (1.0 + abs(ub))

    push(-math.inf, 0, {}, None)

    while heap:
        bound, _, depth, bounds, warm = heapq.heappop(heap)
        if rel_gap(incumbent_obj, bound) <= gap_tol:
            # best-bound order: every remaining node is at least this bound
            heap.clear()
            break
        if nodes >= node_limit:
            push(bound, depth, bounds, warm)
            break
        nodes += 1

        labels = None if warm is None else _translate_basis(*warm, bounds, base.num_rows)
        outcome = solve_lp(_node_lp(base, bounds), warm=labels)
        if outcome.status == STATUS_INFEASIBLE:
            continue
        if outcome.status == STATUS_UNBOUNDED:
            raise SolverError(
                "node LP is unbounded; the integer model must be bounded below"
            )
        assert outcome.status == STATUS_OPTIMAL
        lp_obj = outcome.objective
        if depth == 0:
            root_bound = lp_obj
        if log_writer is not None:
            log_writer.writerow([nodes, depth, f"{lp_obj:.9g}", f"{incumbent_obj:.9g}"])
        if rel_gap(incumbent_obj, lp_obj) <= gap_tol:
            continue

        x = outcome.x
        vals = x[int_cols]
        frac = np.abs(vals - np.round(vals))
        # an LP without rows has no basis to carry
        here = None if outcome.basis is None else (outcome.basis, bounds, base.num_rows)
        fractional = bool(len(frac)) and float(frac.max()) > INTEGRALITY_TOL
        if fractional and root_rounds and depth == 0:
            round_bounds.append(lp_obj)
            stalled = len(round_bounds) > ROOT_STALL_ROUNDS and (
                lp_obj - round_bounds[-1 - ROOT_STALL_ROUNDS]
                <= ROOT_STALL_TOL * (1.0 + abs(lp_obj))
            )
            rows = None if stalled else root_separate(x, min(lp_obj, incumbent_obj))[0]
            if rows is not None:
                base = _append_rows(base, *rows)
                push(lp_obj, depth, bounds, here)
                continue
            root_rounds = False
        if fractional:
            j = int(np.argmax(frac))
            col = int(int_cols[j])
            val = float(vals[j])
            lo, hi = bounds.get(col, (0.0, math.inf))
            down = dict(bounds)
            down[col] = (lo, math.floor(val))
            push(lp_obj, depth + 1, down, here)
            up_lo = math.ceil(val)
            if up_lo <= min(hi, implied_upper.get(col, math.inf)):
                up = dict(bounds)
                up[col] = (up_lo, hi)
                push(lp_obj, depth + 1, up, here)
            continue

        x = x.copy()
        x[int_cols] = np.round(vals)
        if separate is None:
            rows, point, point_obj = None, x, lp_obj
        else:
            lower = min(lp_obj, incumbent_obj, heap[0][0] if heap else math.inf)
            rows, point = separate(x, lower)
            point_obj = math.inf if point is None else float(base.objective @ point)
        if point_obj < incumbent_obj - 1e-12:
            incumbent_obj = point_obj
            incumbent_x = point
        if rows is not None:
            base = _append_rows(base, *rows)
            if rel_gap(incumbent_obj, lp_obj) > gap_tol:
                push(lp_obj, depth, bounds, here)

    open_bounds = [entry[0] for entry in heap]
    if incumbent_x is None:
        if open_bounds:
            lb = min(open_bounds)
            return MilpOutcome(MILP_NODE_LIMIT, None, None, lb, math.inf, nodes, root_bound)
        return MilpOutcome(MILP_INFEASIBLE, None, None, math.inf, math.inf, nodes, root_bound)
    lb = min(open_bounds) if open_bounds else incumbent_obj
    lb = min(lb, incumbent_obj)
    gap = (incumbent_obj - lb) / (1.0 + abs(incumbent_obj))
    status = MILP_OPTIMAL if gap <= gap_tol else MILP_NODE_LIMIT
    return MilpOutcome(status, incumbent_x, incumbent_obj, lb, gap, nodes, root_bound)
