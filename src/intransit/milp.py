"""Best-bound branch-and-bound over the LP engine.

Serves two roles: the monolithic solver for small consolidation models,
which separates the model's strong linking rows at the fractional root,
and, with a separation callback that adds rows lazily, the one
branch-and-cut tree of the decomposition's integer master. Branching
picks the most fractional integer column (ties: lowest index) and
tightens its column bounds in the two children, each warm-started from
its parent's optimal basis; node selection is best-bound first (ties:
insertion order). Both rules are deterministic.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, TextIO

import numpy as np

from .errors import SolverError
from .model import MipModel
from .simplex import (
    STATUS_INFEASIBLE,
    BasisLabels,
    LpProblem,
    issparse,
    solve_lp,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

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
Rows = tuple["np.ndarray | sp.spmatrix", "np.ndarray | float"]
Separator = Callable[[np.ndarray, float], tuple[Rows | None, np.ndarray | None]]


@dataclass
class MilpProblem:
    """An LP plus integrality marks. The LP's column bounds are the root's;
    branching tightens them node by node."""

    lp: LpProblem
    integer_columns: np.ndarray


@dataclass
class MilpOutcome:
    status: str
    x: np.ndarray | None
    objective: float | None
    bound: float
    gap: float
    nodes: int
    root_bound: float  # the root LP's last optimum, after its rounds; -inf if none


def relative_gap(ub: float, lb: float) -> float:
    """The hybrid gap ``(ub - lb) / (1 + |ub|)``; infinite without an incumbent."""
    return (ub - lb) / (1.0 + abs(ub)) if math.isfinite(ub) else math.inf


def lp_from_mip(model: MipModel) -> LpProblem:
    """The LP relaxation of a consolidation model (integrality dropped)."""
    return LpProblem(
        objective=model.objective, A=model.A, senses=model.senses, rhs=model.rhs
    )


def _as_milp(model) -> MilpProblem:
    if isinstance(model, MilpProblem):
        return model
    if isinstance(model, MipModel):
        lp = lp_from_mip(model)
        # the container bound keeps the tree finite
        lp.upper[model.integer_columns] = float(model.instance.container_bound())
        return MilpProblem(lp=lp, integer_columns=np.asarray(model.integer_columns))
    raise SolverError(f"cannot solve object of type {type(model).__name__}")


def append_rows(base: LpProblem, extra, rhs) -> LpProblem:
    """``base`` plus the rows ``extra @ x <= rhs``, stored as ``base`` is."""
    rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
    if issparse(base.A):
        import scipy.sparse as sp

        A = sp.vstack([base.A, sp.csr_matrix(extra)], format="csr")
    else:
        extra = extra.toarray() if issparse(extra) else np.asarray(extra, dtype=np.float64)
        extra = extra.reshape(len(rhs), base.num_cols)
        A = np.concatenate([base.A, extra], axis=0)
    senses = np.concatenate([base.senses, np.full(len(rhs), "<")])
    return replace(base, A=A, senses=senses, rhs=np.concatenate([base.rhs, rhs]))


def _linking_separator(model: MipModel) -> Separator:
    """Separates the model's strong linking rows, every violated one as one
    block. Used at the fractional root only: no integral point violates
    them (see :class:`~intransit.model.Linking`)."""
    link = model.linking

    def separate(x: np.ndarray, bound: float):
        entries = link.violated(x)
        if not len(entries):
            return None, None
        return (link.block(entries, model.A), np.zeros(len(entries))), None

    return separate


def solve_milp(
    model,
    gap_tol: float = DEFAULT_GAP_TOL,
    node_limit: int = DEFAULT_NODE_LIMIT,
    *,
    separate: Separator | None = None,
    node_log: TextIO | None = None,
) -> MilpOutcome:
    """Solve a MipModel or MilpProblem to the requested gap.

    A MipModel's container counts are bounded above by
    ``Instance.container_bound``; a MilpProblem's bounds are its LP's. The
    gap is the hybrid ``(UB - LB) / (1 + |UB|)``. Hitting the node
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
      basis, which gives them their slacks; no rows, or a root bound that
      stalled (see ``ROOT_STALL_ROUNDS``), end these rounds and branching
      starts.

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
    # each entry carries its column bounds and the optimal basis of the
    # node it came from, which warm-starts it
    heap: list[tuple[float, int, int, np.ndarray, np.ndarray, BasisLabels | None]] = []

    def push(bound: float, depth: int, lower, upper, warm: BasisLabels | None) -> None:
        nonlocal counter
        heapq.heappush(heap, (bound, counter, depth, lower, upper, warm))
        counter += 1

    push(-math.inf, 0, base.lower, base.upper, None)

    while heap:
        bound, _, depth, lower, upper, warm = heapq.heappop(heap)
        if relative_gap(incumbent_obj, bound) <= gap_tol:
            # best-bound order: every remaining node is at least this bound
            heap.clear()
            break
        if nodes >= node_limit:
            push(bound, depth, lower, upper, warm)
            break
        nodes += 1

        outcome = solve_lp(base.with_bounds(lower, upper), warm=warm)
        if outcome.status == STATUS_INFEASIBLE:
            continue
        lp_obj = outcome.objective
        if depth == 0:
            root_bound = lp_obj
        if log_writer is not None:
            log_writer.writerow([nodes, depth, repr(lp_obj), repr(incumbent_obj)])
        if relative_gap(incumbent_obj, lp_obj) <= gap_tol:
            continue

        x = outcome.x
        vals = x[int_cols]
        frac = np.abs(vals - np.round(vals))
        fractional = bool(len(frac)) and float(frac.max()) > INTEGRALITY_TOL
        if fractional and root_rounds and depth == 0:
            round_bounds.append(lp_obj)
            stalled = len(round_bounds) > ROOT_STALL_ROUNDS and (
                lp_obj - round_bounds[-1 - ROOT_STALL_ROUNDS]
                <= ROOT_STALL_TOL * (1.0 + abs(lp_obj))
            )
            rows = None if stalled else root_separate(x, min(lp_obj, incumbent_obj))[0]
            if rows is not None:
                base = append_rows(base, *rows)
                push(lp_obj, depth, lower, upper, outcome.basis)
                continue
            root_rounds = False
        if fractional:
            j = int(np.argmax(frac))
            col = int(int_cols[j])
            val = float(vals[j])
            if math.floor(val) >= lower[col]:
                down = upper.copy()
                down[col] = math.floor(val)
                push(lp_obj, depth + 1, lower, down, outcome.basis)
            if math.ceil(val) <= upper[col]:
                up = lower.copy()
                up[col] = math.ceil(val)
                push(lp_obj, depth + 1, up, upper, outcome.basis)
            continue

        x = x.copy()
        x[int_cols] = np.round(vals)
        if separate is None:
            rows, point, point_obj = None, x, lp_obj
        else:
            tree_bound = min(lp_obj, incumbent_obj, heap[0][0] if heap else math.inf)
            rows, point = separate(x, tree_bound)
            point_obj = math.inf if point is None else float(base.objective @ point)
        if point_obj < incumbent_obj - 1e-12:
            incumbent_obj = point_obj
            incumbent_x = point
        if rows is not None:
            base = append_rows(base, *rows)
            if relative_gap(incumbent_obj, lp_obj) > gap_tol:
                push(lp_obj, depth, lower, upper, outcome.basis)

    open_bounds = [entry[0] for entry in heap]
    if incumbent_x is None:
        if open_bounds:
            lb = min(open_bounds)
            return MilpOutcome(MILP_NODE_LIMIT, None, None, lb, math.inf, nodes, root_bound)
        return MilpOutcome(MILP_INFEASIBLE, None, None, math.inf, math.inf, nodes, root_bound)
    lb = min(open_bounds) if open_bounds else incumbent_obj
    lb = min(lb, incumbent_obj)
    gap = relative_gap(incumbent_obj, lb)
    status = MILP_OPTIMAL if gap <= gap_tol else MILP_NODE_LIMIT
    return MilpOutcome(status, incumbent_x, incumbent_obj, lb, gap, nodes, root_bound)
