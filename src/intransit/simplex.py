"""Revised dual simplex with dual values and infeasibility certificates.

Solves ``min c'x  s.t.  A_eq x = b_eq, A_le x <= b_le, lower <= x <= upper``
(``lower`` finite, ``upper`` possibly infinite, no negative cost on a
column without an upper bound, so ``c'x`` is bounded below) and returns
one of two certified outcomes:

* Optimal: primal vector, dual vector y (free on ``=`` rows, nonpositive on
  ``<=`` rows), and the objective; strong duality holds within tolerance,
  the reduced costs ``c - A'y`` pricing the bounds.
* Infeasible: a Farkas ray y over the rows (respecting row signs) whose
  ``y'b`` exceeds the largest ``(A'y)'x`` over the box; where a column has
  no upper bound this needs ``(A'y)_j <= 0``.

A shift ``x = lower + x'`` moves every lower bound to zero. Each row then
gets one slack column, so the LP solved is ``[A | I] (x, s) = b``; a
slack is bounded by ``[0, inf)`` on a ``<`` row and fixed at ``[0, 0]``
on an ``=`` row. A nonbasic column sits at zero or at its upper bound,
from where the ratio test moves it, and a basic one outside its bounds
leaves at the bound it crossed (Koberstein, 2005; Maros, 2003). A column
fixed at zero never enters the basis.

How ``A`` is stored picks the basis. A scipy sparse matrix runs on a
sparse LU factorization plus the pivots since, kept as one sparse matrix
of eta columns and a small triangular inverse that chains them, so FTRAN
and BTRAN apply every eta at once; a numpy array runs on an explicit
inverse updated in place. Both refactorize every ``REFACTOR_EVERY``
pivots. :func:`~intransit.model.build_mip` stores a model of at most
``DENSE_ROWS`` rows dense and a taller one sparse, and the Benders master
is dense, so scipy is imported only where a sparse matrix is built or
factored: a program that solves only short LPs never loads it.

Every LP is solved by one pivoting loop, the dual simplex, started from a
warm basis if one is given, else (or when that basis is of no use) from
the slack basis. A start must be dual feasible. Each nonbasic column with
an upper bound sits at the bound its reduced cost prices, so only a
column without one that prices below zero spoils a start. A warm basis
where one does is given up; at the slack basis the reduced costs are
the costs, so it is dual feasible on every LP ``LpProblem`` accepts. The
loop's pivots drive each basic variable outside its bounds, a fixed slack
off zero among them, back inside. From every start the entering column
comes from Harris's two-pass ratio test, which prefers a large pivot
among near ties, under one pivot tolerance (Harris, 1973; Koberstein,
2005). Dual Devex (Forrest & Goldfarb, 1992) prices the leaving row from
the slack basis only, where its weights start exact; on warm starts it
measured no faster. A fixed slack that stays basic at zero blocks every
step that would move it, which also neutralizes linearly dependent rows.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SolverError

if TYPE_CHECKING:
    import scipy.sparse as sp

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"

TOL = 1e-7  # primal and dual feasibility tolerance
# absolute dual tolerance of the pivoting, well below TOL: solve_lp
# equilibrates first, so reduced-cost noise sits near machine epsilon and a
# leftover -1e-7 entry would be a real suboptimality, not dust
DUAL_TOL = 0.01 * TOL
# the one pivot-size threshold, on the pivot row entries of entering
# candidates and on the pivot element the FTRAN gives
PIVOT_TOL = 1e-7
# absolute primal feasibility target of the pivoting: a slack left at -1e-5
# and clamped would shift the objective below the true optimum, so
# rhs-scaled slack is not acceptable here
FEAS_TOL = 1e-9
REFACTOR_EVERY = 100  # pivots between refactorizations of the basis


def issparse(A) -> bool:
    """Whether ``A`` is a scipy sparse matrix. Needs no import: while
    ``scipy.sparse`` is not loaded, nothing can be one."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(A)


@dataclass
class LpProblem:
    """Minimization LP over bounded variables, ``lower <= x <= upper``.

    ``senses`` holds ``"="`` or ``"<"`` per row. ``lower`` defaults to
    zero and must be finite; ``upper`` defaults to +inf. A column without
    an upper bound may not have a negative cost, so ``c'x`` is bounded
    below on the box and the LP is infeasible or has an optimum; the
    consolidation LPs all have nonnegative costs. ``A`` given as a scipy
    sparse matrix is solved on the sparse LU basis; anything else is
    stored as a dense array and solved on the explicit-inverse basis. A
    model's LP is stored dense up to ``DENSE_ROWS`` rows (see
    :func:`~intransit.model.build_mip`).
    """

    objective: np.ndarray
    A: sp.spmatrix | np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=np.float64)
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        self.senses = np.asarray(self.senses, dtype="<U1")
        if not issparse(self.A):
            self.A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        m, n = self.A.shape
        if self.objective.shape != (n,):
            raise SolverError("objective length does not match column count")
        if self.rhs.shape != (m,) or self.senses.shape != (m,):
            raise SolverError("rhs/senses length does not match row count")
        if not set(self.senses.tolist()) <= {"=", "<"}:
            raise SolverError("senses must be '=' or '<'")
        for name, arr in (("objective", self.objective), ("rhs", self.rhs)):
            if not np.all(np.isfinite(arr)):
                raise SolverError(f"{name} contains NaN or infinite entries")
        entries = self.A.data if issparse(self.A) else self.A
        if not np.all(np.isfinite(entries)):
            raise SolverError("constraint matrix contains NaN or infinite entries")
        self._set_bounds(self.lower, self.upper)

    def _set_bounds(self, lower, upper) -> None:
        n = self.num_cols
        self.lower = np.asarray(np.zeros(n) if lower is None else lower, dtype=float)
        self.upper = np.asarray(np.full(n, np.inf) if upper is None else upper, dtype=float)
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise SolverError("bound length does not match column count")
        if not np.all(np.isfinite(self.lower)):
            raise SolverError("lower contains NaN or infinite entries")
        if not (self.lower <= self.upper).all():
            raise SolverError("upper is NaN or below lower somewhere")
        if (self.objective[self.upper == np.inf] < 0.0).any():
            raise SolverError("negative cost on a column without an upper bound")

    def with_bounds(self, lower: np.ndarray, upper: np.ndarray) -> LpProblem:
        """This LP with new column bounds, which alone are checked: the rows
        and costs were validated when this LP was made, and are shared."""
        lp = copy.copy(self)
        lp._set_bounds(lower, upper)
        return lp

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class BasisLabels:
    """Row-independent description of an optimal basis.

    ``struct`` holds basic structural column indices, ``slack_rows`` the
    rows whose slack is basic (on an ``=`` row a slack fixed at zero, a
    degenerate leftover). Used to warm-start a related LP that shares
    columns and most rows.
    """

    struct: np.ndarray
    slack_rows: np.ndarray


@dataclass
class LpOutcome:
    status: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    objective: float | None = None
    farkas_ray: np.ndarray | None = None
    pivots: int = 0
    basis: BasisLabels | None = None


class _DenseBasis:
    """Dense twin of :class:`_Basis` for LPs stored as numpy arrays.

    Keeps the full constraint matrix and an explicit basis inverse, which
    avoids sparse-object overhead that dominates on short LPs such as the
    Benders master and models of at most ``DENSE_ROWS`` rows. The
    product-form update is applied to the inverse directly, so there is no
    eta file.
    """

    def __init__(self, A_std: np.ndarray):
        self.A = A_std
        self.m = A_std.shape[0]
        self.basis = np.zeros(self.m, dtype=np.int64)
        self.Binv: np.ndarray | None = None

    def price(self, y: np.ndarray) -> np.ndarray:
        return y @ self.A

    def column(self, j: int) -> np.ndarray:
        return self.A[:, j].copy()

    def refactor(self) -> None:
        try:
            self.Binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular basis during refactorization: {exc}") from None

    def ftran(self, v: np.ndarray) -> np.ndarray:
        return self.Binv @ v

    def btran(self, w: np.ndarray) -> np.ndarray:
        return self.Binv.T @ w

    def update(self, leave_pos: int, d: np.ndarray) -> None:
        row = self.Binv[leave_pos] / d[leave_pos]
        self.Binv -= np.outer(d, row)
        self.Binv[leave_pos] = row


class _Basis:
    """Basis bookkeeping for LPs stored sparse: sparse LU of B0 plus an eta file.

    The k-th pivot since the last refactorization left row ``r_k`` with eta
    column ``eta_k`` (``-d / d_r``, with ``1 / d_r`` at ``r_k``), so that
    ``B^-1 = E_K ... E_1 B0^-1`` with ``E_k = I + h_k e_{r_k}'`` and
    ``h_k = eta_k - e_{r_k}``. The file keeps the h_k as the columns of one
    sparse m x K matrix ``H``, in flat COO arrays, so the product of all K
    etas is ``I + H Minv P``: ``P`` picks the rows ``R = (r_1 .. r_K)``, and
    ``Minv`` is the inverse of the unit lower triangle ``I - L``,
    ``L[k, j] = H[r_k, j]`` for j < k, which carries what earlier etas
    wrote onto each later pivot row. FTRAN and BTRAN then cost a fixed
    number of array operations whatever K is.
    """

    def __init__(self, A_std: sp.csc_matrix):
        self.AT = A_std.T.tocsr()
        self.m = A_std.shape[0]
        # every basis column is a slice of these CSC arrays
        self.indptr, self.indices, self.data = A_std.indptr, A_std.indices, A_std.data
        self.basis = np.zeros(self.m, dtype=np.int64)
        self.lu = None
        # The dual loop refactorizes at every multiple of REFACTOR_EVERY
        # pivots, which empties the file, and each of its runs starts and
        # ends at a fresh factorization, so no more than REFACTOR_EVERY
        # etas are ever on file and R and Minv never need to grow.
        self.R = np.zeros(REFACTOR_EVERY, dtype=np.int64)
        # only the strict lower triangle is ever written: the diagonal and
        # the upper triangle keep the identity's ones and zeros
        self.Minv = np.eye(REFACTOR_EVERY)

    def price(self, y: np.ndarray) -> np.ndarray:
        return self.AT @ y

    def column(self, j: int) -> np.ndarray:
        lo, hi = self.indptr[j], self.indptr[j + 1]
        col = np.zeros(self.m)
        col[self.indices[lo:hi]] = self.data[lo:hi]
        return col

    def refactor(self) -> None:
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        starts = self.indptr[self.basis]
        lengths = self.indptr[self.basis + 1] - starts
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        # positions of each basis column's entries, gathered in one pass
        take = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        B = csc_matrix(
            (self.data[take], self.indices[take], indptr), shape=(self.m, self.m)
        )
        try:
            # without supernode relaxation, which factors and solves these
            # bases faster than SuperLU's default options do
            self.lu = splu(B, relax=1, panel_size=1)
        except RuntimeError as exc:
            raise SolverError(f"singular basis during refactorization: {exc}") from None
        self.K = 0  # etas on file
        # H by entries: row, column (the eta's index) and value. It grows by
        # concatenation; buffers sized for REFACTOR_EVERY full columns of m
        # entries each slowed the LU factorization of short LPs measurably
        self.h_row = self.h_col = np.zeros(0, dtype=np.int64)
        self.h_val = np.zeros(0)

    def ftran(self, v: np.ndarray) -> np.ndarray:
        x = self.lu.solve(np.asarray(v, dtype=np.float64))
        K = self.K
        if K:
            s = self.Minv[:K, :K] @ x[self.R[:K]]
            x += np.bincount(self.h_row, self.h_val * s[self.h_col], minlength=self.m)
        return x

    def btran(self, w: np.ndarray) -> np.ndarray:
        y = np.array(w, dtype=np.float64)
        K = self.K
        if K:
            Hty = np.bincount(self.h_col, self.h_val * y[self.h_row], minlength=K)
            # a row that left twice collects both terms
            y += np.bincount(self.R[:K], Hty @ self.Minv[:K, :K], minlength=self.m)
        return self.lu.solve(y, trans="T")

    def update(self, leave_pos: int, d: np.ndarray) -> None:
        K = self.K
        # L's new row, ell: the entries the etas on file hold on the leaving
        # row, at most one per eta; the new row of Minv is ell @ Minv
        on_row = (self.h_row == leave_pos).nonzero()[0]
        self.Minv[K, :K] = self.h_val[on_row] @ self.Minv[self.h_col[on_row], :K]
        dr = d[leave_pos]
        h = d / -dr
        h[leave_pos] = 1.0 / dr - 1.0  # eta_r = 1 / d_r, less e_r
        # entries 1e-14 below the column's largest are rounding dust from
        # the LU solve, often most of d on a branch-and-bound node's basis;
        # the eta's products already carry errors of that size
        size = np.abs(h)
        rows = (size > 1e-14 * size.max()).nonzero()[0]
        self.h_row = np.concatenate((self.h_row, rows))
        self.h_col = np.concatenate((self.h_col, np.full(len(rows), K)))
        self.h_val = np.concatenate((self.h_val, h[rows]))
        self.R[K] = leave_pos
        self.K = K + 1


@dataclass
class _State:
    B: _Basis | _DenseBasis
    x_B: np.ndarray
    # the rhs the basis sees, b minus every column nonbasic at its upper bound
    b: np.ndarray
    upper: np.ndarray  # per column of [A | I]
    # per column, the way it can move while nonbasic: 1.0 at zero, -1.0 at
    # its upper bound
    move: np.ndarray
    pivots: int
    # pivot count at the last refactor + exact x_B recompute; lets the dual
    # loop stop without a redundant refactor when nothing moved since
    fresh_at: int


def _place(B, rhs: np.ndarray, upper: np.ndarray, reduced: np.ndarray) -> _State:
    """The iterate at basis ``B`` with each nonbasic column at the bound its
    reduced cost makes dual feasible: its upper bound where it prices below
    ``-DUAL_TOL``, which the caller has checked is finite, else zero."""
    at_upper = (reduced < -DUAL_TOL) & (upper > 0.0)
    b = rhs
    for j in np.flatnonzero(at_upper):
        b = b - upper[j] * B.column(j)
    move = np.where(at_upper, -1.0, 1.0)
    return _State(B, B.ftran(b), b, upper, move, pivots=0, fresh_at=0)


def _pricing(B, c_std: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The duals at basis ``B`` and the reduced costs, zero on basic columns."""
    y = B.btran(c_std[B.basis])
    reduced = c_std - B.price(y)
    reduced[B.basis] = 0.0
    return y, reduced


def _refresh(state: _State) -> None:
    """Refactor the basis and recompute ``x_B`` from it exactly."""
    state.B.refactor()
    state.x_B = state.B.ftran(state.b)
    state.fresh_at = state.pivots


def _leaving_row(outside: np.ndarray, w: np.ndarray | None) -> int | None:
    """The row to leave under dual pricing, or None if every row is feasible.

    ``outside`` is how far each basic variable lies outside its bounds
    (negative inside them), ``w`` its row's reference weight, None for all
    ones. Rows compete on squared infeasibility per unit of weight, but
    only those outside by more than ``FEAS_TOL``: the others score -1, so
    the winner is infeasible whenever any row is. Without that mask a row
    inside its bounds could outscore a heavily weighted infeasible row and
    the basis be taken as feasible.
    """
    if w is None:
        score = outside
    else:
        score = np.where(outside > FEAS_TOL, outside * outside / w, -1.0)
    r = int(np.argmax(score))
    return r if outside[r] > FEAS_TOL else None


def _dual_iterate(state: _State, reduced: np.ndarray, from_slack: bool) -> int | None:
    """Dual-simplex pivots from a dual-feasible basis toward primal feasibility.

    Every solve runs this loop straight from its start: the slack basis,
    dual feasible on every LP, or a warm basis that prices dual feasible.
    ``reduced`` holds the reduced costs at entry (basic entries zero,
    nonnegative at zero, nonpositive at an upper bound, either sign on a
    column fixed at zero) and is maintained incrementally with each pivot.

    The leaving row is picked by :func:`_leaving_row` and leaves at the
    bound it crossed. From every start the entering column comes from
    Harris's two-pass ratio test (Koberstein, 2005): among the columns
    whose pivot row entry exceeds ``PIVOT_TOL``, the first pass bounds the
    dual step by letting every candidate's reduced cost cross zero by
    ``DUAL_TOL``, the second takes the candidate with the largest
    ``|alpha|`` among those whose ratio is within that bound. The FTRAN's
    pivot element must exceed the same ``PIVOT_TOL``. ``from_slack`` gates
    dual Devex only (Forrest & Goldfarb, 1992): from the slack basis the
    reference weights start at 1, the exact squared norm of every row of
    ``B^-1`` at ``B = I``, and Devex updates them from each pivot column.
    A warm basis has no exact start for them, and Devex there measured
    no faster, so from it the row farthest outside leaves.

    A row that no column can move toward its bound, but that is off by no
    more than rounding allows (``TOL`` scaled by the rhs), is held at that
    bound. Both exits are taken at a freshly factored basis with ``x_B``
    recomputed from it, never on values tracked through the pivots: None
    once every basic variable is feasible to ``FEAS_TOL``, or held, and the
    index of a row certifying primal infeasibility once one is off by more
    and no column can move it. Raises on numerical breakdown or a pivot
    cap; the caller then tries its next starting basis.
    """
    B = state.B
    upper, move = state.upper, state.move
    basis = B.basis
    u_B = upper[basis]
    # the columns that may not enter: the basic ones and those fixed at zero
    barred = upper == 0.0
    barred[basis] = True
    cap = state.pivots + 50 + 10 * B.m
    margin = TOL * (1.0 + float(np.abs(state.b).max(initial=0.0)))
    e = np.zeros(B.m)
    w = np.ones(B.m) if from_slack else None  # reference weights, per basis position
    while True:
        r = _leaving_row(np.maximum(-state.x_B, state.x_B - u_B), w)
        if r is None:
            if state.fresh_at == state.pivots:
                return None
            # recompute the iterate exactly; if residual dust reappears
            # at this basis, pivot it out too rather than clamping it away
            _refresh(state)
            continue
        # the leaving variable moves down to its upper bound, or up to zero
        # from below; entering candidates push it that way, a column at its
        # upper bound by moving down
        sign = 1.0 if state.x_B[r] > 0.0 else -1.0
        to_upper = sign > 0.0
        target = u_B[r] if to_upper else 0.0
        e[:] = 0.0
        e[r] = 1.0
        rho = B.btran(e)
        alpha = B.price(rho)
        alpha[barred] = 0.0
        # |alpha| where a column can push the leaving variable its way
        push = sign * alpha * move
        candidates = np.flatnonzero(push > PIVOT_TOL)
        if len(candidates) == 0:
            if abs(state.x_B[r] - target) <= margin:
                # rounding dust: count the row as feasible until the next
                # exact recompute of x_B shows it again
                state.x_B[r] = target
            elif state.fresh_at == state.pivots:
                return r
            else:
                # x_B may have drifted through the pivots: recompute it
                # before calling the row infeasible
                _refresh(state)
            continue
        # |reduced| / |alpha|, or 0 where the reduced cost sits on the
        # wrong side of zero by rounding
        ratios = np.maximum(reduced[candidates] / (sign * alpha[candidates]), 0.0)
        size = push[candidates]
        bound = (ratios + DUAL_TOL / size).min()
        q = int(candidates[np.argmax(np.where(ratios <= bound, size, 0.0))])
        d = B.ftran(B.column(q))
        if abs(d[r]) <= PIVOT_TOL:
            raise SolverError("dual pivot element too small; dual path abandoned")
        theta = (state.x_B[r] - target) / d[r]
        state.x_B -= theta * d
        state.x_B[r] = theta if move[q] > 0.0 else theta + upper[q]
        B.update(r, d)
        if from_slack:
            # dual Devex: the pivot divides row r of B^-1 by d_r and takes
            # d_i times the result from each row i; each weight keeps the
            # larger of its old value and the weight of that new term
            ratio = w[r] / (d[r] * d[r])
            np.maximum(w, d * d * ratio, out=w)
            w[r] = max(ratio, 1.0)
        # dual step: shift reduced costs along the pivot row
        delta = reduced[q] / alpha[q]
        if delta != 0.0:
            reduced -= delta * alpha
        leaving = int(basis[r])
        if move[q] < 0.0:
            move[q] = 1.0
            state.b = state.b + upper[q] * B.column(q)
        barred[leaving] = upper[leaving] == 0.0
        reduced[leaving] = -delta
        if to_upper and upper[leaving] > 0.0:
            move[leaving] = -1.0
            state.b = state.b - upper[leaving] * B.column(leaving)
        barred[q] = True
        reduced[q] = 0.0
        basis[r] = q
        u_B[r] = upper[q]
        state.pivots += 1
        if state.pivots % REFACTOR_EVERY == 0:
            _refresh(state)
        if state.pivots >= cap:
            raise SolverError("dual pivot cap reached; dual path abandoned")


def _primal(state: _State, n: int) -> np.ndarray:
    """The iterate on the ``n`` structural columns, each nonbasic one at its bound."""
    basis = state.B.basis
    struct = basis < n
    x = np.zeros(n)
    x[basis[struct]] = state.x_B[struct]
    upper, at_upper = state.upper[:n], state.move[:n] < 0.0
    x[at_upper] = upper[at_upper]
    return np.clip(x, 0.0, upper, out=x)


def _extract(problem: LpProblem, state: _State, c_std: np.ndarray) -> LpOutcome | None:
    """The optimum at the primal feasible basis :func:`_dual_iterate` stopped at.

    The reduced costs are recomputed from the duals; None if one of them
    prices its column's move below ``-DUAL_TOL``, drift of the tracked ones
    that the caller treats as a breakdown.
    """
    n = problem.num_cols
    basis = state.B.basis
    y, reduced = _pricing(state.B, c_std)
    # a column at its upper bound improves by moving down; one fixed at
    # zero cannot move
    reduced *= state.move
    reduced[state.upper == 0.0] = 0.0
    if reduced.min() < -DUAL_TOL:
        return None
    x = _primal(state, n)
    struct = basis < n
    return LpOutcome(
        status=STATUS_OPTIMAL,
        x=x,
        y=y,
        objective=float(problem.objective @ x),
        pivots=state.pivots,
        basis=BasisLabels(struct=basis[struct].copy(), slack_rows=basis[~struct] - n),
    )


def _solve_trivial(objective: np.ndarray, upper: np.ndarray) -> LpOutcome:
    # no rows, lower bounds zero: each variable sits at 0 unless its cost
    # is negative, then at its upper bound, which LpProblem made finite
    x = np.where(objective < 0, upper, 0.0)
    return LpOutcome(status=STATUS_OPTIMAL, x=x, y=np.zeros(0))


def _pow2_scale(v: np.ndarray) -> np.ndarray:
    """Per-entry scale factors 2^-round(log2 v), snapped to powers of two.

    Powers of two multiply without rounding error, so equilibrating with
    them changes conditioning but not the exact values the pivoting sees.
    """
    safe = np.where(v > 0, v, 1.0)
    return np.exp2(-np.round(np.log2(safe)))


def _equilibration(A, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-norm row scales then column scales for the constraint matrix.

    Columns fixed at zero (``upper == 0`` after the lower-bound shift)
    never enter the basis, so they are left out of the row maxima.
    """
    fixed = upper == 0.0
    if issparse(A):
        A = A.tocsr()
        data = np.abs(A.data)
        counts = np.diff(A.indptr)
        rmax = np.zeros(A.shape[0])
        filled = np.flatnonzero(counts)  # reduceat would misread an empty row
        rmax[filled] = np.maximum.reduceat(
            np.where(fixed[A.indices], 0.0, data), A.indptr[filled]
        )
        r = _pow2_scale(rmax)
        data *= np.repeat(r, counts)
        cmax = np.zeros(A.shape[1])
        np.maximum.at(cmax, A.indices, data)
    else:
        Aabs = np.abs(A)
        r = _pow2_scale(np.where(fixed, 0.0, Aabs).max(axis=1, initial=0.0))
        cmax = (Aabs * r[:, None]).max(axis=0)
    # a column of dust alone (a 1e-13 entry of a Benders cut row) is scaled
    # as an empty column: scaled up to 1 it would set sig_c so small that
    # every real scaled cost falls below the optimality tolerance
    return r, _pow2_scale(np.where(cmax > 1e-9, cmax, 0.0))


def solve_lp(problem: LpProblem, *, warm: BasisLabels | None = None) -> LpOutcome:
    """Solve an LP; deterministic for identical input.

    Raises :class:`SolverError` on numerical breakdown (singular basis,
    pivot cap, reduced costs that drifted) from every start; breakdown is
    never reported as a solution status.

    ``warm`` is an optional basis from a related solved LP: same columns,
    overlapping rows, bounds that may differ. Rows past the count it names
    are taken as rows appended since, their slacks basic. Each
    nonbasic column with an upper bound starts at the bound its reduced
    cost makes dual feasible. If the basis is then dual feasible here,
    dual-simplex pivots restore primal feasibility; if it is not, or the
    pivoting breaks down, the solve starts again from the slack basis,
    where every cold solve runs. With no negative cost on a column
    without an upper bound, the slack basis is dual feasible, so every LP
    ends infeasible or optimal.

    The lower bounds are shifted out first (``b - A·lower``). The problem
    is then equilibrated internally (power-of-two row and column scales,
    plus uniform scales bringing costs and rhs near 1) and the outcome
    mapped back, so tolerances behave the same across instances whose raw
    coefficients differ by orders of magnitude.
    """
    lower = problem.lower
    rhs, upper = problem.rhs, problem.upper
    if lower.any():
        rhs = rhs - problem.A @ lower
        upper = upper - lower
    if problem.num_rows == 0:
        out = _solve_trivial(problem.objective, upper)
    else:
        r, s = _equilibration(problem.A, upper)
        sig_c = float(_pow2_scale(np.array([np.abs(problem.objective * s).max(initial=0.0)]))[0])
        sig_b = float(_pow2_scale(np.array([np.abs(rhs * r).max(initial=0.0)]))[0])
        if issparse(problem.A):
            A_s = problem.A.tocsc(copy=True)
            A_s.data *= r[A_s.indices] * np.repeat(s, np.diff(A_s.indptr))
        else:
            A_s = problem.A * r[:, None] * s[None, :]
        # the input was validated on construction and the scales are finite
        # powers of two, so skip a second validation pass
        scaled = LpProblem.__new__(LpProblem)
        scaled.objective = problem.objective * s * sig_c
        scaled.A = A_s
        scaled.senses = problem.senses
        scaled.rhs = rhs * r * sig_b
        scaled.lower = np.zeros(problem.num_cols)
        scaled.upper = upper / s * sig_b
        out = _solve_core(scaled, warm)
        if out.status == STATUS_OPTIMAL:
            out.x = out.x * s / sig_b
            out.y = out.y * r / sig_c
        else:
            out.farkas_ray = out.farkas_ray * r
    if out.status == STATUS_OPTIMAL:
        out.x = lower + out.x
        out.objective = float(problem.objective @ out.x)
    return out


def _solve_core(problem: LpProblem, warm: BasisLabels | None) -> LpOutcome:
    """Solve an LP whose lower bounds are zero."""
    m, n = problem.num_rows, problem.num_cols
    if issparse(problem.A):
        from scipy.sparse import csc_matrix

        basis_type = _Basis
        # [A | I], assembled directly in CSC
        A = problem.A.tocsc()
        A_std = csc_matrix(
            (
                np.concatenate([A.data, np.ones(m)]),
                np.concatenate([A.indices, np.arange(m)]),
                np.concatenate([A.indptr, A.nnz + np.arange(1, m + 1)]),
            ),
            shape=(m, n + m),
        )
    else:
        basis_type = _DenseBasis
        A_std = np.hstack([problem.A, np.eye(m)])

    c_std = np.concatenate([problem.objective, np.zeros(m)])
    # a slack is nonnegative on a '<' row and fixed at zero on an '=' row
    upper = np.concatenate([problem.upper, np.where(problem.senses == "<", np.inf, 0.0)])

    def fresh_basis():
        return basis_type(A_std)

    # the slack basis is dual feasible on every LP and decides it, so it is
    # always the last start
    slack = BasisLabels(struct=np.zeros(0, dtype=np.int64), slack_rows=np.arange(m))
    for start in ([] if warm is None else [warm]) + [slack]:
        outcome = _try_warm_start(problem, start, fresh_basis, c_std, upper)
        if outcome is not None:
            return outcome
    raise SolverError("dual simplex broke down from every starting basis")


def _try_warm_start(
    problem: LpProblem,
    warm: BasisLabels,
    fresh_basis,
    c_std: np.ndarray,
    upper: np.ndarray,
) -> LpOutcome | None:
    """Solve with the dual path from ``warm``; None means try the next start."""
    m, n = problem.num_rows, problem.num_cols
    struct = np.asarray(warm.struct, dtype=np.int64)
    if len(struct) and (struct.min() < 0 or struct.max() >= n):
        return None
    slack_rows = np.asarray(warm.slack_rows, dtype=np.int64)
    if len(slack_rows) and (slack_rows.min() < 0 or slack_rows.max() >= m):
        return None
    # a basis of fewer rows than this LP's: the rows past them were
    # appended since, and their slacks join it
    appended = np.arange(len(struct) + len(slack_rows), m)
    cols = np.concatenate([struct, n + slack_rows, n + appended])
    if len(cols) != m or len(np.unique(cols)) != m:
        return None

    B = fresh_basis()
    B.basis = cols
    try:
        B.refactor()
    except SolverError:
        return None

    # A column with an upper bound sits at the bound its reduced cost makes
    # dual feasible (a column fixed at zero at either), so the basis is dual
    # feasible unless a column without one prices below zero. LpProblem
    # gives no such column a negative cost, so the slack basis always is
    _, reduced = _pricing(B, c_std)
    if (reduced[upper == np.inf] < -DUAL_TOL).any():
        return None
    try:
        state = _place(B, problem.rhs, upper, reduced)
        bad_row = _dual_iterate(state, reduced, from_slack=len(struct) == 0)
        if bad_row is not None:
            # a variable stuck below zero certifies with -B^-T e_r, one
            # stuck above its upper bound with +B^-T e_r
            e = np.zeros(m)
            e[bad_row] = 1.0
            ray = np.sign(state.x_B[bad_row]) * B.btran(e)
            if _farkas_failures(problem, ray, TOL):
                # a ray that does not certify is a breakdown of this start
                return None
            return LpOutcome(status=STATUS_INFEASIBLE, farkas_ray=ray, pivots=state.pivots)
        return _extract(problem, state, c_std)
    except SolverError:
        # a breakdown from this start; the caller tries the next one
        return None


def _farkas_failures(problem: LpProblem, ray: np.ndarray, tol: float) -> list[str]:
    """Why ``ray`` fails to certify that ``problem`` is infeasible; empty
    if it certifies. Checked on the ray scaled to a largest entry of 1."""
    norm = float(np.abs(ray).max(initial=0.0))
    if norm <= tol:
        return ["zero Farkas ray"]
    failures = []
    r = ray / norm
    le = problem.senses == "<"
    if le.any() and float(r[le].max(initial=0.0)) > tol:
        failures.append("Farkas sign on <= rows")
    aty = problem.A.T @ r
    boxed = problem.upper < np.inf
    if float(aty[~boxed].max(initial=0.0)) > tol * 100:
        failures.append("Farkas column condition A'y <= 0")
    # y'b against the largest (A'y)'x over the box
    reach = problem.lower @ np.minimum(aty, 0.0) + problem.upper[boxed] @ np.maximum(aty[boxed], 0.0)
    if float(r @ problem.rhs - reach) <= tol:
        failures.append("Farkas ray fails to certify: y'b not above (A'y)'x on the box")
    return failures


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    failures: list[str]


def verify_certificate(
    problem: LpProblem, outcome: LpOutcome, tol: float = TOL
) -> CertificateReport:
    """Independently re-check the invariant bundle for an LpOutcome."""
    failures: list[str] = []
    A = problem.A.tocsr() if issparse(problem.A) else problem.A
    le = problem.senses == "<"
    eq = ~le
    lower, upper = problem.lower, problem.upper
    boxed = upper < np.inf
    scale_b = 1.0 + float(np.abs(problem.rhs).max(initial=0.0))
    scale_c = 1.0 + float(np.abs(problem.objective).max(initial=0.0))

    if outcome.status == STATUS_OPTIMAL:
        x, y = outcome.x, outcome.y
        if x is None or y is None:
            return CertificateReport(False, ["optimal outcome lacks x or y"])
        if len(x) and float((lower - x).max(initial=0.0)) > tol:
            failures.append("primal below a lower bound")
        if float((x[boxed] - upper[boxed]).max(initial=0.0)) > tol:
            failures.append("primal above an upper bound")
        resid = A @ x - problem.rhs
        if eq.any() and float(np.abs(resid[eq]).max()) > tol * scale_b:
            failures.append("equality-row residual")
        if le.any() and float(resid[le].max(initial=0.0)) > tol * scale_b:
            failures.append("inequality-row violation")
        if le.any() and float(y[le].max(initial=0.0)) > tol:
            failures.append("dual sign on <= rows")
        dual_slack = problem.objective - A.T @ y
        if float((-dual_slack[~boxed]).max(initial=0.0)) > tol * scale_c * 10:
            failures.append("dual feasibility A'y <= c")
        cx = float(problem.objective @ x)
        # dual objective: the rows, then each reduced cost at the bound it prices
        yb = float(
            y @ problem.rhs
            + lower @ np.maximum(dual_slack, 0.0)
            + upper[boxed] @ np.minimum(dual_slack[boxed], 0.0)
        )
        if abs(cx - yb) > tol * (1.0 + abs(cx)) * 10:
            failures.append(f"strong-duality gap {cx - yb:.3e}")
    elif outcome.status == STATUS_INFEASIBLE:
        if outcome.farkas_ray is None:
            return CertificateReport(False, ["infeasible outcome lacks Farkas ray"])
        failures = _farkas_failures(problem, outcome.farkas_ray, tol)
    else:
        failures.append(f"unknown status {outcome.status!r}")
    return CertificateReport(ok=not failures, failures=failures)
