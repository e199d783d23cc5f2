"""Revised simplex, dual then primal, with dual values and infeasibility certificates.

Solves ``min c'x  s.t.  A_eq x = b_eq, A_le x <= b_le, x >= 0`` and returns
one of three certified outcomes:

* Optimal: primal vector, dual vector y (free on ``=`` rows, nonpositive on
  ``<=`` rows), and the objective; strong duality holds within tolerance.
* Infeasible: a Farkas ray y over the rows with ``A'y <= 0`` (respecting
  row signs) and ``y'b > 0``.
* Unbounded: a primal ray r >= 0 with ``A_eq r = 0``, ``A_le r <= 0`` and
  ``c'r < 0``.

How the caller stores ``A`` picks the basis. A scipy sparse matrix (the
tall, sparse flow LPs) runs on a sparse LU factorization with product-form
eta updates; a numpy array (the short, dense Benders master) runs on an
explicit inverse updated in place. Both refactorize periodically.

Every LP takes one path: the dual simplex, started from a warm basis if one
is given, else (or when that basis is of no use) from the slack basis with
an artificial on each ``=`` row. The dual phase prices with the costs
clipped at zero, ``max(c, 0)`` (a cost modification, as in Koberstein's
dual phase one), under which the slack basis is dual feasible for every
LP; its pivots drive out the artificials, which count as variables fixed
at zero, and the negative basic variables. Primal pivots with the true
costs then finish, and find the ray of an unbounded LP. Primal pricing
uses Dantzig's rule, switching permanently to Bland's rule after a run of
degenerate pivots so termination is guaranteed. An artificial still basic
at zero is pinned there (a pivot that would move it forces it out of the
basis instead), which also neutralizes linearly dependent rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SolverError

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"

TOL = 1e-7  # primal and dual feasibility tolerance
PIVOT_TOL = 1e-9
BLAND_THRESHOLD = 1000  # degenerate pivots in a row before Bland's rule takes over
REFACTOR_EVERY = 100  # pivots between refactorizations of the basis


@dataclass
class LpProblem:
    """Minimization LP over nonnegative variables.

    ``senses`` holds ``"="`` or ``"<"`` per row; all column lower bounds
    are zero and there are no upper bounds. ``A`` given as a scipy sparse
    matrix is solved on the sparse LU basis; anything else is stored as a
    dense array and solved on the explicit-inverse basis.
    """

    objective: np.ndarray
    A: sp.spmatrix | np.ndarray
    senses: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=np.float64)
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        self.senses = np.asarray(self.senses, dtype="<U1")
        if not sp.issparse(self.A):
            # small matrices stay dense and skip sparse-object overhead
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
        entries = self.A.data if sp.issparse(self.A) else self.A
        if not np.all(np.isfinite(entries)):
            raise SolverError("constraint matrix contains NaN or infinite entries")

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
    rows whose slack is basic, ``art_rows`` the rows whose artificial is
    basic (degenerate leftovers pinned at zero). Used to warm-start a
    related LP that shares columns and most rows.
    """

    struct: np.ndarray
    slack_rows: np.ndarray
    art_rows: np.ndarray


@dataclass
class LpOutcome:
    status: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    objective: float | None = None
    farkas_ray: np.ndarray | None = None
    ray: np.ndarray | None = None
    pivots: int = 0
    basis: BasisLabels | None = None


class _DenseBasis:
    """Dense twin of :class:`_Basis` for LPs stored as numpy arrays.

    Keeps the full constraint matrix and an explicit basis inverse, which
    avoids sparse-object overhead that dominates on short, dense LPs such
    as the Benders master. The product-form update is applied to the
    inverse directly, so there is no eta file.
    """

    def __init__(self, A_std: np.ndarray, n_struct: int):
        self.A = A_std
        self.m = A_std.shape[0]
        self.n_struct = n_struct
        self.basis = np.zeros(self.m, dtype=np.int64)
        self.Binv: np.ndarray | None = None

    def price(self, y: np.ndarray) -> np.ndarray:
        return y @ self.A

    def column(self, j: int) -> np.ndarray:
        if j < self.n_struct:
            return self.A[:, j].copy()
        e = np.zeros(self.m)
        e[j - self.n_struct] = 1.0
        return e

    def refactor(self) -> None:
        B = np.zeros((self.m, self.m))
        struct_pos = np.flatnonzero(self.basis < self.n_struct)
        if len(struct_pos):
            B[:, struct_pos] = self.A[:, self.basis[struct_pos]]
        art_pos = np.flatnonzero(self.basis >= self.n_struct)
        if len(art_pos):
            B[self.basis[art_pos] - self.n_struct, art_pos] = 1.0
        try:
            self.Binv = np.linalg.inv(B)
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
    """Basis bookkeeping for LPs stored sparse: sparse LU of B plus an eta file.

    Columns >= n_struct are the artificial identity columns; artificial
    j corresponds to row j - n_struct.
    """

    def __init__(self, A_std: sp.csc_matrix, n_struct: int):
        self.AT = A_std.T.tocsr()
        self.m = A_std.shape[0]
        self.n_struct = n_struct
        # [A_std | I] in CSC: every basis column, artificials included, is
        # a slice of these arrays
        self.indptr = np.concatenate([A_std.indptr, A_std.nnz + np.arange(1, self.m + 1)])
        self.indices = np.concatenate([A_std.indices, np.arange(self.m)])
        self.data = np.concatenate([A_std.data, np.ones(self.m)])
        self.basis = np.zeros(self.m, dtype=np.int64)
        self.lu = None
        self.etas: list[tuple[int, np.ndarray]] = []

    def price(self, y: np.ndarray) -> np.ndarray:
        return self.AT @ y

    def column(self, j: int) -> np.ndarray:
        lo, hi = self.indptr[j], self.indptr[j + 1]
        col = np.zeros(self.m)
        col[self.indices[lo:hi]] = self.data[lo:hi]
        return col

    def refactor(self) -> None:
        starts = self.indptr[self.basis]
        lengths = self.indptr[self.basis + 1] - starts
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        # positions of each basis column's entries, gathered in one pass
        take = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        B = sp.csc_matrix(
            (self.data[take], self.indices[take], indptr), shape=(self.m, self.m)
        )
        try:
            self.lu = splu(B)
        except RuntimeError as exc:
            raise SolverError(f"singular basis during refactorization: {exc}") from None
        self.etas = []

    def ftran(self, v: np.ndarray) -> np.ndarray:
        x = self.lu.solve(np.asarray(v, dtype=np.float64))
        for r, eta in self.etas:
            xr = x[r]
            if xr != 0.0:
                x[r] = 0.0
                x += eta * xr
        return x

    def btran(self, w: np.ndarray) -> np.ndarray:
        y = np.array(w, dtype=np.float64)
        for r, eta in reversed(self.etas):
            y[r] = eta @ y
        return self.lu.solve(y, trans="T")

    def update(self, leave_pos: int, d: np.ndarray) -> None:
        dr = d[leave_pos]
        eta = -d / dr
        eta[leave_pos] = 1.0 / dr
        self.etas.append((leave_pos, eta))


@dataclass
class _State:
    B: _Basis | _DenseBasis
    x_B: np.ndarray
    b: np.ndarray
    max_pivots: int
    pivots: int = 0
    stalls: int = 0
    bland: bool = False
    # pivot count at the last refactor + exact x_B recompute; lets the
    # extraction step skip a redundant refactor when nothing moved since
    fresh_at: int = -1


def _basic_costs(B, c_struct: np.ndarray) -> np.ndarray:
    # a basic artificial costs nothing
    basis = B.basis
    struct = basis < B.n_struct
    return np.where(struct, c_struct[np.minimum(basis, B.n_struct - 1)], 0.0)


def _iterate(state: _State, c_struct):
    """Primal pivots from a primal-feasible basis to optimality.

    Returns None at an optimum, or (entering, direction) if unbounded.
    """
    B = state.B
    n_struct = B.n_struct
    # absolute dual tolerance, well below TOL: the caller equilibrates
    # first, so reduced-cost noise sits near machine epsilon and a leftover
    # -1e-7 entry would be a real suboptimality, not dust
    opt_tol = 0.01 * TOL
    zero_tol = TOL * (1.0 + float(np.abs(state.b).max(initial=0.0)))

    # incremental bookkeeping: membership, artificial flags, basic costs
    basis = B.basis
    art_basic = basis >= n_struct
    c_basic = _basic_costs(B, c_struct)
    in_basis = np.zeros(n_struct, dtype=bool)
    in_basis[basis[~art_basic]] = True

    while True:
        y = B.btran(c_basic)
        reduced = c_struct - B.price(y)
        reduced[in_basis] = 0.0
        if state.bland:
            candidates = np.flatnonzero(reduced < -opt_tol)
            if len(candidates) == 0:
                return None
            q = int(candidates[0])
        else:
            q = int(np.argmin(reduced))
            if reduced[q] >= -opt_tol:
                return None

        d = B.ftran(B.column(q))

        # an artificial at zero that the step would move leaves at once
        guard = art_basic & (np.abs(d) > PIVOT_TOL) & (state.x_B <= zero_tol)
        if guard.any():
            theta = 0.0
            cand_pos = np.flatnonzero(guard)
        else:
            pos_idx = np.flatnonzero(d > PIVOT_TOL)
            if len(pos_idx) == 0:
                return q, d
            ratios = np.maximum(state.x_B[pos_idx], 0.0) / d[pos_idx]
            theta = float(ratios.min())
            cand_pos = pos_idx[ratios <= theta + 1e-12 * (1.0 + abs(theta))]

        if state.bland:
            leave = int(cand_pos[np.argmin(basis[cand_pos])])
        else:
            leave = int(cand_pos[np.argmax(np.abs(d[cand_pos]))])

        if theta > 0.0:
            state.x_B -= theta * d
        state.x_B[leave] = theta
        np.maximum(state.x_B, 0.0, out=state.x_B)
        B.update(leave, d)
        leaving_col = int(basis[leave])
        if leaving_col < n_struct:
            in_basis[leaving_col] = False
        in_basis[q] = True
        art_basic[leave] = False
        c_basic[leave] = c_struct[q]
        basis[leave] = q

        state.pivots += 1
        if theta <= PIVOT_TOL:
            state.stalls += 1
            if state.stalls > BLAND_THRESHOLD:
                state.bland = True
        else:
            state.stalls = 0
        if state.pivots % REFACTOR_EVERY == 0:
            B.refactor()
            state.x_B = B.ftran(state.b)
            np.maximum(state.x_B, 0.0, out=state.x_B)
            state.fresh_at = state.pivots
        if state.pivots >= state.max_pivots:
            raise SolverError(
                f"pivot limit {state.max_pivots} reached; numerical breakdown "
                "or extreme degeneracy"
            )


def _dual_iterate(state: _State, feas_tol: float, reduced: np.ndarray) -> int | None:
    """Dual-simplex pivots from a dual-feasible basis toward primal feasibility.

    ``reduced`` holds the reduced costs at entry (basic entries zero) and is
    maintained incrementally with each pivot. A basic artificial is a
    variable fixed at zero: it is infeasible at any value off zero and,
    once out, never re-enters. The leaving row is the basic artificial
    farthest from zero, else the most negative basic variable. A row that no
    column can move toward zero, but that is off by no more than rounding
    allows (``TOL`` scaled by the rhs), is held at that margin. Returns
    None once every basic variable is feasible to ``feas_tol``, or held, at
    a freshly factored basis, or the index of a row certifying primal
    infeasibility. Raises on numerical breakdown or a pivot cap; the caller
    then tries its next starting basis.
    """
    B = state.B
    n_struct = B.n_struct
    basis = B.basis
    art = basis >= n_struct
    in_basis = np.zeros(n_struct, dtype=bool)
    in_basis[basis[~art]] = True
    cap = state.pivots + 50 + 10 * B.m
    margin = TOL * (1.0 + float(np.abs(state.b).max(initial=0.0)))
    e = np.zeros(B.m)
    while True:
        r = int(np.argmax(np.where(art, np.abs(state.x_B), -1.0)))
        if not (art[r] and abs(state.x_B[r]) > feas_tol):
            r = int(np.argmin(state.x_B))
            if state.x_B[r] >= -feas_tol:
                if state.fresh_at == state.pivots:
                    return None
                # recompute the iterate exactly; if residual dust reappears
                # at this basis, pivot it out too rather than clamping it away
                B.refactor()
                state.x_B = B.ftran(state.b)
                state.fresh_at = state.pivots
                continue
        # the leaving variable moves down to zero from above (an artificial)
        # or up to zero from below; entering candidates push it that way
        sign = 1.0 if state.x_B[r] > 0.0 else -1.0
        e[:] = 0.0
        e[r] = 1.0
        rho = B.btran(e)
        alpha = B.price(rho)
        alpha[in_basis] = 0.0
        candidates = np.flatnonzero(sign * alpha > PIVOT_TOL)
        if len(candidates) == 0:
            if abs(state.x_B[r]) > margin:
                return r
            # rounding dust: count the row as feasible until the next
            # exact recompute of x_B shows it again
            state.x_B[r] = 0.0
            continue
        ratios = np.maximum(reduced[candidates], 0.0) / np.abs(alpha[candidates])
        q = int(candidates[np.argmin(ratios)])
        d = B.ftran(B.column(q))
        if abs(d[r]) <= 1e-7:
            raise SolverError("dual pivot element too small; dual path abandoned")
        theta = state.x_B[r] / d[r]
        state.x_B -= theta * d
        state.x_B[r] = theta
        B.update(r, d)
        # dual step: shift reduced costs along the pivot row
        delta = reduced[q] / alpha[q]
        if delta != 0.0:
            reduced -= delta * alpha
        leaving = int(basis[r])
        if leaving < n_struct:
            in_basis[leaving] = False
            reduced[leaving] = -delta
        in_basis[q] = True
        reduced[q] = 0.0
        basis[r] = q
        art[r] = False
        state.pivots += 1
        if state.pivots % REFACTOR_EVERY == 0:
            B.refactor()
            state.x_B = B.ftran(state.b)
            state.fresh_at = state.pivots
        if state.pivots >= cap:
            raise SolverError("dual pivot cap reached; dual path abandoned")


def _basis_labels(B, n: int, n_struct: int, le_rows: np.ndarray) -> BasisLabels:
    basis = B.basis
    is_slack = (basis >= n) & (basis < n_struct)
    return BasisLabels(
        struct=basis[basis < n].copy(),
        slack_rows=le_rows[basis[is_slack] - n].astype(np.int64),
        art_rows=(basis[basis >= n_struct] - n_struct).astype(np.int64),
    )


def _finish_phase2(
    problem: LpProblem,
    state: _State,
    c_struct: np.ndarray,
    flip: np.ndarray,
    n: int,
    b: np.ndarray,
    le_rows: np.ndarray,
) -> LpOutcome:
    """Run phase 2 from a primal-feasible basis and extract the outcome."""
    m = state.B.m
    result = _iterate(state, c_struct)
    if result is not None:
        q, d = result
        ray = np.zeros(n)
        if q < n:
            ray[q] = 1.0
        for pos in range(m):
            col = state.B.basis[pos]
            if col < n:
                ray[col] = max(0.0, -d[pos])
        return LpOutcome(status=STATUS_UNBOUNDED, ray=ray, pivots=state.pivots)

    # clean final iterate and extract the solution
    if state.fresh_at != state.pivots:
        state.B.refactor()
        state.x_B = state.B.ftran(b)
    x = np.zeros(n)
    for pos in range(m):
        col = state.B.basis[pos]
        if col < n:
            x[col] = state.x_B[pos]
    np.maximum(x, 0.0, out=x)
    y_std = state.B.btran(_basic_costs(state.B, c_struct))
    y = flip * y_std
    objective = float(problem.objective @ x)
    return LpOutcome(
        status=STATUS_OPTIMAL,
        x=x,
        y=y,
        objective=objective,
        pivots=state.pivots,
        basis=_basis_labels(state.B, n, state.B.n_struct, le_rows),
    )


def _solve_trivial(problem: LpProblem) -> LpOutcome:
    # no rows: each variable sits at 0 unless its cost is negative
    n = problem.num_cols
    neg = np.flatnonzero(problem.objective < 0)
    if len(neg):
        ray = np.zeros(n)
        ray[int(neg[np.argmin(problem.objective[neg])])] = 1.0
        return LpOutcome(status=STATUS_UNBOUNDED, ray=ray)
    return LpOutcome(
        status=STATUS_OPTIMAL, x=np.zeros(n), y=np.zeros(0), objective=0.0
    )


def _pow2_scale(v: np.ndarray) -> np.ndarray:
    """Per-entry scale factors 2^-round(log2 v), snapped to powers of two.

    Powers of two multiply without rounding error, so equilibrating with
    them changes conditioning but not the exact values the pivoting sees.
    """
    safe = np.where(v > 0, v, 1.0)
    return np.exp2(-np.round(np.log2(safe)))


def _equilibration(A) -> tuple[np.ndarray, np.ndarray]:
    """Max-norm row scales then column scales for the constraint matrix."""
    if sp.issparse(A):
        Aabs = abs(A.tocsr())
        r = _pow2_scale(Aabs.max(axis=1).toarray().ravel())
        Aabs.data *= np.repeat(r, np.diff(Aabs.indptr))
        cmax = Aabs.max(axis=0).toarray().ravel()
    else:
        Aabs = np.abs(A)
        r = _pow2_scale(Aabs.max(axis=1, initial=0.0))
        cmax = (Aabs * r[:, None]).max(axis=0)
    return r, _pow2_scale(cmax)


def solve_lp(problem: LpProblem, *, warm: BasisLabels | None = None) -> LpOutcome:
    """Solve an LP; deterministic for identical input.

    Raises :class:`SolverError` on numerical breakdown (singular basis,
    pivot limit); breakdown is never reported as a solution status.

    ``warm`` is an optional basis from a related solved LP (same columns,
    overlapping rows). If it is dual feasible here under the costs clipped
    at zero, primal feasibility is restored with dual-simplex pivots; if it
    is not, or the dual path breaks down, the solve starts again from the
    slack basis, where the dual path always starts and every cold solve
    runs.

    The problem is equilibrated internally (power-of-two row and column
    scales, plus uniform scales bringing costs and rhs near 1) and the
    outcome mapped back, so tolerances behave the same across instances
    whose raw coefficients differ by orders of magnitude.
    """
    if problem.num_rows == 0:
        return _solve_trivial(problem)

    r, s = _equilibration(problem.A)
    sig_c = float(_pow2_scale(np.array([np.abs(problem.objective * s).max(initial=0.0)]))[0])
    sig_b = float(_pow2_scale(np.array([np.abs(problem.rhs * r).max(initial=0.0)]))[0])
    if sp.issparse(problem.A):
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
    scaled.rhs = problem.rhs * r * sig_b
    out = _solve_core(scaled, warm)
    if out.status == STATUS_OPTIMAL:
        x = out.x * s / sig_b
        return LpOutcome(
            status=STATUS_OPTIMAL,
            x=x,
            y=out.y * r / sig_c,
            objective=float(problem.objective @ x),
            pivots=out.pivots,
            basis=out.basis,
        )
    if out.status == STATUS_INFEASIBLE:
        return LpOutcome(
            status=STATUS_INFEASIBLE, farkas_ray=out.farkas_ray * r, pivots=out.pivots
        )
    return LpOutcome(status=STATUS_UNBOUNDED, ray=out.ray * s, pivots=out.pivots)


def _max_pivots(problem: LpProblem) -> int:
    # reaching this many pivots means numerical breakdown or extreme degeneracy
    return 2000 + 200 * (problem.num_rows + problem.num_cols)


def _solve_core(problem: LpProblem, warm: BasisLabels | None) -> LpOutcome:
    m, n = problem.num_rows, problem.num_cols
    le_rows = np.flatnonzero(problem.senses == "<")
    n_slack = len(le_rows)
    n_struct = n + n_slack

    flip = np.where(problem.rhs < 0, -1.0, 1.0)
    b = problem.rhs * flip
    if sp.issparse(problem.A):
        basis_type = _Basis
        # [A | slack columns] with rows flipped, assembled directly in CSC
        A = problem.A.tocsc()
        A_std = sp.csc_matrix(
            (
                np.concatenate([A.data * flip[A.indices], flip[le_rows]]),
                np.concatenate([A.indices, le_rows]),
                np.concatenate([A.indptr, A.nnz + np.arange(1, n_slack + 1)]),
            ),
            shape=(m, n_struct),
        )
    else:
        basis_type = _DenseBasis
        A_std = np.zeros((m, n_struct))
        A_std[:, :n] = problem.A
        A_std[le_rows, n + np.arange(n_slack)] = 1.0
        A_std *= flip[:, None]

    c_struct = np.concatenate([problem.objective, np.zeros(n_slack)])
    # slack column id per row, -1 on '=' rows
    slack_pos = np.full(m, -1, dtype=np.int64)
    slack_pos[le_rows] = n + np.arange(n_slack)

    def fresh_basis():
        return basis_type(A_std, n_struct)

    # the slack basis, artificials on '=' rows, is dual feasible under the
    # costs the dual phase prices with, so it is always the last start
    slack = BasisLabels(
        struct=np.zeros(0, dtype=np.int64),
        slack_rows=le_rows,
        art_rows=np.flatnonzero(problem.senses == "="),
    )
    for start in ([] if warm is None else [warm]) + [slack]:
        outcome = _try_warm_start(
            problem, start, fresh_basis, slack_pos, c_struct, b, flip, le_rows
        )
        if outcome is not None:
            return outcome
    raise SolverError("dual simplex broke down from every starting basis")


def _try_warm_start(
    problem: LpProblem,
    warm: BasisLabels,
    fresh_basis,
    slack_pos: np.ndarray,
    c_struct: np.ndarray,
    b: np.ndarray,
    flip: np.ndarray,
    le_rows: np.ndarray,
) -> LpOutcome | None:
    """Solve with the dual path from ``warm``; None means try the next start."""
    m, n = problem.num_rows, problem.num_cols
    n_struct = len(c_struct)
    struct = np.asarray(warm.struct, dtype=np.int64)
    if len(struct) and (struct.min() < 0 or struct.max() >= n):
        return None
    slack_rows = np.asarray(warm.slack_rows, dtype=np.int64)
    art_rows = np.asarray(warm.art_rows, dtype=np.int64)
    rows = np.concatenate([slack_rows, art_rows])
    if len(rows) and (rows.min() < 0 or rows.max() >= m):
        return None
    sids = slack_pos[slack_rows]
    if len(sids) and sids.min() < 0:
        return None
    # an artificial on a '<' row gives way to the row's slack, which spans
    # the same direction; on an '=' row it stays basic, pinned at zero
    art_slack = slack_pos[art_rows]
    arts = np.where(art_slack >= 0, art_slack, n_struct + art_rows)
    cols = np.concatenate([struct, sids, arts])
    if len(cols) != m or len(np.unique(cols)) != m:
        return None

    B = fresh_basis()
    B.basis = cols
    try:
        B.refactor()
    except SolverError:
        return None
    state = _State(B=B, x_B=B.ftran(b), b=b, max_pivots=_max_pivots(problem), fresh_at=0)

    # the dual phase prices with the costs clipped at zero, which leaves c
    # unchanged on every consolidation LP and makes the slack basis dual
    # feasible on any LP; _finish_phase2 restores c. The basis is useful
    # only if it is dual feasible, to the standard the primal phase ends at
    c_plus = np.maximum(c_struct, 0.0)
    reduced = c_plus - B.price(B.btran(_basic_costs(B, c_plus)))
    reduced[cols[cols < n_struct]] = 0.0
    if float(reduced.min(initial=0.0)) < -0.01 * TOL:
        return None

    # absolute feasibility target: a slack left at -1e-5 and clamped would
    # shift the objective below the true optimum, so rhs-scaled slack here
    # is not acceptable
    feas_tol = 1e-9
    try:
        bad_row = _dual_iterate(state, feas_tol, reduced)
        if bad_row is not None:
            # a variable stuck below zero certifies with -B^-T e_r, an
            # artificial stuck above zero with +B^-T e_r
            e = np.zeros(m)
            e[bad_row] = 1.0
            y_std = np.sign(state.x_B[bad_row]) * state.B.btran(e)
            return LpOutcome(
                status=STATUS_INFEASIBLE,
                farkas_ray=flip * y_std,
                pivots=state.pivots,
            )
        np.maximum(state.x_B, 0.0, out=state.x_B)
        return _finish_phase2(problem, state, c_struct, flip, n, b, le_rows)
    except SolverError:
        # a breakdown from this start; the caller tries the next one
        return None


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    failures: list[str]


def verify_certificate(
    problem: LpProblem, outcome: LpOutcome, tol: float = TOL
) -> CertificateReport:
    """Independently re-check the invariant bundle for an LpOutcome."""
    failures: list[str] = []
    A = problem.A.tocsr() if sp.issparse(problem.A) else problem.A
    le = problem.senses == "<"
    eq = ~le
    scale_b = 1.0 + float(np.abs(problem.rhs).max(initial=0.0))
    scale_c = 1.0 + float(np.abs(problem.objective).max(initial=0.0))

    if outcome.status == STATUS_OPTIMAL:
        x, y = outcome.x, outcome.y
        if x is None or y is None:
            return CertificateReport(False, ["optimal outcome lacks x or y"])
        if len(x) and float((-x).max(initial=0.0)) > tol:
            failures.append("primal negativity")
        resid = A @ x - problem.rhs
        if eq.any() and float(np.abs(resid[eq]).max()) > tol * scale_b:
            failures.append("equality-row residual")
        if le.any() and float(resid[le].max(initial=0.0)) > tol * scale_b:
            failures.append("inequality-row violation")
        if le.any() and float(y[le].max(initial=0.0)) > tol:
            failures.append("dual sign on <= rows")
        dual_slack = problem.objective - A.T @ y
        if float((-dual_slack).max(initial=0.0)) > tol * scale_c * 10:
            failures.append("dual feasibility A'y <= c")
        cx = float(problem.objective @ x)
        yb = float(y @ problem.rhs)
        if abs(cx - yb) > tol * (1.0 + abs(cx)) * 10:
            failures.append(f"strong-duality gap {cx - yb:.3e}")
    elif outcome.status == STATUS_INFEASIBLE:
        ray = outcome.farkas_ray
        if ray is None:
            return CertificateReport(False, ["infeasible outcome lacks Farkas ray"])
        norm = float(np.abs(ray).max(initial=0.0))
        if norm <= tol:
            return CertificateReport(False, ["zero Farkas ray"])
        r = ray / norm
        if le.any() and float(r[le].max(initial=0.0)) > tol:
            failures.append("Farkas sign on <= rows")
        aty = A.T @ r
        if float(aty.max(initial=0.0)) > tol * 100:
            failures.append("Farkas column condition A'y <= 0")
        if float(r @ problem.rhs) <= tol:
            failures.append("Farkas ray fails to certify: y'b not positive")
    elif outcome.status == STATUS_UNBOUNDED:
        ray = outcome.ray
        if ray is None:
            return CertificateReport(False, ["unbounded outcome lacks ray"])
        norm = float(np.abs(ray).max(initial=0.0))
        if norm <= tol:
            return CertificateReport(False, ["zero unbounded ray"])
        r = ray / norm
        if float((-r).max(initial=0.0)) > tol:
            failures.append("ray negativity")
        ar = A @ r
        if eq.any() and float(np.abs(ar[eq]).max()) > tol * 100:
            failures.append("ray not in equality null space")
        if le.any() and float(ar[le].max(initial=0.0)) > tol * 100:
            failures.append("ray increases a <= row")
        if float(problem.objective @ r) >= -tol:
            failures.append("ray does not improve the objective")
    else:
        failures.append(f"unknown status {outcome.status!r}")
    return CertificateReport(ok=not failures, failures=failures)
