"""LP engine: random-instance oracle, certificates, warm starts, cycling."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from intransit import LpProblem, simplex, solve_lp, verify_certificate
from intransit.errors import SolverError
from intransit.simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
)

ORACLE_TOL = 1e-7


def enumerate_vertices(problem: LpProblem):
    """Brute-force basic feasible solutions of the standard form.

    Returns (best objective or None, any feasible vertex exists). Only for
    tiny problems: tries every basis of [A | slacks].
    """
    A = problem.A.toarray() if hasattr(problem.A, "toarray") else np.asarray(problem.A)
    m, n = A.shape
    le_rows = np.flatnonzero(problem.senses == "<")
    slacks = np.zeros((m, len(le_rows)))
    slacks[le_rows, np.arange(len(le_rows))] = 1.0
    A_std = np.concatenate([A, slacks], axis=1)
    total = A_std.shape[1]
    rank = np.linalg.matrix_rank(A_std) if A_std.size else 0
    resid_tol = 1e-8 * (1.0 + float(np.abs(problem.rhs).max(initial=0.0)))
    best = None
    feasible = False
    # a vertex has at most rank(A_std) nonzeros, so rank-sized column
    # subsets with a consistent least-squares fit cover redundant rows too
    for combo in itertools.combinations(range(total), rank):
        B = A_std[:, combo]
        xb, *_ = np.linalg.lstsq(B, problem.rhs, rcond=None)
        if not np.all(np.isfinite(xb)) or xb.min(initial=0.0) < -1e-9:
            continue
        if float(np.abs(B @ xb - problem.rhs).max(initial=0.0)) > resid_tol:
            continue
        feasible = True
        x = np.zeros(total)
        x[list(combo)] = xb
        val = float(problem.objective @ x[:n])
        if best is None or val < best:
            best = val
    if rank == 0 and not np.abs(problem.rhs).max(initial=0.0) > resid_tol:
        feasible = True
        best = 0.0
    return best, feasible


def has_improving_ray(problem: LpProblem) -> bool:
    """Check for a recession direction with negative cost (tiny LPs only)."""
    from scipy.optimize import linprog

    A = problem.A.toarray() if hasattr(problem.A, "toarray") else np.asarray(problem.A)
    le = problem.senses == "<"
    res = linprog(
        problem.objective,
        A_ub=A[le] if le.any() else None,
        b_ub=np.zeros(le.sum()) if le.any() else None,
        A_eq=A[~le] if (~le).any() else None,
        b_eq=np.zeros((~le).sum()) if (~le).any() else None,
        bounds=[(0, 1)] * problem.num_cols,
        method="highs",
    )
    return res.status == 0 and res.fun < -1e-9


def stored_as(problem: LpProblem, representation) -> LpProblem:
    """The same LP with ``A`` converted; the storage picks the basis class."""
    return LpProblem(problem.objective, representation(problem.A), problem.senses, problem.rhs)


def random_problem(rng: np.random.Generator, *, nonnegative_costs: bool = False) -> LpProblem:
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 6))
    A = np.round(rng.uniform(-5, 5, size=(m, n)), 1)
    A[rng.uniform(size=(m, n)) < 0.3] = 0.0
    c = np.round(rng.uniform(-4, 10, size=n), 1)
    if nonnegative_costs:
        c = np.abs(c)
    b = np.round(rng.uniform(-3, 10, size=m), 1)
    senses = np.where(rng.uniform(size=m) < 0.5, "<", "=")
    if m > 1 and rng.uniform() < 0.15:
        A[-1] = A[0]  # duplicated row: degenerate or inconsistent
        senses[-1] = senses[0]
        if rng.uniform() < 0.5:
            b[-1] = b[0]
    if rng.uniform() < 0.15:
        b[rng.integers(0, m)] = 0.0  # primal degeneracy
    return LpProblem(objective=c, A=A, senses=senses, rhs=b)


@pytest.fixture
def dual_path(monkeypatch):
    """Outcomes of the dual path, one per starting basis tried, in call order.

    None marks a start the solve gave up on; it then tries the slack basis.
    """
    results = []
    original = simplex._try_warm_start

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(simplex, "_try_warm_start", recorded)
    return results


class TestRandomOracle:
    # dense cases keep their original ids, the bare block number; the
    # nonnegative-cost blocks draw the same kind of LP with |c|
    @pytest.mark.parametrize(
        "block, representation, nonnegative_costs",
        [pytest.param(b, np.asarray, False, id=str(b)) for b in range(10)]
        + [pytest.param(b, sp.csr_matrix, False, id=f"sparse-{b}") for b in range(10)]
        + [pytest.param(b, np.asarray, True, id=f"nonneg-{b}") for b in range(5)]
        + [pytest.param(b, sp.csr_matrix, True, id=f"sparse-nonneg-{b}") for b in range(5)],
    )
    def test_against_vertex_enumeration(
        self, block, representation, nonnegative_costs, dual_path
    ):
        # 60 instances per block, each block once per basis class: every
        # outcome independently certified and optima matched against
        # brute-force vertex enumeration
        seed = (7800 if nonnegative_costs else 6800) + block
        rng = np.random.default_rng(seed)
        for _ in range(60):
            problem = random_problem(rng, nonnegative_costs=nonnegative_costs)
            problem = stored_as(problem, representation)
            dual_path.clear()
            outcome = solve_lp(problem)
            # the dual path from the slack basis decides every one of them
            assert len(dual_path) == 1 and dual_path[0] is not None
            report = verify_certificate(problem, outcome)
            assert report.ok, (outcome.status, report.failures)
            best, feasible = enumerate_vertices(problem)
            if outcome.status == STATUS_OPTIMAL:
                assert best is not None
                scale = 1.0 + abs(best)
                assert abs(outcome.objective - best) <= ORACLE_TOL * scale
            elif outcome.status == STATUS_INFEASIBLE:
                assert not feasible
            else:
                assert outcome.status == STATUS_UNBOUNDED
                assert feasible
                assert has_improving_ray(problem)


class TestBasicOutcomes:
    def test_single_equality(self):
        problem = LpProblem(
            objective=np.array([3.0]),
            A=np.array([[2.0]]),
            senses=np.array(["="]),
            rhs=np.array([4.0]),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_OPTIMAL
        assert out.x[0] == pytest.approx(2.0)
        assert out.objective == pytest.approx(6.0)

    def test_no_rows_zero_optimum(self):
        problem = LpProblem(
            objective=np.array([1.0, 2.0]),
            A=np.zeros((0, 2)),
            senses=np.array([], dtype="<U1"),
            rhs=np.array([]),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_OPTIMAL
        assert out.objective == 0.0

    def test_no_rows_unbounded(self):
        problem = LpProblem(
            objective=np.array([1.0, -2.0]),
            A=np.zeros((0, 2)),
            senses=np.array([], dtype="<U1"),
            rhs=np.array([]),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_UNBOUNDED
        assert verify_certificate(problem, out).ok

    def test_infeasible_equalities(self):
        problem = LpProblem(
            objective=np.array([1.0]),
            A=np.array([[1.0], [1.0]]),
            senses=np.array(["=", "="]),
            rhs=np.array([1.0, 2.0]),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_INFEASIBLE
        assert verify_certificate(problem, out).ok

    @pytest.mark.parametrize(
        "A, rhs",
        [
            # an artificial that no column can bring down to zero
            pytest.param([[-1.0, -2.0], [1.0, 0.0]], [3.0, 1.0], id="artificial-above-zero"),
            # a column that drives the other row's artificial below zero
            pytest.param([[1.0, 1.0], [2.0, 2.0]], [1.0, 3.0], id="variable-below-zero"),
        ],
    )
    def test_infeasible_equalities_certified_by_dual_path(self, A, rhs, dual_path):
        problem = LpProblem(
            objective=np.array([1.0, 3.0]),
            A=np.array(A),
            senses=np.array(["=", "="]),
            rhs=np.array(rhs),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_INFEASIBLE
        # decided cold by the dual path from the slack basis
        assert len(dual_path) == 1 and dual_path[0].status == STATUS_INFEASIBLE
        assert verify_certificate(problem, out).ok

    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    @pytest.mark.parametrize(
        "costs", [[1.0, 2.0], [-1.0, 2.0]], ids=["nonneg-costs", "negative-cost"]
    )
    @pytest.mark.parametrize(
        "gap, status",
        [
            pytest.param(1e-8, STATUS_OPTIMAL, id="gap-1e-8"),
            pytest.param(1e-6, STATUS_INFEASIBLE, id="gap-1e-6"),
        ],
    )
    def test_near_infeasible_equalities(self, gap, status, costs, representation):
        # x1 + x2 = 1 and x1 + x2 = 1 + gap: no column can close the gap, so
        # a gap within the feasibility tolerance is held there (x1 = 1 is
        # optimal) and a wider one is certified infeasible
        problem = LpProblem(
            objective=np.array(costs),
            A=representation(np.ones((2, 2))),
            senses=np.array(["=", "="]),
            rhs=np.array([1.0, 1.0 + gap]),
        )
        out = solve_lp(problem)
        assert out.status == status
        assert verify_certificate(problem, out).ok
        if status == STATUS_OPTIMAL:
            assert out.objective == pytest.approx(costs[0], abs=1e-7)

    def test_negative_rhs_inequality(self):
        # x <= -1 with x >= 0 is infeasible; -x <= -1 forces x >= 1
        problem = LpProblem(
            objective=np.array([2.0]),
            A=np.array([[-1.0]]),
            senses=np.array(["<"]),
            rhs=np.array([-1.0]),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_OPTIMAL
        assert out.x[0] == pytest.approx(1.0)

    def test_unbounded_with_rows(self):
        # minimize -x subject to a row that never binds x's growth
        problem = LpProblem(
            objective=np.array([-1.0, 0.0]),
            A=np.array([[0.0, 1.0]]),
            senses=np.array(["<"]),
            rhs=np.array([5.0]),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_UNBOUNDED
        assert verify_certificate(problem, out).ok

    def test_duals_price_binding_rows(self):
        # min x1 + x2 with x1 + x2 >= 2 written as -x1 - x2 <= -2
        problem = LpProblem(
            objective=np.array([1.0, 1.0]),
            A=np.array([[-1.0, -1.0]]),
            senses=np.array(["<"]),
            rhs=np.array([-2.0]),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_OPTIMAL
        assert out.objective == pytest.approx(2.0)
        assert out.y[0] == pytest.approx(-1.0)

    def test_rejects_nan(self):
        with pytest.raises(SolverError):
            LpProblem(
                objective=np.array([np.nan]),
                A=np.array([[1.0]]),
                senses=np.array(["="]),
                rhs=np.array([1.0]),
            )

    def test_rejects_bad_sense(self):
        with pytest.raises(SolverError):
            LpProblem(
                objective=np.array([1.0]),
                A=np.array([[1.0]]),
                senses=np.array([">"]),
                rhs=np.array([1.0]),
            )


class TestDegenerateCycling:
    def test_beale_example_terminates(self):
        # the classical cycling configuration for textbook Dantzig pivoting
        A = np.array(
            [
                [0.25, -60.0, -1.0 / 25.0, 9.0],
                [0.5, -90.0, -1.0 / 50.0, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        problem = LpProblem(
            objective=np.array([-0.75, 150.0, -0.02, 6.0]),
            A=A,
            senses=np.array(["<", "<", "<"]),
            rhs=np.array([0.0, 0.0, 1.0]),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_OPTIMAL
        assert verify_certificate(problem, out).ok
        best, _ = enumerate_vertices(problem)
        assert out.objective == pytest.approx(best, abs=1e-9)

    def test_highly_degenerate_equalities(self):
        # many duplicate zero-rhs rows stacked on one small system
        rng = np.random.default_rng(3)
        base = np.round(rng.uniform(-2, 2, size=(2, 6)), 1)
        A = np.concatenate([base, base, base], axis=0)
        problem = LpProblem(
            objective=np.round(rng.uniform(0, 3, size=6), 1),
            A=A,
            senses=np.array(["="] * 6),
            rhs=np.zeros(6),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_OPTIMAL
        assert out.objective == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "kind, reaches_bland",
        [
            pytest.param("mixed-rows", False, id="mixed-rows"),
            pytest.param("degenerate", True, id="degenerate"),
        ],
    )
    def test_bland_fallback_small_budget(self, kind, reaches_bland, monkeypatch):
        # force the Bland switch almost immediately; must still terminate
        if kind == "mixed-rows":
            # its primal pivots never stall twice in a row
            rng = np.random.default_rng(9)
            A = np.round(rng.uniform(-3, 3, size=(4, 7)), 1)
            problem = LpProblem(
                objective=np.round(rng.uniform(-2, 5, size=7), 1),
                A=A,
                senses=np.array(["<", "<", "=", "="]),
                rhs=np.array([4.0, 0.0, 0.0, 1.0]),
            )
        else:
            # zero-rhs rows under one bounding row, with negative costs: the
            # primal pivots stall at the origin before they move
            rng = np.random.default_rng(6)
            A = np.round(rng.uniform(-3, 3, size=(4, 6)), 1)
            problem = LpProblem(
                objective=np.round(rng.uniform(-3, 1, size=6), 1),
                A=np.vstack([A, np.ones(6)]),
                senses=np.array(["<"] * 5),
                rhs=np.array([0.0, 0.0, 0.0, 0.0, 10.0]),
            )
        cold = solve_lp(problem)
        switches = []
        original = simplex._iterate

        def recorded(state, c_struct):
            result = original(state, c_struct)
            switches.append(state.bland)
            return result

        monkeypatch.setattr(simplex, "_iterate", recorded)
        monkeypatch.setattr(simplex, "BLAND_THRESHOLD", 1)
        switched = solve_lp(problem)
        assert any(switches) is reaches_bland
        assert switched.status == cold.status
        assert verify_certificate(problem, switched).ok
        if cold.status == STATUS_OPTIMAL:
            assert switched.objective == pytest.approx(cold.objective, rel=1e-9)


class TestWarmStart:
    def _problem(self, rhs_shift=0.0):
        A = np.array(
            [
                [1.0, 1.0, 0.0, 2.0],
                [0.0, 1.0, 1.0, 0.0],
                [1.0, 0.0, 2.0, 1.0],
            ]
        )
        return LpProblem(
            objective=np.array([2.0, 3.0, 1.0, 4.0]),
            A=A,
            senses=np.array(["=", "<", "<"]),
            rhs=np.array([4.0 + rhs_shift, 3.0, 6.0]),
        )

    def test_warm_matches_cold_after_rhs_change(self):
        base = solve_lp(self._problem())
        assert base.status == STATUS_OPTIMAL
        for shift in (-1.0, -0.5, 0.25, 1.0, 2.0):
            changed = self._problem(shift)
            warm = solve_lp(changed, warm=base.basis)
            cold = solve_lp(changed)
            assert warm.status == cold.status
            if cold.status == STATUS_OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
                assert verify_certificate(changed, warm).ok
            else:
                assert verify_certificate(changed, warm).ok

    def test_warm_to_infeasible_gives_farkas(self):
        base = solve_lp(self._problem())
        infeasible = LpProblem(
            objective=np.array([2.0, 3.0, 1.0, 4.0]),
            A=np.array(
                [
                    [1.0, 1.0, 0.0, 2.0],
                    [0.0, 1.0, 1.0, 0.0],
                    [-1.0, -1.0, 0.0, -2.0],
                ]
            ),
            senses=np.array(["=", "<", "<"]),
            rhs=np.array([4.0, 3.0, -9.0]),
        )
        out = solve_lp(infeasible, warm=base.basis)
        assert out.status == STATUS_INFEASIBLE
        assert verify_certificate(infeasible, out).ok

    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    def test_basic_artificials_on_equality_rows(self, representation, dual_path):
        # the second '=' row repeats the first, so its artificial stays
        # basic at zero in the optimum; a warm start keeps it basic there
        def problem(rhs):
            A = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0], [1.0, 0.0, 0.0]])
            return LpProblem(
                objective=np.array([1.0, 2.0, 1.0]),
                A=representation(A),
                senses=np.array(["=", "=", "<"]),
                rhs=np.asarray(rhs),
            )

        base = solve_lp(problem([4.0, 4.0, 3.0]))
        assert base.status == STATUS_OPTIMAL
        assert base.basis.art_rows.tolist() == [1]
        for rhs in ([6.0, 6.0, 3.0], [4.0, 4.0, 1.0], [2.0, 2.0, 0.5]):
            changed = problem(rhs)
            dual_path.clear()
            warm = solve_lp(changed, warm=base.basis)
            assert len(dual_path) == 1 and dual_path[0] is not None
            cold = solve_lp(changed)
            assert warm.status == cold.status == STATUS_OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
            assert verify_certificate(changed, warm).ok

    def test_dual_infeasible_warm_basis_falls_back_to_slack_basis(self, dual_path):
        problem = self._problem()
        base = solve_lp(problem)
        # x4 now covers the '=' row at a quarter of x1's cost, so the old
        # optimal basis prices x4 negative under the new costs
        changed = LpProblem(
            objective=np.array([2.0, 3.0, 1.0, 1.0]),
            A=problem.A,
            senses=problem.senses,
            rhs=problem.rhs,
        )
        dual_path.clear()
        warm = solve_lp(changed, warm=base.basis)
        assert len(dual_path) == 2 and dual_path[0] is None
        assert dual_path[1].status == STATUS_OPTIMAL
        cold = solve_lp(changed)
        assert warm.status == cold.status == STATUS_OPTIMAL
        assert warm.objective == cold.objective == pytest.approx(2.0)
        np.testing.assert_array_equal(warm.x, cold.x)

    def test_breakdown_from_every_start_raises(self, dual_path, monkeypatch):
        base = solve_lp(self._problem())

        def breaks_down(*args, **kwargs):
            raise SolverError("dual pivot element too small")

        monkeypatch.setattr(simplex, "_dual_iterate", breaks_down)
        for warm, tried in ((None, [None]), (base.basis, [None, None])):
            dual_path.clear()
            with pytest.raises(SolverError):
                solve_lp(self._problem(), warm=warm)
            assert dual_path == tried

    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    def test_random_warm_cold_agreement(self, representation):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(250):
            problem = stored_as(random_problem(rng), representation)
            base = solve_lp(problem)
            if base.status != STATUS_OPTIMAL:
                continue
            shifted = LpProblem(
                objective=problem.objective,
                A=problem.A,
                senses=problem.senses,
                rhs=problem.rhs + np.round(rng.uniform(-1, 1, problem.num_rows), 1),
            )
            warm = solve_lp(shifted, warm=base.basis)
            cold = solve_lp(shifted)
            assert warm.status == cold.status
            if cold.status == STATUS_OPTIMAL:
                scale = 1.0 + abs(cold.objective)
                assert abs(warm.objective - cold.objective) <= 1e-8 * scale
            checked += 1
        assert checked > 50


class TestScaling:
    def test_wide_coefficient_range(self):
        # rows mixing unit and 1e5-size coefficients must still certify
        problem = LpProblem(
            objective=np.array([0.3, 0.2, 48000.0]),
            A=np.array(
                [
                    [1.0, 1.0, 0.0],
                    [0.0, 1.0, -48000.0],
                    [-1.0, -1.0, 0.0],
                ]
            ),
            senses=np.array(["=", "<", "<"]),
            rhs=np.array([120000.0, 0.0, -120000.0]),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_OPTIMAL
        assert verify_certificate(problem, out).ok

    def test_objective_recovered_in_original_units(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            problem = random_problem(rng)
            scale = float(rng.choice([1e-4, 1e-2, 1e2, 1e4]))
            scaled = LpProblem(
                objective=problem.objective * scale,
                A=problem.A,
                senses=problem.senses,
                rhs=problem.rhs,
            )
            a, b = solve_lp(problem), solve_lp(scaled)
            assert a.status == b.status
            if a.status == STATUS_OPTIMAL:
                want = a.objective * scale
                assert b.objective == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestBasisClasses:
    def test_sparse_basis_matches_dense_reference(self):
        # the sparse basis gathers its columns, artificials included,
        # straight into CSC; the dense basis is the reference
        rng = np.random.default_rng(11)
        m, n_struct = 6, 9
        A = np.round(rng.uniform(-3, 3, size=(m, n_struct)), 1)
        A[rng.uniform(size=A.shape) < 0.5] = 0.0
        A[:, :m] += 4.0 * np.eye(m)  # keeps the chosen bases nonsingular
        sparse = simplex._Basis(sp.csc_matrix(A), n_struct)
        dense = simplex._DenseBasis(A, n_struct)
        v = rng.uniform(-1, 1, size=m)
        for basis in ([0, 1, 2, 3, 4, 5], [9, 1, 11, 3, 13, 14], [10, 9, 12, 11, 14, 13]):
            for B in (sparse, dense):
                B.basis = np.array(basis, dtype=np.int64)
                B.refactor()
            np.testing.assert_allclose(sparse.ftran(v), dense.ftran(v), atol=1e-12)
            np.testing.assert_allclose(sparse.btran(v), dense.btran(v), atol=1e-12)
        for j in range(n_struct + m):
            np.testing.assert_array_equal(sparse.column(j), dense.column(j))
