"""LP engine: random-instance oracle, certificates, warm starts, cycling."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from intransit import (
    MODE_EXACT_DAY,
    MODE_WINDOW,
    LpProblem,
    build_mip,
    simplex,
    solve_lp,
    verify_certificate,
)
from intransit.errors import SolverError
from intransit.simplex import STATUS_INFEASIBLE, STATUS_OPTIMAL

from conftest import as_array, readme_instance

ORACLE_TOL = 1e-7


def enumerate_vertices(problem: LpProblem):
    """Brute-force basic feasible solutions of the standard form.

    Returns (best objective or None, any feasible vertex exists). Only for
    tiny problems: tries every basis of [A | slacks].
    """
    A = as_array(problem.A)
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


def stored_as(problem: LpProblem, representation) -> LpProblem:
    """The same LP with ``A`` converted; the storage picks the basis class."""
    return LpProblem(problem.objective, representation(problem.A), problem.senses, problem.rhs)


def random_arrays(rng: np.random.Generator):
    """Costs of either sign, ``A``, senses and rhs of a tiny random LP."""
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 6))
    A = np.round(rng.uniform(-5, 5, size=(m, n)), 1)
    A[rng.uniform(size=(m, n)) < 0.3] = 0.0
    c = np.round(rng.uniform(-4, 10, size=n), 1)
    b = np.round(rng.uniform(-3, 10, size=m), 1)
    senses = np.where(rng.uniform(size=m) < 0.5, "<", "=")
    if m > 1 and rng.uniform() < 0.15:
        A[-1] = A[0]  # duplicated row: degenerate or inconsistent
        senses[-1] = senses[0]
        if rng.uniform() < 0.5:
            b[-1] = b[0]
    if rng.uniform() < 0.15:
        b[rng.integers(0, m)] = 0.0  # primal degeneracy
    return c, A, senses, b


def random_problem(rng: np.random.Generator) -> LpProblem:
    """A tiny random LP with costs ``|c|``: no column has an upper bound."""
    c, A, senses, b = random_arrays(rng)
    return LpProblem(objective=np.abs(c), A=A, senses=senses, rhs=b)


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
    # "nonneg" blocks, from when the others drew costs of either sign,
    # keep their own seeds
    @pytest.mark.parametrize(
        "seed, representation",
        [pytest.param(6800 + b, np.asarray, id=str(b)) for b in range(10)]
        + [pytest.param(6800 + b, sp.csr_matrix, id=f"sparse-{b}") for b in range(10)]
        + [pytest.param(7800 + b, np.asarray, id=f"nonneg-{b}") for b in range(5)]
        + [pytest.param(7800 + b, sp.csr_matrix, id=f"sparse-nonneg-{b}") for b in range(5)],
    )
    def test_against_vertex_enumeration(self, seed, representation, dual_path):
        # 60 instances per block, each block once per basis class: every
        # outcome independently certified and optima matched against
        # brute-force vertex enumeration
        rng = np.random.default_rng(seed)
        for _ in range(60):
            problem = random_problem(rng)
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
            else:
                assert outcome.status == STATUS_INFEASIBLE
                assert not feasible


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
            # an '=' row's slack that no column can bring down to zero
            pytest.param([[-1.0, -2.0], [1.0, 0.0]], [3.0, 1.0], id="artificial-above-zero"),
            # a column that drives the other row's slack below zero
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

    def test_ray_that_fails_to_certify_is_a_breakdown(self, dual_path, monkeypatch):
        # the start checks its ray as verify_certificate does; one that
        # fails gives the start up, and with no other start the solve raises
        monkeypatch.setattr(simplex, "_farkas_failures", lambda *args: ["forced"])
        problem = LpProblem(
            objective=np.array([1.0]),
            A=np.array([[1.0], [1.0]]),
            senses=np.array(["=", "="]),
            rhs=np.array([1.0, 2.0]),
        )
        with pytest.raises(SolverError):
            solve_lp(problem)
        assert dual_path == [None]

    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    @pytest.mark.parametrize("costs", [[1.0, 2.0]], ids=["nonneg-costs"])
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
        # the negative-cost columns get upper bounds that the optimum
        # (1/25, 0, 1, 0) does not reach, so it is still -1/20
        problem = LpProblem(
            objective=np.array([-0.75, 150.0, -0.02, 6.0]),
            A=A,
            senses=np.array(["<", "<", "<"]),
            rhs=np.array([0.0, 0.0, 1.0]),
            upper=np.array([1.0, np.inf, 2.0, np.inf]),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_OPTIMAL
        assert verify_certificate(problem, out).ok
        best, _ = enumerate_vertices(problem)
        assert out.objective == pytest.approx(best, abs=1e-9)
        assert out.objective == pytest.approx(-1.0 / 20.0, abs=1e-12)

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
        # the second '=' row repeats the first, so its slack, fixed at
        # zero, stays basic in the optimum; a warm start keeps it basic there
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
        assert 1 in base.basis.slack_rows.tolist()
        for rhs in ([6.0, 6.0, 3.0], [4.0, 4.0, 1.0], [2.0, 2.0, 0.5]):
            changed = problem(rhs)
            dual_path.clear()
            warm = solve_lp(changed, warm=base.basis)
            assert len(dual_path) == 1 and dual_path[0] is not None
            assert 1 in warm.basis.slack_rows.tolist()
            cold = solve_lp(changed)
            assert warm.status == cold.status == STATUS_OPTIMAL
            assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
            assert verify_certificate(changed, warm).ok

    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    def test_warm_basis_with_a_slack_on_an_equality_row(self, representation, dual_path):
        # the first row was '<' when the basis was found, its slack basic;
        # as an '=' row that slack is fixed at zero, and the start holds
        def problem(senses):
            return LpProblem(
                objective=np.array([1.0, 2.0, 1.0]),
                A=representation(np.array([[1.0, 1.0, 2.0], [1.0, 0.0, 0.0]])),
                senses=np.array(senses),
                rhs=np.array([4.0, 3.0]),
            )

        base = solve_lp(problem(["<", "<"]))
        assert base.objective == 0.0
        assert sorted(base.basis.slack_rows.tolist()) == [0, 1]
        changed = problem(["=", "<"])
        dual_path.clear()
        warm = solve_lp(changed, warm=base.basis)
        assert len(dual_path) == 1 and dual_path[0] is not None
        assert warm.status == STATUS_OPTIMAL
        assert warm.objective == pytest.approx(2.0, rel=1e-12)
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
    def test_random_warm_cold_agreement(self, representation, dual_path):
        # an rhs change leaves the old optimal basis dual feasible, so no
        # warm start falls back
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
            dual_path.clear()
            warm = solve_lp(shifted, warm=base.basis)
            assert len(dual_path) == 1 and dual_path[0] is not None
            cold = solve_lp(shifted)
            assert warm.status == cold.status
            if cold.status == STATUS_OPTIMAL:
                scale = 1.0 + abs(cold.objective)
                assert abs(warm.objective - cold.objective) <= 1e-8 * scale
            checked += 1
        assert checked > 50


def infeasible_lps():
    """The infeasible LPs of these tests: the hand-built ones, and the
    random draws of the vertex-enumeration and HiGHS oracles, dense and
    sparse, among which the solver finds infeasible ones."""
    for A, rhs in (([[1.0], [1.0]], [1.0, 2.0]), ([[-1.0, -2.0], [1.0, 0.0]], [3.0, 1.0])):
        yield LpProblem(np.ones(len(A[0])), np.array(A), np.array(["=", "="]), np.array(rhs))
    yield LpProblem(np.ones(2), np.ones((2, 2)), np.array(["=", "="]), np.array([1.0, 1.0 + 1e-6]))
    yield LpProblem(
        np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array(["="]), np.array([5.0]),
        upper=np.array([1.0, 2.0]),
    )
    for representation in (np.asarray, sp.csr_matrix):
        for seed in range(6800, 6810):
            rng = np.random.default_rng(seed)
            for _ in range(60):
                yield stored_as(random_problem(rng), representation)
        for seed in range(9800, 9805):
            rng = np.random.default_rng(seed)
            for _ in range(80):
                yield bounded_problem(rng, representation)


def test_every_infeasible_exit_is_at_a_fresh_basis_and_certifies(monkeypatch):
    # the dual loop calls a row infeasible only right after refactoring
    # the basis and recomputing x_B, never on values tracked through
    # pivots, and the ray it returns passes the independent check
    exits = []
    original = simplex._dual_iterate

    def recorded(state, reduced, from_slack):
        row = original(state, reduced, from_slack)
        if row is not None:
            exits.append((state.fresh_at, state.pivots))
        return row

    monkeypatch.setattr(simplex, "_dual_iterate", recorded)
    infeasible = 0
    for problem in infeasible_lps():
        exits.clear()
        outcome = solve_lp(problem)
        if outcome.status != STATUS_INFEASIBLE:
            continue
        infeasible += 1
        assert exits and all(fresh_at == pivots for fresh_at, pivots in exits), exits
        assert verify_certificate(problem, outcome).ok
    assert infeasible > 100


class TestDualPivotRules:
    def test_harris_ratio_test_takes_the_larger_pivot(self):
        # min x1 + (2 + 2e-10) x2  s.t.  x1 + 2 x2 >= 1, x3 <= 1: from either
        # start row 0 is the only infeasible one, and both x1 and x2 can
        # enter it, with ratios 1 and 1 + 1e-10, a gap inside the dual
        # tolerance. The textbook test takes x1, the lower ratio and index;
        # Harris takes x2, twice the pivot. The warm basis holds x3 basic
        # in row 1, so it is no slack start. Solved unscaled, since
        # equilibration would make the two pivots equal
        problem = LpProblem(
            objective=np.array([1.0, 2.0 + 2e-10, 0.0]),
            A=np.array([[-1.0, -2.0, 0.0], [0.0, 0.0, 1.0]]),
            senses=np.array(["<", "<"]),
            rhs=np.array([-1.0, 1.0]),
        )
        warm = simplex.BasisLabels(struct=np.array([2]), slack_rows=np.array([0]))
        for start in (None, warm):
            out = simplex._solve_core(problem, start)
            assert out.status == STATUS_OPTIMAL
            assert 1 in out.basis.struct and 0 not in out.basis.struct
            assert out.pivots == 1

    @pytest.mark.parametrize(
        "objective, A, upper, pivots",
        [
            ([1.0], [[-1e-8]], [1.0], 0),
            ([1.0, 1.0], [[-1e-8, -1.0]], [1.0, 0.5], 1),
        ],
        ids=["tiny-entry-only", "tiny-entry-after-a-pivot"],
    )
    def test_entry_below_the_pivot_tolerance_never_enters(self, objective, A, upper, pivots):
        # min c'x  s.t.  -1e-8 x1 (- x2) <= -1, 0 <= x1 <= 1 (0 <= x2 <= 0.5):
        # infeasible, since x1 would have to reach 1e8. The leaving row's
        # only entry for x1 is 1e-8, too small a pivot to take; the row is
        # left with no candidate and certifies the infeasibility. Solved
        # unscaled, since equilibration would scale that entry up to 1
        problem = LpProblem(
            objective=np.array(objective),
            A=np.array(A),
            senses=np.array(["<"]),
            rhs=np.array([-1.0]),
            upper=np.array(upper),
        )
        out = simplex._solve_core(problem, None)
        assert out.status == STATUS_INFEASIBLE
        assert out.pivots == pivots
        assert verify_certificate(problem, out).ok

    def test_heavily_weighted_infeasible_row_still_leaves(self):
        # row 0 sits deep inside its bounds, row 1 outside by less than the
        # tolerance, row 2 outside by more and weighted 1e30: its score
        # 1e-36 is the smallest, but it is the only row that may leave
        outside = np.array([-5.0, 5e-10, 1e-3])
        weights = np.array([1.0, 1.0, 1e30])
        assert simplex._leaving_row(outside, weights) == 2
        # and the basis counts as feasible only once that row is inside
        outside[2] = 5e-10
        assert simplex._leaving_row(outside, weights) is None

    def test_leaving_row_weighs_squared_infeasibility(self):
        outside = np.array([3.0, 2.0, -1.0])
        assert simplex._leaving_row(outside, None) == 0
        # 9 / 4 < 4 / 1: the lighter row leaves first
        assert simplex._leaving_row(outside, np.array([4.0, 1.0, 1.0])) == 1


class TestScaling:
    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_dust_column_does_not_swamp_the_costs(self, representation, warm):
        # x3's only entry is dust, as a Benders cut row can hold; scaled up
        # like a real column it shrank every scaled cost below the
        # optimality tolerance, and the warm start from {x1} stopped at 2
        problem = LpProblem(
            objective=np.array([2.0, 1.0, 1.0]),
            A=representation(np.array([[-1.0, -1.0, -1e-13]])),
            senses=np.array(["<"]),
            rhs=np.array([-1.0]),
        )
        start = simplex.BasisLabels(struct=np.array([0]), slack_rows=np.zeros(0, dtype=np.int64))
        out = solve_lp(problem, warm=start if warm else None)
        assert out.status == STATUS_OPTIMAL
        assert out.objective == pytest.approx(1.0, rel=1e-12)
        assert verify_certificate(problem, out).ok

    def test_sparse_equilibration_matches_scipy_maxima(self):
        # the sparse scales come from numpy reductions over the CSR arrays;
        # they must equal scipy's row and column maxima, empty rows and
        # columns and a column of dust alone included, with no column fixed
        # and with some fixed at zero, which the row maxima leave out
        rng = np.random.default_rng(23)
        fixing = np.random.default_rng(24)
        for _ in range(40):
            m, n = (int(v) for v in rng.integers(1, 12, size=2))
            A = sp.random(m, n, density=float(rng.uniform(0.0, 0.6)), random_state=rng)
            A.data = (A.data - 0.5) * 10.0 ** rng.integers(-4, 6, size=A.nnz)
            A = A.tolil()
            A[int(rng.integers(m)), :] = 0.0
            A[:, int(rng.integers(n))] = 0.0
            A[int(rng.integers(m)), int(rng.integers(n))] = -1e-13
            A = A.tocsr()
            A.eliminate_zeros()
            fixed = fixing.uniform(size=n) < 0.3
            for upper in (np.full(n, np.inf), np.where(fixed, 0.0, np.inf)):
                Aabs = abs(A)
                free = Aabs @ sp.diags((upper != 0.0).astype(float))
                r = simplex._pow2_scale(free.max(axis=1).toarray().ravel())
                Aabs.data *= np.repeat(r, np.diff(Aabs.indptr))
                cmax = Aabs.max(axis=0).toarray().ravel()
                s = simplex._pow2_scale(np.where(cmax > 1e-9, cmax, 0.0))
                got_r, got_s = simplex._equilibration(A, upper)
                np.testing.assert_array_equal(got_r, r)
                np.testing.assert_array_equal(got_s, s)

    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    def test_column_fixed_at_zero_sets_no_scale(self, representation):
        # a container column fixed at zero holds the capacity row's 48000
        # entry; it never enters the basis, so the rows and the other
        # columns scale as if it were not there
        A = np.array(
            [
                [1.0, 1.0, -48000.0],
                [0.5, 0.0, 0.0],
                [-3.0, 7.0, 0.0],
            ]
        )
        r_with, s_with = simplex._equilibration(
            representation(A), np.array([np.inf, 5.0, 0.0])
        )
        r_without, s_without = simplex._equilibration(
            representation(A[:, :2]), np.array([np.inf, 5.0])
        )
        np.testing.assert_array_equal(r_with, r_without)
        np.testing.assert_array_equal(s_with[:2], s_without)
        # the same column with room to move sets its row's scale
        r_free, _ = simplex._equilibration(representation(A), np.array([np.inf, 5.0, 1.0]))
        assert r_free[0] == 2.0**-16 and r_free[0] != r_with[0]

    @pytest.mark.parametrize("mode", [MODE_WINDOW, MODE_EXACT_DAY])
    def test_columns_fixed_by_their_bounds_leave_the_pivot_path_unchanged(self, mode):
        # the README model with its container columns fixed at T, costless,
        # solves as the flow LP without them at rhs b - A_T·T: the same
        # pivots, the same flow and duals bit for bit, and T as given
        model = build_mip(readme_instance(), mode)
        t_cols = np.asarray(model.integer_columns)
        flow = np.setdiff1d(np.arange(model.num_vars), t_cols)
        A = as_array(model.A)
        objective = model.objective.copy()
        objective[t_cols] = 0.0
        rng = np.random.default_rng(3)
        for k in range(6):
            if k % 2:
                t = rng.integers(0, 3, size=len(t_cols)).astype(np.float64)
            else:
                t = rng.uniform(0.0, 2.0, len(t_cols))
            bounds = np.zeros(model.num_vars)
            bounds[t_cols] = t
            upper = np.full(model.num_vars, np.inf)
            upper[t_cols] = t
            fixed = solve_lp(
                LpProblem(
                    objective=objective,
                    A=model.A,
                    senses=model.senses,
                    rhs=model.rhs,
                    lower=bounds,
                    upper=upper,
                )
            )
            split = solve_lp(
                LpProblem(
                    objective=model.objective[flow],
                    A=A[:, flow],
                    senses=model.senses,
                    rhs=model.rhs - A[:, t_cols] @ t,
                )
            )
            assert fixed.status == split.status == STATUS_OPTIMAL
            assert fixed.pivots == split.pivots
            assert fixed.x[flow].tobytes() == split.x.tobytes()
            assert fixed.x[t_cols].tobytes() == t.tobytes()
            assert fixed.y.tobytes() == split.y.tobytes()

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
        # the sparse basis gathers its columns of [A | I], slacks included,
        # straight into CSC; the dense basis is the reference
        rng = np.random.default_rng(11)
        m, n = 6, 9
        A = np.round(rng.uniform(-3, 3, size=(m, n)), 1)
        A[rng.uniform(size=A.shape) < 0.5] = 0.0
        A[:, :m] += 4.0 * np.eye(m)  # keeps the chosen bases nonsingular
        A_std = np.hstack([A, np.eye(m)])
        sparse = simplex._Basis(sp.csc_matrix(A_std))
        dense = simplex._DenseBasis(A_std)
        v = rng.uniform(-1, 1, size=m)
        for basis in ([0, 1, 2, 3, 4, 5], [9, 1, 11, 3, 13, 14], [10, 9, 12, 11, 14, 13]):
            for B in (sparse, dense):
                B.basis = np.array(basis, dtype=np.int64)
                B.refactor()
            np.testing.assert_allclose(sparse.ftran(v), dense.ftran(v), atol=1e-12)
            np.testing.assert_allclose(sparse.btran(v), dense.btran(v), atol=1e-12)
        for j in range(n + m):
            np.testing.assert_array_equal(sparse.column(j), dense.column(j))

    def test_eta_file_matches_dense_inverse_and_refactor(self):
        # a full eta file of REFACTOR_EVERY pivots on a random sparse basis,
        # so row positions leave more than once; after every pivot the eta
        # file must agree with the dense inverse and with a fresh factor
        rng = np.random.default_rng(5)
        m, n = 30, 60
        A = sp.random(m, n, density=0.15, random_state=rng, data_rvs=lambda k: rng.normal(size=k))
        A_std = sp.hstack([A, sp.eye(m)]).tocsc()
        sparse = simplex._Basis(A_std)
        dense = simplex._DenseBasis(A_std.toarray())
        fresh = simplex._Basis(A_std)
        basis = np.arange(n, n + m)
        for B in (sparse, dense):
            B.basis = basis.copy()
            B.refactor()

        def close(got, want):
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

        left = []
        for _ in range(simplex.REFACTOR_EVERY):
            q = int(rng.choice(np.setdiff1d(np.arange(n + m), sparse.basis)))
            d = sparse.ftran(sparse.column(q))
            # a large pivot keeps the product of etas well conditioned
            leave = int(np.argmax(np.abs(d)))
            if left and abs(d[left[-1]]) >= 0.5 * abs(d[leave]):
                leave = left[-1]  # the same row position leaves again
            left.append(leave)
            sparse.update(leave, d)
            dense.update(leave, dense.ftran(dense.column(q)))
            for B in (sparse, dense):
                B.basis[leave] = q
            fresh.basis = sparse.basis.copy()
            fresh.refactor()
            for v in rng.normal(size=(2, m)):
                for reference in (dense, fresh):
                    close(sparse.ftran(v), reference.ftran(v))
                    close(sparse.btran(v), reference.btran(v))
        assert sparse.K == simplex.REFACTOR_EVERY
        assert any(a == b for a, b in zip(left, left[1:]))


def bounded_problem(
    rng: np.random.Generator, representation, *, nonnegative_costs: bool = False
) -> LpProblem:
    """A random LP whose columns carry positive lower bounds (about 30%)
    and finite upper bounds (about half, and every column of negative cost)."""
    c, A, senses, b = random_arrays(rng)
    if nonnegative_costs:
        c = np.abs(c)
    n = len(c)
    lower = np.where(rng.uniform(size=n) < 0.3, np.round(rng.uniform(0.1, 2.0, n), 1), 0.0)
    width = np.round(rng.uniform(0.0, 4.0, n), 1)
    upper = np.where((rng.uniform(size=n) < 0.5) | (c < 0), lower + width, np.inf)
    return LpProblem(c, representation(A), senses, b, lower=lower, upper=upper)


def highs(problem: LpProblem):
    """``scipy.optimize.linprog`` (HiGHS) on the same LP, bounds included."""
    from scipy.optimize import linprog

    A = as_array(problem.A)
    le = problem.senses == "<"
    return linprog(
        problem.objective,
        A_ub=A[le] if le.any() else None,
        b_ub=problem.rhs[le] if le.any() else None,
        A_eq=A[~le] if (~le).any() else None,
        b_eq=problem.rhs[~le] if (~le).any() else None,
        bounds=[(lo, None if hi == np.inf else hi) for lo, hi in zip(problem.lower, problem.upper)],
        method="highs",
    )


HIGHS_STATUS = {0: STATUS_OPTIMAL, 2: STATUS_INFEASIBLE}


class TestBounds:
    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    @pytest.mark.parametrize("block", range(5))
    def test_against_highs(self, block, representation):
        # 80 draws per block, negative costs at an upper bound included;
        # every outcome is certified and matches HiGHS in status and objective
        rng = np.random.default_rng(9800 + block)
        for _ in range(80):
            problem = bounded_problem(rng, representation)
            outcome = solve_lp(problem)
            report = verify_certificate(problem, outcome)
            assert report.ok, (outcome.status, report.failures)
            reference = highs(problem)
            assert outcome.status == HIGHS_STATUS[reference.status]
            if outcome.status == STATUS_OPTIMAL:
                scale = 1.0 + abs(reference.fun)
                assert abs(outcome.objective - reference.fun) <= ORACLE_TOL * scale
                assert (outcome.x >= problem.lower).all()
                assert (outcome.x <= problem.upper).all()

    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    def test_infeasible_only_through_the_bounds_is_certified(self, representation):
        rng = np.random.default_rng(9900)
        certified = 0
        for _ in range(300):
            problem = bounded_problem(rng, representation)
            # whether the rows alone are feasible does not hang on the costs
            unbounded_box = LpProblem(
                np.abs(problem.objective), problem.A, problem.senses, problem.rhs
            )
            if solve_lp(unbounded_box).status == STATUS_INFEASIBLE:
                continue
            outcome = solve_lp(problem)
            if outcome.status == STATUS_INFEASIBLE:
                assert verify_certificate(problem, outcome).ok
                certified += 1
        assert certified > 20

    @pytest.mark.parametrize(
        "lower, upper",
        [
            pytest.param([0.0, 0.0], [1.0, 2.0], id="upper-bounds"),
            pytest.param([3.0, 2.5], [np.inf, np.inf], id="lower-bounds"),
        ],
    )
    def test_rows_feasible_box_not(self, lower, upper):
        # x1 + x2 = 5 holds on the nonnegative orthant, not on either box
        problem = LpProblem(
            objective=np.array([1.0, 2.0]),
            A=np.array([[1.0, 1.0]]),
            senses=np.array(["="]),
            rhs=np.array([5.0]),
            lower=np.array(lower),
            upper=np.array(upper),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_INFEASIBLE
        assert verify_certificate(problem, out).ok

    def test_no_rows(self):
        problem = LpProblem(
            objective=np.array([1.0, -2.0]),
            A=np.zeros((0, 2)),
            senses=np.array([], dtype="<U1"),
            rhs=np.array([]),
            lower=np.array([0.5, 1.0]),
            upper=np.array([np.inf, 3.0]),
        )
        out = solve_lp(problem)
        assert out.status == STATUS_OPTIMAL
        np.testing.assert_array_equal(out.x, [0.5, 3.0])
        assert out.objective == pytest.approx(-5.5)
        assert verify_certificate(problem, out).ok

    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    @pytest.mark.parametrize("nonnegative_costs", [True, False], ids=["nonneg", "any-cost"])
    def test_warm_start_after_tightening_one_bound(
        self, representation, nonnegative_costs, dual_path
    ):
        # a branching step: the most fractional column of an optimum gets
        # a new upper bound below it or a new lower bound above it
        rng = np.random.default_rng(4242)
        checked = held = 0
        for _ in range(300):
            problem = bounded_problem(rng, representation, nonnegative_costs=nonnegative_costs)
            base = solve_lp(problem)
            if base.status != STATUS_OPTIMAL:
                continue
            j = int(np.argmax(base.x - np.floor(base.x)))
            lower, upper = problem.lower.copy(), problem.upper.copy()
            if rng.uniform() < 0.5:
                lower[j] = np.ceil(base.x[j] + 1e-9)
                if lower[j] > upper[j]:
                    continue
            else:
                upper[j] = max(np.floor(base.x[j] - 1e-9), lower[j])
            child = LpProblem(
                problem.objective, problem.A, problem.senses, problem.rhs, lower=lower, upper=upper
            )
            dual_path.clear()
            warm = solve_lp(child, warm=base.basis)
            held += dual_path[0] is not None
            cold = solve_lp(child)
            assert warm.status == cold.status
            assert verify_certificate(child, warm).ok
            if cold.status == STATUS_OPTIMAL:
                scale = 1.0 + abs(cold.objective)
                assert abs(warm.objective - cold.objective) <= 1e-8 * scale
            checked += 1
        assert checked > 100
        # the parent's basis stays dual feasible under the true costs,
        # which the dual phase keeps wherever the basis is dual feasible
        assert held == checked

    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    def test_warm_basis_of_fewer_rows_takes_the_appended_slacks(
        self, representation, dual_path
    ):
        # '<' rows appended after the solve: the warm basis names fewer
        # basic columns than the LP has rows, and the rows past them give
        # their slacks; the start holds and reaches the cold optimum
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(200):
            problem = bounded_problem(rng, representation, nonnegative_costs=True)
            base = solve_lp(problem)
            if base.status != STATUS_OPTIMAL:
                continue
            k = int(rng.integers(1, 3))
            extra = np.round(rng.uniform(-2, 3, size=(k, problem.num_cols)), 1)
            # each new row cuts the optimum off by a margin
            rhs = np.round(extra @ base.x - rng.uniform(0.1, 1.0, size=k), 1)
            A = np.vstack([as_array(problem.A), extra])
            grown = LpProblem(
                problem.objective,
                representation(A),
                np.concatenate([problem.senses, ["<"] * k]),
                np.concatenate([problem.rhs, rhs]),
                lower=problem.lower,
                upper=problem.upper,
            )
            dual_path.clear()
            warm = solve_lp(grown, warm=base.basis)
            assert len(dual_path) == 1 and dual_path[0] is not None
            cold = solve_lp(grown)
            assert warm.status == cold.status
            assert verify_certificate(grown, warm).ok
            if cold.status == STATUS_OPTIMAL:
                scale = 1.0 + abs(cold.objective)
                assert abs(warm.objective - cold.objective) <= 1e-8 * scale
            checked += 1
        assert checked > 40


class TestBoundChecks:
    def _problem(self, **bounds):
        return LpProblem(
            objective=np.array([1.0, 1.0]),
            A=np.array([[1.0, 1.0]]),
            senses=np.array(["<"]),
            rhs=np.array([4.0]),
            **bounds,
        )

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_rejects_nan_bound(self, side):
        with pytest.raises(SolverError):
            self._problem(**{side: np.array([0.0, np.nan])})

    @pytest.mark.parametrize("value", [-np.inf, np.inf])
    def test_rejects_infinite_lower(self, value):
        with pytest.raises(SolverError):
            self._problem(lower=np.array([value, 0.0]))

    def test_rejects_lower_above_upper(self):
        with pytest.raises(SolverError):
            self._problem(lower=np.array([2.0, 0.0]), upper=np.array([1.0, 3.0]))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_rejects_bound_of_wrong_length(self, side):
        with pytest.raises(SolverError):
            self._problem(**{side: np.zeros(3)})

    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    def test_rejects_negative_cost_without_upper_bound(self, representation):
        # min x0 - x1 on x0 + x1 <= 4 is bounded, but only through its rows;
        # without an upper bound on x1 its cost may not be negative
        with pytest.raises(SolverError, match="negative cost"):
            LpProblem(
                objective=np.array([1.0, -1.0]),
                A=representation(np.array([[1.0, 1.0]])),
                senses=np.array(["<"]),
                rhs=np.array([4.0]),
            )

    @pytest.mark.parametrize(
        "representation", [np.asarray, sp.csr_matrix], ids=["dense", "sparse"]
    )
    def test_negative_cost_at_a_finite_upper_bound(self, representation, dual_path):
        # the same cost on a column bounded by 3: the slack basis puts x1 at
        # that bound, dual feasible, and the one start from it is optimal
        problem = LpProblem(
            objective=np.array([1.0, -1.0]),
            A=representation(np.array([[1.0, 1.0]])),
            senses=np.array(["<"]),
            rhs=np.array([4.0]),
            upper=np.array([np.inf, 3.0]),
        )
        out = solve_lp(problem)
        assert len(dual_path) == 1 and dual_path[0] is not None
        assert out.status == STATUS_OPTIMAL
        np.testing.assert_array_equal(out.x, [0.0, 3.0])
        assert out.objective == -3.0
        assert verify_certificate(problem, out).ok
