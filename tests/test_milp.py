"""Branch and bound: small-model oracles, lazy rows, limits, logging."""

import io
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from intransit import (
    MODE_EXACT_DAY,
    MODE_WINDOW,
    LpProblem,
    MilpProblem,
    build_mip,
    check_solution,
    lp_from_mip,
    solve_milp,
)
from intransit.benders import _prepare, _solve_sub
from intransit.errors import SolverError
from intransit.milp import MILP_INFEASIBLE, MILP_NODE_LIMIT, MILP_OPTIMAL
from intransit.simplex import STATUS_OPTIMAL

from conftest import build_instance


def t_grid_minimum(instance, mode, t_max=2):
    """Exhaustive oracle: try every integer container grid up to t_max."""
    model = build_mip(instance, mode)
    sub = _prepare(model)
    n_t = len(model.integer_columns)
    h_costs = model.objective[model.integer_columns]
    best = math.inf
    for grid in itertools.product(range(t_max + 1), repeat=n_t):
        t = np.asarray(grid, dtype=np.float64)
        result = _solve_sub(sub, t)
        if result.status != STATUS_OPTIMAL:
            continue
        best = min(best, result.objective + float(h_costs @ t))
    return best


class TestSmallProblems:
    def test_container_ceiling(self):
        # one container already covers 100 lbs: minimize T with 100 <= 48000 T
        prob = MilpProblem(
            lp=LpProblem(
                objective=np.array([1.0]),
                A=np.array([[-48000.0]]),
                senses=np.array(["<"]),
                rhs=np.array([-100.0]),
            ),
            integer_columns=np.array([0]),
        )
        out = solve_milp(prob)
        assert out.status == MILP_OPTIMAL
        assert out.x[0] == pytest.approx(1.0)
        assert out.objective == pytest.approx(1.0)

    def test_integral_root_takes_one_node(self):
        prob = MilpProblem(
            lp=LpProblem(
                objective=np.array([1.0, 1.0]),
                A=np.array([[1.0, 1.0]]),
                senses=np.array(["="]),
                rhs=np.array([4.0]),
            ),
            integer_columns=np.array([0, 1]),
        )
        out = solve_milp(prob)
        assert out.status == MILP_OPTIMAL
        assert out.nodes == 1
        assert out.objective == pytest.approx(4.0)

    def test_fractional_root_branches(self):
        # x + y = 3.5 with both integer: infeasible after branching
        prob = MilpProblem(
            lp=LpProblem(
                objective=np.array([1.0, 1.0]),
                A=np.array([[1.0, 1.0]]),
                senses=np.array(["="]),
                rhs=np.array([3.5]),
            ),
            integer_columns=np.array([0, 1]),
        )
        out = solve_milp(prob)
        assert out.status == MILP_INFEASIBLE
        assert out.nodes > 1

    def test_knapsack_style_rounding(self):
        # LP wants 1.75 containers; integrality forces 2
        prob = MilpProblem(
            lp=LpProblem(
                objective=np.array([10.0, 1.0]),
                A=np.array([[-4.0, -1.0], [0.0, 1.0]]),
                senses=np.array(["<", "<"]),
                rhs=np.array([-7.0, 2.0]),
            ),
            integer_columns=np.array([0]),
        )
        out = solve_milp(prob)
        assert out.status == MILP_OPTIMAL
        # candidates: x0=2 -> 20; x0=1.25 not integral; x0=1, x1=2 wastes cap
        assert out.x[0] == pytest.approx(2.0)
        assert out.objective == pytest.approx(20.0)

    def test_lp_infeasible_root(self):
        prob = MilpProblem(
            lp=LpProblem(
                objective=np.array([1.0]),
                A=np.array([[1.0], [1.0]]),
                senses=np.array(["=", "="]),
                rhs=np.array([1.0, 2.0]),
            ),
            integer_columns=np.array([0]),
        )
        assert solve_milp(prob).status == MILP_INFEASIBLE

    def test_integer_upper_prunes_up_branches(self):
        # under the loose bound x0 <= 3 the root LP sits at x0 = 2.5 and
        # branches; the column bound x0 <= 2 holds the root at x0 = 2, and
        # no branch above it is made
        def prob(upper):
            return MilpProblem(
                lp=LpProblem(
                    objective=np.array([-1.0, 0.0]),
                    A=np.array([[1.0, 1.0]]),
                    senses=np.array(["="]),
                    rhs=np.array([2.5]),
                    upper=upper,
                ),
                integer_columns=np.array([0]),
            )

        bounded = solve_milp(prob(np.array([2.0, np.inf])))
        loose = solve_milp(prob(np.array([3.0, np.inf])))
        assert bounded.status == loose.status == MILP_OPTIMAL
        assert bounded.objective == loose.objective == pytest.approx(-2.0)
        assert bounded.nodes < loose.nodes


class TestSeparation:
    def _problem(self, cut_upfront):
        # max 2 x0 + 3 x1 on the box [0, 3]^2; the lazy row 2 x0 + 2 x1 <= 9
        # cuts off the integral box corner and leaves a fractional vertex
        A = [[2.0, 2.0]] if cut_upfront else []
        return MilpProblem(
            lp=LpProblem(
                objective=np.array([-2.0, -3.0]),
                A=np.array(A).reshape(len(A), 2),
                senses=np.array(["<"] * len(A)),
                rhs=np.array([9.0] if cut_upfront else []),
                upper=np.array([3.0, 3.0]),
            ),
            integer_columns=np.array([0, 1]),
        )

    def test_lazy_row_matches_row_from_the_start(self):
        seen = []

        def separate(x, bound):
            seen.append((x.copy(), bound))
            if x[0] + x[1] > 4.5:
                return (np.array([2.0, 2.0]), 9.0), None
            return None, x

        lazy = solve_milp(self._problem(False), separate=separate)
        upfront = solve_milp(self._problem(True))
        assert upfront.status == lazy.status == MILP_OPTIMAL
        assert lazy.objective == pytest.approx(upfront.objective) == pytest.approx(-11.0)
        np.testing.assert_allclose(lazy.x, upfront.x)
        assert lazy.bound == pytest.approx(upfront.bound)
        # the first integral point was the corner (3, 3), at the root bound
        np.testing.assert_allclose(seen[0][0], [3.0, 3.0])
        assert seen[0][1] == pytest.approx(-15.0)
        # the root was solved again with the row, then branched like the
        # tree that had the row from the start
        assert upfront.nodes > 1
        assert lazy.nodes == upfront.nodes + 1
        assert len(seen) > 1

    def test_fractional_root_is_separated_before_branching(self):
        # min -x0 - 0.5 x1 on x0 + x1 <= 3.5, x integer in [0, 3]: the
        # root (3, 0.5), its one optimal vertex, is fractional; the row
        # x1 <= 0.25 re-solves it at (3, 0.25), and returning no row there
        # ends the rounds; the point offered there is not an incumbent
        prob = MilpProblem(
            lp=LpProblem(
                objective=np.array([-1.0, -0.5]),
                A=np.array([[1.0, 1.0], [1.0, 0.0]]),
                senses=np.array(["<", "<"]),
                rhs=np.array([3.5, 3.0]),
                upper=np.array([3.0, 3.0]),
            ),
            integer_columns=np.array([0, 1]),
        )
        seen = []

        def separate(x, bound):
            seen.append((x.copy(), bound))
            if len(seen) == 1:
                return (np.array([0.0, 1.0]), 0.25), None
            # the point is ignored at the fractional root
            return None, x

        out = solve_milp(prob, separate=separate)
        assert out.status == MILP_OPTIMAL
        assert out.objective == pytest.approx(-3.0)
        # called at the unrounded root, then at the root re-solved with the
        # row, whose bound rose
        np.testing.assert_allclose(seen[0][0], [3.0, 0.5])
        assert seen[0][1] == pytest.approx(-3.25)
        np.testing.assert_allclose(seen[1][0], [3.0, 0.25])
        assert seen[1][1] == pytest.approx(-3.125)
        # the rounds ended there: every later call is at an integral node
        for x, _ in seen[2:]:
            np.testing.assert_array_equal(x, np.round(x))
        # two root solves, then branching on x1
        assert out.nodes > 2

    def test_block_of_rows_joins_the_root_in_one_round(self):
        # min -x0 - x1 - x2 on x0 + x1 + x2 <= 7.5 and the box [0, 3]^3:
        # the root is fractional; one round returns the block x0 <= 2,
        # x1 <= 2 as a sparse matrix, and the root re-solved with both
        # rows at once is (2, 2, 3)
        prob = MilpProblem(
            lp=LpProblem(
                objective=-np.ones(3),
                A=np.ones((1, 3)),
                senses=np.array(["<"]),
                rhs=np.array([7.5]),
                upper=np.full(3, 3.0),
            ),
            integer_columns=np.arange(3),
        )
        block = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        seen = []

        def separate(x, bound):
            seen.append(x.copy())
            if len(seen) == 1:
                assert (x != np.round(x)).any()
                return (block, np.array([2.0, 2.0])), None
            return None, x

        out = solve_milp(prob, separate=separate)
        assert out.status == MILP_OPTIMAL
        assert out.objective == pytest.approx(-7.0)
        # both rows held at the second root solve, which was integral
        np.testing.assert_allclose(seen[1], [2.0, 2.0, 3.0])
        assert out.root_bound == pytest.approx(-7.0)
        assert out.nodes == len(seen) == 2

    def test_root_rounds_stop_when_the_bound_stalls(self):
        # a separator that always returns a row the root LP already meets:
        # the bound never rises, so the rounds stop after ROOT_STALL_ROUNDS
        from intransit.milp import ROOT_STALL_ROUNDS

        prob = TestLimitsAndLogging()._fractional_problem()
        fractional_calls = []

        def separate(x, bound):
            if (x != np.round(x)).any():
                fractional_calls.append(bound)
                return (np.zeros(len(x)), 0.0), None
            return None, x

        out = solve_milp(prob, separate=separate)
        plain = solve_milp(prob)
        assert out.objective == pytest.approx(plain.objective)
        assert len(fractional_calls) == ROOT_STALL_ROUNDS
        assert out.nodes == plain.nodes + ROOT_STALL_ROUNDS


class TestConsolidationModels:
    def test_window_optimum(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        out = solve_milp(model)
        assert out.status == MILP_OPTIMAL
        # land 0.30/lb + LCL 0.20/lb on 1000 lbs, early arrival stored free
        assert out.objective == pytest.approx(500.0, rel=1e-9)
        assert check_solution(model, out.x).ok(1e-6)

    def test_exact_day_optimum(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_EXACT_DAY)
        out = solve_milp(model)
        assert out.status == MILP_OPTIMAL
        # same route plus one day of gateway holding at 0.005/lb
        assert out.objective == pytest.approx(505.0, rel=1e-9)

    def test_relaxation_below_integer(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        lp = solve_milp(
            MilpProblem(lp=lp_from_mip(model), integer_columns=np.array([], dtype=np.int64))
        )
        # fractional containers undercut LCL: 300 first leg + 100 FCL
        assert lp.objective == pytest.approx(400.0, rel=1e-9)
        assert lp.objective <= solve_milp(model).objective

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_exhaustive_grid_oracle(self, seed):
        from intransit import GeneratorConfig, generate_synthetic

        cfg = GeneratorConfig(
            n_products=2,
            n_suppliers=1,
            n_gateways=1,
            horizon_days=5,
            window_days=4,
            weight_min=500.0,
            weight_max=60000.0,
            container_capacity=40000.0,
        )
        instance = generate_synthetic(cfg, seed)
        model = build_mip(instance, MODE_WINDOW)
        out = solve_milp(model)
        assert out.status == MILP_OPTIMAL
        want = t_grid_minimum(instance, MODE_WINDOW, t_max=2)
        assert abs(out.objective - want) <= 1e-7 * (1.0 + abs(want))


    def test_linking_rounds_close_generated_20x5x3x30_seed_1(self):
        # the weak capacity rows alone needed 751 nodes here
        from intransit import GeneratorConfig, generate_synthetic

        cfg = GeneratorConfig(n_products=20, n_suppliers=5, n_gateways=3, horizon_days=30)
        out = solve_milp(build_mip(generate_synthetic(cfg, seed=1), MODE_WINDOW))
        assert out.status == MILP_OPTIMAL
        # frozen from HiGHS on the same model
        assert out.objective == pytest.approx(45052.70, abs=5e-3)
        assert out.nodes <= 30


class TestLimitsAndLogging:
    def _fractional_problem(self):
        rng = np.random.default_rng(12)
        n = 8
        A = np.round(rng.uniform(0.5, 3.0, size=(3, n)), 1)
        return MilpProblem(
            lp=LpProblem(
                objective=np.round(rng.uniform(1.0, 4.0, size=n), 1),
                A=-A,
                senses=np.array(["<"] * 3),
                rhs=-np.round(rng.uniform(10.0, 20.0, size=3), 1),
            ),
            integer_columns=np.arange(n),
        )

    def test_node_limit_is_reported(self):
        prob = self._fractional_problem()
        full = solve_milp(prob)
        assert full.status == MILP_OPTIMAL
        assert full.nodes > 2
        limited = solve_milp(prob, node_limit=2)
        assert limited.status == MILP_NODE_LIMIT
        assert limited.bound <= full.objective + 1e-9
        assert limited.gap > 0 or limited.objective is None

    def test_node_log_csv(self):
        prob = self._fractional_problem()
        log = io.StringIO()
        out = solve_milp(prob, node_log=log)
        lines = log.getvalue().strip().splitlines()
        assert lines[0] == "node,depth,bound,incumbent"
        # LP-infeasible nodes are counted but produce no log row
        assert 1 < len(lines) <= out.nodes + 1
        bounds = [float(line.split(",")[2]) for line in lines[1:]]
        # the root relaxation is the weakest bound in the whole log
        assert min(bounds) >= bounds[0] - 1e-9
        incumbents = [line.split(",")[3] for line in lines[1:]]
        assert incumbents[0] == "inf"

    def test_node_log_keeps_every_digit_of_the_bound(self):
        from conftest import readme_instance

        log = io.StringIO()
        out = solve_milp(build_mip(readme_instance(), MODE_WINDOW), node_log=log)
        rows = [line.split(",") for line in log.getvalue().strip().splitlines()[1:]]
        root_rows = [row for row in rows if row[1] == "0"]
        assert float(root_rows[-1][2]) == out.root_bound

    def test_loose_gap_stops_early(self):
        prob = self._fractional_problem()
        tight = solve_milp(prob)
        loose = solve_milp(prob, gap_tol=0.5)
        assert loose.nodes <= tight.nodes
        assert loose.objective <= tight.objective * 1.5 + 1e-9


class TestWarmStart:
    def test_unrelated_type_rejected(self):
        with pytest.raises(SolverError, match="cannot solve"):
            solve_milp({"not": "a model"})
