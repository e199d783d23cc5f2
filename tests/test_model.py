"""Model assembly: path columns, row families, objective, residual checks."""

import numpy as np
import pytest

from intransit import (
    MODE_EXACT_DAY,
    MODE_WINDOW,
    GeneratorConfig,
    VarKey,
    build_mip,
    check_solution,
    generate_synthetic,
    objective_breakdown,
    solution_flows,
)
from intransit.errors import InfeasibleInstanceError, ModelError
from intransit.model import FAMILY_CAPACITY, FAMILY_DUE, FAMILY_PICKUP

from arc_model import VarIndexer, expected_arc_shape
from arc_model import build_mip as build_arc
from conftest import (
    as_array,
    build_instance,
    expected_shape,
    highs_objective,
    path_column,
    solution_vector,
    t_column,
)

# the tiny instance: 1000 lb of p0 picked up at s0 on day 0, due on day 4;
# land lands at g0 on day 2 at 0.30/lb, air on day 1 at 0.90/lb; the second
# leg takes a day, so paths leave g0 on days 1 (air), 2 and 3 (land). LCL
# adds 0.20/lb, so their LCL costs are 1.10, 0.50 and 0.505: in window mode
# only the day-2 LCL column is built, and the container columns of days 2
# and 3, which cost less than it
PICKUP = ("p0", "s0", 0)


def lcl(model, day):
    return path_column(model, PICKUP, "g0", day)


def box(model, day):
    return path_column(model, PICKUP, "g0", day, container=True)


class TestVariableCount:
    @pytest.mark.parametrize(
        "nP,nS,nH,nD",
        [(1, 1, 1, 10), (3, 2, 2, 12), (2, 1, 3, 7), (100, 20, 3, 60)],
    )
    @pytest.mark.parametrize("mode", [MODE_WINDOW, MODE_EXACT_DAY])
    def test_closed_form(self, nP, nS, nH, nD, mode):
        inst = generate_synthetic(GeneratorConfig(nP, nS, nH, nD, window_days=5), seed=3)
        model = build_mip(inst, mode)
        assert model.A.shape == expected_shape(inst, mode)

    def test_indexer_matches_closed_form(self, tiny_instance):
        # the arc reference's index map, which the acceptance tests hand
        # to HiGHS, and the path model, each against its closed form
        for mode in (MODE_WINDOW, MODE_EXACT_DAY):
            rows, cols = expected_arc_shape(tiny_instance, mode)
            assert VarIndexer(tiny_instance, mode).num_vars == cols
            assert build_arc(tiny_instance, mode).A.shape == (rows, cols)
            assert build_mip(tiny_instance, mode).A.shape == expected_shape(tiny_instance, mode)

    def test_single_cell_window_example(self, tiny_instance):
        # T on the days container columns leave, 2 and 3; in exact-day mode
        # the one path leaves on day 3, with a container and an LCL column
        model = build_mip(tiny_instance, MODE_WINDOW)
        assert model.t_day.tolist() == [2, 3]
        assert model.num_rows == 3  # one pickup row and two capacity rows
        exact = build_mip(tiny_instance, MODE_EXACT_DAY)
        assert exact.paths.day.tolist() == [3, 3]
        assert exact.paths.container.tolist() == [True, False]
        assert exact.t_day.tolist() == [3]
        assert exact.num_vars == 3

    def test_first_leg_columns_only_where_freight_can_leave_the_gateway(self):
        # land takes 3 days, air 1, the last departure from g0 is day 8:
        # by land the day-6 pickup lands on day 9, inside the horizon but
        # too late to leave, so it can only fly
        # (air at 0.35/lb, so the day-0 pickup's air path by container
        # costs less than its land path as LCL, 0.50, and keeps a column)
        inst = build_instance(
            suppliers=("s0", "s1"),
            pickups={("p0", "s0", 0): 10.0, ("p0", "s0", 6): 20.0},
            land_time=3,
            air_cost=0.35,
        )
        model = build_mip(inst, MODE_WINDOW)
        late = model.paths.pickup == 1
        assert np.unique(model.paths.day[late]).tolist() == [7, 8]
        assert model.paths.air[late].all()
        # every first leg some column stands for; none from s1, where
        # nothing is picked up
        every = solution_flows(model, np.ones(model.num_vars))
        first_leg = sorted(str(k) for k in every if k.kind in ("X", "Y"))
        assert first_leg == ["X[p0,s0,g0,0]", "Y[p0,s0,g0,0]", "Y[p0,s0,g0,6]"]

    def test_no_departure_arrives_after_the_horizon(self):
        # a day-7 pickup is due on the last day, 9, so it leaves on day 8,
        # the last day whose departure lands inside the horizon
        model = build_mip(build_instance(pickups={("p0", "s0", 7): 500.0}), MODE_WINDOW)
        assert model.paths.day.tolist() == [8, 8]
        assert model.t_day.tolist() == [8]


class TestDominance:
    """Only path columns an optimum can use are built: per pickup and due
    bucket the cheapest LCL path, and the container columns that cost less
    than it. The bucket is the first due day on or after a path lands."""

    def test_tiny_window_keeps_the_cheapest_lcl_and_the_cheaper_containers(self, tiny_instance):
        # LCL costs 1.10, 0.50, 0.505 on days 1-3: the day-2 column stays;
        # containers cost 0.90, 0.30, 0.305: those of days 2 and 3 stay
        model = build_mip(tiny_instance, MODE_WINDOW)
        paths = model.paths
        assert paths.day[~paths.container].tolist() == [2]
        assert paths.day[paths.container].tolist() == [2, 3]
        assert model.objective[model.path_columns()].tolist() == pytest.approx([0.30, 0.305, 0.50])
        assert model.num_vars == 5  # T on days 2 and 3, and the three paths
        assert model.linking.u_cols.tolist() == [box(model, 2), box(model, 3)]

    @pytest.mark.parametrize(
        "mode, lcl_days",
        [(MODE_WINDOW, {0: [2, 4], 1: [3, 4]}), (MODE_EXACT_DAY, {0: [3, 5], 1: [3, 5]})],
    )
    def test_pooled_product_keeps_one_lcl_column_per_pickup_and_due_day(self, mode, lcl_days):
        # p0 is due on days 4 and 6. The day-0 pickup's cheapest LCL paths
        # land by day 4 on day 3 (land, left on day 2) and after it on day
        # 5 (land, held to day 4); the day-2 pickup only flies in time for
        # day 4 and lands by land on day 4, leaving on day 4 for day 6
        inst = build_instance(pickups={PICKUP: 1000.0, ("p0", "s0", 2): 500.0})
        model = build_mip(inst, mode)
        paths = model.paths
        goes_lcl = ~paths.container
        for r, days in lcl_days.items():
            assert paths.day[goes_lcl & (paths.pickup == r)].tolist() == days
        # every built container column costs less than the LCL column it
        # shares its due rows with
        cost = model.objective[model.path_columns()]
        lands = paths.day + 1
        bucket = np.where(lands <= 4, 4, 6)
        for i in np.flatnonzero(paths.container):
            (j,) = np.flatnonzero(goes_lcl & (paths.pickup == paths.pickup[i]) & (bucket == bucket[i]))
            assert cost[i] < cost[j]
        assert highs_objective(model) == pytest.approx(highs_objective(build_arc(inst, mode)), rel=1e-9)

    @pytest.mark.parametrize("mode", [MODE_WINDOW, MODE_EXACT_DAY])
    def test_free_lcl_leaves_no_container_column(self, mode):
        # with LCL free at g0, no container undercuts the cheapest LCL path
        inst = build_instance(
            gateways=("g0", "g1"),
            pickups={PICKUP: 1000.0, ("p0", "s0", 2): 500.0},
            lcl_cost={"g0": 0.0, "g1": 0.20},
        )
        model = build_mip(inst, mode)
        assert not model.paths.container.any()
        assert len(model.linking.u_cols) == 0
        assert (model.paths.gateway == 0).all()
        assert model.num_vars == len(model.integer_columns) + 4  # two pickups, two due days
        assert highs_objective(model) == pytest.approx(highs_objective(build_arc(inst, mode)), rel=1e-9)


class TestVarIndexer:
    """The arc reference's index map (``tests/arc_model.py``)."""

    def test_round_trip_all_columns(self):
        inst = build_instance(
            products=("p0", "p1"),
            suppliers=("s0", "s1"),
            gateways=("g0", "g1"),
            pickups={("p0", "s0", 0): 10.0, ("p1", "s1", 1): 5.0, ("p1", "s0", 3): 7.0},
            horizon_days=5,
            second_leg_time={"g0": 1, "g1": 2},
        )
        ix = VarIndexer(inst, MODE_WINDOW)
        for col in range(ix.num_vars):
            key = ix.key_of(col)
            p = ix.p_index[key.p] if key.p is not None else None
            s = ix.s_index[key.s] if key.s is not None else None
            h = ix.h_index[key.h] if key.h is not None else None
            back = {
                "X": lambda: ix.col_x(p, s, h, key.d),
                "Y": lambda: ix.col_y(p, s, h, key.d),
                "Z": lambda: ix.col_z(p, h, key.d),
                "U": lambda: ix.col_u(p, h, key.d),
                "T": lambda: ix.col_t(h, key.d),
                "I": lambda: ix.col_i(p, h, key.d),
                "N": lambda: ix.col_n(p, key.d),
            }[key.kind]()
            assert back == col

    def test_key_string_form(self, tiny_instance):
        ix = VarIndexer(tiny_instance, MODE_WINDOW)
        assert str(ix.key_of(ix.col_t(0, 3))) == "T[g0,3]"
        assert str(ix.key_of(ix.col_x(0, 0, 0, 0))) == "X[p0,s0,g0,0]"
        assert str(ix.key_of(ix.col_z(0, 0, 8))) == "Z[p0,g0,8]"

    def test_no_n_columns_in_exact_day(self, tiny_instance):
        ix = VarIndexer(tiny_instance, MODE_EXACT_DAY)
        assert ix.sizes["N"] == 0
        with pytest.raises(ModelError):
            ix.col_n(0, 0)

    def test_unknown_mode(self, tiny_instance):
        with pytest.raises(ModelError):
            VarIndexer(tiny_instance, "relaxed")


class TestRowFamilies:
    def test_counts(self):
        # p0 has two pickups, due on days 4 and 5, so one due row
        inst = build_instance(
            products=("p0", "p1"),
            gateways=("g0", "g1"),
            pickups={("p0", "s0", 0): 10.0, ("p0", "s0", 1): 5.0, ("p1", "s0", 2): 20.0},
            horizon_days=8,
            window_days=4,
        )
        # both gateways price alike; container columns leave each on days
        # 2-5 in window mode (the day-0 pickup's air path, 0.90/lb, costs
        # more than its land path as LCL) and on days 3-5 in exact-day mode
        for mode, days in ((MODE_WINDOW, 4), (MODE_EXACT_DAY, 3)):
            model = build_mip(inst, mode)
            counts = model.family_counts()
            assert counts == {FAMILY_PICKUP: 3, FAMILY_CAPACITY: 2 * days, FAMILY_DUE: 1}
            assert model.num_rows == sum(counts.values())

    def test_capacity_rows(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        A = as_array(model.A)
        cap = model.row_tags == FAMILY_CAPACITY
        assert (model.senses[cap] == "<").all()
        assert (model.rhs[cap] == 0.0).all()
        # one row per day a container column leaves on: none flies on day 1
        assert cap.sum() == 2
        for r, d in zip(np.flatnonzero(cap), (2, 3)):
            want = {t_column(model, "g0", d): -48000.0, box(model, d): 1.0}
            assert {int(c): A[r, c] for c in np.flatnonzero(A[r])} == want

    def test_pickup_rows_cover_both_modes(self):
        # the pickup row holds every path column, by air (day 1) and by
        # land; air at 0.35/lb keeps the day-1 container column
        model = build_mip(build_instance(air_cost=0.35), MODE_WINDOW)
        A = as_array(model.A)
        r = np.flatnonzero(model.row_tags == FAMILY_PICKUP)[0]
        assert model.senses[r] == "="
        assert model.rhs[r] == 1000.0
        assert set(model.paths.air.tolist()) == {True, False}
        assert A[r, lcl(model, 2)] == 1.0
        for d in (1, 2, 3):
            assert A[r, box(model, d)] == 1.0
        assert A[r].sum() == 4.0  # nothing else in the row

    def test_customer_rhs_lands_at_due_day(self, tiny_instance):
        # a day-0 pickup with a 4-day window is due on day 4: its paths
        # arrive by then, or on that day in exact-day mode
        lands = {
            mode: (build_mip(tiny_instance, mode).paths.day + 1).tolist()
            for mode in (MODE_WINDOW, MODE_EXACT_DAY)
        }
        assert lands == {MODE_WINDOW: [3, 4, 3], MODE_EXACT_DAY: [4, 4]}
        # a second pickup, due on day 6, leaves a due row for day 4
        inst = build_instance(pickups={PICKUP: 1000.0, ("p0", "s0", 2): 500.0})
        for mode, sense, sign in ((MODE_WINDOW, "<", -1.0), (MODE_EXACT_DAY, "=", 1.0)):
            model = build_mip(inst, mode)
            (r,) = np.flatnonzero(model.row_tags == FAMILY_DUE)
            assert model.senses[r] == sense
            assert model.rhs[r] == sign * 1000.0
            row = as_array(model.A)[r]
            on_time = model.paths.day + 1 <= 4 if mode == MODE_WINDOW else model.paths.day + 1 == 4
            assert (row[model.path_columns()] == np.where(on_time, sign, 0.0)).all()
            assert set(model.paths.container[on_time].tolist()) == {True, False}
            assert max(model.paths.day + 1) == 6

    def test_stock_columns_start_on_day_1(self, tiny_instance):
        # stocks are no columns, but the flows a column stands for hold
        # freight at the gateway from the day after it lands, and early
        # freight at the customer from the day after it arrives
        exact = build_mip(tiny_instance, MODE_EXACT_DAY)
        assert solution_flows(exact, solution_vector(exact, {lcl(exact, 3): 1000.0})) == {
            VarKey("X", "p0", "s0", "g0", 0): 1000.0,
            VarKey("I", "p0", None, "g0", 3): 1000.0,
            VarKey("Z", "p0", None, "g0", 3): 1000.0,
        }
        for model in (build_mip(tiny_instance, MODE_WINDOW), exact):
            for col in range(model.num_vars):
                flows = solution_flows(model, solution_vector(model, {col: 1.0}))
                assert all(1 <= k.d <= 8 for k in flows if k.kind == "I")
                assert all(1 <= k.d <= 9 for k in flows if k.kind == "N")
            # every column that exists sits in a row
            assert (as_array(model.A) != 0).any(axis=0).all()

    def test_deterministic_assembly(self, tiny_instance):
        a = build_mip(tiny_instance, MODE_WINDOW)
        b = build_mip(tiny_instance, MODE_WINDOW)
        np.testing.assert_array_equal(as_array(a.A), as_array(b.A))
        assert np.array_equal(a.objective, b.objective)
        assert np.array_equal(a.rhs, b.rhs)
        assert np.array_equal(a.row_tags, b.row_tags)

    def test_route_validation_gate(self):
        inst = build_instance(window_days=2, land_time=4, air_time=3)
        with pytest.raises(InfeasibleInstanceError, match=r"^pickup \(p0, s0, day 0\) no route fits"):
            build_mip(inst, MODE_WINDOW)


class TestLinking:
    def test_one_entry_per_u_column_with_its_t_and_weight(self):
        # p0 ships 40,000 and 20,000 lb, p1 1,500 lb: each pickup's own
        # weight bounds its container columns, under the 48,000 lb box
        inst = build_instance(
            products=("p0", "p1"),
            gateways=("g0", "g1"),
            pickups={
                ("p0", "s0", 0): 40000.0,
                ("p0", "s0", 2): 20000.0,
                ("p1", "s0", 1): 1500.0,
            },
            second_leg_time={"g0": 1, "g1": 3},
        )
        model = build_mip(inst, MODE_WINDOW)
        link, paths = model.linking, model.paths
        box = paths.container
        np.testing.assert_array_equal(link.u_cols, model.path_columns()[box])
        np.testing.assert_array_equal(model.t_gateway[link.t_cols], paths.gateway[box])
        np.testing.assert_array_equal(model.t_day[link.t_cols], paths.day[box])
        assert set(paths.pickup[box].tolist()) == {0, 1, 2}
        np.testing.assert_array_equal(
            link.weights, np.array([40000.0, 20000.0, 1500.0])[paths.pickup[box]]
        )

    def test_violated_rows_and_their_block(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        link = model.linking
        u, t = box(model, 2), t_column(model, "g0", 2)
        x = solution_vector(model, {u: 1000.0, t: 1000.0 / 48000.0})
        # the capacity row holds; u <= 1000 T does not
        assert check_solution(model, x).family_residuals[FAMILY_CAPACITY] == 0.0
        entries = link.violated(x)
        assert [int(link.u_cols[e]) for e in entries] == [u]
        block = as_array(link.block(entries, model.A))
        assert block.shape == (1, model.num_vars)
        assert block[0, u] == 1.0 and block[0, t] == -1000.0
        assert np.count_nonzero(block) == 2
        # a whole container meets it, and so does the tolerance's margin
        x[t] = 1.0
        assert not len(link.violated(x))
        x[t] = 0.0
        x[u] = 1e-3
        assert not len(link.violated(x))


class TestObjective:
    def test_cost_placement(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        obj = model.objective
        assert obj[t_column(model, "g0", 3)] == 4800.0
        # land lands on day 2, then holds a day for day 3
        assert obj[box(model, 2)] == 0.30
        assert obj[box(model, 3)] == pytest.approx(0.305)
        assert obj[lcl(model, 2)] == pytest.approx(0.50)
        exact = build_mip(tiny_instance, MODE_EXACT_DAY)
        assert exact.objective[lcl(exact, 3)] == pytest.approx(0.505)
        # air lands on day 1; its container column is built where LCL costs
        # more than 0.90 - 0.30
        dear = build_mip(build_instance(lcl_cost=1.0), MODE_WINDOW)
        assert dear.objective[box(dear, 1)] == pytest.approx(0.90)

    def test_cost_class_partition(self, tiny_instance):
        # the per-column cost parts add up to the objective
        # (the container columns of days 2 and 3, then the day-2 LCL column)
        model = build_mip(tiny_instance, MODE_WINDOW)
        paths = model.paths
        assert paths.first_leg.tolist() == pytest.approx([0.30, 0.30, 0.30])
        assert paths.hold.tolist() == pytest.approx([0.0, 0.005, 0.0])
        assert paths.lcl.tolist() == [0.0, 0.0, 0.20]
        cols, box = model.path_columns(), paths.container
        np.testing.assert_array_equal(
            model.objective[cols[box]], (paths.first_leg + paths.hold)[box]
        )
        np.testing.assert_array_equal(
            model.objective[cols], paths.first_leg + paths.hold + paths.lcl
        )
        assert (model.objective[model.integer_columns] == 4800.0).all()

    def test_integer_columns_are_exactly_t(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        np.testing.assert_array_equal(model.integer_columns, np.arange(2))
        assert model.t_gateway.tolist() == [0, 0]
        assert model.t_day.tolist() == [2, 3]

    def test_breakdown_and_split(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_EXACT_DAY)
        # ship by land day 0, hold one day, LCL out on day 3
        x = solution_vector(model, {lcl(model, 3): 1000.0})
        bd = objective_breakdown(model, x)
        assert bd.first_leg == pytest.approx(300.0)
        assert bd.lcl == pytest.approx(200.0)
        assert bd.hold == pytest.approx(5.0)
        assert bd.fcl == 0.0
        assert bd.fixed_pickup == 80.0
        assert bd.total == pytest.approx(505.0)
        assert bd.grand_total == pytest.approx(585.0)

    def test_fixed_pickup_not_in_objective(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        x = np.zeros(model.num_vars)
        assert float(model.objective @ x) == 0.0
        assert objective_breakdown(model, x).fixed_pickup == 80.0


class TestCheckSolution:
    def _feasible_window_solution(self, model):
        # land day 0 (arrives day 2), LCL day 2, arrives day 3, the day
        # before it is due
        return solution_vector(model, {lcl(model, 2): 1000.0})

    def test_feasible_solution_passes(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        report = check_solution(model, self._feasible_window_solution(model))
        assert report.ok(1e-9)
        assert report.max_integrality_violation == 0.0
        assert report.max_negativity == 0.0

    def test_early_delivery_uses_customer_stock(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        # LCL out on day 2 arrives day 3, one day early; N carries it to day 4
        x = solution_vector(model, {lcl(model, 2): 1000.0})
        assert check_solution(model, x).ok(1e-9)
        assert solution_flows(model, x)[VarKey("N", "p0", None, None, 4)] == 1000.0

    def test_pickup_violation_detected(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        x = self._feasible_window_solution(model)
        x[lcl(model, 2)] = 900.0
        report = check_solution(model, x)
        assert report.family_residuals[FAMILY_PICKUP] == pytest.approx(100.0)
        assert not report.ok(1e-6)

    def test_capacity_violation_detected(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        x = self._feasible_window_solution(model)
        x[lcl(model, 2)] = 0.0
        x[box(model, 3)] = 1000.0  # container weight with T = 0
        report = check_solution(model, x)
        assert report.family_residuals[FAMILY_CAPACITY] == pytest.approx(1000.0)

    def test_integrality_and_negativity_reported(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        x = self._feasible_window_solution(model)
        x[t_column(model, "g0", 3)] = 0.4
        x[box(model, 2)] = -2.0
        report = check_solution(model, x)
        assert report.max_integrality_violation == pytest.approx(0.4)
        assert report.max_negativity == pytest.approx(2.0)

    def test_wrong_length_rejected(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        with pytest.raises(ModelError):
            check_solution(model, np.zeros(3))

    def test_capacity_slack_is_not_a_violation(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        x = self._feasible_window_solution(model)
        x[t_column(model, "g0", 3)] = 2.0  # paid-for but unused containers are feasible
        assert check_solution(model, x).ok(1e-9)
