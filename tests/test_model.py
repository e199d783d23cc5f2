"""Model assembly: index map, row families, objective, residual checks."""

import io

import numpy as np
import pytest

from intransit import (
    MODE_EXACT_DAY,
    MODE_WINDOW,
    GeneratorConfig,
    build_mip,
    check_solution,
    generate_synthetic,
    objective_breakdown,
)
from intransit.errors import ModelError
from intransit.model import (
    FAMILY_CAPACITY,
    FAMILY_CUSTOMER_EARLY,
    FAMILY_CUSTOMER_LATE,
    FAMILY_GATEWAY,
    FAMILY_PICKUP,
    VarIndexer,
    lcl_hold_split,
)

from conftest import build_instance, expected_shape, solution_vector


class TestVariableCount:
    @pytest.mark.parametrize(
        "nP,nS,nH,nD",
        [(1, 1, 1, 10), (3, 2, 2, 12), (2, 1, 3, 7), (100, 20, 3, 60)],
    )
    @pytest.mark.parametrize("mode", [MODE_WINDOW, MODE_EXACT_DAY])
    def test_closed_form(self, nP, nS, nH, nD, mode):
        inst = generate_synthetic(GeneratorConfig(nP, nS, nH, nD, window_days=5), seed=3)
        rows, cols = expected_shape(inst, mode)
        assert VarIndexer(inst, mode).num_vars == cols
        assert build_mip(inst, mode, require_routes=False).A.shape == (rows, cols)

    def test_indexer_matches_closed_form(self, tiny_instance):
        for mode in (MODE_WINDOW, MODE_EXACT_DAY):
            rows, cols = expected_shape(tiny_instance, mode)
            assert VarIndexer(tiny_instance, mode).num_vars == cols
            assert build_mip(tiny_instance, mode).A.shape == (rows, cols)

    def test_single_cell_window_example(self, tiny_instance):
        # one pickup, 10 days, second leg 1 day: X and Y for the pickup,
        # Z, U and T on departure days 0-8, I on days 1-8, N on days 1-9
        # in window mode
        ix = VarIndexer(tiny_instance, MODE_WINDOW)
        assert ix.sizes == {"X": 1, "Y": 1, "Z": 9, "U": 9, "T": 9, "I": 8, "N": 9}
        assert ix.num_vars == 46
        assert VarIndexer(tiny_instance, MODE_EXACT_DAY).num_vars == 37

    def test_first_leg_columns_only_where_freight_can_leave_the_gateway(self):
        # land takes 3 days, air 1, the last departure from g0 is day 8:
        # by land the day-6 pickup lands on day 9, inside the horizon but
        # too late to leave, so it can only fly
        inst = build_instance(
            suppliers=("s0", "s1"),
            pickups={("p0", "s0", 0): 10.0, ("p0", "s0", 6): 20.0},
            land_time=3,
        )
        ix = VarIndexer(inst, MODE_WINDOW)
        keys = [ix.key_of(c) for c in range(ix.num_vars)]
        first_leg = [str(k) for k in keys if k.kind in ("X", "Y")]
        assert first_leg == ["X[p0,s0,g0,0]", "Y[p0,s0,g0,0]", "Y[p0,s0,g0,6]"]
        with pytest.raises(ModelError):
            ix.col_x(0, 0, 0, 6)
        with pytest.raises(ModelError):
            ix.col_x(0, 1, 0, 0)  # no pickup at s1

    def test_no_departure_arrives_after_the_horizon(self, tiny_instance):
        ix = VarIndexer(tiny_instance, MODE_WINDOW)
        last = max(k.d for k in map(ix.key_of, range(ix.num_vars)) if k.kind in ("Z", "U"))
        assert last == 8
        with pytest.raises(ModelError):
            ix.col_z(0, 0, 9)


class TestVarIndexer:
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
        inst = build_instance(
            products=("p0", "p1"),
            gateways=("g0", "g1"),
            pickups={("p0", "s0", 0): 10.0, ("p1", "s0", 2): 20.0},
            horizon_days=8,
            window_days=4,
        )
        model = build_mip(inst, MODE_WINDOW)
        counts = model.family_counts()
        # the second leg takes a day, so the departure days are 0-6
        assert counts[FAMILY_PICKUP] == 2
        assert counts[FAMILY_CAPACITY] == 2 * 7
        assert counts[FAMILY_GATEWAY] == 2 * 2 * 7
        assert counts[FAMILY_CUSTOMER_EARLY] == 2 * 4
        assert counts[FAMILY_CUSTOMER_LATE] == 2 * 4
        assert model.num_rows == sum(counts.values())

    def test_capacity_rows(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        ix = model.indexer
        A = model.A.toarray()
        cap = model.row_tags == FAMILY_CAPACITY
        assert (model.senses[cap] == "<").all()
        assert (model.rhs[cap] == 0.0).all()
        # one row per departure day: a day-9 departure would arrive after
        # the horizon, so there is no U, T or capacity row on day 9
        assert cap.sum() == 9
        for d in range(9):
            r = np.flatnonzero(cap)[d]
            assert A[r, ix.col_t(0, d)] == -48000.0
            assert A[r, ix.col_u(0, 0, d)] == 1.0
            assert (A[r] != 0).sum() == 2

    def test_pickup_rows_cover_both_modes(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        ix = model.indexer
        A = model.A.toarray()
        r = np.flatnonzero(model.row_tags == FAMILY_PICKUP)[0]
        assert model.senses[r] == "="
        assert model.rhs[r] == 1000.0
        assert A[r, ix.col_x(0, 0, 0, 0)] == 1.0
        assert A[r, ix.col_y(0, 0, 0, 0)] == 1.0
        assert A[r].sum() == 2.0  # nothing else in the row

    def test_customer_rhs_lands_at_due_day(self, tiny_instance):
        # pickup on day 0 with a 4-day window is due on day 4
        model = build_mip(tiny_instance, MODE_WINDOW)
        cust = np.isin(
            model.row_tags, [FAMILY_CUSTOMER_EARLY, FAMILY_CUSTOMER_LATE]
        )
        rhs = model.rhs[cust]
        assert rhs[4] == 1000.0
        assert rhs.sum() == 1000.0

    def test_stock_columns_start_on_day_1(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        ix = model.indexer
        with pytest.raises(ModelError):
            ix.col_i(0, 0, 0)  # stocks start empty
        with pytest.raises(ModelError):
            ix.col_n(0, 0)
        with pytest.raises(ModelError):
            ix.col_i(0, 0, 9)  # g0 holds nothing after its last departure, day 8
        # every column that exists sits in a row
        assert [ix.key_of(c).d for c in ix.block("I")] == list(range(1, 9))
        assert [ix.key_of(c).d for c in ix.block("N")] == list(range(1, 10))
        assert (np.diff(model.A.tocsc().indptr) > 0).all()

    def test_deterministic_assembly(self, tiny_instance):
        a = build_mip(tiny_instance, MODE_WINDOW)
        b = build_mip(tiny_instance, MODE_WINDOW)
        assert (a.A != b.A).nnz == 0
        assert np.array_equal(a.objective, b.objective)
        assert np.array_equal(a.rhs, b.rhs)
        assert np.array_equal(a.row_tags, b.row_tags)

    def test_route_validation_gate(self):
        inst = build_instance(window_days=2, land_time=4, air_time=3)
        with pytest.raises(ModelError, match="route"):
            build_mip(inst, MODE_WINDOW)
        model = build_mip(inst, MODE_WINDOW, require_routes=False)
        assert model.num_rows > 0


class TestLinking:
    def test_one_entry_per_u_column_with_its_t_and_weight(self):
        # p0 ships 60,000 lb in all, above the 48,000 lb box; p1 1,500 lb
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
        ix, link = model.indexer, model.linking
        u_keys = [ix.key_of(int(c)) for c in link.u_cols]
        assert sorted(link.u_cols.tolist()) == list(
            range(ix.offsets["U"], ix.offsets["U"] + ix.sizes["U"])
        )
        for key, t_col, weight in zip(u_keys, link.t_cols, link.weights):
            assert key.kind == "U"
            assert ix.key_of(int(t_col)) == ("T", None, None, key.h, key.d)
            assert weight == (48000.0 if key.p == "p0" else 1500.0)

    def test_violated_rows_and_their_block(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        ix, link = model.indexer, model.linking
        u, t = ix.col_u(0, 0, 2), ix.col_t(0, 2)
        x = solution_vector(model, {u: 1000.0, t: 1000.0 / 48000.0})
        # the capacity row holds; U <= 1000 T does not
        assert check_solution(model, x).family_residuals[FAMILY_CAPACITY] == 0.0
        entries = link.violated(x)
        assert [int(link.u_cols[e]) for e in entries] == [u]
        block = link.block(entries, model.num_vars)
        assert block.shape == (1, model.num_vars)
        assert block[0, u] == 1.0 and block[0, t] == -1000.0 and block.nnz == 2
        # a whole container meets it, and so does the tolerance's margin
        x[t] = 1.0
        assert not len(link.violated(x))
        x[t] = 0.0
        x[u] = 1e-3
        assert not len(link.violated(x))


class TestObjective:
    def test_cost_placement(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        ix = model.indexer
        obj = model.objective
        assert obj[ix.col_x(0, 0, 0, 0)] == 0.30
        assert obj[ix.col_y(0, 0, 0, 0)] == pytest.approx(0.90)
        assert obj[ix.col_z(0, 0, 3)] == 0.20
        assert obj[ix.col_t(0, 3)] == 4800.0
        assert obj[ix.col_i(0, 0, 3)] == 0.005
        assert obj[ix.col_u(0, 0, 3)] == 0.0
        assert obj[ix.col_n(0, 3)] == 0.0

    def test_cost_class_partition(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        ix = model.indexer
        cc = model.cost_class
        assert (cc[ix.offsets["X"] : ix.offsets["X"] + ix.sizes["X"]] == "f").all()
        assert (cc[ix.offsets["Z"] : ix.offsets["Z"] + ix.sizes["Z"]] == "g").all()
        assert (cc[ix.offsets["I"] : ix.offsets["I"] + ix.sizes["I"]] == "g").all()
        assert (cc[ix.offsets["T"] : ix.offsets["T"] + ix.sizes["T"]] == "h").all()
        assert (cc[ix.offsets["U"] : ix.offsets["U"] + ix.sizes["U"]] == " ").all()

    def test_integer_columns_are_exactly_t(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        ix = model.indexer
        want = np.arange(ix.offsets["T"], ix.offsets["T"] + ix.sizes["T"])
        assert np.array_equal(model.integer_columns, want)

    def test_breakdown_and_split(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        ix = model.indexer
        # ship by land day 0, hold one day, LCL out on day 3
        x = solution_vector(
            model,
            {
                ix.col_x(0, 0, 0, 0): 1000.0,
                ix.col_i(0, 0, 3): 1000.0,
                ix.col_z(0, 0, 3): 1000.0,
            },
        )
        bd = objective_breakdown(model, x)
        assert bd.first_leg == pytest.approx(300.0)
        assert bd.lcl_and_hold == pytest.approx(205.0)
        assert bd.fcl == 0.0
        assert bd.fixed_pickup == 80.0
        assert bd.total == pytest.approx(505.0)
        assert bd.grand_total == pytest.approx(585.0)
        lcl, hold = lcl_hold_split(model, x)
        assert lcl == pytest.approx(200.0)
        assert hold == pytest.approx(5.0)

    def test_fixed_pickup_not_in_objective(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        x = np.zeros(model.num_vars)
        assert float(model.objective @ x) == 0.0
        assert objective_breakdown(model, x).fixed_pickup == 80.0


class TestCheckSolution:
    def _feasible_window_solution(self, model):
        ix = model.indexer
        # land day 0 (arrives day 2), hold through day 3, LCL day 3,
        # arrives day 4 which is exactly the due day
        return solution_vector(
            model,
            {
                ix.col_x(0, 0, 0, 0): 1000.0,
                ix.col_i(0, 0, 3): 1000.0,
                ix.col_z(0, 0, 3): 1000.0,
            },
        )

    def test_feasible_solution_passes(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        report = check_solution(model, self._feasible_window_solution(model))
        assert report.ok(1e-9)
        assert report.max_integrality_violation == 0.0
        assert report.max_negativity == 0.0

    def test_early_delivery_uses_customer_stock(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        ix = model.indexer
        # LCL out on day 2 arrives day 3, one day early; N carries it to day 4
        x = solution_vector(
            model,
            {
                ix.col_x(0, 0, 0, 0): 1000.0,
                ix.col_z(0, 0, 2): 1000.0,
                ix.col_n(0, 4): 1000.0,
            },
        )
        assert check_solution(model, x).ok(1e-9)

    def test_pickup_violation_detected(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        x = self._feasible_window_solution(model)
        x[model.indexer.col_x(0, 0, 0, 0)] = 900.0
        report = check_solution(model, x)
        assert report.family_residuals[FAMILY_PICKUP] == pytest.approx(100.0)
        assert not report.ok(1e-6)

    def test_capacity_violation_detected(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        ix = model.indexer
        x = self._feasible_window_solution(model)
        x[ix.col_z(0, 0, 3)] = 0.0
        x[ix.col_u(0, 0, 3)] = 1000.0  # container weight with T = 0
        report = check_solution(model, x)
        assert report.family_residuals[FAMILY_CAPACITY] == pytest.approx(1000.0)

    def test_integrality_and_negativity_reported(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        x = self._feasible_window_solution(model)
        x[model.indexer.col_t(0, 3)] = 0.4
        x[model.indexer.col_n(0, 2)] = -2.0
        report = check_solution(model, x)
        assert report.max_integrality_violation == pytest.approx(0.4)
        assert report.max_negativity == pytest.approx(2.0)

    def test_wrong_length_rejected(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        with pytest.raises(ModelError):
            check_solution(model, np.zeros(3))

    def test_capacity_slack_is_not_a_violation(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        ix = model.indexer
        x = self._feasible_window_solution(model)
        x[ix.col_t(0, 8)] = 2.0  # paid-for but unused containers are feasible
        assert check_solution(model, x).ok(1e-9)


class TestExport:
    def test_export_text_shape(self, tiny_instance):
        model = build_mip(tiny_instance, MODE_WINDOW)
        buf = io.StringIO()
        model.export_text(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == model.num_rows
        first = lines[0].split()
        assert first[0] == FAMILY_PICKUP
        assert first[1] == "="
        assert float(first[2]) == 1000.0
