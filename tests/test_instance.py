"""Instance loading, validation, zone costing, and synthesis."""

import dataclasses
import math

import pytest

from intransit import (
    GeneratorConfig,
    Instance,
    ZoneTable,
    default_zone_table,
    fcl_threshold,
    generate_synthetic,
    load_instance,
    rate_class_params,
    save_instance,
    validate_routes,
    zone_lookup,
)
from intransit.errors import InstanceError, SchemaError
from intransit.instance import DEFAULT_RATE_CLASSES, rate_classes_from_cents

from conftest import assert_instances_equal, build_instance


SQUARE_MATRIX = {
    ("Z1", "Z1"): "A1",
    ("Z1", "Z2"): "E2",
    ("Z2", "Z1"): "E2",
    ("Z2", "Z2"): "A1",
}


class TestZoneTable:
    def test_lookup(self):
        table = default_zone_table(SQUARE_MATRIX)
        assert zone_lookup(table, "Z1", "Z2") == "E2"
        assert zone_lookup(table, "Z2", "Z2") == "A1"

    def test_unknown_pair(self):
        table = default_zone_table(SQUARE_MATRIX)
        with pytest.raises(InstanceError):
            zone_lookup(table, "Z1", "Z9")

    def test_rate_class_params(self):
        table = default_zone_table(SQUARE_MATRIX)
        assert rate_class_params(table, "A1") == (2, 0.29)
        assert rate_class_params(table, "E2") == (6, 0.46)

    def test_unknown_class(self):
        table = default_zone_table(SQUARE_MATRIX)
        with pytest.raises(InstanceError):
            rate_class_params(table, "Q7")

    def test_cents_conversion(self):
        classes = rate_classes_from_cents(DEFAULT_RATE_CLASSES)
        assert classes["A1"] == (2, 0.29)
        assert classes["D4"] == (5, 0.46)
        assert all(cost < 1.0 for _, cost in classes.values())

    def test_matrix_must_be_square(self):
        bad = dict(SQUARE_MATRIX)
        del bad[("Z2", "Z1")]
        with pytest.raises(InstanceError, match="not square"):
            default_zone_table(bad)

    def test_dangling_label(self):
        bad = dict(SQUARE_MATRIX)
        bad[("Z1", "Z2")] = "ZZ9"
        with pytest.raises(InstanceError, match="dangling"):
            default_zone_table(bad)

    def test_diagonal_must_be_cheapest_class(self):
        bad = dict(SQUARE_MATRIX)
        bad[("Z2", "Z2")] = "E2"
        with pytest.raises(InstanceError, match="A1"):
            default_zone_table(bad)


class TestFclThreshold:
    def test_published_port_rates(self, east_coast_ports):
        # break-even fill fractions from the public port rate card
        assert fcl_threshold(east_coast_ports, "jacksonville") == pytest.approx(
            0.390, abs=1e-3
        )
        assert fcl_threshold(east_coast_ports, "elizabeth") == pytest.approx(
            0.584, abs=1e-3
        )
        assert fcl_threshold(east_coast_ports, "miami") == pytest.approx(
            0.506, abs=1e-3
        )

    def test_closed_form(self, tiny_instance):
        want = 4800.0 / (0.20 * 48000.0)
        assert fcl_threshold(tiny_instance, "g0") == pytest.approx(want, rel=1e-12)

    def test_free_container(self):
        inst = build_instance(fcl_cost=0.0)
        assert fcl_threshold(inst, "g0") == 0.0

    def test_zero_lcl_rate_rejected(self):
        inst = build_instance(lcl_cost=0.0)
        with pytest.raises(InstanceError):
            fcl_threshold(inst, "g0")

    def test_zero_capacity_rejected(self):
        inst = build_instance(container_capacity=0.0)
        with pytest.raises(InstanceError):
            fcl_threshold(inst, "g0")


class TestInstanceValidation:
    def test_duplicate_products(self):
        with pytest.raises(InstanceError, match="duplicate product"):
            build_instance(products=("p0", "p0"))

    def test_air_slower_than_land(self):
        with pytest.raises(InstanceError, match="air"):
            build_instance(land_time=2, air_time=3)

    def test_negative_pickup(self):
        with pytest.raises(InstanceError, match="negative pickup"):
            build_instance(pickups={("p0", "s0", 0): -5.0})

    def test_pickup_outside_horizon(self):
        with pytest.raises(InstanceError, match="outside horizon"):
            build_instance(pickups={("p0", "s0", 99): 10.0})

    def test_pickup_for_unknown_supplier(self):
        with pytest.raises(InstanceError, match="undeclared supplier"):
            build_instance(pickups={("p0", "sX", 0): 10.0})

    def test_zero_day_transit_rejected(self):
        with pytest.raises(InstanceError, match="< 1 day"):
            build_instance(land_time=0, air_time=0)

    def test_missing_gateway_rate(self):
        inst = build_instance()
        bad = dataclasses.asdict(inst)
        with pytest.raises(InstanceError, match="lcl_cost"):
            bad["lcl_cost"] = {}
            Instance(**bad)

    def test_total_demand(self):
        inst = build_instance(
            products=("p0", "p1"),
            pickups={("p0", "s0", 0): 100.0, ("p1", "s0", 2): 50.0},
        )
        assert inst.total_demand() == 150.0

    def test_positive_pickups_ordered(self):
        inst = build_instance(
            products=("p0", "p1"),
            pickups={
                ("p1", "s0", 3): 10.0,
                ("p0", "s0", 5): 10.0,
                ("p0", "s0", 1): 10.0,
                ("p1", "s0", 0): 0.0,
            },
        )
        assert inst.positive_pickups() == [
            ("p0", "s0", 1),
            ("p0", "s0", 5),
            ("p1", "s0", 3),
        ]


class TestRouteValidation:
    def test_feasible(self, tiny_instance):
        diag = validate_routes(tiny_instance)
        assert diag.feasible
        assert diag.checked == 1
        assert diag.issues == []

    def test_window_too_tight(self):
        inst = build_instance(window_days=2, land_time=4, air_time=3)
        diag = validate_routes(inst)
        assert not diag.feasible
        assert "window" in diag.issues[0].reason

    def test_air_rescues_window(self):
        # land misses the window, air makes it
        inst = build_instance(window_days=3, land_time=4, air_time=2)
        assert validate_routes(inst).feasible

    def test_pickup_too_close_to_horizon_end(self):
        inst = build_instance(
            horizon_days=5, pickups={("p0", "s0", 4): 10.0}
        )
        diag = validate_routes(inst)
        assert not diag.feasible
        assert "horizon" in diag.issues[0].reason


class TestRoundTrip:
    def test_save_load(self, tmp_path, east_coast_ports):
        save_instance(east_coast_ports, tmp_path / "inst")
        reloaded = load_instance(tmp_path / "inst")
        assert_instances_equal(east_coast_ports, reloaded)

    def test_synthetic_round_trip(self, tmp_path):
        cfg = GeneratorConfig(
            n_products=8, n_suppliers=3, n_gateways=2, horizon_days=14
        )
        inst = generate_synthetic(cfg, seed=11)
        save_instance(inst, tmp_path / "inst")
        assert_instances_equal(inst, load_instance(tmp_path / "inst"))


class TestLoading:
    def _write(self, path, name, text):
        (path / name).write_text(text, encoding="utf-8")

    def _zone_dir(self, path):
        self._write(path, "suppliers.csv", "supplier_id,zone\ns0,Z1\n")
        self._write(
            path,
            "gateways.csv",
            "gateway_id,zone,lcl_rate_per_100lb,fcl_rate_per_container,"
            "container_capacity_lbs,transit_days_to_customer,hold_cost_per_lb_day\n"
            "g0,Z2,25.50,4773.00,48000,1,0.005\n",
        )
        self._write(path, "pickups.csv", "product_id,supplier_id,day,weight_lbs\np0,s0,0,500\n")
        self._write(
            path,
            "zone_matrix.csv",
            "from_zone,to_zone,rate_class\nZ1,Z1,A1\nZ1,Z2,E2\nZ2,Z1,E2\nZ2,Z2,A1\n",
        )
        self._write(
            path,
            "rate_classes.csv",
            "rate_class,transit_days,cents_per_lb\nA1,2,29.0\nE2,6,46.0\n",
        )
        self._write(path, "config.json", '{"horizon_days": 20, "window_days": 9}\n')

    def test_zone_derived_rates(self, tmp_path):
        self._zone_dir(tmp_path)
        inst = load_instance(tmp_path)
        assert inst.land_cost["s0", "g0"] == pytest.approx(0.46)
        assert inst.land_time["s0", "g0"] == 6
        # air defaults: triple the land rate, two days faster, floor one day
        assert inst.air_cost["s0", "g0"] == pytest.approx(3 * 0.46)
        assert inst.air_time["s0", "g0"] == 4
        assert inst.lcl_cost["g0"] == pytest.approx(0.2550)
        assert inst.container_capacity == 48000.0

    def test_override_beats_zone_rate(self, tmp_path):
        self._zone_dir(tmp_path)
        self._write(
            tmp_path,
            "rates_override.csv",
            "supplier_id,gateway_id,mode,cost_per_lb,transit_days\ns0,g0,land,0.31,5\n",
        )
        inst = load_instance(tmp_path)
        assert inst.land_cost["s0", "g0"] == pytest.approx(0.31)
        assert inst.land_time["s0", "g0"] == 5
        # air still derived from the zone tariff
        assert inst.air_time["s0", "g0"] == 4

    def test_missing_required_file(self, tmp_path):
        self._zone_dir(tmp_path)
        (tmp_path / "pickups.csv").unlink()
        with pytest.raises(SchemaError, match="pickups"):
            load_instance(tmp_path)

    def test_missing_column(self, tmp_path):
        self._zone_dir(tmp_path)
        self._write(tmp_path, "pickups.csv", "product_id,supplier_id,day\np0,s0,0\n")
        with pytest.raises(SchemaError, match="weight_lbs"):
            load_instance(tmp_path)

    def test_non_numeric_field(self, tmp_path):
        self._zone_dir(tmp_path)
        self._write(
            tmp_path,
            "pickups.csv",
            "product_id,supplier_id,day,weight_lbs\np0,s0,0,heavy\n",
        )
        with pytest.raises(SchemaError, match="not a number"):
            load_instance(tmp_path)

    def test_bad_override_mode(self, tmp_path):
        self._zone_dir(tmp_path)
        self._write(
            tmp_path,
            "rates_override.csv",
            "supplier_id,gateway_id,mode,cost_per_lb,transit_days\ns0,g0,sea,0.31,3\n",
        )
        with pytest.raises(SchemaError, match="mode"):
            load_instance(tmp_path)

    def test_missing_rate_for_pair(self, tmp_path):
        self._zone_dir(tmp_path)
        # supplier with no zone and no override row
        self._write(tmp_path, "suppliers.csv", "supplier_id,zone\ns0,\n")
        with pytest.raises(SchemaError, match="no land rate"):
            load_instance(tmp_path)

    def test_mixed_capacities_rejected(self, tmp_path):
        self._zone_dir(tmp_path)
        self._write(
            tmp_path,
            "gateways.csv",
            "gateway_id,zone,lcl_rate_per_100lb,fcl_rate_per_container,"
            "container_capacity_lbs,transit_days_to_customer,hold_cost_per_lb_day\n"
            "g0,Z2,25.50,4773.00,48000,1,0.005\n"
            "g1,Z2,17.13,4805.46,40000,2,0.005\n",
        )
        with pytest.raises(SchemaError, match="uniform"):
            load_instance(tmp_path)

    def test_duplicate_pickup_rows_accumulate(self, tmp_path):
        self._zone_dir(tmp_path)
        self._write(
            tmp_path,
            "pickups.csv",
            "product_id,supplier_id,day,weight_lbs\np0,s0,0,500\np0,s0,0,250\n",
        )
        inst = load_instance(tmp_path)
        assert inst.pickups["p0", "s0", 0] == 750.0


class TestGenerator:
    def test_deterministic(self):
        cfg = GeneratorConfig(n_products=6, n_suppliers=2, n_gateways=2, horizon_days=12)
        a = generate_synthetic(cfg, seed=5)
        b = generate_synthetic(cfg, seed=5)
        assert_instances_equal(a, b)

    def test_seed_changes_output(self):
        cfg = GeneratorConfig(n_products=6, n_suppliers=2, n_gateways=2, horizon_days=12)
        a = generate_synthetic(cfg, seed=5)
        b = generate_synthetic(cfg, seed=6)
        assert a.pickups != b.pickups

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_routes_feasible(self, seed):
        cfg = GeneratorConfig(
            n_products=4, n_suppliers=2, n_gateways=2, horizon_days=10, window_days=4
        )
        inst = generate_synthetic(cfg, seed)
        assert validate_routes(inst).feasible

    def test_weight_bounds(self):
        cfg = GeneratorConfig(
            n_products=30,
            n_suppliers=2,
            n_gateways=1,
            horizon_days=10,
            weight_min=100.0,
            weight_max=2000.0,
        )
        inst = generate_synthetic(cfg, seed=3)
        weights = list(inst.pickups.values())
        assert all(100.0 <= w <= 2000.0 * 2 for w in weights)  # collisions may stack

    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(InstanceError):
            generate_synthetic(
                GeneratorConfig(n_products=0, n_suppliers=1, n_gateways=1, horizon_days=5),
                seed=0,
            )
        with pytest.raises(InstanceError):
            generate_synthetic(
                GeneratorConfig(
                    n_products=1, n_suppliers=1, n_gateways=1, horizon_days=5, window_days=1
                ),
                seed=0,
            )
