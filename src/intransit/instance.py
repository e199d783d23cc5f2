"""Problem instances: loading, validation, zone-based costing, synthesis.

An :class:`Instance` is the full datum of a multi-period consolidation
problem: pickup schedule, first-leg (supplier -> gateway) land/air rates and
transit times, second-leg (gateway -> customer) LCL/FCL rates, holding
costs, container capacity, and the delivery window.

First-leg land rates may be given explicitly per (supplier, gateway) pair,
or derived from a zone tariff: a symmetric zone matrix mapping zone pairs to
a rate class, and a class table giving transit days and cents per pound.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import InstanceError, SchemaError

# Rate classes of the standard land tariff: class -> (transit days, cents/lb).
DEFAULT_RATE_CLASSES: dict[str, tuple[int, float]] = {
    "A1": (2, 29.0),
    "A2": (2, 33.0),
    "B1": (3, 33.0),
    "B2": (3, 37.0),
    "B3": (3, 41.0),
    "C1": (4, 37.0),
    "C2": (4, 41.0),
    "C3": (4, 44.0),
    "D1": (5, 37.0),
    "D2": (5, 41.0),
    "D3": (5, 44.0),
    "D4": (5, 46.0),
    "E1": (6, 44.0),
    "E2": (6, 46.0),
}

DEFAULT_AIR_COST_MULTIPLIER = 3.0
DEFAULT_AIR_TIME_DELTA = 2
DEFAULT_PICKUP_FIXED_COST = 80.0


@dataclass(frozen=True)
class ZoneTable:
    """Zone-pair tariff: matrix of rate-class labels plus per-class params.

    ``matrix`` maps (from_zone, to_zone) to a rate-class label;
    ``class_params`` maps a label to (transit_days, cost_per_lb) in currency.
    """

    matrix: dict[tuple[str, str], str]
    class_params: dict[str, tuple[int, float]]

    def __post_init__(self) -> None:
        zones = sorted({z for pair in self.matrix for z in pair})
        for a in zones:
            for b in zones:
                if (a, b) not in self.matrix:
                    raise InstanceError(
                        f"zone matrix is not square: missing entry ({a}, {b})"
                    )
        for pair, label in self.matrix.items():
            if label not in self.class_params:
                raise InstanceError(
                    f"dangling zone label {label!r} at matrix entry {pair}"
                )
        for z in zones:
            if self.matrix[(z, z)] != "A1":
                raise InstanceError(
                    f"diagonal entry ({z}, {z}) must map to class A1, "
                    f"got {self.matrix[(z, z)]!r}"
                )


def zone_lookup(table: ZoneTable, zone_from: str, zone_to: str) -> str:
    """Return the rate-class label for a zone pair."""
    try:
        return table.matrix[(zone_from, zone_to)]
    except KeyError:
        raise InstanceError(f"unknown zone pair ({zone_from}, {zone_to})") from None


def rate_class_params(table: ZoneTable, label: str) -> tuple[int, float]:
    """Return (transit_days, cost_per_lb) for a rate class."""
    try:
        return table.class_params[label]
    except KeyError:
        raise InstanceError(f"unknown rate class {label!r}") from None


def rate_classes_from_cents(cents: Mapping[str, tuple[int, float]]) -> dict[str, tuple[int, float]]:
    """Convert a {class: (days, cents/lb)} tariff to currency per lb."""
    return {label: (int(days), c / 100.0) for label, (days, c) in cents.items()}


def default_zone_table(matrix: Mapping[tuple[str, str], str]) -> ZoneTable:
    """Build a ZoneTable over ``matrix`` using the standard tariff classes."""
    return ZoneTable(dict(matrix), rate_classes_from_cents(DEFAULT_RATE_CLASSES))


@dataclass
class Instance:
    """A complete, immutable-by-convention consolidation problem instance.

    Keys: product/supplier/gateway ids are strings; days are 0-based ints in
    ``range(horizon_days)``. ``pickups`` maps (product, supplier, day) to a
    weight in lbs. Costs are currency per lb (or per container for
    ``fcl_cost``); times are whole days.
    """

    horizon_days: int
    window_days: int
    products: list[str]
    suppliers: list[str]
    gateways: list[str]
    pickups: dict[tuple[str, str, int], float]
    land_cost: dict[tuple[str, str], float]
    air_cost: dict[tuple[str, str], float]
    land_time: dict[tuple[str, str], int]
    air_time: dict[tuple[str, str], int]
    lcl_cost: dict[str, float]
    fcl_cost: dict[str, float]
    hold_cost: dict[str, float]
    second_leg_time: dict[str, int]
    container_capacity: float
    pickup_fixed_cost: float = DEFAULT_PICKUP_FIXED_COST
    supplier_zones: dict[str, str] = field(default_factory=dict)
    gateway_zones: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.horizon_days < 1:
            raise InstanceError("horizon_days must be >= 1")
        if self.window_days < 1:
            raise InstanceError("window_days must be >= 1")
        if self.container_capacity < 0:
            raise InstanceError("container_capacity must be >= 0")
        if self.pickup_fixed_cost < 0:
            raise InstanceError("pickup_fixed_cost must be >= 0")
        pset, sset, hset = set(self.products), set(self.suppliers), set(self.gateways)
        if len(pset) != len(self.products):
            raise InstanceError("duplicate product ids")
        if len(sset) != len(self.suppliers):
            raise InstanceError("duplicate supplier ids")
        if len(hset) != len(self.gateways):
            raise InstanceError("duplicate gateway ids")
        for s in self.suppliers:
            for h in self.gateways:
                for name, table in (
                    ("land_cost", self.land_cost),
                    ("air_cost", self.air_cost),
                    ("land_time", self.land_time),
                    ("air_time", self.air_time),
                ):
                    if (s, h) not in table:
                        raise InstanceError(f"{name} missing entry for ({s}, {h})")
                if self.land_cost[s, h] < 0 or self.air_cost[s, h] < 0:
                    raise InstanceError(f"negative first-leg cost for ({s}, {h})")
                if self.land_time[s, h] < 1 or self.air_time[s, h] < 1:
                    raise InstanceError(f"first-leg time < 1 day for ({s}, {h})")
                if self.air_time[s, h] > self.land_time[s, h]:
                    raise InstanceError(
                        f"air_time > land_time for ({s}, {h}); air must be the "
                        "faster mode"
                    )
        for h in self.gateways:
            for name, table in (
                ("lcl_cost", self.lcl_cost),
                ("fcl_cost", self.fcl_cost),
                ("hold_cost", self.hold_cost),
                ("second_leg_time", self.second_leg_time),
            ):
                if h not in table:
                    raise InstanceError(f"{name} missing entry for gateway {h}")
            if self.lcl_cost[h] < 0 or self.fcl_cost[h] < 0 or self.hold_cost[h] < 0:
                raise InstanceError(f"negative second-leg cost for gateway {h}")
            if self.second_leg_time[h] < 1:
                raise InstanceError(f"second_leg_time < 1 day for gateway {h}")
        for (p, s, d), w in self.pickups.items():
            if w < 0:
                raise InstanceError(f"negative pickup weight at ({p}, {s}, {d})")
            if w > 0:
                if p not in pset:
                    raise InstanceError(f"pickup references undeclared product {p}")
                if s not in sset:
                    raise InstanceError(f"pickup references undeclared supplier {s}")
                if not 0 <= d < self.horizon_days:
                    raise InstanceError(
                        f"pickup day {d} outside horizon for ({p}, {s})"
                    )

    def total_demand(self) -> float:
        return float(sum(self.pickups.values()))

    def container_bound(self) -> int:
        """Containers that carry the whole demand at once. No optimal plan
        buys more on one gateway day, so this bounds every container count."""
        k = self.container_capacity
        return math.ceil(self.total_demand() / k) if k > 0 else 0

    def positive_pickups(self) -> list[tuple[str, str, int]]:
        """Pickup events with positive weight, in deterministic order."""
        pidx = {p: i for i, p in enumerate(self.products)}
        sidx = {s: i for i, s in enumerate(self.suppliers)}
        keys = [k for k, w in self.pickups.items() if w > 0]
        keys.sort(key=lambda k: (pidx[k[0]], sidx[k[1]], k[2]))
        return keys


def fcl_threshold(instance: Instance, gateway: str) -> float:
    """Break-even container fill fraction: FCL beats LCL above it.

    Returns ``fcl_cost / (lcl_cost * capacity)``; 0.0 when the container has
    no fixed cost.
    """
    c3 = instance.fcl_cost[gateway]
    if c3 == 0:
        return 0.0
    c2 = instance.lcl_cost[gateway]
    k = instance.container_capacity
    if c2 <= 0:
        raise InstanceError(f"gateway {gateway} has zero LCL rate; threshold undefined")
    if k <= 0:
        raise InstanceError("container capacity is zero; threshold undefined")
    return c3 / (c2 * k)


@dataclass(frozen=True)
class RouteIssue:
    product: str
    supplier: str
    day: int
    reason: str


@dataclass(frozen=True)
class RouteDiagnostics:
    feasible: bool
    issues: list[RouteIssue]
    checked: int


def validate_routes(instance: Instance) -> RouteDiagnostics:
    """Check every pickup has some gateway/mode fitting window and horizon.

    A pickup (p, s, d) passes if some gateway h and mode m satisfy both
    ``t1m(s,h) + t2(h) <= window`` and ``d + t1m + t2 < horizon``.
    Diagnostics only; never raises.
    """
    issues: list[RouteIssue] = []
    checked = 0
    for (p, s, d) in instance.positive_pickups():
        checked += 1
        window_ok = False
        horizon_ok = False
        for h in instance.gateways:
            t2 = instance.second_leg_time[h]
            for t1 in (instance.land_time[s, h], instance.air_time[s, h]):
                total = t1 + t2
                if total <= instance.window_days:
                    window_ok = True
                    if d + total < instance.horizon_days:
                        horizon_ok = True
        if not window_ok:
            issues.append(
                RouteIssue(p, s, d, "no route fits the delivery window")
            )
        elif not horizon_ok:
            issues.append(
                RouteIssue(p, s, d, "no in-window route arrives before horizon end")
            )
    return RouteDiagnostics(feasible=not issues, issues=issues, checked=checked)


# ---------------------------------------------------------------------------
# CSV / config ingestion


_FILE_NAMES = {
    "suppliers": "suppliers.csv",
    "gateways": "gateways.csv",
    "pickups": "pickups.csv",
    "zone_matrix": "zone_matrix.csv",
    "rate_classes": "rate_classes.csv",
    "rates_override": "rates_override.csv",
    "config": "config.json",
}


def _read_rows(path: Path, required: list[str]) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path.name}: missing column(s) {', '.join(missing)}")
        return [{k: (v or "").strip() for k, v in row.items() if k} for row in reader]


def _num(path: Path, row_no: int, field_name: str, raw: str, kind=float):
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        raise SchemaError(
            f"{path.name} row {row_no}: field {field_name!r} is not a number: {raw!r}"
        ) from None
    return value


def _load_config(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path.name}: invalid JSON ({exc})") from None
    cfg = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"{path.name} line {line_no}: expected key=value")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def load_instance(source: str | Path) -> Instance:
    """Load an Instance from a directory.

    Expected files (CSV with header row): suppliers, gateways, pickups, and
    either explicit per-pair rates (rates_override.csv) or zone files
    (zone_matrix.csv + rate_classes.csv) covering every supplier/gateway
    zone pair. A config file supplies horizon_days and window_days.
    """
    base = Path(source)
    paths = {}
    for key, name in _FILE_NAMES.items():
        candidate = base / name
        if key == "config" and not candidate.exists():
            candidate = base / "config.txt"
        if candidate.exists():
            paths[key] = candidate

    for required in ("suppliers", "gateways", "pickups", "config"):
        if required not in paths:
            raise SchemaError(f"missing required input file: {required}")

    cfg = _load_config(paths["config"])
    try:
        horizon = int(cfg["horizon_days"])
        window = int(cfg["window_days"])
    except KeyError as exc:
        raise SchemaError(f"config: missing key {exc.args[0]!r}") from None
    fixed_cost = float(cfg.get("pickup_fixed_cost", DEFAULT_PICKUP_FIXED_COST))
    air_mult = float(cfg.get("air_cost_multiplier", DEFAULT_AIR_COST_MULTIPLIER))
    air_delta = int(cfg.get("air_time_delta", DEFAULT_AIR_TIME_DELTA))

    sup_path = paths["suppliers"]
    suppliers: list[str] = []
    supplier_zones: dict[str, str] = {}
    for i, row in enumerate(_read_rows(sup_path, ["supplier_id"]), start=2):
        sid = row["supplier_id"]
        if not sid:
            raise SchemaError(f"{sup_path.name} row {i}: empty supplier_id")
        suppliers.append(sid)
        if row.get("zone"):
            supplier_zones[sid] = row["zone"]

    gw_path = paths["gateways"]
    gateways: list[str] = []
    gateway_zones: dict[str, str] = {}
    lcl_cost: dict[str, float] = {}
    fcl_cost: dict[str, float] = {}
    hold_cost: dict[str, float] = {}
    t2: dict[str, int] = {}
    capacities: dict[str, float] = {}
    gw_cols = [
        "gateway_id",
        "lcl_rate_per_100lb",
        "fcl_rate_per_container",
        "container_capacity_lbs",
        "transit_days_to_customer",
        "hold_cost_per_lb_day",
    ]
    for i, row in enumerate(_read_rows(gw_path, gw_cols), start=2):
        hid = row["gateway_id"]
        if not hid:
            raise SchemaError(f"{gw_path.name} row {i}: empty gateway_id")
        gateways.append(hid)
        if row.get("zone"):
            gateway_zones[hid] = row["zone"]
        lcl_cost[hid] = _num(gw_path, i, "lcl_rate_per_100lb", row["lcl_rate_per_100lb"]) / 100.0
        fcl_cost[hid] = _num(gw_path, i, "fcl_rate_per_container", row["fcl_rate_per_container"])
        capacities[hid] = _num(gw_path, i, "container_capacity_lbs", row["container_capacity_lbs"])
        t2[hid] = _num(gw_path, i, "transit_days_to_customer", row["transit_days_to_customer"], int)
        hold_cost[hid] = _num(gw_path, i, "hold_cost_per_lb_day", row["hold_cost_per_lb_day"])
    if not gateways:
        raise SchemaError(f"{gw_path.name}: no gateway rows")
    if len(set(capacities.values())) > 1:
        raise SchemaError(
            f"{gw_path.name}: container_capacity_lbs must be uniform across gateways"
        )
    capacity = next(iter(capacities.values()))

    pk_path = paths["pickups"]
    pickups: dict[tuple[str, str, int], float] = {}
    products: list[str] = []
    seen_products = set()
    for i, row in enumerate(
        _read_rows(pk_path, ["product_id", "supplier_id", "day", "weight_lbs"]), start=2
    ):
        p = row["product_id"]
        s = row["supplier_id"]
        d = _num(pk_path, i, "day", row["day"], int)
        w = _num(pk_path, i, "weight_lbs", row["weight_lbs"])
        if p not in seen_products:
            seen_products.add(p)
            products.append(p)
        key = (p, s, d)
        pickups[key] = pickups.get(key, 0.0) + w

    zone_table = None
    if "zone_matrix" in paths and "rate_classes" in paths:
        zm_path = paths["zone_matrix"]
        matrix: dict[tuple[str, str], str] = {}
        for i, row in enumerate(
            _read_rows(zm_path, ["from_zone", "to_zone", "rate_class"]), start=2
        ):
            matrix[(row["from_zone"], row["to_zone"])] = row["rate_class"]
        rc_path = paths["rate_classes"]
        classes: dict[str, tuple[int, float]] = {}
        for i, row in enumerate(
            _read_rows(rc_path, ["rate_class", "transit_days", "cents_per_lb"]), start=2
        ):
            classes[row["rate_class"]] = (
                _num(rc_path, i, "transit_days", row["transit_days"], int),
                _num(rc_path, i, "cents_per_lb", row["cents_per_lb"]) / 100.0,
            )
        zone_table = ZoneTable(matrix, classes)

    land_cost: dict[tuple[str, str], float] = {}
    air_cost: dict[tuple[str, str], float] = {}
    land_time: dict[tuple[str, str], int] = {}
    air_time: dict[tuple[str, str], int] = {}

    if zone_table is not None:
        for s in suppliers:
            for h in gateways:
                if s not in supplier_zones or h not in gateway_zones:
                    continue
                label = zone_lookup(zone_table, supplier_zones[s], gateway_zones[h])
                days, cost = rate_class_params(zone_table, label)
                land_cost[s, h] = cost
                land_time[s, h] = days
                air_cost[s, h] = cost * air_mult
                air_time[s, h] = max(1, days - air_delta)

    if "rates_override" in paths:
        ro_path = paths["rates_override"]
        for i, row in enumerate(
            _read_rows(
                ro_path,
                ["supplier_id", "gateway_id", "mode", "cost_per_lb", "transit_days"],
            ),
            start=2,
        ):
            key = (row["supplier_id"], row["gateway_id"])
            cost = _num(ro_path, i, "cost_per_lb", row["cost_per_lb"])
            days = _num(ro_path, i, "transit_days", row["transit_days"], int)
            mode = row["mode"]
            if mode == "land":
                land_cost[key], land_time[key] = cost, days
            elif mode == "air":
                air_cost[key], air_time[key] = cost, days
            else:
                raise SchemaError(
                    f"{ro_path.name} row {i}: mode must be land or air, got {mode!r}"
                )

    for s in suppliers:
        for h in gateways:
            if (s, h) not in land_cost:
                raise SchemaError(
                    f"no land rate for ({s}, {h}): provide zones plus zone files, "
                    "or a rates_override row"
                )
            if (s, h) not in air_cost:
                air_cost[s, h] = land_cost[s, h] * air_mult
                air_time[s, h] = max(1, land_time[s, h] - air_delta)

    return Instance(
        horizon_days=horizon,
        window_days=window,
        products=products,
        suppliers=suppliers,
        gateways=gateways,
        pickups=pickups,
        land_cost=land_cost,
        air_cost=air_cost,
        land_time=land_time,
        air_time=air_time,
        lcl_cost=lcl_cost,
        fcl_cost=fcl_cost,
        hold_cost=hold_cost,
        second_leg_time=t2,
        container_capacity=capacity,
        pickup_fixed_cost=fixed_cost,
        supplier_zones=supplier_zones,
        gateway_zones=gateway_zones,
    )


def save_instance(instance: Instance, out_dir) -> Path:
    """Serialize an Instance to a directory loadable by :func:`load_instance`.

    Rates are written as explicit overrides so reloading never depends on
    zone tables; load -> save -> load round-trips to an equal Instance.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "suppliers.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["supplier_id", "zone"])
        for s in instance.suppliers:
            w.writerow([s, instance.supplier_zones.get(s, "")])

    with open(out / "gateways.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "gateway_id",
                "zone",
                "lcl_rate_per_100lb",
                "fcl_rate_per_container",
                "container_capacity_lbs",
                "transit_days_to_customer",
                "hold_cost_per_lb_day",
            ]
        )
        for h in instance.gateways:
            w.writerow(
                [
                    h,
                    instance.gateway_zones.get(h, ""),
                    repr(instance.lcl_cost[h] * 100.0),
                    repr(instance.fcl_cost[h]),
                    repr(instance.container_capacity),
                    instance.second_leg_time[h],
                    repr(instance.hold_cost[h]),
                ]
            )

    with open(out / "pickups.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["product_id", "supplier_id", "day", "weight_lbs"])
        for (p, s, d), weight in sorted(instance.pickups.items()):
            w.writerow([p, s, d, repr(weight)])

    with open(out / "rates_override.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["supplier_id", "gateway_id", "mode", "cost_per_lb", "transit_days"])
        for s in instance.suppliers:
            for h in instance.gateways:
                w.writerow([s, h, "land", repr(instance.land_cost[s, h]), instance.land_time[s, h]])
                w.writerow([s, h, "air", repr(instance.air_cost[s, h]), instance.air_time[s, h]])

    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "horizon_days": instance.horizon_days,
                "window_days": instance.window_days,
                "pickup_fixed_cost": instance.pickup_fixed_cost,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    return out


# ---------------------------------------------------------------------------
# Synthetic instances


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for :func:`generate_synthetic`.

    Weight bounds default to the 15..40000 lb range of realistic pharma
    freight; each product receives exactly one pickup event.
    """

    n_products: int
    n_suppliers: int
    n_gateways: int
    horizon_days: int
    window_days: int = 9
    weight_min: float = 15.0
    weight_max: float = 40000.0
    container_capacity: float = 48000.0
    pickup_fixed_cost: float = DEFAULT_PICKUP_FIXED_COST
    air_cost_multiplier: float = DEFAULT_AIR_COST_MULTIPLIER
    air_time_delta: int = DEFAULT_AIR_TIME_DELTA


def generate_synthetic(params: GeneratorConfig, seed: int) -> Instance:
    """Generate a random feasible instance, deterministically from the seed.

    Transit times are drawn so every (supplier, gateway) route fits the
    window, and pickup days leave room for delivery inside the horizon.
    """
    if min(params.n_products, params.n_suppliers, params.n_gateways) < 1:
        raise InstanceError("generator counts must all be >= 1")
    if params.horizon_days < 1:
        raise InstanceError("horizon_days must be >= 1")
    if params.weight_min > params.weight_max:
        raise InstanceError("weight bounds inverted")
    if params.weight_min <= 0:
        raise InstanceError("weight_min must be positive")
    if params.window_days < 2:
        raise InstanceError("window_days must be >= 2 (one day per leg)")

    rng = np.random.default_rng(seed)
    products = [f"p{i}" for i in range(params.n_products)]
    suppliers = [f"s{i}" for i in range(params.n_suppliers)]
    gateways = [f"g{i}" for i in range(params.n_gateways)]

    t2 = {
        h: int(rng.integers(1, min(2, params.window_days - 1) + 1)) for h in gateways
    }
    land_cost, air_cost, land_time, air_time = {}, {}, {}, {}
    for s in suppliers:
        for h in gateways:
            max_t1 = params.window_days - t2[h]
            t1l = int(rng.integers(1, max_t1 + 1))
            land_time[s, h] = t1l
            air_time[s, h] = max(1, t1l - params.air_time_delta)
            c = float(rng.uniform(0.25, 0.50))
            land_cost[s, h] = round(c, 4)
            air_cost[s, h] = round(c * params.air_cost_multiplier, 4)

    lcl = {h: round(float(rng.uniform(0.15, 0.30)), 4) for h in gateways}
    fcl = {
        h: round(float(rng.uniform(0.30, 0.70)) * lcl[h] * params.container_capacity, 2)
        for h in gateways
    }
    hold = {h: round(float(rng.uniform(0.001, 0.010)), 5) for h in gateways}

    last_day = max(0, params.horizon_days - params.window_days - 1)
    log_lo, log_hi = math.log(params.weight_min), math.log(params.weight_max)
    pickups: dict[tuple[str, str, int], float] = {}
    for p in products:
        s = suppliers[int(rng.integers(0, len(suppliers)))]
        d = int(rng.integers(0, last_day + 1))
        w = float(np.exp(rng.uniform(log_lo, log_hi)))
        w = min(max(w, params.weight_min), params.weight_max)
        key = (p, s, d)
        pickups[key] = pickups.get(key, 0.0) + round(w, 2)

    return Instance(
        horizon_days=params.horizon_days,
        window_days=params.window_days,
        products=products,
        suppliers=suppliers,
        gateways=gateways,
        pickups=pickups,
        land_cost=land_cost,
        air_cost=air_cost,
        land_time=land_time,
        air_time=air_time,
        lcl_cost=lcl,
        fcl_cost=fcl,
        hold_cost=hold,
        second_leg_time=t2,
        container_capacity=params.container_capacity,
        pickup_fixed_cost=params.pickup_fixed_cost,
    )
