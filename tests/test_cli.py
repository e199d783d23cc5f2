"""Command-line surface: subcommands, exit codes, output files."""

import csv
import json

import pytest

from intransit import load_instance, save_instance
from intransit.cli import run

from conftest import build_instance


@pytest.fixture
def instance_dir(tmp_path, tiny_instance):
    return str(save_instance(tiny_instance, tmp_path / "inst"))


@pytest.fixture
def infeasible_dir(tmp_path):
    inst = build_instance(window_days=2, land_time=4, air_time=3)
    return str(save_instance(inst, tmp_path / "bad"))


class TestValidate:
    def test_feasible(self, instance_dir, capsys):
        assert run(["validate", "--instance", instance_dir]) == 0
        assert "all pickups" in capsys.readouterr().out

    def test_infeasible(self, infeasible_dir, capsys):
        assert run(["validate", "--instance", infeasible_dir]) == 1
        assert "infeasible pickup" in capsys.readouterr().err


class TestRelax:
    def test_objective_and_outputs(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["relax", "--instance", instance_dir, "--out", str(out)])
        assert code == 0
        assert "400.00" in capsys.readouterr().out
        payload = json.loads((out / "solution.json").read_text())
        assert payload["objective"] == pytest.approx(400.0)
        assert (out / "report.csv").exists()
        # fractional containers: no histogram for the relaxation
        assert not (out / "histogram.csv").exists()

    def test_builds_and_validates_once(self, instance_dir, monkeypatch):
        import intransit.benders as bd
        import intransit.cli as cli
        import intransit.model as model

        calls = {"build_mip": 0, "validate_routes": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (cli, bd, model):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        assert run(["relax", "--instance", instance_dir]) == 0
        assert calls == {"build_mip": 1, "validate_routes": 1}


class TestSolve:
    def test_optimal(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["solve", "--instance", instance_dir, "--out", str(out)])
        assert code == 0
        assert "500.00" in capsys.readouterr().out
        assert (out / "solution.json").exists()
        assert (out / "histogram.csv").exists()

    def test_size_guard(self, instance_dir, capsys):
        code = run(["solve", "--instance", instance_dir, "--max-vars", "10"])
        assert code == 2
        assert "benders" in capsys.readouterr().err

    def test_infeasible(self, infeasible_dir):
        assert run(["solve", "--instance", infeasible_dir]) == 1


class TestBenders:
    def test_window_run(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["benders", "--instance", instance_dir, "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "500.00" in captured
        assert "consolidated" in captured
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert rows[-1]["cut_kind"] in ("optimality", "feasibility")
        with open(out / "histogram.csv", newline="") as fh:
            hist = list(csv.DictReader(fh))
        assert all(int(r["lag_days"]) <= 4 for r in hist)

    def test_exact_day_histogram_at_window(self, instance_dir, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "benders",
                "--instance",
                instance_dir,
                "--mode",
                "exact-day",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out / "histogram.csv", newline="") as fh:
            hist = list(csv.DictReader(fh))
        assert len(hist) == 1
        assert int(hist[0]["lag_days"]) == 4

    def test_iteration_limit_is_solver_failure(self, instance_dir, capsys):
        code = run(["benders", "--instance", instance_dir, "--max-iters", "1"])
        assert code == 3
        assert "iteration limit" in capsys.readouterr().err

    def test_infeasible(self, infeasible_dir):
        assert run(["benders", "--instance", infeasible_dir]) == 1

    def test_verbose_prints_the_trace(self, instance_dir, capsys):
        assert run(["benders", "--instance", instance_dir, "--verbose"]) == 0
        assert "  iter 1: lb " in capsys.readouterr().out


class TestCompare:
    def test_ordering_and_outputs(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["compare", "--instance", instance_dir, "--out", str(out)])
        assert code == 0
        assert "lp_relaxation" in capsys.readouterr().out
        with open(out / "report.csv", newline="") as fh:
            rows = {r["label"]: r for r in csv.DictReader(fh)}
        relax = float(rows["lp_relaxation"]["total"])
        window = float(rows["benders_window"]["total"])
        exact = float(rows["benders_exact_day"]["total"])
        assert relax <= window + 1e-6
        assert window <= exact + 1e-6
        assert window < exact  # early delivery saves the holding charge here
        for label in ("benders_window", "benders_exact_day"):
            assert (out / f"{label}_solution.json").exists()
            assert (out / f"{label}_trace.csv").exists()
            assert (out / f"{label}_histogram.csv").exists()


class TestGenerate:
    def test_writes_loadable_instance(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = run(
            [
                "generate",
                "--out",
                str(out),
                "--seed",
                "4",
                "--products",
                "5",
                "--suppliers",
                "2",
                "--gateways",
                "2",
                "--days",
                "12",
                "--window",
                "6",
            ]
        )
        assert code == 0
        assert "wrote instance" in capsys.readouterr().out
        inst = load_instance(out)
        assert len(inst.products) == 5
        assert inst.horizon_days == 12
        assert run(["validate", "--instance", str(out)]) == 0

    def test_deterministic(self, tmp_path):
        args = ["generate", "--seed", "4", "--products", "3", "--suppliers", "1",
                "--gateways", "1", "--days", "10"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        for name in ("pickups.csv", "gateways.csv", "rates_override.csv"):
            assert (tmp_path / "a" / name).read_text() == (
                tmp_path / "b" / name
            ).read_text()


class TestErrors:
    def test_missing_instance_dir(self, tmp_path, capsys):
        code = run(["validate", "--instance", str(tmp_path / "nope")])
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["warp"]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    @pytest.mark.parametrize("command", ["validate", "relax", "solve", "compare"])
    def test_verbose_only_on_benders(self, instance_dir, command, capsys):
        # only benders has a trace to print
        assert run([command, "--instance", instance_dir, "--verbose"]) == 2
