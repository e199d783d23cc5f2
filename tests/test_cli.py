"""Command-line surface: subcommands, exit codes, output files."""

import csv
import json

import pytest

from intransit import load_instance, save_instance
from intransit.cli import run

from conftest import route_invalid_instance


@pytest.fixture
def instance_dir(tmp_path, tiny_instance):
    return str(save_instance(tiny_instance, tmp_path / "inst"))


@pytest.fixture
def infeasible_dir(tmp_path):
    return str(save_instance(route_invalid_instance(), tmp_path / "bad"))


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
    def test_validates_once(self, instance_dir, monkeypatch):
        # once per model built: benders and compare too, where compare
        # builds the relaxation's model and one per run_benders mode
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
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for command, models in (("solve", 1), ("benders", 1), ("compare", 3)):
            calls.update(build_mip=0, validate_routes=0)
            assert run([command, "--instance", instance_dir]) == 0
            assert calls == {"build_mip": models, "validate_routes": models}, command

    def test_optimal(self, instance_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["solve", "--instance", instance_dir, "--out", str(out)])
        assert code == 0
        assert "500.00" in capsys.readouterr().out
        assert (out / "solution.json").exists()
        assert (out / "histogram.csv").exists()

    def test_node_limit_is_solver_failure(self, instance_dir, capsys):
        # the root LP is fractional and the limit stops the tree before an
        # incumbent, so the upper bound is infinite
        code = run(["solve", "--instance", instance_dir, "--node-limit", "1"])
        assert code == 3
        assert "node limit reached: bounds [400.00, inf]" in capsys.readouterr().err

    def test_node_log(self, instance_dir, tmp_path):
        log = tmp_path / "nodes.csv"
        code = run(["solve", "--instance", instance_dir, "--node-log", str(log)])
        assert code == 0
        with open(log, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["node", "depth", "bound", "incumbent"]
        # the tiny instance closes at the root: its linking rounds lift the
        # bound from the LP relaxation's 400 to the 500.00 optimum
        assert [r["node"] for r in rows] == [str(i + 1) for i in range(len(rows))]
        assert {r["depth"] for r in rows} == {"0"}
        assert float(rows[0]["bound"]) == pytest.approx(400.0)
        assert float(rows[-1]["bound"]) == pytest.approx(500.0)

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
        # the root rounds' in-out cuts close this tree before a root T is
        # priced itself, so no row reads "fractional"
        assert {r["candidate"] for r in rows} == {"integral", "stabilised"}
        for r in rows:
            # an integral solve always cuts; a root round's only when the
            # cut moves the root
            cut_kinds = ("optimality",)
            if r["candidate"] in ("fractional", "stabilised"):
                cut_kinds += ("",)
            assert r["cut_kind"] in cut_kinds
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

    @pytest.mark.parametrize("command", ["benders", "compare"])
    def test_node_limit_is_solver_failure(self, instance_dir, command, capsys):
        # the root is priced at T = 0, gets its cut, and the limit stops the
        # tree before the root is solved again
        code = run([command, "--instance", instance_dir, "--node-limit", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "node limit reached: bounds [0.00, 500.00]" in err
        assert "iteration limit" not in err

    def test_infeasible(self, infeasible_dir, capsys):
        assert run(["benders", "--instance", infeasible_dir]) == 1
        assert "infeasible: pickup (" in capsys.readouterr().err

    def test_verbose_prints_the_trace(self, instance_dir, capsys):
        assert run(["benders", "--instance", instance_dir, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "  iter 1: lb " in out
        assert "optimality cut at integral T" in out


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

    def test_out_path_that_is_a_file(self, instance_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = run(["relax", "--instance", instance_dir, "--out", str(taken)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert taken.read_text() == ""

    def test_node_log_path_that_is_a_directory(self, instance_dir, tmp_path, capsys):
        code = run(["solve", "--instance", instance_dir, "--node-log", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_subcommand(self, capsys):
        assert run(["warp"]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    @pytest.mark.parametrize("command", ["validate", "relax", "solve", "compare"])
    def test_verbose_only_on_benders(self, instance_dir, command, capsys):
        # only benders has a trace to print
        assert run([command, "--instance", instance_dir, "--verbose"]) == 2
