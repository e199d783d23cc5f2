"""The workloads: their instances, their ops and the checks on each op.

An op is one call a user makes: an in-process solver call or one
``intransit`` command. Checks run outside the timed region. An op whose
answer needs an oracle records the objective it reported; the HiGHS values
are computed once, after the timed ops, so HiGHS adds neither time nor
memory to what is measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import intransit.benders as bd
import intransit.cli as cli
import intransit.instance as inst_mod
import intransit.milp as milp_mod
import intransit.model as model_mod
from intransit.model import MODE_WINDOW, check_solution

from port_instance import port_network_instance

CHECK_TOL = 1e-6
# Node limit of every branch-and-bound solve, Benders masters included: the
# program's default, fixed here so that a change to the default does not
# move the benchmark.
NODE_LIMIT = 100_000


@dataclass
class Outcome:
    """What an op's check found: problems, and an objective to compare
    with HiGHS on the workload's model, relaxed or not."""

    problems: list[str] = field(default_factory=list)
    objective: float | None = None
    relaxed: bool = False


@dataclass
class Op:
    name: str
    metric: str  # the end-to-end metric this op's median feeds
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    samples: int = 1  # timed executions per run


@dataclass
class Config:
    decomp_seed: int
    port_weight_seed: int
    work_dir: Path
    src_dir: Path
    in_process_cli: bool  # traced runs call intransit.cli.run instead of a subprocess


def _residual_problems(model, x, *, integral: bool) -> list[str]:
    report = check_solution(model, x)
    if integral:
        return [] if report.ok(CHECK_TOL) else [f"check_solution failed: {report}"]
    worst = max(report.family_residuals.values(), default=0.0)
    if worst > CHECK_TOL or report.max_negativity > CHECK_TOL:
        return [f"relaxed solution violates the model: {report}"]
    return []


def _relax_op(instance, samples: int) -> Op:
    def run():
        return bd.lp_relaxation(instance, MODE_WINDOW)

    def check(result):
        objective, x, _ = result
        model = model_mod.build_mip(instance, MODE_WINDOW)
        return Outcome(_residual_problems(model, x, integral=False), objective, relaxed=True)

    return Op("lp_relaxation", "relax_s", run, check, samples)


def _milp_op(instance, samples: int) -> Op:
    def run():
        model = model_mod.build_mip(instance, MODE_WINDOW)
        return model, milp_mod.solve_milp(model, node_limit=NODE_LIMIT)

    def check(result):
        model, outcome = result
        if outcome.status != milp_mod.MILP_OPTIMAL:
            return Outcome([f"solve_milp status {outcome.status}"])
        return Outcome(_residual_problems(model, outcome.x, integral=True), outcome.objective)

    return Op("solve_milp", "milp_s", run, check, samples)


def _benders_op(instance, samples: int) -> Op:
    def run():
        return bd.run_benders(instance, MODE_WINDOW, bd.BendersParams(node_limit=NODE_LIMIT))

    def check(result):
        if result.status != "optimal" or not result.proven:
            return Outcome([f"run_benders status {result.status}, proven={result.proven}"])
        return Outcome(_residual_problems(result.model, result.x_full, integral=True), result.objective)

    return Op("run_benders", "benders_s", run, check, samples)


class Workload:
    name: str

    def __init__(self, config: Config):
        self.config = config

    def setup(self) -> None:
        """Build (and write) ``self.instance``; timed as ``setup_s``."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def oracle_model(self):
        """The model HiGHS solves: every op here solves in window mode."""
        return model_mod.build_mip(self.instance, MODE_WINDOW)


class DecompMaster(Workload):
    name = "decomp-master"

    def setup(self) -> None:
        cfg = inst_mod.GeneratorConfig(
            n_products=5, n_suppliers=2, n_gateways=2, horizon_days=12, window_days=6
        )
        self.instance = inst_mod.generate_synthetic(cfg, self.config.decomp_seed)

    def ops(self) -> list[Op]:
        return [
            _relax_op(self.instance, samples=20),
            _milp_op(self.instance, samples=12),
            _benders_op(self.instance, samples=1),
        ]


class PortCli(Workload):
    name = "port-cli"
    SAMPLES = 4
    COMMANDS = [
        ("cli_relax", "relax_s", ["relax"]),
        ("cli_solve", "milp_s", ["solve", "--node-limit", str(NODE_LIMIT)]),
        ("cli_benders", "benders_s", ["benders", "--node-limit", str(NODE_LIMIT)]),
    ]

    def setup(self) -> None:
        self.instance = port_network_instance(self.config.port_weight_seed)
        self.instance_dir = self.config.work_dir / "port-instance"
        if self.instance_dir.exists():
            shutil.rmtree(self.instance_dir)
        inst_mod.save_instance(self.instance, self.instance_dir)

    def _command(self, name: str, metric: str, argv: list[str]) -> Op:
        out_dir = self.config.work_dir / f"out-{name}"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        full = argv + ["--instance", str(self.instance_dir), "--out", str(out_dir)]

        def run():
            if self.config.in_process_cli:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.run(full)
                return code, sink.getvalue(), out_dir
            proc = subprocess.run(
                [sys.executable, "-m", "intransit.cli", *full],
                capture_output=True,
                text=True,
                env=child_env(self.config.src_dir),
                check=False,
            )
            return proc.returncode, proc.stdout + proc.stderr, out_dir

        def check(result):
            code, output, out = result
            if code != 0:
                return Outcome([f"exit code {code}: {output.strip()[-300:]}"])
            solution = json.loads((out / "solution.json").read_text(encoding="utf-8"))
            shutil.rmtree(out)  # the next run must write its own files
            return Outcome([], float(solution["objective"]), relaxed=argv[0] == "relax")

        return Op(name, metric, run, check, self.SAMPLES)

    def ops(self) -> list[Op]:
        return [self._command(*command) for command in self.COMMANDS]


WORKLOADS = {w.name: w for w in (DecompMaster, PortCli)}


def warm_up() -> None:
    """Solve a tiny instance every way, untimed, so lazy imports and
    first-call costs land before the timed ops."""
    cfg = inst_mod.GeneratorConfig(n_products=2, n_suppliers=1, n_gateways=1, horizon_days=8, window_days=4)
    tiny = inst_mod.generate_synthetic(cfg, 0)
    bd.lp_relaxation(tiny, MODE_WINDOW)
    milp_mod.solve_milp(model_mod.build_mip(tiny, MODE_WINDOW))
    bd.run_benders(tiny, MODE_WINDOW)


def child_env(src_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    return env
