"""Solver benchmark: one workload per run, one op at a time, in one process.

    python3 bench/run.py --workload decomp-master --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all

Run from the root of a source checkout; the program is imported from its
``src`` directory. ``--trace 0`` times the ops untraced and prints the
end-to-end metrics. ``--trace 1`` runs each op once with a span around every
layer entry point and prints the per-layer metrics. Every answer is checked
against HiGHS outside the timed region. The last line of standard output is
a JSON object with keys correct, attempted, failed and metrics.

The instance seeds and sizes are fixed by the flags, so that every run does
the same work; ``--seed`` only breaks ties in the order of the ops. See
NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "relax_s": "s",
    "milp_s": "s",
    "benders_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 5
IMPORT_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="decomp-master, port-cli or all")
    p.add_argument("--seed", type=int, default=0, help="breaks ties in the order of the ops")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="accepted and recorded; each op runs a fixed number of times (see NOTES.md)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--decomp-seed", type=int, default=4, help="generator seed of the decomp-master instance")
    p.add_argument("--port-weight-seed", type=int, default=7, help="pickup-weight seed of the port instance")
    return p.parse_args(argv)


def import_program() -> None:
    """Import intransit from this checkout's src directory."""
    if not (SRC / "intransit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/intransit not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import intransit

    if Path(intransit.__file__).resolve().parent != SRC / "intransit":
        sys.exit(f"error: imported intransit from {intransit.__file__}, not {SRC}")


def git_commit() -> str | None:
    """The checked-out commit, read from .git without leaving the checkout;
    None for a checkout without git metadata."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def cli_import_seconds() -> list[float]:
    """Wall times of fresh interpreters that only import intransit.cli."""
    from workloads import child_env

    times = []
    for _ in range(IMPORT_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import intransit.cli"], env=child_env(SRC), check=True
        )
        times.append(time.perf_counter() - started)
    return times


class Run:
    """State of one benchmark run: op samples, attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.claims: list[tuple[str, float, bool]] = []  # (op, objective, relaxed)
        self.oracle: dict[str, float | None] = {}  # HiGHS objective, milp or relaxation

    def execute(self, op, tracer=None) -> float:
        """Time one execution of ``op``, then check its answer untimed.
        Returns the time."""
        self.attempted += 1
        result = None
        error = None
        started = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.op_span(op.name):
                    result = op.run()
        except Exception:  # a failing op is counted and reported; the run goes on
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - started
        self.samples.setdefault(op.name, []).append(elapsed)
        if error is None:
            try:
                outcome = op.check(result)
            except Exception:
                error = traceback.format_exc(limit=3)
            else:
                if outcome.problems:
                    error = "; ".join(outcome.problems)
                elif outcome.objective is not None:
                    self.claims.append((op.name, outcome.objective, outcome.relaxed))
        if error is not None:
            self.failed += 1
            print(f"FAILED {op.name}: {error}", file=sys.stderr)
        return elapsed

    def check_oracle(self) -> None:
        """Compare every reported objective with HiGHS on the same model."""
        from oracle import OracleError, highs_objective, objectives_agree

        reference: dict[bool, float | None] = {}
        for op_name, objective, relaxed in self.claims:
            if relaxed not in reference:
                try:
                    reference[relaxed] = highs_objective(self.workload.oracle_model(), relax=relaxed)
                except OracleError as exc:
                    print(f"oracle failed (relaxed={relaxed}): {exc}", file=sys.stderr)
                    reference[relaxed] = None
            expected = reference[relaxed]
            if expected is None or not objectives_agree(objective, expected):
                self.failed += 1
                print(f"FAILED {op_name}: objective {objective!r}, HiGHS {expected!r}", file=sys.stderr)
        self.oracle = {("relaxation" if k else "milp"): v for k, v in reference.items()}


def time_setup(workload, tracer=None) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        if tracer is None:
            workload.setup()
        else:
            with tracer.op_span("setup"):
                workload.setup()
        times.append(time.perf_counter() - started)
    return times


def schedule(ops, rng: random.Random) -> list:
    """Every op ``op.samples`` times, each op's samples spread evenly over
    the run: sample i of an op sits at (i + 1/2) / samples of the way
    through, ties in an order drawn from ``rng``. A single-sample op lands
    in the middle, with the other ops' samples on both sides of it."""
    slots = [
        ((i + 0.5) / op.samples, rng.random(), op)
        for op in ops
        for i in range(op.samples)
    ]
    slots.sort(key=lambda slot: slot[:2])
    return [op for _, _, op in slots]


def run_untraced(workload, args) -> tuple[Run, dict, dict]:
    from tracing import wrapped_entry_points
    from workloads import warm_up

    if wrapped_entry_points():
        raise RuntimeError(f"untraced run sees wrappers on {wrapped_entry_points()}")
    import_times = cli_import_seconds()
    setup_times = time_setup(workload)
    warm_up()
    ops = workload.ops()
    run = Run(workload)
    for op in schedule(ops, random.Random(args.seed)):
        run.execute(op)
    rss = peak_rss_mb()
    medians = {name: statistics.median(times) for name, times in run.samples.items()}
    metrics = {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "wall_s": sum(medians.values()),
        "peak_rss_mb": rss,
    }
    for op in ops:
        metrics[op.metric] = medians[op.name]
    samples = {
        "setup_s": len(setup_times),
        "wall_s": run.attempted,
        "peak_rss_mb": 1,
        **{op.metric: len(run.samples[op.name]) for op in ops},
    }
    values = {name: (metrics[name], E2E_UNITS[name]) for name in E2E_UNITS}
    detail = {"import_times": import_times, "setup_times": setup_times, "op_samples": run.samples}
    return run, values, {"samples": samples, **detail}


def run_traced(workload, args) -> tuple[Run, dict, dict]:
    """Each op once untraced, then once traced; ``trace.overhead_frac`` is
    the traced time of all ops over their untraced time, minus 1."""
    from tracing import Tracer, instrument, layer_metrics, op_breakdown
    from workloads import warm_up

    workload.config.in_process_cli = True
    warm_up()
    tracer = Tracer()
    run = Run(workload)
    with instrument(tracer):
        time_setup(workload, tracer)
    ops = workload.ops()
    random.Random(args.seed).shuffle(ops)
    untraced, traced = {}, {}
    for op in ops:
        untraced[op.name] = run.execute(op)
        with instrument(tracer):
            traced[op.name] = run.execute(op, tracer)
    values = layer_metrics(tracer.spans)
    values["trace.overhead_frac"] = (sum(traced.values()) / sum(untraced.values()) - 1.0, "ratio")
    import_times = cli_import_seconds()
    values["cli.import_s"] = (statistics.median(import_times), "s")
    spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    breakdown = op_breakdown(tracer.spans)
    for op, entry in breakdown.items():
        layers = ", ".join(f"{k} {v:.3f}" for k, v in sorted(entry["self_s"].items(), key=lambda kv: -kv[1]))
        entry["untraced_s"] = untraced.get(op)
        reference = "" if op not in untraced else f" (untraced {untraced[op]:.3f} s)"
        print(
            f"op {op}: traced {entry['wall_s']:.3f} s{reference}; span self times {layers}; "
            f"{entry['node_lps']} node LPs, {entry['pivots']} pivots"
        )
    detail = {
        "samples": {"cli.import_s": len(import_times), "trace.overhead_frac": len(ops)},
        "ops": breakdown,
        "op_samples": run.samples,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return run, values, detail


def run_one(args) -> int:
    import_program()
    from workloads import WORKLOADS, Config

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    WORK.mkdir(exist_ok=True)
    config = Config(
        decomp_seed=args.decomp_seed,
        port_weight_seed=args.port_weight_seed,
        work_dir=WORK,
        src_dir=SRC,
        in_process_cli=False,
    )
    workload = WORKLOADS[args.workload](config)
    if args.trace:
        run, values, detail = run_traced(workload, args)
    else:
        run, values, detail = run_untraced(workload, args)
    run.check_oracle()

    samples = detail["samples"]
    for name, (value, unit) in values.items():
        count = samples.get(name)
        note = f"  (n={count})" if count else ""
        print(f"{args.workload:14s} {name:30s} {value:14.6g} {unit}{note}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "args": vars(args),
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u, "samples": samples.get(k)} for k, (v, u) in values.items()},
        "oracle": run.oracle,
        **{k: v for k, v in detail.items() if k != "samples"},
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print("environment " + json.dumps(record["environment"]))
    summary = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined summary line."""
    import_program()
    from workloads import WORKLOADS

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--decomp-seed", str(args.decomp_seed), "--port-weight-seed", str(args.port_weight_seed)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            totals["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
