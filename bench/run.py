"""Seeded end-to-end benchmark of the pgkrig CLI.

    python3 bench/run.py --workload train-s1 --seed 0 --seconds 20 --trace 0

Runs one workload (see bench/README.md) from the root of a source checkout,
with `src` on PYTHONPATH, in a scratch directory `.bench_work/` that it
removes again. `--trace 0` times every stage as a subprocess and reports the
end-to-end metrics; `--trace 1` runs the same stages in-process through
`pgkrig.cli.main`, once plain and once with spans around each module's
public functions, and reports the per-layer metrics. Every stage's outputs
are checked. The last stdout line is the JSON result; the line before it is
a JSON record of the run environment, every stage run and every output's
sha256.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy loads, here and in every stage process, so that BLAS
# threading does not change with the machine's core count. Outputs are the
# same bytes with one thread as with two.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from pipeline import (BATCHES, EPOCHS, ROOT, SRC, WORKLOADS,  # noqa: E402
                      last_line, launch_subprocess, run_stages)
from spans import UNITS as LAYER_UNITS, Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 3  # setup_s is the median over this many set-ups in one run

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# per-workload figures, printed and recorded but not in the result
FIGURES = {**END_TO_END, "failed_frac": "ratio", "train_batches_per_s": "1/s",
           "val_mae": "pm25", "infer_stations_s": "s", "infer_grid_s": "s", "eval_s": "s",
           "render_s": "s", "heldout_mae": "pm25", "grid_mae": "pm25"}


class Ledger:
    """Stage runs attempted and failed, plus byte-for-byte comparison of outputs."""

    def __init__(self):
        self.runs = []
        self.reference: dict[str, str] = {}

    def add(self, runs, label: str) -> bool:
        """Record stage runs; a digest that differs from an earlier run at the
        same seed fails that stage run. Returns False if any run failed."""
        for run in runs:
            for key, digest in run.digests.items():
                first = self.reference.setdefault(key, digest)
                if digest != first and run.error is None:
                    run.error = f"{key} differs from an earlier run at the same seed"
            self.runs.append({"label": label, **vars(run)})
        return all(run.error is None for run in runs)

    @property
    def failed(self) -> int:
        return sum(run["error"] is not None for run in self.runs)


def _end_to_end(setups: list[list], reps: list[list]) -> tuple[dict, dict]:
    """End-to-end metrics (medians over set-ups and timed repeats), and those
    plus the per-workload figures bench/README.md defines."""
    def stage_walls(name):
        return [sum(r.wall_s for r in rep if r.stage == name) for rep in reps]

    figures = {}
    for rep in reps:
        for run in rep:
            figures.update(run.figures)
    detail = {
        "setup_s": statistics.median([sum(r.wall_s for r in rep) for rep in setups]),
        "wall_s": statistics.median([sum(r.wall_s for r in rep) for rep in reps]),
        "peak_rss_mb": statistics.median([max(r.peak_rss_mb for r in rep) for rep in reps]),
    }
    if "val_mae" in figures:
        detail["train_batches_per_s"] = EPOCHS * BATCHES / statistics.median(stage_walls("train"))
        detail["val_mae"] = figures["val_mae"]
    else:
        detail.update({
            "infer_stations_s": statistics.median(stage_walls("infer-targets")),
            "infer_grid_s": statistics.median(stage_walls("infer-grid")),
            "eval_s": statistics.median([a + b for a, b in zip(stage_walls("eval-stations"),
                                                     stage_walls("eval-grid"))]),
            "render_s": statistics.median(stage_walls("render")),
            "heldout_mae": figures["heldout_mae"],
            "grid_mae": figures["grid_mae"],
        })
    return {k: detail[k] for k in END_TO_END}, detail


def measure(workload, seed: int, seconds: float, work: Path, ledger: Ledger):
    """Untraced run: SETUP_REPEATS set-ups, then timed repeats for `seconds`."""
    def launch(stage):
        return launch_subprocess(stage, work / f"{stage.name}.log")

    setups = []
    for i in range(SETUP_REPEATS):
        setup_dir = work / f"setup-{i}"
        setup_dir.mkdir()
        runs = run_stages(workload.setup(setup_dir, seed), launch)
        setups.append(runs)
        if not ledger.add(runs, f"setup-{i}"):
            return None
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        out = work / "timed"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        runs = run_stages(workload.timed(setup_dir, out, seed), launch)
        reps.append(runs)
        if not ledger.add(runs, f"timed-{len(reps) - 1}"):
            return None
    return _end_to_end(setups, reps)


def trace(workload, seed: int, work: Path, ledger: Ledger):
    """Plain then traced in-process pass over every stage; per-layer metrics."""
    import contextlib
    import io

    from pgkrig import cli

    def in_process(call):
        def launch(stage):
            output = io.StringIO()
            with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                start = time.perf_counter()
                code = call(stage)
                wall = time.perf_counter() - start
            return wall, None, code, last_line(output.getvalue())
        return launch

    def one_pass(name, launch):
        setup_dir = work / name
        setup_dir.mkdir()
        setup = run_stages(workload.setup(setup_dir, seed), launch)
        if not ledger.add(setup, name):
            return None
        out = setup_dir / "timed"
        out.mkdir()
        timed = run_stages(workload.timed(setup_dir, out, seed), launch)
        return setup + timed if ledger.add(timed, name) else None

    plain = one_pass("plain", in_process(lambda stage: cli.main(list(stage.argv))))
    if plain is None:
        return None
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass("traced", in_process(
            lambda stage: tracer.run_stage(stage.name, cli.main, list(stage.argv))))
    finally:
        tracer.uninstall()
    if traced is None:
        return None
    return layer_metrics(tracer, [run.wall_s for run in plain])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)), "git_commit": commit, "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed stages repeat (untraced run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pgkrig" / "cli.py").is_file():
        print(f"error: no pgkrig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the program takes non-negative seeds; any integer maps onto one
    seed = args.seed % 2**32

    work = ROOT / ".bench_work" / f"{args.workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        if args.trace:
            outcome = trace(WORKLOADS[args.workload], seed, work, ledger)
        else:
            outcome = measure(WORKLOADS[args.workload], seed, args.seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    metrics, detail = outcome if outcome is not None else ({}, {})
    failed_frac = ledger.failed / max(1, len(ledger.runs))
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "environment": environment(seed), "failed_frac": failed_frac,
                      "detail": detail, "stage_runs": ledger.runs}, default=str))
    units = LAYER_UNITS if args.trace else FIGURES
    shown = metrics if args.trace else {**detail, "failed_frac": failed_frac}
    for name, value in shown.items():
        print(f"# {name} = {value} {units[name]}", file=sys.stderr)
    result = {"correct": outcome is not None and ledger.failed == 0,
              "attempted": max(1, len(ledger.runs)), "failed": ledger.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
