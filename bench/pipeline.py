"""The benchmark's workloads as pgkrig CLI stages, the stage runner and the output checks.

A workload is a list of set-up stages and a list of timed stages. Each stage
is one `pgkrig` command line, the files it writes, and a check of those
files. The same stage lists run as subprocesses (the untraced end-to-end
runs) and in-process through `pgkrig.cli.main` (the traced run).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fixed sizes of the s1-advection preset. An output of any other shape fails
# its check, so a change to the preset cannot silently change the workload.
SCENARIO = "s1-advection"
HOURS = 240
STATIONS = 40
GRID_SIDE = 20
CELLS = GRID_SIDE * GRID_SIDE
TEST_HOURS = (204, 240)

# patience == epochs, so early stopping never triggers and every train stage
# runs exactly EPOCHS * BATCHES batches whatever the float rounding.
EPOCHS = 20
BATCHES = 8
# infer-s1 trains its checkpoint in set-up; its timed stages never train.
CHECKPOINT_EPOCHS = 4


class CheckError(Exception):
    """A stage's output has the wrong shape or a non-finite value."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# output checks


def _rows(path: Path, header: str) -> list[str]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    if not lines or lines[0] != header:
        raise CheckError(f"{path.name}: header {lines[:1]} is not [{header!r}]")
    if len(lines) == 1:
        raise CheckError(f"{path.name}: no data rows")
    return lines[1:]


def _series(path: Path, header: str, ids) -> np.ndarray:
    """(HOURS, len(ids), V) values of a long `time,id,...` table.

    Every (hour, id) pair must appear exactly once and every value must be
    finite.
    """
    ids = np.asarray(ids, dtype=np.int64)
    table = np.loadtxt(_rows(path, header), delimiter=",", ndmin=2)
    n_values = header.count(",") - 1
    if table.shape != (HOURS * ids.size, 2 + n_values):
        raise CheckError(f"{path.name}: table shape {table.shape}, expected "
                         f"{(HOURS * ids.size, 2 + n_values)}")
    if not np.all(np.isfinite(table)):
        raise CheckError(f"{path.name}: non-finite values")
    order = np.lexsort((table[:, 1], table[:, 0]))
    table = table[order]
    if (not np.array_equal(table[:, 0], np.repeat(np.arange(HOURS), ids.size))
            or not np.array_equal(table[:, 1], np.tile(np.sort(ids), HOURS))):
        raise CheckError(f"{path.name}: (time, id) pairs are not each hour x each id once")
    values = table[:, 2:].reshape(HOURS, ids.size, n_values)
    # back to the column order of `ids`
    return values[:, np.argsort(np.argsort(ids))]


def _pooled_mae(report: Path, ids, pred: np.ndarray, truth: np.ndarray) -> float:
    """Check an eval report and return its pooled MAE.

    The report needs one finite row per id plus the pooled `-1` row, and the
    pooled MAE must equal the one computed here over the test hours.
    """
    rows = [line.split(",") for line in _rows(report, "node_id,mae,rmse,r2")]
    if [int(r[0]) for r in rows] != [int(i) for i in ids] + [-1]:
        raise CheckError(f"{report.name}: rows are not one per node plus the pooled -1 row")
    scores = np.array([[float(r[1]), float(r[2])] for r in rows])
    if not np.all(np.isfinite(scores)):
        raise CheckError(f"{report.name}: non-finite scores")
    lo, hi = TEST_HOURS
    expected = float(np.mean(np.abs(pred[lo:hi] - truth[lo:hi])))
    pooled = float(scores[-1, 0])
    if not np.isclose(pooled, expected, rtol=1e-9, atol=0.0):
        raise CheckError(f"{report.name}: pooled MAE {pooled} but the predictions "
                         f"give {expected}")
    return pooled


def check_simulate(data: Path) -> dict:
    from pgkrig import dataio

    if dataio.read_nodes(data / "nodes.csv").n != STATIONS:
        raise CheckError(f"nodes.csv: expected {STATIONS} stations")
    geometry = dataio.read_grid_nodes(data / "grid.csv")
    if (geometry.nx, geometry.ny) != (GRID_SIDE, GRID_SIDE):
        raise CheckError(f"grid.csv: {geometry.nx}x{geometry.ny} grid")
    stations, cells = np.arange(STATIONS), np.arange(CELLS)
    for name, column in (("stations.csv", "pm25"), ("emissions.csv", "emission"),
                         ("station_truth.csv", "pm25")):
        _series(data / name, f"time,node_id,{column}", stations)
    _series(data / "wind.csv", "time,node_id,u_ms,v_ms", stations)
    aod = _series(data / "aod.csv", "time,node_id,aod,valid", stations)
    if not np.all(np.isin(aod[:, :, 1], (0.0, 1.0))):
        raise CheckError("aod.csv: valid column is not 0/1")
    _series(data / "truth.csv", "time,node_id,pm25", cells)
    _series(data / "grid_inputs.csv", "time,cell_id,u_ms,v_ms,emission", cells)
    return {}


def check_train(ckpt: Path, epochs: int) -> dict:
    """The checkpoint loads and is finite; the log proves the work was fixed."""
    from pgkrig import dataio

    loaded = dataio.load_checkpoint(ckpt)
    arrays = [p.data for p in loaded.model.params.values()]
    if not all(np.all(np.isfinite(a)) for a in arrays + [loaded.norm_mean, loaded.norm_std]):
        raise CheckError(f"{ckpt.name}: non-finite parameters")
    meta = loaded.meta
    if meta.get("epochs_run") != epochs or meta.get("batches_per_epoch") != BATCHES:
        raise CheckError(f"{ckpt.name}: ran {meta.get('epochs_run')} epochs of "
                         f"{meta.get('batches_per_epoch')} batches, expected "
                         f"{epochs} of {BATCHES}")
    if not meta.get("heldout_ids"):
        raise CheckError(f"{ckpt.name}: no held-out stations in meta")
    log = Path(str(ckpt) + ".log.csv")
    rows = [line.split(",")
            for line in _rows(log, "epoch,train_loss,val_mae,val_rmse,val_r2")]
    if [int(r[0]) for r in rows] != list(range(epochs)):
        raise CheckError(f"{log.name}: {len(rows)} epoch rows, expected {epochs}")
    values = np.array([[float(v) for v in r[1:4]] for r in rows])
    if not np.all(np.isfinite(values)):
        raise CheckError(f"{log.name}: non-finite losses")
    best = float(values[:, 1].min())
    if best != meta.get("best_val_mae"):
        raise CheckError(f"{log.name}: best val MAE {best} disagrees with the "
                         f"checkpoint's {meta.get('best_val_mae')}")
    return {"val_mae": best}


def _heldout_ids(ckpt: Path) -> list[int]:
    from pgkrig import dataio

    return [int(i) for i in dataio.load_checkpoint(ckpt).meta["heldout_ids"]]


def check_render(pgm: Path) -> dict:
    from pgkrig.rendering import parse_pgm

    shape = parse_pgm(pgm.read_text(encoding="utf-8")).shape
    if shape != (GRID_SIDE, GRID_SIDE):
        raise CheckError(f"{pgm.name}: {shape} pixels, expected {GRID_SIDE}x{GRID_SIDE}")
    return {}


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Stage:
    """One `pgkrig` command line, the files it writes and their check."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    check: Callable[[], dict]


def _config(path: Path, epochs: int, station_dropout: float) -> Path:
    """The README quick-start config with the amount of work fixed (JSON is YAML)."""
    path.write_text(json.dumps({
        "train": {"epochs": epochs, "patience": epochs, "batches_per_epoch": BATCHES,
                  "window": 24, "station_dropout": station_dropout},
        "split": {"holdout_fraction": 0.3, "seed": 0},
        "graph": {"threshold_km": 16.0},
    }), encoding="utf-8")
    return path


def _simulate(data: Path, seed: int) -> Stage:
    names = ("nodes.csv", "stations.csv", "wind.csv", "emissions.csv", "aod.csv",
             "truth.csv", "station_truth.csv", "grid.csv", "grid_inputs.csv")
    return Stage("simulate", ("simulate", "--scenario", SCENARIO, "--out", str(data),
                              "--seed", str(seed)),
                 tuple(data / n for n in names), lambda: check_simulate(data))


def _train(name: str, data: Path, out: Path, seed: int, epochs: int,
           station_dropout: float, aod: bool) -> Stage:
    ckpt = out / "model.ckpt"
    argv = ("train", "--config", str(_config(out / f"{name}.yaml", epochs, station_dropout)),
            "--data", str(data), "--out", str(ckpt), "--seed", str(seed))
    return Stage(name, argv + (() if aod else ("--no-aod",)),
                 (ckpt, Path(str(ckpt) + ".log.csv")), lambda: check_train(ckpt, epochs))


def _infer_stages(data: Path, ckpt: Path, out: Path) -> list[Stage]:
    ids = _heldout_ids(ckpt)
    pred, field_csv = out / "pred.csv", out / "field.csv"
    station_report, grid_report = out / "stations_report.csv", out / "grid_report.csv"
    pgm = out / "hour239.pgm"
    lo, hi = (str(h) for h in TEST_HOURS)

    def check_targets():
        _series(pred, "time,node_id,pm25", ids)
        return {}

    def check_station_eval():
        truth = _series(data / "station_truth.csv", "time,node_id,pm25", range(STATIONS))
        predicted = _series(pred, "time,node_id,pm25", ids)[:, :, 0]
        return {"heldout_mae": _pooled_mae(station_report, ids, predicted,
                                           truth[:, ids, 0])}

    def check_grid():
        _series(field_csv, "time,node_id,pm25", range(CELLS))
        return {}

    def check_grid_eval():
        cells = range(CELLS)
        truth = _series(data / "truth.csv", "time,node_id,pm25", cells)[:, :, 0]
        predicted = _series(field_csv, "time,node_id,pm25", cells)[:, :, 0]
        return {"grid_mae": _pooled_mae(grid_report, cells, predicted, truth)}

    return [
        Stage("infer-targets", ("infer", "--ckpt", str(ckpt), "--data", str(data),
                                "--targets", ",".join(map(str, ids)), "--out", str(pred)),
              (pred,), check_targets),
        Stage("eval-stations", ("eval", "--pred", str(pred), "--truth",
                                str(data / "station_truth.csv"), "--from", lo, "--to", hi,
                                "--out", str(station_report)),
              (station_report,), check_station_eval),
        Stage("infer-grid", ("infer", "--ckpt", str(ckpt), "--data", str(data), "--grid",
                             "--out", str(field_csv)),
              (field_csv,), check_grid),
        Stage("eval-grid", ("eval", "--pred", str(field_csv), "--truth",
                            str(data / "truth.csv"), "--from", lo, "--to", hi,
                            "--out", str(grid_report)),
              (grid_report,), check_grid_eval),
        Stage("render", ("render", "--field", str(field_csv), "--grid",
                         str(data / "grid.csv"), "--out", str(pgm)),
              (pgm,), lambda: check_render(pgm)),
    ]


@dataclass(frozen=True)
class Workload:
    """Set-up stages write into a set-up directory; timed stages read it."""

    name: str
    setup: Callable[[Path, int], list[Stage]]
    timed: Callable[[Path, Path, int], list[Stage]]


def _train_workload(name: str, station_dropout: float, aod: bool) -> Workload:
    return Workload(
        name,
        setup=lambda setup_dir, seed: [_simulate(setup_dir, seed)],
        timed=lambda setup_dir, out, seed: [
            _train("train", setup_dir, out, seed, EPOCHS, station_dropout, aod)])


WORKLOADS = {w.name: w for w in (
    _train_workload("train-s1", station_dropout=0.3, aod=True),
    _train_workload("train-s1-static", station_dropout=0.0, aod=False),
    Workload(
        "infer-s1",
        setup=lambda setup_dir, seed: [
            _simulate(setup_dir, seed),
            _train("train-checkpoint", setup_dir, setup_dir, seed, CHECKPOINT_EPOCHS,
                   station_dropout=0.3, aod=True)],
        timed=lambda setup_dir, out, seed: _infer_stages(
            setup_dir, setup_dir / "model.ckpt", out)),
)}


# ---------------------------------------------------------------------------
# running stages


@dataclass
class StageRun:
    stage: str
    wall_s: float
    peak_rss_mb: float | None
    exit_code: int
    error: str | None = None
    figures: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


# A launcher runs one stage and returns (wall seconds, peak RSS MB or None,
# exit code, the last line the stage printed).
Launcher = Callable[[Stage], "tuple[float, float | None, int, str]"]


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def launch_subprocess(stage: Stage, log: Path) -> tuple[float, float, int, str]:
    """Run `python -m pgkrig.cli` with src on PYTHONPATH; wall time and own peak RSS.

    The RSS comes from this child's own rusage (wait4). RUSAGE_CHILDREN would
    carry the largest earlier child into every later stage.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pgkrig.cli", *stage.argv],
                                stdout=out, stderr=subprocess.STDOUT, env=env,
                                cwd=log.parent)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
            last_line(log.read_text(encoding="utf-8", errors="replace")))


def run_stages(stages: list[Stage], launch: Launcher) -> list[StageRun]:
    """Run stages in order, checking each; stop after the first failure."""
    runs = []
    for stage in stages:
        wall, rss, code, said = launch(stage)
        run = StageRun(stage.name, wall, rss, code)
        runs.append(run)
        if code != 0:
            run.error = f"exit code {code}: {said}"
            break
        try:
            run.figures = stage.check()
            run.digests = {f"{stage.name}/{p.name}": sha256(p) for p in stage.outputs}
        except (CheckError, OSError, ValueError, KeyError) as exc:
            run.error = f"output check: {exc}"
            break
    return runs
