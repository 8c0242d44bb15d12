"""Operator commands chaining the pipeline: simulate, train, infer, eval, render.

Every command reads and writes the CSV/graymap/checkpoint formats from
the data layer, never mutates its inputs, and is reproducible under
`--seed` (commands without randomness are deterministic outright).

Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure.

Each command imports the modules it runs when it runs, so `eval` and
`render` start without scipy, PyYAML or the model, and only `simulate`
loads the testbed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import PRESET_NAMES, DataError, NumericFailure, dataio

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DATA_DIR_ENV = "PGKRIG_DATA_DIR"


class _UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        raise _UsageError(message)


def _seed(text: str) -> int:
    """The `--seed` type of every command: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _resolve_data_dir(value) -> Path:
    """Explicit flag wins; otherwise fall back to the environment."""
    if value is not None:
        return Path(value)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    raise _UsageError(f"no data directory given and {DATA_DIR_ENV} is not set")


# the tables of a data directory that every station reader reads, and
# those that only grid inference reads
_STATION_TABLES = ("nodes.csv", "wind.csv", "emissions.csv", "stations.csv")
_GRID_TABLES = ("grid.csv", "grid_inputs.csv")


def _output_file(path, inputs=()) -> Path:
    """An output file path in an existing directory that is none of `inputs`,
    the files the command reads and its other outputs, whether they exist
    yet or not; checked before a command reads anything."""
    path = Path(path)
    if not path.parent.is_dir():
        raise DataError(f"{path}: no such directory {path.parent}")
    if path.is_dir():
        raise DataError(f"{path}: is a directory")
    for other in map(Path, inputs):
        try:
            same = path.samefile(other)
        except OSError:  # one of them does not exist yet
            same = path.resolve() == other.resolve()
        if same:
            raise DataError(f"{path}: output would replace {other}")
    return path


# ---------------------------------------------------------------------------
# simulate


def _load_scenario(name_or_path: str):
    from .testbed import ScenarioError, ScenarioSpec, scenario_preset

    if name_or_path in PRESET_NAMES:
        return scenario_preset(name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise ScenarioError(
            f"'{name_or_path}' is neither a preset ({', '.join(sorted(PRESET_NAMES))}) "
            "nor a scenario file")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    data = dataio.parse_yaml(text, ScenarioError, f"{path}: invalid scenario syntax")
    return dataio.from_mapping(ScenarioSpec, data, "scenario")


def _cmd_simulate(args) -> int:
    from .testbed import run_scenario

    spec = _load_scenario(args.scenario)
    out = _resolve_data_dir(args.out)
    if args.scenario not in PRESET_NAMES and out.is_dir():
        for name in (*_STATION_TABLES, *_GRID_TABLES, "aod.csv", "truth.csv", "station_truth.csv"):
            _output_file(out / name, [args.scenario])
    run = run_scenario(spec, seed=args.seed)
    out.mkdir(parents=True, exist_ok=True)
    cells = run.stations.cell_indices
    dataio.write_nodes(out / "nodes.csv", run.stations.nodes.positions)
    dataio.write_values(out / "stations.csv", run.stations.pm25, "pm25")
    dataio.write_wind(out / "wind.csv", run.stations.wind)
    dataio.write_values(out / "emissions.csv", run.stations.emissions, "emission")
    dataio.write_aod(out / "aod.csv", run.aod.values[:, cells],
                     run.aod.valid[:, cells])
    dataio.write_values(out / "truth.csv", run.truth.concentrations, "pm25")
    station_truth = run.truth.concentrations[:, cells]
    if station_truth.tobytes() == run.stations.pm25.tobytes():  # no observation noise
        shutil.copyfile(out / "stations.csv", out / "station_truth.csv")
    else:
        dataio.write_values(out / "station_truth.csv", station_truth, "pm25")
    geometry = dataio.GridGeometry(nx=spec.nx, ny=spec.ny, cell_km=spec.cell_km)
    dataio.write_grid_nodes(out / "grid.csv", geometry)
    dataio.write_grid_inputs(out / "grid_inputs.csv", run.truth.wind,
                             run.truth.emissions)
    print(f"wrote 9 files to {out} ({run.stations.nodes.n} stations, "
          f"{run.truth.concentrations.shape[0]} hours, "
          f"{geometry.nx}x{geometry.ny} grid)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / sweep


def _read_stations(data_dir: Path, targets=(), with_aod: bool = False):
    """The station inputs of `data_dir` as one StationDataset, under one rule.

    nodes.csv fixes N. wind.csv, emissions.csv and, when `with_aod` and the
    file exists, aod.csv hold one series per node. stations.csv holds ids
    in 0..N-1 and a series for every node not in `targets`; a target's
    pollution is read as 0 whether or not the file holds it. Every table
    covers the hours of wind.csv. Any breach is a SchemaError naming the
    file: when wind.csv and emissions.csv both hold ids 0..K-1 and nodes.csv
    does not list K nodes, nodes.csv is the file named.
    """
    from .training import StationDataset

    nodes = dataio.read_nodes(data_dir / "nodes.csv")
    n = nodes.n
    wind_ids, wind = dataio.read_wind(data_dir / "wind.csv")
    em_ids, emissions = dataio.read_values(data_dir / "emissions.csv", "emission")
    k = wind_ids.size
    if (k != n and np.array_equal(wind_ids, em_ids)
            and np.array_equal(wind_ids, np.arange(k))):
        raise dataio.SchemaError(
            f"{data_dir / 'nodes.csv'}: lists {n} nodes, but wind.csv and "
            f"emissions.csv hold series for ids 0..{k - 1}")

    def check(name: str, ids: np.ndarray, values: np.ndarray, exempt=()) -> None:
        path = data_dir / name
        if ids.size and ids.max() >= n:
            raise dataio.SchemaError(f"{path}: node ids outside 0..{n - 1}")
        missing = np.setdiff1d(np.arange(n), np.union1d(ids, exempt))
        if missing.size:
            raise dataio.SchemaError(f"{path}: nodes {missing.tolist()} have no series")
        if values.shape[0] != wind.shape[0]:
            raise dataio.SchemaError(
                f"{path}: {values.shape[0]} hours but wind.csv has {wind.shape[0]}")

    check("wind.csv", wind_ids, wind)
    check("emissions.csv", em_ids, emissions)
    sids, svals = dataio.read_values(data_dir / "stations.csv", "pm25")
    check("stations.csv", sids, svals, exempt=targets)
    observed = ~np.isin(sids, targets)
    pm25 = np.zeros((wind.shape[0], n))
    pm25[:, sids[observed]] = svals[:, observed]
    aod_values = aod_valid = None
    if with_aod and (data_dir / "aod.csv").exists():
        aod_ids, aod_values, aod_valid = dataio.read_aod(data_dir / "aod.csv")
        check("aod.csv", aod_ids, aod_values)
    return StationDataset(nodes=nodes, wind=wind, emissions=emissions, pm25=pm25,
                          aod_values=aod_values, aod_valid=aod_valid)


def _train_input_files(args) -> list:
    """The files `train` and `sweep` read: the config and the station tables."""
    data_dir = _resolve_data_dir(args.data)
    tables = _STATION_TABLES if args.no_aod else (*_STATION_TABLES, "aod.csv")
    return [*([args.config] if args.config else []), *(data_dir / name for name in tables)]


def _train_inputs(args):
    """Shared train/sweep plumbing: dataset plus validated configuration."""
    from .training import RunConfig

    data_dir = _resolve_data_dir(args.data)
    run = dataio.from_mapping(
        RunConfig, dataio.load_config(args.config) if args.config else {}, "config")
    dataset = _read_stations(data_dir, with_aod=not args.no_aod)
    train_cfg, split = run.train, run.split.spec(dataset.t_hours)
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
        split = replace(split, seed=args.seed)
    return dataset, run.model, train_cfg, split, run.loss, run.graph.threshold_km


def _cmd_train(args) -> int:
    from .training import train

    inputs = _train_input_files(args)
    out = _output_file(args.out, inputs)
    log_path = _output_file(args.log if args.log else str(args.out) + ".log.csv", [*inputs, out])
    dataset, model_cfg, train_cfg, split, weights, threshold = _train_inputs(args)
    result = train(dataset, model_cfg, train_cfg, split, weights=weights,
                   threshold_km=threshold)
    dataio.save_checkpoint(out, result.model, result.normalization.mean,
                           result.normalization.std, result.meta)
    dataio.write_metrics_log(log_path, result.log)
    mae = result.best_val_mae
    print(f"wrote {args.out} (best epoch {result.best_epoch}, "
          f"val MAE {'n/a' if mae is None else format(mae, '.6g')})")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .training import train

    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise _UsageError(f"--values must be comma-separated numbers: {exc}")
    if not values:
        raise _UsageError("--values is empty")
    out = _output_file(args.out, _train_input_files(args)) if args.out else None
    dataset, model_cfg, train_cfg, split, weights, threshold = _train_inputs(args)
    results = [train(dataset, model_cfg, train_cfg, split,
                     weights=replace(weights, **{args.param: value}), threshold_km=threshold)
               for value in values]
    text = dataio.table_text(
        [dataio.version_line("sweep"), f"{args.param},best_epoch,best_val_mae"],
        [values, [r.best_epoch for r in results], [r.best_val_mae for r in results]])
    if out:
        out.write_text(text, encoding="utf-8")
        print(f"wrote {args.out} ({len(values)} runs)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# infer


def _parse_targets(text: str) -> np.ndarray:
    try:
        ids = np.array([int(v) for v in text.split(",") if v.strip()], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise _UsageError(f"--targets must be comma-separated node ids: {exc}")
    if not ids.size:
        raise _UsageError("--targets is empty")
    return ids


def _cmd_infer(args) -> int:
    if args.grid == (args.targets is not None):
        raise _UsageError("exactly one of --targets or --grid is required")
    from .training import Normalization, infer_grid, infer_stations

    data_dir = _resolve_data_dir(args.data)
    tables = (*_STATION_TABLES, *_GRID_TABLES) if args.grid else _STATION_TABLES
    out = _output_file(args.out, [args.ckpt, *(data_dir / name for name in tables)])
    ckpt = dataio.load_checkpoint(args.ckpt)
    normalization = Normalization(mean=ckpt.norm_mean, std=ckpt.norm_std)
    if "threshold_km" not in ckpt.meta:
        raise dataio.SchemaError(f"{args.ckpt}: meta has no threshold_km, the edge cutoff "
                                 "the model was trained with")
    threshold = float(ckpt.meta["threshold_km"])

    if args.grid:
        dataset = _read_stations(data_dir)
        geometry = dataio.read_grid_nodes(data_dir / "grid.csv")
        inputs_path = data_dir / "grid_inputs.csv"
        grid_wind, grid_emissions = dataio.read_grid_inputs(inputs_path)
        if grid_wind.shape[0] != dataset.t_hours:
            raise dataio.SchemaError(f"{inputs_path}: {grid_wind.shape[0]} hours but "
                                     f"wind.csv has {dataset.t_hours}")
        if grid_wind.shape[1] != geometry.n_cells:
            raise dataio.SchemaError(f"{inputs_path}: {grid_wind.shape[1]} cells but "
                                     f"grid.csv has {geometry.n_cells}")
        field = infer_grid(ckpt.model, normalization, dataset,
                           geometry.positions(), grid_wind, grid_emissions,
                           threshold_km=threshold)
        dataio.write_values(out, field, "pm25")
        print(f"wrote {args.out} ({field.shape[0]} hours x "
              f"{geometry.nx}x{geometry.ny} cells)")
        return EXIT_OK

    targets = _parse_targets(args.targets)
    dataset = _read_stations(data_dir, targets)
    preds = infer_stations(ckpt.model, normalization, dataset, targets,
                           threshold_km=threshold)
    dataio.write_values(out, preds, "pm25", node_ids=targets)
    print(f"wrote {args.out} ({preds.shape[0]} hours x {targets.size} nodes)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _cmd_eval(args) -> int:
    from .metrics import score_per_node, score_pooled

    out = _output_file(args.out, [args.pred, args.truth]) if args.out else None
    pred_ids, pred = dataio.read_values(args.pred, "pm25")
    truth_ids, truth = dataio.read_values(args.truth, "pm25")
    lookup = {int(k): i for i, k in enumerate(truth_ids)}
    missing = [int(k) for k in pred_ids if int(k) not in lookup]
    if missing:
        raise dataio.SchemaError(f"{args.truth}: no truth for nodes {missing}")
    if truth.shape[0] < pred.shape[0]:
        raise dataio.SchemaError(
            f"{args.truth}: covers {truth.shape[0]} hours but predictions "
            f"cover {pred.shape[0]}")
    aligned = truth[:pred.shape[0], [lookup[int(k)] for k in pred_ids]]

    lo = 0 if args.from_hour is None else args.from_hour
    hi = pred.shape[0] if args.to_hour is None else args.to_hour
    if not 0 <= lo < hi <= pred.shape[0]:
        raise _UsageError(
            f"hour range [{lo}, {hi}) is not inside [0, {pred.shape[0]})")
    pred, aligned = pred[lo:hi], aligned[lo:hi]

    scores = score_per_node(pred, aligned, pred_ids)
    pooled = score_pooled(pred, aligned)
    sys.stdout.write(dataio.report_text(scores, pooled))
    if out:
        dataio.write_report(out, scores, pooled)
    return EXIT_OK


# ---------------------------------------------------------------------------
# render


def _cmd_render(args) -> int:
    from .rendering import RenderError, field_frame, render_pgm

    out = _output_file(args.out, [args.field, args.grid])
    geometry = dataio.read_grid_nodes(args.grid)
    ids, values = dataio.read_values(args.field, "pm25")
    if not np.array_equal(ids, np.arange(geometry.n_cells)):
        raise RenderError(
            f"{args.field}: field covers {ids.size} of {geometry.n_cells} cells")
    hour = values.shape[0] - 1 if args.time is None else args.time
    frame = field_frame(values, geometry, hour)
    out.write_text(render_pgm(frame, vmin=args.vmin, vmax=args.vmax), encoding="utf-8")
    print(f"wrote {args.out} ({geometry.nx}x{geometry.ny}, hour {hour})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(
        prog="pgkrig",
        description="Physics-guided inductive kriging for sparse sensor fields.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    sim = sub.add_parser("simulate", help="run a synthetic scenario and emit CSVs")
    sim.add_argument("--scenario", required=True,
                     help=f"preset name ({', '.join(PRESET_NAMES)}) or a YAML file")
    sim.add_argument("--out", default=None,
                     help=f"output directory (default ${DATA_DIR_ENV})")
    sim.set_defaults(func=_cmd_simulate)

    tr = sub.add_parser("train", help="fit a model on a station data directory")
    tr.add_argument("--config", default=None, help="YAML configuration file")
    tr.add_argument("--data", default=None,
                    help=f"data directory (default ${DATA_DIR_ENV})")
    tr.add_argument("--out", required=True, help="checkpoint path to write")
    tr.add_argument("--log", default=None,
                    help="metrics log CSV path (default: <out>.log.csv)")
    tr.add_argument("--no-aod", action="store_true",
                    help="ignore aod.csv even when present")
    tr.set_defaults(func=_cmd_train)

    sw = sub.add_parser("sweep", help="retrain across loss-weight values")
    sw.add_argument("--config", default=None, help="YAML configuration file")
    sw.add_argument("--data", default=None,
                    help=f"data directory (default ${DATA_DIR_ENV})")
    sw.add_argument("--param", choices=("lambda1", "lambda2"), default="lambda2",
                    help="which loss weight to sweep (default lambda2)")
    sw.add_argument("--values", required=True,
                    help="comma-separated weight values, e.g. 0,0.1,0.5")
    sw.add_argument("--out", default=None,
                    help="result CSV path (default: print to stdout)")
    sw.add_argument("--no-aod", action="store_true",
                    help="ignore aod.csv even when present")
    sw.set_defaults(func=_cmd_sweep)

    inf = sub.add_parser("infer", help="predict series at nodes or a full grid")
    inf.add_argument("--ckpt", required=True, help="checkpoint from train")
    inf.add_argument("--data", default=None,
                     help=f"data directory (default ${DATA_DIR_ENV})")
    inf.add_argument("--targets", default=None,
                     help="comma-separated node ids to predict")
    inf.add_argument("--grid", action="store_true",
                     help="reconstruct the full grid from grid.csv/grid_inputs.csv")
    inf.add_argument("--out", required=True, help="prediction CSV path")
    inf.set_defaults(func=_cmd_infer)

    ev = sub.add_parser("eval", help="score predictions against truth")
    ev.add_argument("--pred", required=True, help="prediction CSV")
    ev.add_argument("--truth", required=True, help="truth CSV")
    ev.add_argument("--out", default=None, help="also write the report here")
    ev.add_argument("--from", dest="from_hour", type=int, default=None,
                    help="first hour to score (inclusive)")
    ev.add_argument("--to", dest="to_hour", type=int, default=None,
                    help="last hour to score (exclusive)")
    ev.set_defaults(func=_cmd_eval)

    rn = sub.add_parser("render", help="render one hour of a field as a graymap")
    rn.add_argument("--field", required=True, help="field CSV (time,node_id,pm25)")
    rn.add_argument("--grid", required=True, help="grid geometry CSV")
    rn.add_argument("--out", required=True, help="output .pgm path")
    rn.add_argument("--time", type=int, default=None,
                    help="hour to render (default: the last)")
    rn.add_argument("--vmin", type=float, default=None,
                    help="value mapped to black (default: frame minimum)")
    rn.add_argument("--vmax", type=float, default=None,
                    help="value mapped to white (default: frame maximum)")
    rn.set_defaults(func=_cmd_render)

    for command, text in ((sim, "master seed (default: the scenario's layout seed)"),
                          (tr, "overrides both the training and the split seed"),
                          (sw, "overrides both the training and the split seed"),
                          (inf, "accepted for uniformity; inference is deterministic"),
                          (ev, "accepted for uniformity; eval is deterministic"),
                          (rn, "accepted for uniformity; render is deterministic")):
        command.add_argument("--seed", type=_seed, default=None, help=text)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help exits 0 inside argparse
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError, MemoryError) as exc:  # MemoryError: inputs or model too large
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
