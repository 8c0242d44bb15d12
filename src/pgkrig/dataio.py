"""CSV, config, and checkpoint I/O with schema validation.

Every file written here starts with a version comment line so artifacts
are self-identifying. Readers tolerate missing version lines (hand-made
inputs) but reject mismatched versions, and report every failure as
``path:line: message``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np
import yaml

from . import autodiff as ad
from .graphs import GraphBuildError, NodeSet, grid_centers
from .network import N_CHANNELS, KrigingModel, ModelConfig

SCHEMA_VERSION = "pgkrig-v1"

_CKPT_MAGIC = b"pgkrig-ckpt-v1\n"


class SchemaError(ValueError):
    """A file violated its schema; message carries path and line."""


def version_line(kind: str) -> str:
    """Header comment stamped into every output file."""
    return f"# format: {SCHEMA_VERSION} {kind}"


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips the exact float64 value."""
    return repr(float(value))


def _err(path, line_no: int | None, message: str) -> SchemaError:
    where = str(path) if line_no is None else f"{path}:{line_no}"
    return SchemaError(f"{where}: {message}")


# ---------------------------------------------------------------------------
# the table codec: every CSV kind is a header plus one type code per column


_INT64_MAX = np.iinfo(np.int64).max

# Rows converted per step. Splitting a whole file at once would keep every
# field string alive together (480k for grid_inputs.csv) and raise peak RSS.
_BLOCK_ROWS = 4096


def _split_header(path, lines: list[str], header: str):
    """Validate comments and the header row.

    Returns (comments, body_start): the (line_no, line) comment pairs and
    the index into ``lines`` of the first data row.
    """
    comments: list[tuple[int, str]] = []
    for i, line in enumerate(lines, start=1):
        if line.startswith("#"):
            comments.append((i, line))
            continue
        if not line.strip():
            raise _err(path, i, "blank line before header")
        if line != header:
            raise _err(path, i, f"expected header {header!r}, got {line!r}")
        break
    else:
        raise _err(path, None, f"missing header {header!r}")
    body_start = i
    for i, line in comments:
        if line.startswith("# format: "):
            token = line[len("# format: "):].split()
            if not token or token[0] != SCHEMA_VERSION:
                raise _err(path, i, f"unsupported format version in {line!r}")
    return comments, body_start


def _parse_int(path, line_no: int, text: str, column: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _err(path, line_no, f"column {column}: {text!r} is not an integer") from None
    if value < 0:
        raise _err(path, line_no, f"column {column}: {value} is negative")
    if value > _INT64_MAX:
        raise _err(path, line_no, f"column {column}: {value} is too large")
    return value


def _parse_float(path, line_no: int, text: str, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _err(path, line_no, f"column {column}: {text!r} is not a number") from None
    if not np.isfinite(value):
        raise _err(path, line_no, f"column {column}: {value!r} is not finite")
    return value


def _parse_row(path, line_no: int, line: str, names: list[str], kinds: str) -> list:
    """One row's values, checked field by field; raises on its first fault."""
    if not line.strip():
        raise _err(path, line_no, "blank line inside data")
    fields = line.split(",")
    if len(fields) != len(kinds):
        raise _err(path, line_no, f"expected {len(kinds)} fields, got {len(fields)}")
    values: list = [None] * len(kinds)
    # Bit columns first: the AOD reader has always reported `valid` before
    # the other columns of the same row.
    for c in sorted(range(len(kinds)), key=lambda c: kinds[c] != "b"):
        if kinds[c] == "f":
            values[c] = _parse_float(path, line_no, fields[c], names[c])
            continue
        values[c] = _parse_int(path, line_no, fields[c], names[c])
        if kinds[c] == "b" and values[c] > 1:
            raise _err(path, line_no, f"column {names[c]}: {values[c]} is not 0 or 1")
    return values


def _parse_block(block: list[str], kinds: str) -> list[np.ndarray] | None:
    """Columns of a block of rows, or None if any row fails `_parse_row`."""
    arity = len(kinds)
    commas = np.fromiter(map(str.count, block, repeat(",")), np.int64, len(block))
    if (commas != arity - 1).any():
        return None
    fields = ",".join(block).split(",")
    columns = []
    for c, kind in enumerate(kinds):
        try:
            col = np.fromiter(map(float if kind == "f" else int, fields[c::arity]),
                              np.float64 if kind == "f" else np.int64, len(block))
        except (ValueError, OverflowError):
            return None
        ok = (np.isfinite(col).all() if kind == "f"
              else col.min() >= 0 and (kind == "i" or col.max() <= 1))
        if not ok:
            return None
        columns.append(col)
    return columns


def _read_table(path, header: str, kinds: str):
    """Parse every data row under ``header`` into one array per column.

    ``kinds`` holds one code per header field: ``i`` a non-negative
    integer and ``b`` a 0/1 bit (both int64), ``f`` a finite float. Blocks
    convert with the same ``int``/``float`` rules as ``_parse_row``; a
    block that fails is parsed again row by row, so the error names the
    first bad line in file order. Returns (comments, first_line, columns),
    where data row r sits on line ``first_line + r``.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    comments, body_start = _split_header(path, lines, header)
    rows = lines[body_start:]
    if rows and not rows[-1].strip():
        rows.pop()  # a blank last line just ends the file
    names = header.split(",")
    columns = [np.empty(len(rows), np.float64 if kind == "f" else np.int64)
               for kind in kinds]
    for lo in range(0, len(rows), _BLOCK_ROWS):
        block = rows[lo:lo + _BLOCK_ROWS]
        parsed = _parse_block(block, kinds)
        if parsed is None:
            first = body_start + lo + 1
            parsed = list(zip(*(_parse_row(path, first + r, line, names, kinds)
                                for r, line in enumerate(block))))
        for column, values in zip(columns, parsed):
            column[lo:lo + len(block)] = values
    return comments, body_start + 1, columns


def _first_repeat(keys: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one, or -1."""
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(repeats.min()) if repeats.size else -1


def _write_table(path, head: list[str], columns) -> None:
    """Write ``head`` lines, then one row per index of the 1-D ``columns``.

    Cells are ``repr`` of the Python value: integers as digits, floats as
    the shortest decimal that round-trips (``_fmt``).
    """
    cells = [map(repr, np.asarray(column).tolist()) for column in columns]
    Path(path).write_text("\n".join([*head, *map(",".join, zip(*cells))]) + "\n",
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# node tables


def write_nodes(path, positions: np.ndarray) -> None:
    """Write a node table `node_id,x_km,y_km`; row k is node k."""
    positions = np.asarray(positions, dtype=np.float64)
    _write_table(path, [version_line("nodes"), "node_id,x_km,y_km"],
                 [np.arange(len(positions)), positions[:, 0], positions[:, 1]])


def read_nodes(path) -> NodeSet:
    """Read a node table; ids must be dense 0..N-1 (any row order)."""
    _, first_line, (ids, x, y) = _read_table(path, "node_id,x_km,y_km", "iff")
    if not ids.size:
        raise _err(path, None, "no node rows")
    r = _first_repeat(ids)
    if r >= 0:
        raise _err(path, first_line + r, f"duplicate node_id {ids[r]}")
    n = ids.size
    if ids.max() != n - 1:
        raise _err(path, None, f"node_ids must be dense 0..{n - 1}")
    try:
        return NodeSet(np.column_stack([x, y])[np.argsort(ids)])
    except GraphBuildError as exc:
        raise _err(path, None, str(exc)) from exc


# ---------------------------------------------------------------------------
# long-format time series tables


def _assemble(path, times: np.ndarray, nodes: np.ndarray, *value_columns):
    """Dense (T, K, V) assembly from (time, node, values...) columns.

    Node ids may be any subset; every present node must cover every
    timestep 0..T-1 exactly once.
    """
    if not times.size:
        raise _err(path, None, "no data rows")
    t_count = np.unique(times).size
    if times.max() != t_count - 1:
        raise _err(path, None, f"times must be contiguous 0..{t_count - 1}")
    ids, k = np.unique(nodes, return_inverse=True)
    key = times * ids.size + k
    r = _first_repeat(key)
    if r >= 0:
        raise _err(path, None, f"duplicate row for time {times[r]}, node {nodes[r]}")
    present = np.bincount(key, minlength=t_count * ids.size)
    if not present.all():
        t, k = divmod(int(np.argmin(present)), ids.size)
        raise _err(path, None, f"missing row for time {t}, node {ids[k]}")
    values = np.empty((t_count * ids.size, len(value_columns)))
    values[key] = np.column_stack(value_columns)
    return ids, values.reshape(t_count, ids.size, -1)


def _write_series(path, kind: str, header: str, node_ids, *planes) -> None:
    """Write long-table rows, time outer and node inner, from (T, K) planes."""
    t_count, k_count = planes[0].shape
    ids = np.arange(k_count) if node_ids is None else np.asarray(node_ids)
    _write_table(path, [version_line(kind), header],
                 [np.repeat(np.arange(t_count), k_count), np.tile(ids, t_count),
                  *(plane.ravel() for plane in planes)])


def write_values(path, values: np.ndarray, column: str,
                 node_ids: np.ndarray | None = None) -> None:
    """Write `time,node_id,<column>` rows from a (T, K) array, of kind <column>."""
    values = np.asarray(values, dtype=np.float64)
    _write_series(path, column, f"time,node_id,{column}", node_ids, values)


def read_values(path, column: str) -> tuple[np.ndarray, np.ndarray]:
    """Read `time,node_id,<column>`; returns (sorted ids, (T, K) values)."""
    _, _, columns = _read_table(path, f"time,node_id,{column}", "iif")
    ids, values = _assemble(path, *columns)
    return ids, values[:, :, 0]


def write_wind(path, wind: np.ndarray) -> None:
    """Write `time,node_id,u_ms,v_ms` rows from a (T, K, 2) array."""
    wind = np.asarray(wind, dtype=np.float64)
    _write_series(path, "wind", "time,node_id,u_ms,v_ms", None,
                  wind[:, :, 0], wind[:, :, 1])


def read_wind(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a wind table; returns (sorted ids, (T, K, 2) array)."""
    _, _, columns = _read_table(path, "time,node_id,u_ms,v_ms", "iiff")
    return _assemble(path, *columns)


def write_aod(path, values: np.ndarray, valid: np.ndarray) -> None:
    """Write `time,node_id,aod,valid` rows; valid bits are 0/1."""
    values = np.asarray(values, dtype=np.float64)
    valid = np.asarray(valid, dtype=np.float64).astype(np.int64)
    _write_series(path, "aod", "time,node_id,aod,valid", None, values, valid)


def read_aod(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read an AOD table; returns (ids, (T, K) values, (T, K) 0/1 mask)."""
    _, _, columns = _read_table(path, "time,node_id,aod,valid", "iifb")
    ids, values = _assemble(path, *columns)
    return ids, values[:, :, 0], values[:, :, 1]


# ---------------------------------------------------------------------------
# grid geometry and grid-side inputs


@dataclass(frozen=True)
class GridGeometry:
    """Raster layout: cell k sits at ((k % nx) + 0.5, (k // nx) + 0.5) * cell_km."""

    nx: int
    ny: int
    cell_km: float

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def positions(self) -> np.ndarray:
        return grid_centers(self.nx, self.ny, self.cell_km)


def write_grid_nodes(path, geometry: GridGeometry) -> None:
    """Write `cell_id,x_km,y_km` for every cell plus a geometry comment."""
    positions = geometry.positions()
    _write_table(path, [version_line("grid"),
                        f"# grid: nx={geometry.nx} ny={geometry.ny} "
                        f"cell_km={_fmt(geometry.cell_km)}",
                        "cell_id,x_km,y_km"],
                 [np.arange(geometry.n_cells), positions[:, 0], positions[:, 1]])


def read_grid_nodes(path) -> GridGeometry:
    """Read a grid table; the geometry comment is required and verified."""
    comments, first_line, (cells, x, y) = _read_table(path, "cell_id,x_km,y_km", "iff")
    geometry = None
    for line_no, line in comments:
        if line.startswith("# grid: "):
            try:
                parts = dict(token.split("=", 1) for token in line[len("# grid: "):].split())
                geometry = GridGeometry(nx=int(parts["nx"]), ny=int(parts["ny"]),
                                        cell_km=float(parts["cell_km"]))
            except (KeyError, ValueError):
                raise _err(path, line_no, f"malformed grid comment {line!r}") from None
    if geometry is None:
        raise _err(path, None, "missing `# grid: nx=.. ny=.. cell_km=..` comment")
    if geometry.nx < 1 or geometry.ny < 1 or not geometry.cell_km > 0:
        raise _err(path, None, f"degenerate grid {geometry}")
    if cells.size != geometry.n_cells:
        raise _err(path, None,
                   f"grid comment promises {geometry.n_cells} cells, found {cells.size} rows")
    r = _first_repeat(cells)
    if r >= 0:
        raise _err(path, first_line + r, f"duplicate cell_id {cells[r]}")
    outside = cells >= geometry.n_cells
    expected = geometry.positions()[np.where(outside, 0, cells)]
    bad = outside | (x != expected[:, 0]) | (y != expected[:, 1])
    if bad.any():
        r = int(np.argmax(bad))
        message = (f"cell_id {cells[r]} outside grid" if outside[r]
                   else f"cell {cells[r]} position disagrees with grid comment")
        raise _err(path, first_line + r, message)
    return geometry


def write_grid_inputs(path, wind: np.ndarray, emissions: np.ndarray) -> None:
    """Write `time,cell_id,u_ms,v_ms,emission` for every cell and hour."""
    wind = np.asarray(wind, dtype=np.float64)
    emissions = np.asarray(emissions, dtype=np.float64)
    _write_series(path, "grid-inputs", "time,cell_id,u_ms,v_ms,emission", None,
                  wind[:, :, 0], wind[:, :, 1], emissions)


def read_grid_inputs(path) -> tuple[np.ndarray, np.ndarray]:
    """Read grid dynamics; cell ids must be dense. Returns (wind, emissions)."""
    _, _, columns = _read_table(path, "time,cell_id,u_ms,v_ms,emission", "iifff")
    ids, values = _assemble(path, *columns)
    if not np.array_equal(ids, np.arange(len(ids))):
        raise _err(path, None, f"cell_ids must be dense 0..{len(ids) - 1}")
    return values[:, :, :2].copy(), values[:, :, 2].copy()


# ---------------------------------------------------------------------------
# metric tables


def write_metrics_log(path, records) -> None:
    """Write the per-epoch training log `epoch,train_loss,val_mae,val_rmse,val_r2`."""
    lines = [version_line("train-log"), "epoch,train_loss,val_mae,val_rmse,val_r2"]
    for rec in records:
        r2_cell = "" if rec.val_r2 is None else _fmt(rec.val_r2)
        lines.append(f"{rec.epoch},{_fmt(rec.train_loss)},{_fmt(rec.val_mae)},"
                     f"{_fmt(rec.val_rmse)},{r2_cell}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def report_lines(node_scores, pooled) -> list[str]:
    """Metric report rows `node_id,mae,rmse,r2`; the pooled row uses id -1."""
    lines = [version_line("report"), "node_id,mae,rmse,r2"]
    for score in list(node_scores) + [pooled]:
        r2_cell = "" if score.r2 is None else _fmt(score.r2)
        lines.append(f"{score.node_id},{_fmt(score.mae)},{_fmt(score.rmse)},{r2_cell}")
    return lines


def write_report(path, node_scores, pooled) -> None:
    Path(path).write_text("\n".join(report_lines(node_scores, pooled)) + "\n",
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# checkpoints


@dataclass(frozen=True)
class Checkpoint:
    """A trained model plus the input statistics inference must reuse."""

    model: KrigingModel
    norm_mean: np.ndarray  # (5,) per-channel mean
    norm_std: np.ndarray  # (5,) per-channel std
    meta: dict


def save_checkpoint(path, model: KrigingModel, norm_mean: np.ndarray,
                    norm_std: np.ndarray, meta: dict) -> None:
    """Serialize deterministically: JSON header + raw little-endian f8 buffers.

    No timestamps and sorted keys, so identical values produce identical
    bytes; buffers round-trip bit-exactly.
    """
    arrays = [("param:" + name, model.params[name].data)
              for name in sorted(model.params)]
    arrays.append(("norm:mean", np.asarray(norm_mean, dtype=np.float64)))
    arrays.append(("norm:std", np.asarray(norm_std, dtype=np.float64)))
    header = {
        "config": model.config.to_dict(),
        "arrays": [{"name": name, "shape": list(data.shape)} for name, data in arrays],
        "meta": meta,
    }
    try:
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"checkpoint meta is not JSON-serializable: {exc}") from exc
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(blob)
        fh.write(b"\n")
        for _, data in arrays:
            fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; value-exact inverse of save_checkpoint."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if not raw.startswith(_CKPT_MAGIC):
        raise _err(path, None, "not a checkpoint (bad magic)")
    end = raw.find(b"\n", len(_CKPT_MAGIC))
    if end < 0:
        raise _err(path, None, "truncated checkpoint header")
    try:
        header = json.loads(raw[len(_CKPT_MAGIC):end].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        entries = [(str(e["name"]), tuple(int(s) for s in e["shape"]))
                   for e in header["arrays"]]
        meta = header["meta"]
    except (KeyError, TypeError, ValueError) as exc:
        raise _err(path, None, f"malformed checkpoint header: {exc}") from exc
    offset = end + 1
    buffers = {}
    for name, shape in entries:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise _err(path, None, f"truncated buffer for {name}")
        buffers[name] = np.frombuffer(raw, dtype="<f8", count=count,
                                      offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise _err(path, None, f"{len(raw) - offset} trailing bytes after buffers")
    try:
        params = {name[len("param:"):]: ad.Tensor(data, requires_grad=True)
                  for name, data in buffers.items() if name.startswith("param:")}
        model = KrigingModel(config, params=params)
        norm_mean = buffers["norm:mean"]
        norm_std = buffers["norm:std"]
    except (KeyError, ValueError) as exc:
        raise _err(path, None, f"invalid checkpoint contents: {exc}") from exc
    for name, data in (("norm:mean", norm_mean), ("norm:std", norm_std)):
        if data.shape != (N_CHANNELS,):
            raise _err(path, None, f"invalid checkpoint contents: {name} has shape "
                                   f"{data.shape}, expected ({N_CHANNELS},)")
    for name, data in buffers.items():
        if not np.all(np.isfinite(data)):
            raise _err(path, None, f"invalid checkpoint contents: {name} has non-finite values")
    if not np.all(norm_std > 0):
        k = int(np.argmin(norm_std > 0))
        raise _err(path, None, f"invalid checkpoint contents: norm:std[{k}] = "
                               f"{_fmt(norm_std[k])} is not positive")
    return Checkpoint(model=model, norm_mean=norm_mean, norm_std=norm_std, meta=meta)


# ---------------------------------------------------------------------------
# run configuration


_CONFIG_SECTIONS = ("model", "train", "split", "loss", "graph")


def load_config(path) -> dict:
    """Read the nested key/value run configuration file.

    Returns a dict with only known top-level sections; each section is a
    flat mapping handed to the matching constructor downstream.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: invalid config syntax: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise _err(path, None, f"config root must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_CONFIG_SECTIONS))
    if unknown:
        raise _err(path, None, f"unknown config sections {unknown}; "
                               f"expected subset of {list(_CONFIG_SECTIONS)}")
    for section, value in data.items():
        if not isinstance(value, dict):
            raise _err(path, None, f"section {section!r} must be a mapping")
    return data
