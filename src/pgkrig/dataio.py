"""CSV, config, and checkpoint I/O with schema validation.

Every file written here starts with a version comment line so artifacts
are self-identifying. Readers tolerate missing version lines (hand-made
inputs) but reject mismatched versions, and report every failure as
``path:line: message``.
"""

from __future__ import annotations

import json
import math
import re
import sys
import types
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, get_args, get_origin, get_type_hints

import numpy as np

from . import DataError
from .graphs import GraphBuildError, NodeSet, grid_centers

if TYPE_CHECKING:
    from .network import KrigingModel

SCHEMA_VERSION = "pgkrig-v1"

_CKPT_MAGIC = b"pgkrig-ckpt-v1\n"


class SchemaError(DataError, ValueError):
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

# rows that the table reader parses, and the table writer formats, at once
_BATCH_ROWS = 4096
# characters that the table reader decodes at once
_READ_CHARS = 1 << 16


def _split_header(path, lines, header: str):
    """Validate comments and the header row, reading ``lines`` up to the header.

    Returns (comments, body_start): the (line_no, line) comment pairs and
    the header's line number, which is the count of lines read.
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


def _load_rows(rows: list[str], dtype, kinds: str):
    """The rows through numpy's C reader, or None where `_parse_row` must decide.

    numpy converts a field as ``int`` and ``float`` do, but it skips blank
    lines and takes inf and nan, so it misses on those as on any fault.
    """
    try:
        with warnings.catch_warnings():
            # older numpy reads "1.0" as int 1, with a warning; rows that are
            # all blank give a warning and no data
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("error", UserWarning)
            table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1, dtype=dtype)
    except (ValueError, DeprecationWarning, UserWarning):
        return None
    if len(table) != len(rows):
        return None
    for (name, _), kind in zip(dtype, kinds):
        col = table[name]
        if not (np.isfinite(col).all() if kind == "f"
                else col.min() >= 0 and (kind == "i" or col.max() <= 1)):
            return None
    return table


def _line_lists(fh):
    """The lines of a text file, split as ``str.splitlines`` splits the
    whole text, in one list per _READ_CHARS characters read."""
    tail = ""
    while chunk := fh.read(_READ_CHARS):
        text = tail + chunk
        cut = text.rfind("\n") + 1
        tail = text[cut:]
        yield text[:cut].splitlines()
    yield tail.splitlines()


def _read_table(path, header: str, kinds: str):
    """Parse every data row under ``header`` into one array per column.

    ``kinds`` holds one code per header field: ``i`` a non-negative
    integer and ``b`` a 0/1 bit (both int64), ``f`` a finite float. The
    file is read and parsed _BATCH_ROWS rows at a time, and each batch is
    kept as one copy per column, so only the parsed columns span the whole
    file. Each batch goes through numpy's reader in one call; if it
    misses, the batch is parsed again row by row, so the error names the
    first bad line in file order. Returns (comments, first_line, columns),
    where data row r sits on line ``first_line + r``.
    """
    names = header.split(",")
    dtype = [(name, np.float64 if kind == "f" else np.int64)
             for name, kind in zip(names, kinds)]
    parts = [[np.empty(0, column_type)] for _, column_type in dtype]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = chain.from_iterable(_line_lists(fh))
            comments, body_start = _split_header(path, lines, header)
            line_no = body_start + 1
            rows = list(islice(lines, _BATCH_ROWS))
            while rows:
                following = list(islice(lines, _BATCH_ROWS))
                if not following and not rows[-1].strip():
                    rows.pop()  # a blank last line just ends the file
                table = _load_rows(rows, dtype, kinds) if rows else np.empty(0, dtype)
                if table is None:
                    table = np.array([tuple(_parse_row(path, line_no + r, line, names, kinds))
                                      for r, line in enumerate(rows)], dtype)
                for part, name in zip(parts, names):
                    part.append(table[name].copy())
                line_no += len(rows)
                rows = following
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the decoder counts bytes from the start of its chunk; decoding
        # the whole file names the bad byte's place in the file
        try:
            Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as whole:
            raise SchemaError(f"{path}: {whole}") from whole
        raise SchemaError(f"{path}: {exc}") from exc
    # each column's batches are freed once it is joined, so at most one
    # column is held twice
    columns = []
    for part in parts:
        columns.append(np.concatenate(part))
        part.clear()
    return comments, body_start + 1, columns


def _first_repeat(keys: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one, or -1."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    return int(repeats.min()) if repeats.size else -1


def _cells(values: np.ndarray):
    """The cell texts of one 1-D column (see `table_text`).

    A numeric column where most values repeat formats each distinct value
    once. Values are told apart by bit pattern, so -0.0 and 0.0 keep their
    own texts.
    """
    if values.dtype == object:  # a float column with empty cells
        return ("" if v is None else _fmt(v) for v in values.tolist())
    distinct, where = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    if 2 * distinct.size > values.size:  # the index would cost more than it saves
        return map(repr, values.tolist())
    texts = np.array([repr(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    return texts[where].tolist()


def _table_pieces(head: list[str], columns):
    """The text of `table_text`, in pieces of at most _BATCH_ROWS rows."""
    columns = [np.asarray(column) for column in columns]
    yield "\n".join(head) + "\n"
    for lo in range(0, len(columns[0]), _BATCH_ROWS):
        cells = [_cells(column[lo:lo + _BATCH_ROWS]) for column in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def table_text(head: list[str], columns) -> str:
    """``head`` lines, then one row per index of the 1-D ``columns``.

    Cells are ``repr`` of the Python value: integers as digits, floats as
    the shortest decimal that round-trips (``_fmt``), and None as an empty
    cell (an undefined R², or no validation MAE).
    """
    return "".join(_table_pieces(head, columns))


def _write_table(path, head: list[str], columns) -> None:
    """Write `table_text` to `path`, formatting _BATCH_ROWS rows at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_table_pieces(head, columns))


def _record_columns(records, header: str) -> list[list]:
    """One column per field of `header`, read off the attribute of that name."""
    return [[getattr(record, name) for record in records] for name in header.split(",")]


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
    ids = np.unique(nodes)
    key = np.searchsorted(ids, nodes)
    key += times * ids.size
    r = _first_repeat(key)
    if r >= 0:
        raise _err(path, None, f"duplicate row for time {times[r]}, node {nodes[r]}")
    # the keys are distinct and below t_count * ids.size, so a shortfall is
    # a missing row
    if key.size < t_count * ids.size:
        present = np.bincount(key, minlength=t_count * ids.size)
        t, k = divmod(int(np.argmin(present)), ids.size)
        raise _err(path, None, f"missing row for time {t}, node {ids[k]}")
    values = np.empty((t_count * ids.size, len(value_columns)))
    for j, column in enumerate(value_columns):
        values[key, j] = column
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
    """Read grid dynamics; cell ids must be dense. Returns (wind, emissions).

    The parsed columns are dropped once assembled, before the two
    contiguous outputs are copied out of the assembled values.
    """
    ids, values = _assemble(path, *_read_table(path, "time,cell_id,u_ms,v_ms,emission",
                                               "iifff")[2])
    if not np.array_equal(ids, np.arange(len(ids))):
        raise _err(path, None, f"cell_ids must be dense 0..{len(ids) - 1}")
    return values[:, :, :2].copy(), values[:, :, 2].copy()


# ---------------------------------------------------------------------------
# metric tables


def write_metrics_log(path, records) -> None:
    """Write the per-epoch training log `epoch,train_loss,val_mae,val_rmse,val_r2`."""
    header = "epoch,train_loss,val_mae,val_rmse,val_r2"
    _write_table(path, [version_line("train-log"), header], _record_columns(records, header))


def report_text(node_scores, pooled) -> str:
    """Metric report rows `node_id,mae,rmse,r2`; the pooled row uses id -1."""
    header = "node_id,mae,rmse,r2"
    return table_text([version_line("report"), header],
                      _record_columns([*node_scores, pooled], header))


def write_report(path, node_scores, pooled) -> None:
    Path(path).write_text(report_text(node_scores, pooled), encoding="utf-8")


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
        "config": asdict(model.config),
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


def _check_meta(meta) -> None:
    """The provenance `infer` reads back: a mapping, with a positive cutoff if any."""
    if not isinstance(meta, dict):
        raise SchemaError(f"section 'meta' must be a mapping, got {type(meta).__name__}")
    if "threshold_km" in meta:
        threshold = config_value("meta", "threshold_km", meta["threshold_km"], float)
        if not threshold > 0:
            raise SchemaError(f"section 'meta': threshold_km must be positive, got {threshold!r}")


def _check_arrays(entries, config) -> None:
    """Refuse header arrays other than the config's parameters, norm:mean and
    norm:std, each once with a shape of JSON integers; the parameter table is
    drawn one entry past the header's count at most, so a huge one costs nothing."""
    from .network import N_CHANNELS

    listed = {}
    for name, shape in entries:
        if name in listed:
            raise ValueError(f"{name} is listed twice")
        listed[name] = shape
    table = [("param:" + name, list(shape))
             for name, shape in islice(config.param_shapes(), len(entries) + 1)]
    for name, shape in [*table, ("norm:mean", [N_CHANNELS]), ("norm:std", [N_CHANNELS])]:
        if name not in listed:
            raise ValueError(f"{name} is not listed")
        got = listed.pop(name)
        if got != shape or not all(type(size) is int for size in got):
            raise ValueError(f"{name} has shape {json.dumps(got)}, expected {shape}")
    if listed:
        raise ValueError(f"{next(iter(listed))} is not in the config")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; value-exact inverse of save_checkpoint."""
    from . import autodiff as ad
    from .network import KrigingModel, ModelConfig

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
        config = from_mapping(ModelConfig, header["config"], "config")
        entries = [(str(e["name"]), e["shape"]) for e in header["arrays"]]
        meta = header["meta"]
        _check_meta(meta)
        _check_arrays(entries, config)
    except (KeyError, TypeError, ValueError) as exc:
        raise _err(path, None, f"malformed checkpoint header: {exc}") from exc
    offset = end + 1
    buffers = {}
    for name, shape in entries:
        count = math.prod(shape)
        if offset + count * 8 > len(raw):
            raise _err(path, None, f"truncated buffer for {name}")
        buffers[name] = np.frombuffer(raw, dtype="<f8", count=count,
                                      offset=offset).reshape(shape).copy()
        offset += count * 8
    if offset != len(raw):
        raise _err(path, None, f"{len(raw) - offset} trailing bytes after buffers")
    for name, data in buffers.items():
        if not np.all(np.isfinite(data)):
            raise _err(path, None, f"invalid checkpoint contents: {name} has non-finite values")
    norm_mean, norm_std = buffers.pop("norm:mean"), buffers.pop("norm:std")
    if not np.all(norm_std > 0):
        k = int(np.argmin(norm_std > 0))
        raise _err(path, None, f"invalid checkpoint contents: norm:std[{k}] = "
                               f"{_fmt(norm_std[k])} is not positive")
    model = KrigingModel(config, params={name[len("param:"):]: ad.Tensor(data, requires_grad=True)
                                         for name, data in buffers.items()})
    return Checkpoint(model=model, norm_mean=norm_mean, norm_std=norm_std, meta=meta)


# ---------------------------------------------------------------------------
# run configuration


def config_value(section: str, key: str, value, kind: type):
    """`value` if it has the config type `kind`, else a SchemaError naming `key`.

    An int takes an int but not a bool, a bool takes only a bool, a float
    takes an int or a float within the finite float64 range, and a str
    takes only a str.
    """
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise SchemaError(f"section {section!r}: {key} must be {kind.__name__}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # false for nan too
        raise SchemaError(f"section {section!r}: {key} must be finite, got {value!r}")
    return value


def from_mapping(cls, data, section: str):
    """Build the config dataclass `cls` from a parsed mapping, checking every value.

    A `data` that is not a mapping, an unknown key, or a missing key that
    has no default is a SchemaError naming `section`. Each value must have
    its field's annotated type under the `config_value` rule; `X | None`
    also takes None, a dataclass field takes a mapping (checked as section
    `section.key`), and `tuple[X, ...]` takes a list whose items are each
    checked as `key[i]` (a dataclass item as section `section.key[i]`).
    Scalars pass through unconverted. Range checks stay in
    `cls.__post_init__`; a DataError they raise gets `section` put in front.
    """
    if not isinstance(data, dict):
        raise SchemaError(f"section {section!r} must be a mapping, got {type(data).__name__}")
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    for problem, keys in (("unknown", set(data) - {f.name for f in fields(cls)}),
                          ("missing", required - set(data))):
        if keys:
            raise SchemaError(f"section {section!r}: {problem} keys {sorted(keys, key=str)}")
    kinds = get_type_hints(cls)
    values = {key: _field_value(section, key, value, kinds[key]) for key, value in data.items()}
    try:
        return cls(**values)
    except DataError as exc:
        raise type(exc)(f"section {section!r}: {exc}") from exc


def _field_value(section: str, key: str, value, kind):
    """One field's value checked against its annotation `kind`."""
    args = get_args(kind)
    if get_origin(kind) is types.UnionType and type(None) in args:
        if value is None:
            return None
        (kind,) = (arg for arg in args if arg is not type(None))
        args = get_args(kind)
    if is_dataclass(kind):
        return from_mapping(kind, value, f"{section}.{key}")
    if get_origin(kind) is tuple and len(args) == 2 and args[1] is Ellipsis:
        if not isinstance(value, (list, tuple)):
            what = "mappings" if is_dataclass(args[0]) else args[0].__name__
            raise SchemaError(f"section {section!r}: {key} must be a list of {what}, "
                              f"got {value!r}")
        return tuple(_field_value(section, f"{key}[{i}]", item, args[0])
                     for i, item in enumerate(value))
    if kind not in (int, float, bool, str):
        raise TypeError(f"{section}.{key}: no config rule for the annotation {kind!r}")
    return config_value(section, key, value, kind)


# YAML 1.2 core-schema floats: a dot or an exponent, whose sign is optional.
# PyYAML's safe loader follows YAML 1.1, which reads 1e-3 and 1.0e308 as strings.
_YAML_FLOAT = re.compile(r"""^(?:[-+]?(?:\.[0-9]+|[0-9]+\.[0-9]*)(?:[eE][-+]?[0-9]+)?
                             |[-+]?[0-9]+[eE][-+]?[0-9]+
                             |[-+]?\.(?:inf|Inf|INF)
                             |\.(?:nan|NaN|NAN))$""", re.X)


def parse_yaml(text: str, error: type[Exception], where: str):
    """YAML `text` read with safe tags and YAML 1.2 floats.

    A syntax error, or a scalar PyYAML cannot convert (an int of over 4300
    digits, a bad date), is raised as `error("<where>: <details>")`.
    """
    import yaml

    float_tag = "tag:yaml.org,2002:float"

    class Loader(yaml.SafeLoader):
        yaml_implicit_resolvers = {
            first: [(tag, rx) for tag, rx in resolvers if tag != float_tag]
            for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()}

    Loader.add_implicit_resolver(float_tag, _YAML_FLOAT, list("-+0123456789."))
    try:
        return yaml.load(text, Loader=Loader)
    except (yaml.YAMLError, ValueError) as exc:
        raise error(f"{where}: {exc}") from exc


def load_config(path) -> dict:
    """Read the run configuration file as a mapping for `from_mapping`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    data = parse_yaml(text, SchemaError, f"{path}: invalid config syntax")
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise _err(path, None, f"config root must be a mapping, got {type(data).__name__}")
    return data
