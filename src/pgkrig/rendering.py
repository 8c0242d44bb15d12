"""Grayscale raster rendering in the text portable graymap format (P2).

Panels meant for side-by-side comparison should be rendered with the
same explicit value range, otherwise each image auto-scales to its own
extremes.
"""

from __future__ import annotations

import textwrap

import numpy as np

from . import DataError
from .dataio import GridGeometry, version_line

_MAX_GRAY = 255
_MAX_LINE = 70  # graymap readers may assume lines of at most 70 characters


class RenderError(DataError, ValueError):
    """A field cannot be rendered as requested."""


def field_frame(values: np.ndarray, geometry: GridGeometry, hour: int) -> np.ndarray:
    """Pick one hour of a (T, cells) series and shape it as (ny, nx).

    Cell k maps to (iy, ix) = (k // nx, k % nx); the frame keeps grid
    orientation, row iy = 0 is the southern edge.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise RenderError(f"field must be (T, cells), got shape {values.shape}")
    t_hours, cells = values.shape
    if cells != geometry.n_cells:
        raise RenderError(
            f"field covers {cells} cells but the grid has {geometry.n_cells}; "
            "rendering needs the complete raster")
    if not 0 <= hour < t_hours:
        raise RenderError(f"hour {hour} outside the field's 0..{t_hours - 1}")
    return values[hour].reshape(geometry.ny, geometry.nx)


def render_pgm(frame: np.ndarray, vmin: float | None = None,
               vmax: float | None = None) -> str:
    """Render a (ny, nx) frame to P2 text, north up.

    Args:
        frame: grid-oriented values; row 0 is the southern edge.
        vmin: value mapped to black; defaults to the frame minimum.
        vmax: value mapped to white; defaults to the frame maximum.

    Returns:
        The full graymap file contents, version-stamped.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2 or frame.size == 0:
        raise RenderError(f"frame must be a non-empty 2-D array, got shape {frame.shape}")
    if not np.all(np.isfinite(frame)):
        raise RenderError("frame contains non-finite values")
    lo = float(frame.min()) if vmin is None else float(vmin)
    hi = float(frame.max()) if vmax is None else float(vmax)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise RenderError(f"scale bounds ({lo}, {hi}) must be finite")
    if lo > hi:
        raise RenderError(f"vmin {lo} exceeds vmax {hi}")
    span = hi - lo
    if span == 0.0:
        pixels = np.zeros(frame.shape, dtype=np.int64)
    else:
        frame = np.clip(frame, lo, hi)  # beyond the bounds the pixels saturate anyway
        if np.isinf(span):  # halve every term, so frame - lo cannot overflow either
            frame, lo, span = frame / 2, lo / 2, hi / 2 - lo / 2
        pixels = np.clip(np.rint((frame - lo) / span * _MAX_GRAY), 0, _MAX_GRAY)
        pixels = pixels.astype(np.int64)
    ny, nx = frame.shape
    lines = ["P2", version_line("pgm"), f"{nx} {ny}", str(_MAX_GRAY)]
    for iy in range(ny - 1, -1, -1):  # image rows run north to south
        row = " ".join(str(p) for p in pixels[iy])
        lines.extend(textwrap.wrap(row, _MAX_LINE))
    return "\n".join(lines) + "\n"


def parse_pgm(text: str) -> np.ndarray:
    """Read P2 text back into a (ny, nx) pixel array, image orientation."""
    tokens: list[str] = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise RenderError("not a P2 graymap")
    try:
        nx, ny, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        pixels = np.array([int(t) for t in tokens[4:]], dtype=np.int64)
    except (IndexError, ValueError) as exc:
        raise RenderError(f"malformed graymap: {exc}") from exc
    if maxval != _MAX_GRAY or pixels.size != nx * ny:
        raise RenderError(
            f"malformed graymap: maxval {maxval}, {pixels.size} pixels for {nx}x{ny}")
    if pixels.size and (pixels.min() < 0 or pixels.max() > maxval):
        raise RenderError("pixel outside 0..maxval")
    return pixels.reshape(ny, nx)
