"""Portable graymap rendering: scaling, orientation, and format shape."""

import numpy as np
import pytest

from pgkrig.dataio import GridGeometry
from pgkrig.rendering import RenderError, field_frame, parse_pgm, render_pgm


def test_constant_field_renders_uniform_image():
    text = render_pgm(np.full((4, 5), 7.25))
    pixels = parse_pgm(text)
    assert pixels.shape == (4, 5)
    assert np.all(pixels == pixels[0, 0])


def test_header_shape_and_version():
    text = render_pgm(np.zeros((2, 3)))
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("# format: pgkrig-v1")
    assert lines[2] == "3 2"
    assert lines[3] == "255"


def test_full_range_hits_black_and_white():
    frame = np.array([[0.0, 5.0], [10.0, 2.5]])
    pixels = parse_pgm(render_pgm(frame))
    assert pixels.min() == 0 and pixels.max() == 255


def test_linear_scaling_midpoint():
    frame = np.array([[0.0, 5.0, 10.0]])
    pixels = parse_pgm(render_pgm(frame))
    assert list(pixels[0]) == [0, 128, 255]  # round(127.5) -> 128


def test_fixed_bounds_make_panels_comparable():
    # same value maps to the same gray level under shared explicit bounds
    frame_a = np.array([[2.0, 4.0]])
    frame_b = np.array([[2.0, 8.0]])
    pixels_a = parse_pgm(render_pgm(frame_a, vmin=0.0, vmax=10.0))
    pixels_b = parse_pgm(render_pgm(frame_b, vmin=0.0, vmax=10.0))
    assert pixels_a[0, 0] == pixels_b[0, 0] == 51  # 2/10 * 255


def test_values_outside_bounds_clip():
    frame = np.array([[-5.0, 50.0]])
    pixels = parse_pgm(render_pgm(frame, vmin=0.0, vmax=10.0))
    assert list(pixels[0]) == [0, 255]


def test_north_up_orientation():
    # the high-y grid row must be the first image row
    frame = np.array([[1.0, 1.0], [9.0, 9.0]])  # row 1 is the northern row
    pixels = parse_pgm(render_pgm(frame, vmin=0.0, vmax=9.0))
    assert pixels[0, 0] == 255  # north (frame row 1) rendered first
    assert pixels[1, 0] == round(255 / 9)


def test_long_rows_wrap_under_70_chars():
    rng = np.random.default_rng(0)
    text = render_pgm(rng.uniform(0, 300, size=(3, 64)))
    assert all(len(line) <= 70 for line in text.splitlines())
    assert parse_pgm(text).shape == (3, 64)


def test_deterministic_output():
    rng = np.random.default_rng(1)
    frame = rng.uniform(0, 9, size=(6, 7))
    assert render_pgm(frame) == render_pgm(frame)


def test_rejects_bad_bounds():
    with pytest.raises(RenderError, match="exceeds"):
        render_pgm(np.zeros((2, 2)), vmin=5.0, vmax=1.0)


def test_rejects_non_finite():
    frame = np.array([[1.0, np.nan]])
    with pytest.raises(RenderError, match="non-finite"):
        render_pgm(frame)


def test_field_frame_layout():
    geometry = GridGeometry(nx=3, ny=2, cell_km=1.0)
    values = np.arange(12, dtype=float).reshape(2, 6)  # T=2, 6 cells
    frame = field_frame(values, geometry, hour=1)
    # row-major cells: frame[iy, ix] = values[hour, iy*nx + ix]
    assert frame[0, 0] == 6.0 and frame[0, 2] == 8.0 and frame[1, 0] == 9.0


def test_field_frame_requires_complete_grid():
    geometry = GridGeometry(nx=3, ny=2, cell_km=1.0)
    with pytest.raises(RenderError, match="complete raster"):
        field_frame(np.zeros((2, 5)), geometry, hour=0)


def test_field_frame_hour_bounds():
    geometry = GridGeometry(nx=2, ny=2, cell_km=1.0)
    with pytest.raises(RenderError, match="outside"):
        field_frame(np.zeros((3, 4)), geometry, hour=3)


@pytest.mark.parametrize("frame, vmin, vmax, expect", [
    ([[1e308, -1e308]], None, None, [255, 0]),
    ([[0.0, 1e308, -1e308]], None, None, [128, 255, 0]),
    ([[-1.7e308, 1.7e308, 0.0]], None, None, [0, 255, 128]),
    ([[0.0, 5.0]], -1e308, 1e308, [128, 128]),
    ([[1e308, -1e308]], -1.0, 1.0, [255, 0]),
    ([[1e308, -1e308, 0.5]], 0.0, 1.0, [255, 0, 128]),
    ([[1.7e308]], -1.7e308, 0.0, [255]),
])
def test_scale_beyond_the_float_range_gives_valid_pixels(frame, vmin, vmax, expect):
    # hi - lo, or a value's distance from lo, overflows to inf
    pixels = parse_pgm(render_pgm(np.array(frame), vmin, vmax))
    assert list(pixels[0]) == expect


def test_pixels_within_the_float_range_are_unchanged():
    # the form the scaling took before bounds beyond the float range were handled
    rng = np.random.default_rng(3)
    for _ in range(200):
        frame = rng.normal(0.0, 10.0 ** rng.integers(-3, 300), size=(3, 4))
        lo, hi = np.sort(rng.normal(0.0, 10.0 ** rng.integers(-3, 300), size=2))
        for vmin, vmax in ((None, None), (lo, hi)):
            a = frame.min() if vmin is None else vmin
            b = frame.max() if vmax is None else vmax
            with np.errstate(over="ignore"):
                scaled = np.rint((frame - a) / (b - a) * 255)
            expect = np.clip(scaled, 0, 255).astype(np.int64)
            assert np.array_equal(parse_pgm(render_pgm(frame, vmin, vmax))[::-1], expect)
