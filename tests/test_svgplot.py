import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qdmfluor import svgplot


def test_nice_ticks_cover_range_with_round_steps():
    ticks = svgplot.nice_ticks(0.0, 1.0)
    assert ticks[0] >= 0.0 and ticks[-1] <= 1.0
    assert 0.0 in ticks
    steps = np.diff(ticks)
    assert np.allclose(steps, steps[0])
    ticks = svgplot.nice_ticks(-0.35, 0.35)
    assert any(abs(t) < 1e-12 for t in ticks)


def test_nice_ticks_give_the_ends_when_no_step_resolves_the_span():
    assert svgplot.nice_ticks(1e16, 1.0000000000000002e16) == [1e16, 1.0000000000000002e16]
    assert svgplot.nice_ticks(-1e16, -1e16 + 2.0) == [-1e16, -1e16 + 2.0]
    assert svgplot.nice_ticks(0.0, 5e-324) == [0.0, 5e-324]
    assert svgplot.nice_ticks(-5e-324, 5e-324) == [-5e-324, 5e-324]
    assert svgplot.nice_ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]



def test_nice_ticks_of_an_overflowing_span_are_finite_and_in_range():
    for lo, hi in ((-1e308, 1e308), (-1.7976931348623157e308, 1.7976931348623157e308), (-1e308, 8e307)):
        ticks = svgplot.nice_ticks(lo, hi)
        assert len(ticks) >= 2 and 0.0 in ticks
        assert all(lo <= t <= hi for t in ticks)


def test_line_chart_structure_and_ranges():
    x = np.linspace(-0.35, 0.35, 101)
    y = 1.0 / (1.0 + (x / 0.01) ** 2)
    svg = svgplot.line_chart(x, [("", y)], x_label="delta_prime (eV)", y_label="intensity (arb.)")
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert 'data-x-range="-0.35,0.35"' in svg
    assert "<polyline" in svg
    assert "delta_prime (eV)" in svg and "intensity (arb.)" in svg
    assert "<text" in svg  # tick labels present


def test_line_chart_multi_series_gets_legend_and_colors():
    x = np.linspace(0.0, 1.0, 11)
    svg = svgplot.line_chart(x, [("a", x), ("b", 1.0 - x)])
    assert svg.count("<polyline") == 2
    assert ">a</text>" in svg and ">b</text>" in svg
    assert "#1f77b4" in svg and "#d62728" in svg


def test_line_chart_determinism():
    x = np.linspace(0.0, 1.0, 51)
    y = np.sin(x)
    assert svgplot.line_chart(x, [("", y)]) == svgplot.line_chart(x, [("", y)])


def test_line_chart_validation():
    with pytest.raises(ValueError):
        svgplot.line_chart(np.array([0.0]), [("", np.array([1.0]))])
    with pytest.raises(ValueError):
        svgplot.line_chart(np.array([0.0, 1.0]), [])
    with pytest.raises(ValueError):
        svgplot.line_chart(np.array([0.0, 1.0]), [("", np.array([1.0]))])


def test_heatmap_cells_and_orientation():
    x = np.linspace(-0.3, 0.3, 5)
    y = np.linspace(0.0, 0.06, 3)
    values = np.arange(15, dtype=float).reshape(3, 5)
    svg = svgplot.heatmap(x, y, values, x_label="delta_prime (eV)", y_label="delta (eV)")
    assert svg.count('<rect x="') == 15 + 1  # cells plus axis frame
    assert 'data-y-range="0.0,0.06"' in svg
    assert "delta (eV)" in svg


def test_heatmap_max_pool_binning_caps_cell_count():
    x = np.linspace(-0.35, 0.35, 7001)
    y = np.linspace(0.0, 0.06, 241)
    values = np.zeros((241, 7001))
    values[100, 3500] = 7.0  # single hot cell must survive max pooling
    svg = svgplot.heatmap(x, y, values)
    n_cells = svg.count("<rect x=") - 1
    assert n_cells <= 512 * 256
    assert "#fde725" in svg  # the hottest color appears


def test_heatmap_color_ramp_monotone_anchors():
    low, mid, high, below, above = (f"#{c:06x}" for c in svgplot._colors(np.array([0.0, 0.5, 1.0, -1.0, 2.0])).tolist())
    assert low == below == "#440154"  # fractions outside [0, 1] take the end colours
    assert high == above == "#fde725"
    assert mid == "#21918c"  # the middle stop, (33, 145, 140)


def _neighbours(value):
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


@settings(max_examples=300, deadline=None)
# Any float, pixels in the digit table's range, and multiples of a half-cent: the ties and near-ties.
@given(values=st.lists(st.one_of(st.floats(), st.floats(0.0, 1000.0), st.integers(0, 200000).map(lambda k: k / 200)), max_size=32))
@example(values=[-0.0, -0.001, 0.0, 5e-324, -5e-324])
# Exact ties at a half-cent, which round to even, and the floats either side of them.
@example(values=_neighbours(40.125) + _neighbours(40.375) + _neighbours(0.005) + _neighbours(0.125))
# The top of the digit table: 999.995 rounds to 1000.00.
@example(values=_neighbours(999.995) + _neighbours(999.99) + _neighbours(1000.0) + [1e308, math.inf, -math.inf, math.nan])
def test_fmt_pieces_join_to_fmt(values):
    whole, rest = svgplot._fmt_pieces(np.array(values, dtype=float))
    assert [w + r for w, r in zip(whole, rest)] == [svgplot._fmt(v) for v in values]


def test_pool_max_exact_on_small_grid():
    values = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    pooled = svgplot._pool_max(values, max_rows=1, max_cols=2)
    assert pooled.shape == (1, 2)
    assert pooled.tolist() == [[6.0, 8.0]]


def _reference_points(x, series):
    """Polyline points as line_chart built them one point at a time.

    The frame arithmetic of _Frame.x / _Frame.y and the _fmt format, applied
    to each (x, y) pair of numpy scalars in turn.  An empty range widens by
    + 1.0, or to zero where + 1.0 rounds away; a range whose span overflows
    maps halved values.
    """

    def widen(lo, hi):
        if hi <= lo:
            hi = lo + 1.0
            if hi == lo:
                lo, hi = min(lo, 0.0), max(lo, 0.0)
        return lo, hi

    x_lo, x_hi = widen(float(x.min()), float(x.max()))
    y_all = np.concatenate(series)
    y_lo, y_hi = widen(float(y_all.min()), float(y_all.max()))
    px_lo, px_hi = 78, 720 - 24
    py_lo, py_hi = 480 - 56, 40

    def fraction(v, lo, hi):
        if math.isinf(hi - lo):
            return (v / 2 - lo / 2) / (hi / 2 - lo / 2)
        return (v - lo) / (hi - lo)

    def px(v):
        return px_lo + fraction(v, x_lo, x_hi) * (px_hi - px_lo)

    def py(v):
        return py_lo + fraction(v, y_lo, y_hi) * (py_hi - py_lo)

    return [" ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y)) for y in series]


_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e-5, 1e-4,
            9.999999999999999e-05, 1.7976931348623157e308, -1.7976931348623157e308]
_VALUES = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(
    data=st.integers(2, 40).flatmap(
        lambda n: st.lists(st.lists(_VALUES, min_size=n, max_size=n), min_size=2, max_size=4)
    )
)
@example(data=[[-0.0, 5e-324, 1e-4, 1e16], [1e-5, 9.999999999999999e-05, -0.0, 1.7976931348623157e308]])
@example(data=[[-1.7976931348623157e308, 1.7976931348623157e308], [2.2250738585072014e-308, -5e-324]])
@example(data=[[0.0, 1.0], [1e17, 1e17]])  # a constant that + 1.0 cannot widen
@example(data=[[-1e308, 1e308], [-1e17, -1e17]])
def test_line_chart_points_match_per_point_reference(data):
    x = np.array(data[0])
    series = [np.array(y) for y in data[1:]]
    svg = svgplot.line_chart(x, [(f"s{k}", y) for k, y in enumerate(series)])
    expected = _reference_points(x, series)
    assert re.findall(r'<polyline points="([^"]*)"', svg) == expected
    assert "nan" not in svg and "inf" not in svg


def _reference_color(frac):
    """A cell's colour as heatmap picked it, one cell at a time, on the _HEAT_STOPS ramp."""
    frac = min(max(frac, 0.0), 1.0)
    for (lo_p, lo_c), (hi_p, hi_c) in zip(svgplot._HEAT_STOPS, svgplot._HEAT_STOPS[1:]):
        if frac <= hi_p:
            w = 0.0 if hi_p == lo_p else (frac - lo_p) / (hi_p - lo_p)
            rgb = tuple(round(a + (b - a) * w) for a, b in zip(lo_c, hi_c))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % svgplot._HEAT_STOPS[-1][1]


def _reference_heatmap(x, y, values):
    """heatmap's SVG built one cell at a time with _reference_color; the frame and axes are the module's."""
    cells = svgplot._pool_max(values, svgplot._MAX_HEAT_ROWS, svgplot._MAX_HEAT_COLS)
    n_rows, n_cols = cells.shape
    top = float(cells.max())
    scale = top if top > 0.0 else 1.0
    frame = svgplot._Frame(float(x.min()), float(x.max()), float(y.min()), float(y.max()))
    cell_w = (frame.px_hi - frame.px_lo) / n_cols
    cell_h = (frame.py_lo - frame.py_hi) / n_rows
    body = []
    for r in range(n_rows):
        py = frame.py_lo - (r + 1) * cell_h
        for c in range(n_cols):
            with np.errstate(over="ignore"):
                color = _reference_color(cells[r, c] / scale)
            px = frame.px_lo + c * cell_w
            body.append(
                f'<rect x="{svgplot._fmt(px)}" y="{svgplot._fmt(py)}" width="{svgplot._fmt(cell_w + 0.5)}" '
                f'height="{svgplot._fmt(cell_h + 0.5)}" fill="{color}"/>'
            )
    parts = []
    svgplot._axes(parts, frame, "", "")
    return svgplot._svg(body + parts, (frame.x_lo, frame.x_hi), (frame.y_lo, frame.y_hi))


@settings(max_examples=100, deadline=None)
@given(values=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12), elements=_VALUES))
@example(values=np.arange(5.0)[None])  # every stop of the ramp, exactly
@example(values=np.arange(4097.0).reshape(17, 241) / 4096)  # the 1/4096 lattice, all of [0, 1]
@example(values=np.zeros((3, 4)))
@example(values=np.random.default_rng(7).normal(size=(300, 600)))  # above the cell budget: max-pooled
@example(values=np.array([[-1e308, 1e-300], [0.0, -0.0]]))  # a value far below a tiny top
def test_heatmap_matches_per_cell_reference(values):
    rows, cols = values.shape
    x = np.linspace(-0.35, 0.35, cols)
    y = np.linspace(0.0, 0.06, rows)
    assert svgplot.heatmap(x, y, values) == _reference_heatmap(x, y, values)


@pytest.mark.parametrize("x, y, values", [
    (np.zeros(3), np.zeros(2), np.zeros((3, 2))),  # rows and columns swapped
    (np.zeros(0), np.zeros(2), np.zeros((2, 0))),  # no columns
])
def test_heatmap_refuses_a_grid_of_another_shape(x, y, values):
    with pytest.raises(ValueError) as err:
        svgplot.heatmap(x, y, values)
    assert str(err.value) == "values must have shape (len(y), len(x))"
