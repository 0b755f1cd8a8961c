"""Minimal deterministic SVG charts: polyline plots and cell heatmaps.

Output is a single self-contained SVG string with axes, tick labels, and
the data either as polylines or as filled cells.  No timestamps, no
randomness: identical inputs give identical bytes.  The root element
carries data-x-range / data-y-range attributes so files are
self-describing.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart", "heatmap", "nice_ticks"]

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 78
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 56

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf", "#7f7f7f")

# Dark-blue to yellow ramp for heatmap cells.
_HEAT_STOPS = (
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
)
_STOP_POS, _STOP_RGB = (np.array(column) for column in zip(*_HEAT_STOPS))

_MAX_HEAT_COLS = 512
_MAX_HEAT_ROWS = 256
_TICKS = 6


def nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] with a 1-2-5 step, at most _TICKS of them."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo, hi]
    span = hi - lo
    if math.isinf(span):  # the span overflows: tick half the range, then double
        return [2.0 * tick for tick in nice_ticks(lo / 2, hi / 2)]
    raw_step = span / (_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw_step)) if raw_step > 0.0 else 0.0
    if mag == 0.0:  # a subnormal span: no step resolves it
        return [lo, hi]
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= _TICKS - 1 + 1e-9:
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        if value + step == value:  # the span is below the ulp of its ends
            return [lo, hi]
        value += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.2f}"


# The text of _fmt for 0 <= v < 1000, cut at the point: the whole part, then the cents.
_WHOLES = np.array([str(k) for k in range(1000)], dtype=object)
_CENTS = np.array([f".{k:02d}" for k in range(100)], dtype=object)


def _fmt_pieces(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text of _fmt for each value as two object arrays, whole part and rest: whole + rest == _fmt(v).

    Most pixels are in [0, 1000), where q = rint(v * 100) gives the cents:
    v * 100 is within 1e-11 of the exact product there, so q rounds as the
    exact decimal does unless v is within 1e-6 of a half-cent.  Those
    values, and negatives (-0.0 included), NaN and values whose cents reach
    1000.00, are written by _fmt whole.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        cents = values * 100.0
        q = np.rint(cents)
        table = ~np.signbit(values) & (q < 100000.0) & (np.abs(cents - np.floor(cents) - 0.5) > 1e-4)
    q = np.where(table, q, 0.0).astype(np.intp)
    whole, rest = _WHOLES[q // 100], _CENTS[q % 100]
    for i in np.flatnonzero(~table).tolist():
        whole[i], rest[i] = _fmt(values[i]), ""
    return whole, rest


def _fmt_tick(value: float) -> str:
    return f"{value:g}"


def _colors(frac: np.ndarray) -> np.ndarray:
    """Ramp colours of fractions (clipped to [0, 1]) as 0xRRGGBB integers."""
    frac = np.clip(frac, 0.0, 1.0)
    hi = np.maximum(np.searchsorted(_STOP_POS, frac), 1)  # the first stop at or above frac
    w = (frac - _STOP_POS[hi - 1]) / (_STOP_POS[hi] - _STOP_POS[hi - 1])
    rgb = np.rint(_STOP_RGB[hi - 1] + (_STOP_RGB[hi] - _STOP_RGB[hi - 1]) * w[..., None])
    return rgb.astype(np.int64) @ np.array([1 << 16, 1 << 8, 1])


def _widen(lo, hi):
    """An axis range: an empty one widens by + 1.0, or to zero where + 1.0 rounds away."""
    if hi <= lo:
        hi = lo + 1.0
        if hi == lo:  # + 1.0 rounds away once |lo| reaches about 2**53
            lo, hi = min(lo, 0.0), max(lo, 0.0)
    return lo, hi


def _fraction(v, lo, hi):
    """(v - lo) / (hi - lo), from halved terms where hi - lo overflows."""
    if math.isinf(hi - lo):
        v, lo, hi = v / 2, lo / 2, hi / 2
    return (v - lo) / (hi - lo)


class _Frame:
    """Maps data coordinates, scalars or arrays, into the plot rectangle (y grows upward)."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi = _widen(x_lo, x_hi)
        self.y_lo, self.y_hi = _widen(y_lo, y_hi)
        self.px_lo = _MARGIN_L
        self.px_hi = _WIDTH - _MARGIN_R
        self.py_lo = _HEIGHT - _MARGIN_B
        self.py_hi = _MARGIN_T

    def x(self, v: float) -> float:
        return self.px_lo + _fraction(v, self.x_lo, self.x_hi) * (self.px_hi - self.px_lo)

    def y(self, v: float) -> float:
        return self.py_lo + _fraction(v, self.y_lo, self.y_hi) * (self.py_hi - self.py_lo)


def _axes(parts: list[str], frame: _Frame, x_label: str, y_label: str) -> None:
    parts.append(
        f'<rect x="{frame.px_lo}" y="{frame.py_hi}" width="{frame.px_hi - frame.px_lo}" '
        f'height="{frame.py_lo - frame.py_hi}" fill="none" stroke="#333" stroke-width="1"/>'
    )
    for tick in nice_ticks(frame.x_lo, frame.x_hi):
        if not frame.x_lo <= tick <= frame.x_hi:
            continue
        px = frame.x(tick)
        parts.append(f'<line x1="{_fmt(px)}" y1="{frame.py_lo}" x2="{_fmt(px)}" y2="{frame.py_lo + 5}" stroke="#333"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{frame.py_lo + 18}" font-size="11" text-anchor="middle" '
            f'fill="#333">{_fmt_tick(tick)}</text>'
        )
    for tick in nice_ticks(frame.y_lo, frame.y_hi):
        if not frame.y_lo <= tick <= frame.y_hi:
            continue
        py = frame.y(tick)
        parts.append(f'<line x1="{frame.px_lo - 5}" y1="{_fmt(py)}" x2="{frame.px_lo}" y2="{_fmt(py)}" stroke="#333"/>')
        parts.append(
            f'<text x="{frame.px_lo - 8}" y="{_fmt(py + 4)}" font-size="11" text-anchor="end" '
            f'fill="#333">{_fmt_tick(tick)}</text>'
        )
    if x_label:
        mid_x = (frame.px_lo + frame.px_hi) / 2
        parts.append(
            f'<text x="{_fmt(mid_x)}" y="{_HEIGHT - 14}" font-size="13" text-anchor="middle" fill="#000">{x_label}</text>'
        )
    if y_label:
        mid_y = (frame.py_lo + frame.py_hi) / 2
        parts.append(
            f'<text x="20" y="{_fmt(mid_y)}" font-size="13" text-anchor="middle" fill="#000" '
            f'transform="rotate(-90 20 {_fmt(mid_y)})">{y_label}</text>'
        )


def _svg(parts: list[str], x_range: tuple[float, float], y_range: tuple[float, float]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" data-x-range="{x_range[0]!r},{x_range[1]!r}" '
        f'data-y-range="{y_range[0]!r},{y_range[1]!r}">'
    )
    body = "".join(parts)
    return f'{head}<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>{body}</svg>\n'


def line_chart(
    x: np.ndarray,
    series: list[tuple[str, np.ndarray]],
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Polyline chart of one or more series over a shared x axis."""
    x = np.asarray(x, dtype=float)
    if x.size < 2 or not series:
        raise ValueError("line chart needs at least two x samples and one series")
    y_all = np.concatenate([np.asarray(y, dtype=float) for _, y in series])
    frame = _Frame(float(x.min()), float(x.max()), float(y_all.min()), float(y_all.max()))

    parts: list[str] = []
    body: list[str] = []
    # The points as one row of tokens each, "x" ".xx" "," "y" ".yy" " ": the x columns, shared by
    # every series, are filled once, and each series fills its y columns.
    tokens = np.empty((x.size, 6), dtype=object)
    tokens[:, 0], tokens[:, 1] = _fmt_pieces(frame.x(x))
    tokens[:, 2], tokens[:, 5], tokens[-1, 5] = ",", " ", ""
    for idx, (label, y) in enumerate(series):
        y = np.asarray(y, dtype=float)
        if y.shape != x.shape:
            raise ValueError(f"series {label!r} length does not match x")
        tokens[:, 3], tokens[:, 4] = _fmt_pieces(frame.y(y))
        points = "".join(tokens.ravel().tolist())
        color = _PALETTE[idx % len(_PALETTE)]
        body.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        if len(series) > 1 and label:
            ly = _MARGIN_T + 14 + 14 * idx
            body.append(f'<line x1="{frame.px_hi - 110}" y1="{ly - 4}" x2="{frame.px_hi - 90}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            body.append(f'<text x="{frame.px_hi - 84}" y="{ly}" font-size="11" fill="#333">{label}</text>')
    _axes(parts, frame, x_label, y_label)
    parts.extend(body)
    return _svg(parts, (frame.x_lo, frame.x_hi), (frame.y_lo, frame.y_hi))


def _pool_max(values: np.ndarray, max_rows: int, max_cols: int) -> np.ndarray:
    """Max-pool a 2-d grid down to the cell budget; peaks survive binning."""
    rows, cols = values.shape
    row_bin = max(1, math.ceil(rows / max_rows))
    col_bin = max(1, math.ceil(cols / max_cols))
    if row_bin == 1 and col_bin == 1:
        return values
    pad_r = (-rows) % row_bin
    pad_c = (-cols) % col_bin
    padded = np.pad(values, ((0, pad_r), (0, pad_c)), mode="edge")
    shaped = padded.reshape(padded.shape[0] // row_bin, row_bin, padded.shape[1] // col_bin, col_bin)
    return shaped.max(axis=(1, 3))


def heatmap(
    x: np.ndarray,
    y: np.ndarray,
    values: np.ndarray,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Cell heatmap of values[row, col] over (y[row], x[col]), y ascending upward."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (y.size, x.size) or x.size < 1 or y.size < 1:
        raise ValueError("values must have shape (len(y), len(x))")

    cells = _pool_max(values, _MAX_HEAT_ROWS, _MAX_HEAT_COLS)
    n_rows, n_cols = cells.shape
    top = float(cells.max())
    scale = top if top > 0.0 else 1.0

    frame = _Frame(float(x.min()), float(x.max()), float(y.min()), float(y.max()))
    plot_w = frame.px_hi - frame.px_lo
    plot_h = frame.py_lo - frame.py_hi
    cell_w = plot_w / n_cols
    cell_h = plot_h / n_rows

    with np.errstate(over="ignore"):  # a value far below a tiny top divides to -inf, which clips to 0
        colors = _colors(cells / scale).tolist()
    xs = [_fmt(frame.px_lo + c * cell_w) for c in range(n_cols)]
    size = f'width="{_fmt(cell_w + 0.5)}" height="{_fmt(cell_h + 0.5)}"'
    parts: list[str] = []
    body: list[str] = []
    for r, row in enumerate(colors):
        # Row 0 is the lowest y value; draw it at the bottom.
        py = frame.py_lo - (r + 1) * cell_h
        body.extend(map(f'<rect x="{{}}" y="{_fmt(py)}" {size} fill="#{{:06x}}"/>'.format, xs, row))
    _axes(parts, frame, x_label, y_label)
    # Cells first so the axis frame stays visible on top.
    return _svg(body + parts, (frame.x_lo, frame.x_hi), (frame.y_lo, frame.y_hi))
