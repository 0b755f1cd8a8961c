"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder replaces library functions by timing wrappers in the module
namespaces where callers look them up: ``qdmfluor.cli`` and
``qdmfluor.sweep`` bind their imports at import time, and ``cli`` reaches
``svgplot`` through the module.  Each call becomes one span
``(id, name, start, end, parent, run_id)``, kept in memory and written out
when the run ends.  A layer's self time is its spans' duration minus the
union of their children's intervals, so children that overlap in pool
threads are not subtracted twice.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import threading
import time
from typing import Callable

from qdmfluor import cli, svgplot, sweep

CLI_COMMANDS = ("spectrum", "transitions", "branches", "map", "tempseries", "plot")


class Recorder:
    """Collects spans and counters from one calling thread and its pool threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.run_id = 0
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int, list[int]]:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        # A pool thread has no open span of its own; its work belongs to the
        # span the single calling thread has open.
        outer = stack or self._stacks.get(self._main)
        span_id = next(self._ids)
        parent = outer[-1] if outer else 0
        stack.append(span_id)
        return span_id, parent, stack

    def _close(self, name: str, start: float, span_id: int, parent: int, stack: list[int]) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.run_id))

    @contextlib.contextmanager
    def request(self, name: str):
        """One benchmark operation: a new run id and its root span."""
        self.run_id += 1
        opened = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start, *opened)

    def wrap(self, module, attr: str, name: str, count: Callable | None = None) -> None:
        """Replace module.attr by a timing wrapper; count(counter, args, result) adds counters."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start, *opened)
            if count is not None:
                count(self.counts, args, result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span_id,name,start,end,parent,run_id\n")
            for span_id, name, start, end, parent, run_id in self.spans:
                fh.write(f"{span_id},{name},{start!r},{end!r},{parent},{run_id}\n")


def _count_lorentz(counts, args, result) -> None:
    trans, grid = args[0], args[3]
    counts["spectrum.lorentz_evals"] += sum(tr.lum != 0.0 for tr in trans) * grid.npoints


def _count_rows(rows_of: Callable) -> Callable:
    def count(counts, args, result) -> None:
        counts["sweep.rows"] += rows_of(result)

    return count


def _count_svg(counts, args, result) -> None:
    counts["svgplot.bytes"] += len(result)
    # One rect per heatmap cell, plus the plot frame; line charts have no cells.
    counts["svgplot.cells"] += max(result.count("<rect x=") - 1, 0)


def instrument(rec: Recorder) -> None:
    """Wrap every layer boundary the cli and sweep modules call through."""
    rec.wrap(cli, "parse_config", "config.parse_config")
    for module in (cli, sweep):
        rec.wrap(module, "reduced_hamiltonian", "core.reduced_hamiltonian")
        rec.wrap(module, "diagonalize", "core.diagonalize")
        rec.wrap(module, "transitions", "spectrum.transitions")
        rec.wrap(module, "synthesize", "spectrum.synthesize", _count_lorentz)
    sweeps = {
        "dressed_energy_curves": lambda r: r.energies.shape[0],
        "transition_branches": lambda r: r.a.shape[0],
        "intensity_map": lambda r: r.values.shape[0],
        "temperature_series": len,
    }
    for attr, rows_of in sweeps.items():
        for module in (cli, sweep):
            if hasattr(module, attr):
                rec.wrap(module, attr, f"sweep.{attr}", _count_rows(rows_of))
    rec.wrap(svgplot, "heatmap", "svgplot.heatmap", _count_svg)
    rec.wrap(svgplot, "line_chart", "svgplot.line_chart", _count_svg)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    out = {}
    for span_id, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_metrics(spans: list[tuple], counts: collections.Counter) -> dict[str, float]:
    """Per-layer totals of one traced iteration (without trace.overhead_s)."""
    busy: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    own: collections.Counter = collections.Counter()
    selfs = self_times(spans)
    for span_id, name, start, end, _, _ in spans:
        busy[name] += end - start
        calls[name] += 1
        own[name] += selfs[span_id]
    out = {
        "config.parse_s": busy["config.parse_config"],
        "config.parse_calls": calls["config.parse_config"],
        "core.diag_s": busy["core.reduced_hamiltonian"] + busy["core.diagonalize"],
        "core.diag_calls": calls["core.diagonalize"],
        "spectrum.transitions_s": busy["spectrum.transitions"],
        "spectrum.transitions_calls": calls["spectrum.transitions"],
        "spectrum.synthesize_s": busy["spectrum.synthesize"],
        "sweep.intensity_map_s": busy["sweep.intensity_map"],
        "sweep.branches_s": busy["sweep.transition_branches"],
        "sweep.curves_s": busy["sweep.dressed_energy_curves"],
        "sweep.tempseries_s": busy["sweep.temperature_series"],
        "sweep.self_s": sum(v for k, v in own.items() if k.startswith("sweep.")),
        "cli.self_s": sum(own[f"cli.{cmd}"] for cmd in CLI_COMMANDS),
        **{f"cli.{cmd}.self_s": own[f"cli.{cmd}"] for cmd in CLI_COMMANDS},
        "svgplot.heatmap_s": busy["svgplot.heatmap"],
        "svgplot.line_chart_s": busy["svgplot.line_chart"],
    }
    for key in ("spectrum.lorentz_evals", "sweep.rows", "cli.bytes_out", "cli.bytes_in",
                "cli.rows_out", "svgplot.cells", "svgplot.bytes"):
        out[key] = counts[key]
    return out


def physics_share(spans: list[tuple]) -> float:
    """Share of the traced time not spent in cli, config, svgplot or the harness.

    Computed as one minus the other layers' self time, because physics spans
    in pool threads overlap and their own times add up to more than the wall.
    """
    selfs = self_times(spans)
    total = sum(end - start for _, _, start, end, parent, _ in spans if not parent)
    other = sum(selfs[s[0]] for s in spans if s[1].split(".")[0] not in ("core", "spectrum", "sweep"))
    return 1.0 - other / total if total > 0 else 0.0
