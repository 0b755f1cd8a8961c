"""Command-line front end: config in, CSV tables and SVG plots out.

Subcommands: spectrum, transitions, branches, map, tempseries, plot.
Exit codes: 0 success, 1 configuration or input error, 2 I/O error.
CSV floats use the shortest round-trip decimal form, so re-parsing a file
reproduces the computed values exactly and repeated runs are byte
identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .spectrum import hwhm, linewidth, synthesize, transitions
from .sweep import BRANCH_LABELS, intensity_map, temperature_series, transition_branches
from .core import diagonalize, reduced_hamiltonian
from . import svgplot

__all__ = ["main"]

SPECTRUM_HEADER = ["delta_prime_ev", "intensity"]
TRANSITIONS_HEADER = ["i", "j", "kind", "delta_prime_ev", "luminosity", "hwhm_ev", "intensity"]
BRANCHES_HEADER = ["delta_ev", "i", "j", "delta_prime_ev"]
MAP_HEADER = ["delta_ev", "delta_prime_ev", "intensity"]


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _fnum(value: float) -> str:
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise _CliError(2, f"cannot write {path}: {exc}") from exc


def _load_config(args: argparse.Namespace) -> RunConfig:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise _CliError(2, f"cannot read config {args.config}: {exc}") from exc
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        raise _CliError(1, f"config error: {exc}") from exc
    return cfg.with_overrides(temp_k=getattr(args, "temp", None), delta_ev=getattr(args, "delta", None))


def _spectrum_components(cfg: RunConfig):
    dressed = diagonalize(reduced_hamiltonian(cfg.emitter(), cfg.drive()))
    trans = transitions(dressed, cfg.mu)
    gamma = linewidth(cfg.broadening(), cfg.temp_k)
    return trans, gamma


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    trans, gamma = _spectrum_components(cfg)
    grid = synthesize(trans, gamma, cfg.gamma_rad_ev, cfg.grid())
    rows = ([_fnum(x), _fnum(y)] for x, y in zip(grid.delta_prime, grid.intensity))
    _write_csv(Path(args.out or "spectrum.csv"), SPECTRUM_HEADER, rows)
    return 0


def cmd_transitions(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    trans, gamma = _spectrum_components(cfg)
    rows = []
    for tr in trans:
        width = hwhm(tr.kind, gamma, cfg.gamma_rad_ev)
        rows.append([tr.i, tr.j, tr.kind, _fnum(tr.a), _fnum(tr.lum), _fnum(width), _fnum(tr.lum / width)])
    _write_csv(Path(args.out or "transitions.csv"), TRANSITIONS_HEADER, rows)
    return 0


def cmd_branches(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    table = transition_branches(cfg.delta_range(), cfg.emitter(), cfg.drive())
    rows = (
        [_fnum(delta), i, j, _fnum(table.a[r, k])]
        for r, delta in enumerate(table.delta)
        for k, (i, j) in enumerate(BRANCH_LABELS)
    )
    _write_csv(Path(args.out or "branches.csv"), BRANCHES_HEADER, rows)
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = intensity_map(
        cfg.delta_range(),
        cfg.grid(),
        cfg.emitter(),
        cfg.drive(),
        cfg.broadening(),
        temp_k=cfg.temp_k,
    )
    rows = (
        [_fnum(delta), _fnum(dp), _fnum(result.values[r, c])]
        for r, delta in enumerate(result.delta_axis)
        for c, dp in enumerate(result.dp_axis)
    )
    _write_csv(Path(args.out or "map.csv"), MAP_HEADER, rows)
    return 0


def _parse_temps(raw: str) -> list[float]:
    try:
        temps = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise _CliError(1, f"bad --temps value {raw!r}: {exc}") from exc
    if not temps or any(t < 0.0 for t in temps):
        raise _CliError(1, f"--temps needs a comma-separated list of temperatures >= 0, got {raw!r}")
    return temps


def cmd_tempseries(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    temps = _parse_temps(args.temps)
    out = Path(args.out or "tempseries.csv")
    paths: dict[Path, float] = {}
    for temp in temps:
        path = out.with_name(f"{out.stem}_T{temp:g}K{out.suffix or '.csv'}")
        if path in paths:
            raise _CliError(1, f"--temps {paths[path]!r} and {temp!r} would both write {path.name}")
        paths[path] = temp
    grids = temperature_series(temps, cfg.emitter(), cfg.drive(), cfg.broadening(), cfg.grid())
    for path, grid in zip(paths, grids):
        rows = ([_fnum(x), _fnum(y)] for x, y in zip(grid.delta_prime, grid.intensity))
        _write_csv(path, SPECTRUM_HEADER, rows)
    return 0


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise _CliError(2, f"cannot read {path}: {exc}") from exc
    if not rows or len(rows) < 2:
        raise _CliError(1, f"{path}: schema mismatch: empty or header-only CSV")
    return rows[0], rows[1:]


def _floats(rows: list[list[str]], col: int, path: Path) -> np.ndarray:
    try:
        values = np.array([float(row[col]) for row in rows])
    except (ValueError, IndexError) as exc:
        raise _CliError(1, f"{path}: schema mismatch: {exc}") from exc
    finite = np.isfinite(values)
    if not finite.all():
        line = int(np.argmin(finite)) + 2
        raise _CliError(1, f"{path}: line {line}: non-finite value {rows[line - 2][col]!r}")
    return values


def cmd_plot(args: argparse.Namespace) -> int:
    path = Path(args.input)
    header, rows = _read_csv(path)
    out = Path(args.out or path.with_suffix(".svg"))

    if header == SPECTRUM_HEADER and args.kind == "line":
        x = _floats(rows, 0, path)
        y = _floats(rows, 1, path)
        svg = svgplot.line_chart(x, [("", y)], x_label="delta_prime (eV)", y_label="intensity (arb.)")
    elif header == BRANCHES_HEADER and args.kind == "line":
        deltas = _floats(rows, 0, path)
        a_vals = _floats(rows, 3, path)
        labels = [(row[1], row[2]) for row in rows]
        series = []
        x = None
        for i, j in ((str(i), str(j)) for i, j in BRANCH_LABELS):
            mask = [k for k, lab in enumerate(labels) if lab == (i, j)]
            if not mask:
                raise _CliError(1, f"{path}: schema mismatch: missing branch ({i},{j})")
            xs = deltas[mask]
            if x is None:
                x = xs
            elif xs.shape != x.shape or not np.array_equal(xs, x):
                raise _CliError(1, f"{path}: schema mismatch: ragged branch table")
            series.append((f"E{i}{j}", a_vals[mask]))
        svg = svgplot.line_chart(x, series, x_label="delta (eV)", y_label="delta_prime (eV)")
    elif header == MAP_HEADER and args.kind == "heatmap":
        deltas = _floats(rows, 0, path)
        dps = _floats(rows, 1, path)
        vals = _floats(rows, 2, path)
        d_axis = np.unique(deltas)
        x_axis = np.unique(dps)
        if d_axis.size * x_axis.size != vals.size:
            raise _CliError(1, f"{path}: schema mismatch: map is not a full grid")
        if not (
            np.array_equal(deltas, np.repeat(d_axis, x_axis.size))
            and np.array_equal(dps, np.tile(x_axis, d_axis.size))
        ):
            raise _CliError(1, f"{path}: schema mismatch: rows are not in ascending splitting-major order")
        grid = vals.reshape(d_axis.size, x_axis.size)
        svg = svgplot.heatmap(x_axis, d_axis, grid, x_label="delta_prime (eV)", y_label="delta (eV)")
    else:
        raise _CliError(1, f"{path}: schema mismatch: header {header!r} does not fit kind {args.kind!r}")

    try:
        Path(out).write_text(svg)
    except OSError as exc:
        raise _CliError(2, f"cannot write {out}: {exc}") from exc
    return 0


def _add_common(parser: argparse.ArgumentParser, workers: bool = False) -> None:
    parser.add_argument("--config", required=True, help="path to the run configuration file")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--temp", type=float, default=None, help="temperature in K, overrides temp_k")
    parser.add_argument("--delta", type=float, default=None, help="exciton splitting in eV, overrides delta_ev")
    if workers:
        parser.add_argument("--workers", type=int, default=1, help="ignored (sweeps are array-evaluated)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdmfluor",
        description="Resonance-fluorescence spectra of a driven double-quantum-dot molecule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="sampled emission spectrum S(delta_prime)")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("transitions", help="the nine dressed-state transitions")
    _add_common(p)
    p.set_defaults(func=cmd_transitions)

    p = sub.add_parser("branches", help="transition energies swept over the splitting")
    _add_common(p)
    p.set_defaults(func=cmd_branches)

    p = sub.add_parser("map", help="intensity map over (splitting, detuning)")
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("tempseries", help="one spectrum per temperature")
    _add_common(p, workers=True)
    p.add_argument("--temps", default="5,20,40", help="comma-separated temperatures in K")
    p.set_defaults(func=cmd_tempseries)

    p = sub.add_parser("plot", help="render a CSV table as an SVG chart")
    p.add_argument("input", help="CSV file produced by another subcommand")
    p.add_argument("--kind", choices=("line", "heatmap"), required=True)
    p.add_argument("--out", help="output SVG path (default: input with .svg)")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"qdmfluor: {exc.message}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"qdmfluor: invalid parameters: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
