"""Command-line front end: config in, CSV tables and SVG plots out.

Subcommands: spectrum, transitions, branches, map, tempseries, plot.
Exit codes: 0 success, 1 configuration or input error, 2 I/O error.
CSV floats are the text repr gives, the shortest round-trip decimal form,
so re-parsing a file reproduces the computed values exactly and repeated
runs are byte identical.  A table is formatted straight to bytes, one
orjson call per block of rows.  Each command returns its outputs as byte
chunks, and main writes them in one call: each to a temp file beside its
target, in binary, and all renamed into place once all are written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import orjson

from .config import DEFAULT_TEMPS, ConfigError, RunConfig, parse_config
from .core import dressed_states
from .spectrum import _KINDS, line_table, line_widths, lorentz_terms
from .sweep import BRANCH_LABELS, intensity_map, temperature_series, transition_branches
from . import svgplot

# perfbench/layers.py wraps these per-triplet names in this namespace; the commands do not call them.
from .core import diagonalize, reduced_hamiltonian  # noqa: F401
from .spectrum import synthesize, transitions  # noqa: F401

__all__ = ["main"]

SPECTRUM_HEADER = ["delta_prime_ev", "intensity"]
TRANSITIONS_HEADER = ["i", "j", "kind", "delta_prime_ev", "luminosity", "hwhm_ev", "intensity"]
BRANCHES_HEADER = ["delta_ev", "i", "j", "delta_prime_ev"]
MAP_HEADER = ["delta_ev", "delta_prime_ev", "intensity"]

_CELLS_PER_CHUNK = 1 << 12
_COMMA, _NEWLINE = ord(","), ord("\n")
_PIECE = 1 << 16
_MAX_CELL = 32  # the longest cell plot reads: orjson rounds as float() does up to here, and misrounds some far longer decimals
_NUMBER_BYTES = b"0123456789.eE+-"


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _csv_lines(table: np.ndarray, prefix: bytes, ints: tuple[int, ...]) -> bytes:
    """CSV lines of a (rows, columns) float block: each cell the repr of its value, each line led by prefix.

    orjson writes the whole block, row after row, in one call.  Its digits are
    repr's shortest round-trip digits, and at +-0 and inside 1e-4 <= |v| < 1e16
    its notation is repr's too.  The comma after each row's last cell is set
    to a newline in the byte buffer.  The columns in ints (ascending) hold
    whole numbers below 1e16, whose cells lose orjson's trailing '.0'.  The
    few other cells (subnormals, tiny and huge values, NaN and inf), where
    orjson's notation differs (1e-5 for 1e-05, null for NaN), are replaced by
    repr's text.
    """
    values = np.ascontiguousarray(table, dtype=float)
    rows, cols = values.shape
    flat = values.ravel()
    text = np.frombuffer(bytearray(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)), np.uint8)
    text[-1] = _COMMA  # "[v,...,v]" becomes "[v,...,v,": every cell ends at a comma
    ends = np.flatnonzero(text == _COMMA)
    text[ends[cols - 1 :: cols]] = _NEWLINE
    if ints:
        keep = np.ones(text.size, bool)
        cut = ends.reshape(rows, cols)[:, list(ints)]
        keep[0] = False
        keep[cut - 2] = keep[cut - 1] = False
        body = text[keep].tobytes()
    else:
        body = text[1:].tobytes()
    size = np.abs(flat)
    odd = np.flatnonzero(~(((size >= 1e-4) & (size < 1e16)) | (size == 0.0)))  # NaN fails every test
    if odd.size:
        # The bytes cut before each odd cell: the bracket, and the '.0' of each integer cell.
        shift = 1 + 2 * (odd // cols * len(ints) + np.searchsorted(ints, odd % cols))
        starts = np.where(odd > 0, ends[odd - 1] + 1, 1) - shift
        view = memoryview(body)
        pieces = []
        done = 0
        for start, end, value in zip(starts.tolist(), (ends[odd] - shift).tolist(), flat[odd].tolist()):
            pieces += (view[done:start], repr(value).encode())
            done = end
        pieces.append(view[done:])
        body = b"".join(pieces)
    if prefix:
        body = prefix + body[:-1].replace(b"\n", b"\n" + prefix) + b"\n"
    return body


def _csv_bytes(
    header: list[str], blocks: Iterable[tuple[bytes, np.ndarray]], ints: tuple[int, ...] = ()
) -> Iterator[bytes]:
    """CSV bytes in chunks: the header line, then the lines of each (prefix, float table) block.

    No field ever needs quoting (floats, integers and the line kinds), and
    every line ends in a newline.  A block is formatted _CELLS_PER_CHUNK cells
    at a time, so the bytes held at once stay small however long the file is.
    """
    yield (",".join(header) + "\n").encode()
    for prefix, table in blocks:
        step = max(1, _CELLS_PER_CHUNK // table.shape[1])
        for start in range(0, len(table), step):
            yield _csv_lines(table[start : start + step], prefix, ints)


def _write_files(files: dict[Path, Iterable[bytes]]) -> None:
    """Write each file's byte chunks to a temp file beside it, then rename all into place.

    Nothing is renamed before every file is written, and the temp files are
    removed on any failure, so a command never leaves a partial set of outputs.
    A symlinked path is written through to its target, as open() would; an
    existing target that is not a regular file (a device such as /dev/null,
    a pipe, a directory) is refused rather than replaced.
    """
    pending: dict[Path, Path] = {}
    try:
        for path, chunks in files.items():
            target = Path(os.path.realpath(path))
            if target.exists() and not target.is_file():
                raise OSError(f"{target} is not a regular file")
            tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
            pending[tmp] = target
            with open(tmp, "wb") as fh:
                fh.writelines(chunks)
        for tmp, path in list(pending.items()):
            os.replace(tmp, path)
            del pending[tmp]
    except OSError as exc:
        raise _CliError(2, f"cannot write {path}: {exc}") from exc
    finally:
        for tmp in pending:
            with contextlib.suppress(OSError):
                tmp.unlink()


def _load_config(args: argparse.Namespace) -> RunConfig:
    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        raise _CliError(2, f"cannot read config {args.config}: {exc}") from exc
    except (UnicodeDecodeError, ConfigError) as exc:
        raise _CliError(1, f"config error: {exc}") from exc
    return cfg.with_overrides(temp_k=getattr(args, "temp", None), delta_ev=getattr(args, "delta", None))


def _spectra(cfg: RunConfig, temps: dict[Path, float]) -> dict[Path, Iterator[bytes]]:
    """Each path's spectrum table at its temperature, all on the config's one grid."""
    grids = temperature_series(list(temps.values()), cfg.emitter(), cfg.drive(), cfg.broadening(), cfg.grid())
    return {
        path: _csv_bytes(SPECTRUM_HEADER, [(b"", np.column_stack((grid.delta_prime, grid.intensity)))])
        for path, grid in zip(temps, grids)
    }


def cmd_spectrum(args: argparse.Namespace) -> dict[Path, Iterable[bytes]]:
    cfg = _load_config(args)
    # A spectrum is the one-temperature case of tempseries.
    return _spectra(cfg, {Path(args.out or "spectrum.csv"): cfg.temp_k})


def cmd_transitions(args: argparse.Namespace) -> dict[Path, Iterable[bytes]]:
    cfg = _load_config(args)
    emitter = cfg.emitter()
    # One-row line tables: the nine lines at the config's splitting, in BRANCH_LABELS order.
    a, lum = line_table(*dressed_states(emitter, cfg.drive(), [emitter.delta]), cfg.mu)
    f = line_widths(cfg.broadening(), [cfg.temp_k])
    lorentz_terms(a, lum, f)  # refuses an intensity lum / f that overflows, as a spectrum of these lines would
    table = np.column_stack((a[0], lum[0], f[0], lum[0] / f[0]))
    # One block per line: its i, j and kind lead the row as a text prefix.
    blocks = [(f"{i},{j},{kind},".encode(), row[None]) for (i, j), kind, row in zip(BRANCH_LABELS, _KINDS, table)]
    return {Path(args.out or "transitions.csv"): _csv_bytes(TRANSITIONS_HEADER, blocks)}


def cmd_branches(args: argparse.Namespace) -> dict[Path, Iterable[bytes]]:
    cfg = _load_config(args)
    table = transition_branches(cfg.delta_range(), cfg.emitter(), cfg.drive())
    labels = np.tile(BRANCH_LABELS, (table.delta.size, 1))
    rows = np.column_stack((np.repeat(table.delta, len(BRANCH_LABELS)), labels, table.a.ravel()))
    return {Path(args.out or "branches.csv"): _csv_bytes(BRANCHES_HEADER, [(b"", rows)], ints=(1, 2))}


def cmd_map(args: argparse.Namespace) -> dict[Path, Iterable[bytes]]:
    cfg = _load_config(args)
    result = intensity_map(
        cfg.delta_range(),
        cfg.grid(),
        cfg.emitter(),
        cfg.drive(),
        cfg.broadening(),
        temp_k=cfg.temp_k,
    )
    # One block per splitting row, its delta cell written once as the prefix of every line.
    blocks = (
        (f"{delta!r},".encode(), np.column_stack((result.dp_axis, row)))
        for delta, row in zip(result.delta_axis.tolist(), result.values)
    )
    return {Path(args.out or "map.csv"): _csv_bytes(MAP_HEADER, blocks)}


def _parse_temps(raw: str) -> list[float]:
    try:
        # + 0.0 writes -0 as 0, so --temps 0,-0 names one file twice and is refused.
        temps = [float(part) + 0.0 for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise _CliError(1, f"bad --temps value {raw!r}: {exc}") from exc
    if not temps or any(not math.isfinite(t) or t < 0.0 for t in temps):
        raise _CliError(1, f"--temps needs a comma-separated list of finite temperatures >= 0, got {raw!r}")
    return temps


def cmd_tempseries(args: argparse.Namespace) -> dict[Path, Iterable[bytes]]:
    cfg = _load_config(args)
    out = Path(args.out or "tempseries.csv")
    temps: dict[Path, float] = {}
    for temp in _parse_temps(args.temps):
        path = out.with_name(f"{out.stem}_T{temp:g}K{out.suffix or '.csv'}")
        if path in temps:
            raise _CliError(1, f"--temps {temps[path]!r} and {temp!r} would both write {path.name}")
        temps[path] = temp
    return _spectra(cfg, temps)


def _body_rows(piece: bytes, fields: int) -> np.ndarray | None:
    """The rows of a piece of whole lines, parsed by orjson, or None if a line is outside the grammar.

    Each line is `fields` cells of 1 to _MAX_CELL number bytes, then \\n or
    \\r\\n.  In one JSON array of all cells, orjson skips a CR as white space
    and refuses +1, .5, 1., 01 and overflow; it reads -0 as +0, refused here.
    """
    marks = piece.translate(None, _NUMBER_BYTES)  # a comma between cells, a CR or none and a newline after each line
    crs = marks.count(b"\r")
    if marks.translate(None, b"\r") != (b"," * (fields - 1) + b"\n") * ((len(marks) - crs) // fields):
        return None
    cells = b"," + piece.replace(b"\n", b",")  # every cell between two commas, a CRLF line's last with its CR
    codes = np.frombuffer(cells, np.uint8)
    commas = np.flatnonzero(codes == _COMMA)
    widths = np.diff(commas) - 1
    ends_cr = codes[commas[fields::fields] - 1] == ord("\r")  # a CR may only end a line, and is no part of a cell
    widths[fields - 1 :: fields] -= ends_cr
    pairs = commas[:-1][widths == 2] + 1  # the first byte of each two-byte cell
    if (np.count_nonzero(ends_cr) != crs or widths.min() < 1 or widths.max() > _MAX_CELL
            or ((codes[pairs] == ord("-")) & (codes[pairs + 1] == ord("0"))).any()):
        return None
    try:
        values = orjson.loads(b"[" + cells[1:-1] + b"]")
    except orjson.JSONDecodeError:
        return None
    rows = np.fromiter(values, float, len(values)).reshape(-1, fields)
    return rows if np.isfinite(rows).all() else None


def _fault(piece: bytes, fields: int, first: int) -> str:
    """What is wrong, at which line and field, first in a piece _body_rows refused, whose first line is `first`."""
    *ended, last = piece.split(b"\n")  # last: the file's last line, if it has no line end
    for line, text in enumerate([text.removesuffix(b"\r") for text in ended] + [last][: bool(last)], first):
        cells = text.split(b",") if text else []
        for field, cell in enumerate(cells[:fields], 1):
            if b"\r" in cell or _body_rows(cell + b"\n", 1) is None:  # the piece's own test, on this cell alone
                with contextlib.suppress(ValueError):
                    if not np.isfinite(float(cell)):
                        return f"field {field} on line {line}: non-finite value {repr(cell)[1:]}"
                return f"field {field} on line {line}: {repr(cell)[1:]} is not a number of 1 to {_MAX_CELL} bytes as repr writes it"
        if len(cells) != fields:
            return f"no row on line {line}: field 1 is missing" if not cells else (
                f"field {min(len(cells), fields) + 1} on line {line}: the line's field count {len(cells)} is not the header's {fields}")


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """The header fields, and the body as one (rows, fields) float array: one row of finite floats per line.

    Below an ASCII header, the lines are those _body_rows reads.  They are
    counted to size the array, then parsed a piece at a time, so a pipe,
    which cannot be read twice, is refused.  Anything else is a schema
    mismatch naming the line and field of the first fault.
    """
    try:
        with open(path, "rb") as fh:
            names = fh.readline().removesuffix(b"\r\n").removesuffix(b"\n").split(b",")
            for field, name in enumerate(names, 1):
                if not name.isascii() or b"\r" in name:
                    fault = f"field {field} on line 1: header name {repr(name)[1:]} is not ASCII on one line"
                    raise _CliError(1, f"{path}: schema mismatch: {fault}")
            start = fh.tell()  # a pipe has no position, so it is refused here: it cannot be read twice
            chunks = iter(lambda: fh.read(_PIECE), b"")
            lines = sum(np.count_nonzero(np.frombuffer(chunk, np.uint8) == _NEWLINE) for chunk in chunks)
            table = np.empty((lines + 1, len(names)))  # a spare row, for a last line with no line end
            fh.seek(start)
            done = 0
            while piece := fh.read(_PIECE) + fh.readline():
                if not piece.endswith((b"\n", b"\r")):  # the last line may have no line end, but no lone CR
                    piece += b"\n"
                if (rows := _body_rows(piece, len(names))) is None:
                    raise _CliError(1, f"{path}: schema mismatch: {_fault(piece, len(names), done + 2)}")
                table[done : done + len(rows)] = rows
                done += len(rows)
    except OSError as exc:
        raise _CliError(2, f"cannot read {path}: {exc}") from exc
    if not done:
        raise _CliError(1, f"{path}: schema mismatch: no row on line 2: field 1 is missing")
    return [name.decode() for name in names], table[:done]


def cmd_plot(args: argparse.Namespace) -> dict[Path, Iterable[bytes]]:
    path = Path(args.input)
    header, table = _read_table(path)
    out = Path(args.out or path.with_suffix(".svg"))

    if header == SPECTRUM_HEADER and args.kind == "line":
        if len(table) < 2:
            raise _CliError(1, f"{path}: schema mismatch: a line chart needs at least two rows")
        x, y = table.T
        svg = svgplot.line_chart(x, [("", y)], x_label="delta_prime (eV)", y_label="intensity (arb.)")
    elif header == BRANCHES_HEADER and args.kind == "line":
        # branches writes nine rows per splitting, one per line in BRANCH_LABELS order.
        n = len(BRANCH_LABELS)
        r = np.arange(len(table))
        wrong = (table[:, 1:3] != np.array(BRANCH_LABELS)[r % n]).any(axis=1) | (table[:, 0] != table[r - r % n, 0])
        wrong = np.append(wrong, len(table) % n > 0)  # a last splitting short of nine rows misses the line after it
        if wrong.any():
            order = f"rows are not nine per splitting in (i,j) order {BRANCH_LABELS}"
            raise _CliError(1, f"{path}: schema mismatch: {order} on line {2 + wrong.argmax()}")
        rows = table.reshape(-1, n, 4)
        if len(rows) < 2:
            raise _CliError(1, f"{path}: schema mismatch: a line chart needs at least two splittings")
        series = [(f"E{i}{j}", rows[:, k, 3]) for k, (i, j) in enumerate(BRANCH_LABELS)]
        svg = svgplot.line_chart(rows[:, 0, 0], series, x_label="delta (eV)", y_label="delta_prime (eV)")
    elif header == MAP_HEADER and args.kind == "heatmap":
        deltas, dps, vals = table.T
        d_axis = np.unique(deltas)
        x_axis = np.unique(dps)
        if d_axis.size * x_axis.size != vals.size:
            raise _CliError(1, f"{path}: schema mismatch: map is not a full grid")
        wrong = (deltas != np.repeat(d_axis, x_axis.size)) | (dps != np.tile(x_axis, d_axis.size))
        if wrong.any():
            raise _CliError(1, f"{path}: schema mismatch: rows are not in ascending splitting-major order on line {2 + wrong.argmax()}")
        grid = vals.reshape(d_axis.size, x_axis.size)
        svg = svgplot.heatmap(x_axis, d_axis, grid, x_label="delta_prime (eV)", y_label="delta (eV)")
    else:
        raise _CliError(1, f"{path}: schema mismatch: header {header!r} does not fit kind {args.kind!r}")

    return {out: [svg.encode()]}


def _add_common(parser: argparse.ArgumentParser, temp: bool = False, delta: bool = False) -> None:
    parser.add_argument("--config", required=True, help="path to the run configuration file")
    parser.add_argument("--out", help="output file path")
    if temp:
        parser.add_argument("--temp", type=float, help="temperature in K, overrides temp_k")
    if delta:
        parser.add_argument("--delta", type=float, help="exciton splitting in eV, overrides delta_ev")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdmfluor",
        description="Resonance-fluorescence spectra of a driven double-quantum-dot molecule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # No abbreviated flags: `tempseries --temp` must not pass for `--temps`.
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("spectrum", help="sampled emission spectrum S(delta_prime)")
    _add_common(p, temp=True, delta=True)
    p.set_defaults(func=cmd_spectrum)

    p = add("transitions", help="the nine dressed-state transitions")
    _add_common(p, temp=True, delta=True)
    p.set_defaults(func=cmd_transitions)

    p = add("branches", help="transition energies swept over the splitting")
    _add_common(p)
    p.set_defaults(func=cmd_branches)

    p = add("map", help="intensity map over (splitting, detuning)")
    _add_common(p, temp=True)
    p.set_defaults(func=cmd_map)

    p = add("tempseries", help="one spectrum per temperature")
    _add_common(p, delta=True)
    p.add_argument("--temps", default=",".join(f"{t:g}" for t in DEFAULT_TEMPS), help="comma-separated temperatures in K")
    p.set_defaults(func=cmd_tempseries)

    p = add("plot", help="render a CSV table as an SVG chart")
    p.add_argument("input", help="CSV file produced by another subcommand")
    p.add_argument("--kind", choices=("line", "heatmap"), required=True)
    p.add_argument("--out", help="output SVG path (default: input with .svg)")
    p.set_defaults(func=cmd_plot)

    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """argv with each `--flag -value` written `--flag=-value`, up to a `--`.

    argparse reads a lone token that starts with '-' and is not a plain
    negative number (-inf, -1e5, -5,4) as a flag, so the flag before it would
    lose its value with "expected one argument".  Every long flag but --help
    takes one value; a token that starts with '--' is never taken as one.
    """
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            return out + [token, *tokens]
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and flag != "--help" and token.startswith("-") and token[1:2] != "-":
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        _write_files(args.func(args))  # the run's one write: all of its files, or none
    except _CliError as exc:
        print(f"qdmfluor: {exc.message}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"qdmfluor: invalid parameters: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
