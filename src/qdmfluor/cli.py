"""Command-line front end: config in, CSV tables and SVG plots out.

Subcommands: spectrum, transitions, branches, map, tempseries, plot.
Exit codes: 0 success, 1 configuration or input error, 2 I/O error.
CSV floats are the text repr gives, the shortest round-trip decimal form,
so re-parsing a file reproduces the computed values exactly and repeated
runs are byte identical.  A table is formatted straight to bytes, one
orjson call per block of rows, and every output is written in binary to a
temp file beside its target and renamed into place.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import sys
from itertools import islice
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
_TEXT_PIECE = 1 << 16
_MAX_CELL = 32  # the longest cell orjson parses for plot: it misrounds some far longer decimals
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


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    # A spectrum is the one-temperature case of tempseries.
    (grid,) = temperature_series([cfg.temp_k], cfg.emitter(), cfg.drive(), cfg.broadening(), cfg.grid())
    table = np.column_stack((grid.delta_prime, grid.intensity))
    _write_files({Path(args.out or "spectrum.csv"): _csv_bytes(SPECTRUM_HEADER, [(b"", table)])})
    return 0


def cmd_transitions(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    emitter = cfg.emitter()
    # One-row line tables: the nine lines at the config's splitting, in BRANCH_LABELS order.
    a, lum = line_table(*dressed_states(emitter, cfg.drive(), [emitter.delta]), cfg.mu)
    f = line_widths(cfg.broadening(), [cfg.temp_k])
    lorentz_terms(a, lum, f)  # refuses an intensity lum / f that overflows, as a spectrum of these lines would
    table = np.column_stack((a[0], lum[0], f[0], lum[0] / f[0]))
    # One block per line: its i, j and kind lead the row as a text prefix.
    blocks = [(f"{i},{j},{kind},".encode(), row[None]) for (i, j), kind, row in zip(BRANCH_LABELS, _KINDS, table)]
    _write_files({Path(args.out or "transitions.csv"): _csv_bytes(TRANSITIONS_HEADER, blocks)})
    return 0


def cmd_branches(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    table = transition_branches(cfg.delta_range(), cfg.emitter(), cfg.drive())
    labels = np.tile(BRANCH_LABELS, (table.delta.size, 1))
    rows = np.column_stack((np.repeat(table.delta, len(BRANCH_LABELS)), labels, table.a.ravel()))
    _write_files({Path(args.out or "branches.csv"): _csv_bytes(BRANCHES_HEADER, [(b"", rows)], ints=(1, 2))})
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
    # One block per splitting row, its delta cell written once as the prefix of every line.
    blocks = (
        (f"{delta!r},".encode(), np.column_stack((result.dp_axis, row)))
        for delta, row in zip(result.delta_axis.tolist(), result.values)
    )
    _write_files({Path(args.out or "map.csv"): _csv_bytes(MAP_HEADER, blocks)})
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
    # Every spectrum of the series shares one detuning grid.
    dps = grids[0].delta_prime
    _write_files({
        path: _csv_bytes(SPECTRUM_HEADER, [(b"", np.column_stack((dps, grid.intensity)))])
        for path, grid in zip(paths, grids)
    })
    return 0


def _body_rows(piece: bytes, fields: int) -> np.ndarray | None:
    """The rows of a piece of body lines, parsed by orjson, or None unless the piece is plainly well formed.

    Well formed: the piece ends in a newline, holds only number bytes, commas
    and newlines, and every line has exactly `fields` cells of 1 to
    _MAX_CELL bytes.  Such a piece joined into one JSON array has one
    element per cell.  orjson refuses the spellings JSON does not allow
    (+1, .5, 1., 01) and rounds as float() does up to the cell length the
    guard allows.  It reads the integer -0 as +0, so a piece holding that
    cell is left to loadtxt.  orjson 3.8 refuses a number that overflows; a
    release that read it as inf would leave the piece to loadtxt too.
    """
    # What is left of the piece without its number bytes: a comma between cells, a newline after each line.
    seps = piece.translate(None, _NUMBER_BYTES)
    if not piece.endswith(b"\n") or seps != (b"," * (fields - 1) + b"\n") * (len(seps) // fields):
        return None
    cells = b"," + piece.replace(b"\n", b",")  # every cell between two commas
    codes = np.frombuffer(cells, np.uint8)
    commas = np.flatnonzero(codes == ord(","))
    widths = np.diff(commas) - 1
    if widths.min() < 1 or widths.max() > _MAX_CELL:
        return None
    pairs = commas[1:][widths == 2]
    if ((codes[pairs - 2] == ord("-")) & (codes[pairs - 1] == ord("0"))).any():
        return None
    try:
        values = orjson.loads(b"[" + cells[1:-1] + b"]")
    except orjson.JSONDecodeError:
        return None
    rows = np.fromiter(values, float, len(values)).reshape(-1, fields)
    return rows if np.isfinite(rows).all() else None


def _read_plain_table(fh) -> tuple[list[str], np.ndarray] | None:
    """The table of a binary file whose header is ASCII and whose every body piece _body_rows parses, else None.

    The body's lines are counted first, so the rows are parsed into one
    array of their final size, not gathered and then copied.
    """
    header = fh.readline()
    if not (header.endswith(b"\n") and header.isascii()) or b"\r" in header:
        return None
    start = fh.tell()
    chunks = iter(lambda: fh.read(_TEXT_PIECE), b"")
    lines = sum(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) for chunk in chunks)
    table = np.empty((lines, header.count(b",") + 1))
    fh.seek(start)
    done = 0
    while piece := fh.read(_TEXT_PIECE) + fh.readline():
        rows = _body_rows(piece, table.shape[1])
        if rows is None:
            return None
        table[done : done + len(rows)] = rows
        done += len(rows)
    return (header[:-1].decode().split(","), table) if done else None


def _load_table(fh, path: Path) -> tuple[list[str], np.ndarray]:
    """The header fields and body of a text file by numpy.loadtxt, which words every refusal."""
    header = fh.readline().rstrip("\n").split(",")
    start = fh.tell()
    if fh.readline() in ("", "\n"):  # loadtxt skips a blank line, and warns when it finds no data
        raise _CliError(1, f"{path}: schema mismatch: no row on line 2")
    lines = 1 + sum(1 for _ in fh)  # the body's lines; text mode reads CR and CRLF line ends as newlines
    fh.seek(start)
    table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if table.shape != (lines, len(header)):  # a blank line, or rows of another length
        raise _CliError(1, f"{path}: schema mismatch: need one row of {len(header)} fields on every line")
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.unravel_index(np.argmin(finite), table.shape)
        fh.seek(start)
        text = next(islice(fh, row, None)).rstrip("\n").split(",")[col]
        raise _CliError(1, f"{path}: line {row + 2}: non-finite value {text!r}")
    return header, table


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """The header fields, and the body as one (rows, fields) float array: one row of finite floats per line.

    A plainly well-formed file is parsed by orjson (_read_plain_table).  Any
    other is read again from its start, through the same handle, by
    numpy.loadtxt (_load_table), which gives the same values and words every
    refusal.  Both reads need a seekable file, so a pipe is refused.
    """
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():
                raise io.UnsupportedOperation("underlying stream is not seekable")
            if plain := _read_plain_table(fh):
                return plain
            fh.seek(0)
            with io.TextIOWrapper(fh, encoding="utf-8") as text:
                try:
                    return _load_table(text, path)
                except UnicodeDecodeError as exc:  # exc.object (bytes held over, then the chunk read) ends at fh.tell()
                    at, byte = fh.tell() - len(exc.object) + exc.start, exc.object[exc.start]
                    raise ValueError(f"'utf-8' codec can't decode byte {byte:#04x} at file offset {at}: {exc.reason}")
    except OSError as exc:
        raise _CliError(2, f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise _CliError(1, f"{path}: schema mismatch: {exc}") from exc


def cmd_plot(args: argparse.Namespace) -> int:
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
        rows = table[: len(table) // n * n].reshape(-1, n, 4)
        if len(table) % n or not ((rows[..., 1:3] == BRANCH_LABELS).all() and (rows[..., 0] == rows[:, :1, 0]).all()):
            raise _CliError(1, f"{path}: schema mismatch: rows are not nine per splitting in (i,j) order {BRANCH_LABELS}")
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
        if not (
            np.array_equal(deltas, np.repeat(d_axis, x_axis.size))
            and np.array_equal(dps, np.tile(x_axis, d_axis.size))
        ):
            raise _CliError(1, f"{path}: schema mismatch: rows are not in ascending splitting-major order")
        grid = vals.reshape(d_axis.size, x_axis.size)
        svg = svgplot.heatmap(x_axis, d_axis, grid, x_label="delta_prime (eV)", y_label="delta (eV)")
    else:
        raise _CliError(1, f"{path}: schema mismatch: header {header!r} does not fit kind {args.kind!r}")

    _write_files({out: [svg.encode()]})
    return 0


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
