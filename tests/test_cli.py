import contextlib
import csv
import decimal
import io
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdmfluor import (
    BRANCH_LABELS,
    ConfigError,
    diagonalize,
    intensity_map,
    linewidth,
    parse_config,
    reduced_hamiltonian,
    synthesize,
    temperature_series,
    transition_branches,
    transitions,
)
import qdmfluor
from qdmfluor import cli
from qdmfluor.cli import main

from helpers import count_thread_starts, run_cli

MINIMAL = """\
e_xd_ev = 1.0
hw_l_ev = 1.0
g_sqrt_n_ev = 0.1
t_ev = 0.1
"""

SMALL = MINIMAL + """\
npoints = 701
sweep_steps = 13
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL)
    return path


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _reference_csv(header, rows):
    """Expected file bytes, written one cell at a time through csv.writer.

    Float cells are given as repr strings, the shortest text that round-trips.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _r(value):
    return repr(float(value))


def _assert_reparses_bitwise(path, columns):
    """Re-parsing the file gives exactly the library's floats, column by column."""
    _, rows = _read(path)
    for col, expected in columns.items():
        parsed = np.array([float(row[col]) for row in rows])
        assert parsed.tobytes() == np.asarray(expected, dtype=float).tobytes()


@pytest.mark.parametrize("text", [
    SMALL,
    SMALL + "field_kv_per_cm = 5.0\nd_nm = 12.0\ndelta_zero_field_ev = 0.009\n",  # field-tuned splitting
    SMALL + "temp_k = 20\nb_ev = 2e-3\n",  # the optical-phonon term is on
    SMALL.replace("hw_l_ev = 1.0", "hw_l_ev = 1.03"),  # off-resonant laser
    SMALL.replace("g_sqrt_n_ev = 0.1", "g_ev = 0.01\nn = 100") + "mu = 1.7\n",  # coupling as g_ev and n
], ids=["small", "field", "hot", "off-resonant", "g-n"])
def test_outputs_match_per_cell_reference(text, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    cfg = parse_config(text)
    dressed = diagonalize(reduced_hamiltonian(cfg.emitter(), cfg.drive()))
    trans = transitions(dressed, cfg.mu)
    gamma = linewidth(cfg.broadening(), cfg.temp_k)
    base = ["--config", str(cfg_path), "--out"]

    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", *base, str(out)]) == 0
    grid = synthesize(trans, gamma, cfg.gamma_rad_ev, cfg.grid())
    rows = [[_r(x), _r(y)] for x, y in zip(grid.delta_prime, grid.intensity)]
    assert out.read_bytes() == _reference_csv(cli.SPECTRUM_HEADER, rows)
    _assert_reparses_bitwise(out, {0: grid.delta_prime, 1: grid.intensity})

    out = tmp_path / "transitions.csv"
    assert main(["transitions", *base, str(out)]) == 0
    widths = [gamma / 2.0 if tr.i == tr.j else (gamma + cfg.gamma_rad_ev) / 2.0 for tr in trans]
    rows = [[tr.i, tr.j, tr.kind, _r(tr.a), _r(tr.lum), _r(w), _r(tr.lum / w)] for tr, w in zip(trans, widths)]
    assert out.read_bytes() == _reference_csv(cli.TRANSITIONS_HEADER, rows)
    _assert_reparses_bitwise(out, {3: [tr.a for tr in trans], 5: widths})

    out = tmp_path / "branches.csv"
    assert main(["branches", *base, str(out)]) == 0
    table = transition_branches(cfg.delta_range(), cfg.emitter(), cfg.drive())
    rows = [
        [_r(delta), i, j, _r(table.a[r, k])]
        for r, delta in enumerate(table.delta)
        for k, (i, j) in enumerate(BRANCH_LABELS)
    ]
    assert out.read_bytes() == _reference_csv(cli.BRANCHES_HEADER, rows)
    _assert_reparses_bitwise(out, {0: np.repeat(table.delta, 9), 3: table.a.ravel()})

    out = tmp_path / "map.csv"
    assert main(["map", *base, str(out)]) == 0
    imap = intensity_map(cfg.delta_range(), cfg.grid(), cfg.emitter(), cfg.drive(), cfg.broadening(),
                         temp_k=cfg.temp_k)
    rows = [
        [_r(delta), _r(dp), _r(imap.values[r, c])]
        for r, delta in enumerate(imap.delta_axis)
        for c, dp in enumerate(imap.dp_axis)
    ]
    assert out.read_bytes() == _reference_csv(cli.MAP_HEADER, rows)
    _assert_reparses_bitwise(out, {1: np.tile(imap.dp_axis, imap.delta_axis.size), 2: imap.values.ravel()})

    out = tmp_path / "series.csv"
    assert main(["tempseries", *base, str(out), "--temps", "5,20,40"]) == 0
    grids = temperature_series([5.0, 20.0, 40.0], cfg.emitter(), cfg.drive(), cfg.broadening(), cfg.grid())
    for temp, grid in zip((5, 20, 40), grids):
        path = tmp_path / f"series_T{temp}K.csv"
        rows = [[_r(x), _r(y)] for x, y in zip(grid.delta_prime, grid.intensity)]
        assert path.read_bytes() == _reference_csv(cli.SPECTRUM_HEADER, rows)
        _assert_reparses_bitwise(path, {1: grid.intensity})


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# Floats where the writer's notation changes: +-0, subnormals, the least normals, 1e-4 and 1e16, and the largest.
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-4,
                     9.999999999999999e-05, 9999999999999998.0, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
    st.floats(min_value=1e300, max_value=1.7976931348623157e308).flatmap(lambda v: st.sampled_from([v, -v])),
    _FLOATS,
)
_LABELS = st.integers(-(10**15), 10**15)  # whole numbers, as branches writes its i and j


@st.composite
def _written_tables(draw):
    """(columns, ints, prefix): 1 to 4 float columns of one length; or branches' delta, i, j, a, with
    whole-number i and j columns; or map rows, whose first column is one value written as the lines' prefix."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["floats", "branches", "map"]))
    if kind == "branches":
        delta, a = (draw(st.lists(_EDGE_FLOATS, min_size=n, max_size=n)) for _ in range(2))
        i, j = (draw(st.lists(_LABELS, min_size=n, max_size=n)) for _ in range(2))
        return [delta, i, j, a], (1, 2), None
    # A map row's prefix column is one of its 2 to 4 columns.
    columns = [draw(st.lists(_EDGE_FLOATS, min_size=n, max_size=n)) for _ in range(draw(st.integers(1, 4)))]
    if kind == "floats":
        return columns, (), None
    delta = draw(_EDGE_FLOATS)
    return [[delta] * n, *columns[:3]], (), delta


_LONG = cli._CELLS_PER_CHUNK + 1  # rows: three of the writer's chunks at two columns, five at four


@settings(max_examples=90, deadline=None)
@given(table=_written_tables())
@example(table=([[-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0],
                 [1e-5, 1e-4, 0.0001, 9.999999999999999e-05, 1.7976931348623157e308, -1e300]], (), None))
@example(table=([np.linspace(-1.0, 1.0, _LONG).tolist(), [float(k) for k in range(_LONG)]], (), None))
@example(table=([[0.5]], (), None))
@example(table=([[1e-7, 0.25], [0.0, -0.0], [1e20, 3.0], [-2.5e-5, 7.0]], (), None))
# branches' rows: every splitting with the nine (i, j) labels, the central lines at a = 0.
@example(table=([np.repeat([0.0, 1e-5, 0.03], 9).tolist(), [i for _ in range(3) for i, _ in BRANCH_LABELS],
                 [j for _ in range(3) for _, j in BRANCH_LABELS], [0.0, -0.1, 1e-6] * 9], (1, 2), None))
@example(table=([[1.5] * _LONG, [1] * _LONG, [-7] * _LONG, np.linspace(-1e-3, 1e-3, _LONG).tolist()], (1, 2), None))
# map rows: the splitting written once per line as its prefix, over several chunks, and as repr's odd notation.
@example(table=([[0.0] * _LONG, np.linspace(-0.35, 0.35, _LONG).tolist(), np.linspace(0.0, 1e-4, _LONG).tolist()],
                (), 0.0))
@example(table=([[-1e-5], [0.5]], (), -1e-5))
def test_written_csv_reparses_to_the_same_floats(tmp_path_factory, table):
    # The CSV contract: any finite float column written by the CLI reads back bit for bit.
    columns, ints, prefix = table
    path = tmp_path_factory.mktemp("roundtrip") / "t.csv"
    header = [f"c{k}" for k in range(len(columns))]
    body = np.array(columns, dtype=float).T
    block = (b"", body) if prefix is None else (f"{prefix!r},".encode(), body[:, 1:])
    cli._write_files({path: cli._csv_bytes(header, [block], ints)})
    rows = [[cell if k in ints else _r(cell) for k, cell in enumerate(row)] for row in zip(*columns)]
    assert path.read_bytes() == _reference_csv(header, rows)
    _assert_reparses_bitwise(path, dict(enumerate(columns)))
    # plot's reader gives the same bits as float() on every field, with LF line ends and with CRLF.
    for data in (path.read_bytes(), path.read_bytes().replace(b"\n", b"\r\n")):
        path.write_bytes(data)
        read_header, read = cli._read_table(path)
        assert read_header == header
        assert read.tobytes() == body.tobytes()


def _read_outcome(path):
    """What plot's reader gives for a file: the header and table bits, or the exit code and the line and field named."""
    try:
        header, table = cli._read_table(path)
    except cli._CliError as exc:
        where = exc.message.partition("schema mismatch: ")[2]
        return exc.code, int(re.search(r"line (\d+)", where)[1]), int(re.search(r"field (\d+)", where)[1])
    return header, table.shape, table.tobytes()


# One cell of plot's table grammar: JSON's number syntax, 1 to 32 bytes, never the integer -0, and finite.
_GRAMMAR_CELL = re.compile(rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def _in_grammar(cell):
    return (_GRAMMAR_CELL.fullmatch(cell) is not None and len(cell) <= cli._MAX_CELL and cell != b"-0"
            and math.isfinite(float(cell)))


def _reference_outcome(data):
    """_read_outcome by the grammar, line by line, with float() per cell; a refusal names the first fault.

    Lines end in \\n or \\r\\n, and the last may have no line end.  The header's
    names are ASCII without a CR; each body line holds one cell in the
    grammar per header name.  A blank line, or a file with no body line,
    has no field 1.
    """
    *ended, last = data.split(b"\n")
    lines = [line.removesuffix(b"\r") for line in ended] + [last][: bool(last)]
    names = (lines or [b""])[0].split(b",")
    for field, name in enumerate(names, 1):
        if not name.isascii() or b"\r" in name:
            return 1, 1, field
    rows = []
    for line, text in enumerate(lines[1:], 2):
        cells = text.split(b",") if text else []
        bad = [field for field, cell in enumerate(cells[: len(names)], 1) if not _in_grammar(cell)]
        if bad or len(cells) != len(names):
            return 1, line, bad[0] if bad else min(len(cells), len(names)) + 1
        rows.append([float(cell) for cell in cells])
    if not rows:
        return 1, 2, 1
    table = np.array(rows)
    return [name.decode() for name in names], table.shape, table.tobytes()


@pytest.mark.parametrize("piece", [1, 7, 64])
def test_read_table_rows_do_not_depend_on_text_pieces(tmp_path, monkeypatch, piece):
    # plot's reader parses the body a piece of whole lines at a time, with LF or CRLF line ends.
    monkeypatch.setattr(cli, "_PIECE", piece)
    rows = np.linspace(-1.0, 1.0, 40).reshape(20, 2)
    path = tmp_path / "t.csv"
    text = "delta_prime_ev,intensity\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows.tolist())
    for data in (text.encode(), text.replace("\n", "\r\n").encode()):
        path.write_bytes(data)
        header, table = cli._read_table(path)
        assert header == cli.SPECTRUM_HEADER and table.tobytes() == rows.tobytes()
    # Spellings outside the grammar, after pieces orjson has parsed, are refused at their line and field.
    path.write_bytes(text.encode() + b"0.5,1.5\r\n+1,.5\r\n01,1.\n")
    with pytest.raises(cli._CliError, match=r": schema mismatch: field 1 on line 23: '\+1' is not a number of 1 to 32 bytes as repr writes it"):
        cli._read_table(path)
    assert _read_outcome(path) == _reference_outcome(path.read_bytes())
    path.write_text(text + "0.5,nan")  # a last line with no newline
    with pytest.raises(cli._CliError, match="schema mismatch: field 2 on line 22: non-finite value 'nan'"):
        cli._read_table(path)


def _halfway(value, digits):
    """The exact decimal halfway between value and the next float up, written with `digits` significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        return format((decimal.Decimal(value) + decimal.Decimal(np.nextafter(value, np.inf))) / 2, f".{digits - 1}e")


# The spellings the table commands write, and of integers; then spellings outside the grammar, and a few in it.
_PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.24e}"),
    st.integers(-(10**31), 10**31).map(str),
)
_ODD_CELLS = st.sampled_from(["-0", "+1", ".5", "1.", "01", "-00", "1e5", "1E+05", "1e-400", "-1e-400", "1e400",
                              "nan", "-inf", "", " 1", "1_0", "0x1", "1e", "--1", "\u00e9", "1" * 33])


@st.composite
def _tables(draw):
    """(fields, lines): rows of cells and their line ends, plain in about half the tables."""
    fields = draw(st.integers(1, 3))
    if draw(st.booleans()):
        row, end = st.lists(_PLAIN_CELLS, min_size=fields, max_size=fields), st.just("\n")
    else:
        cell = st.one_of(_PLAIN_CELLS, _ODD_CELLS)
        row = st.one_of(st.lists(cell, min_size=fields, max_size=fields), st.lists(cell, min_size=1, max_size=4))
        end = st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n"])
    return fields, draw(st.lists(st.tuples(row, end), max_size=12))


@settings(max_examples=200, deadline=None)
@given(table=_tables(), last_newline=st.booleans(), piece=st.sampled_from([1, 7, 64, 1 << 16]))
@example(table=(2, [(["0.25", "0.5"], "\n"), (["0.5", "0.75"], "\n")]), last_newline=False, piece=1 << 16)
# orjson rounds this exact halfway decimal away from the even neighbour; it is far over 32 bytes.
@example(table=(1, [([_halfway(5.070266582975182e-286, 780)], "\n")]), last_newline=True, piece=1 << 16)
@example(table=(2, [(["0.1", "0." + "1" * 31], "\n")]), last_newline=True, piece=1 << 16)  # a 33-byte cell
@example(table=(2, [(["0.1", ""], "\n"), (["", "1.0"], "\n")]), last_newline=True, piece=1 << 16)
@example(table=(2, [(["+1", ".5"], "\n")]), last_newline=True, piece=1 << 16)
@example(table=(2, [(["1.0", "2.0"], "\r\n"), (["3.0", "4.0"], "\r\n")]), last_newline=True, piece=1 << 16)
@example(table=(2, [(["1", "2", "3"], "\n"), (["4"], "\n")]), last_newline=True, piece=1 << 16)
@example(table=(2, [(["-0", "-0.0"], "\n"), (["1e-0", "-1e-400"], "\n")]), last_newline=True, piece=7)
@example(table=(2, [(["0.5", "1.5"], "\n")] * 6 + [(["1.0", "nan"], "\n")]), last_newline=True, piece=1)
@example(table=(3, [(["0.0", "-0.1", "1.0"], "\n")] * 9 + [(["0.01", "-0.1", "1e999"], "\n")]), last_newline=True, piece=64)
# Line ends the old text reader took: lone CRs, CRLF with no last newline, a blank line before the last row.
@example(table=(2, [(["1.0", "2.0"], "\r"), (["3.0", "4.0"], "\r")]), last_newline=True, piece=1 << 16)
@example(table=(2, [(["1.0", "2.0"], "\r\n"), (["3.0", "4.0"], "\r\n")]), last_newline=False, piece=1 << 16)
@example(table=(2, [(["1.0", "2.0"], "\n\n"), (["3.0", "4.0"], "\n")]), last_newline=True, piece=1 << 16)
def test_read_table_matches_grammar_reference(tmp_path_factory, table, last_newline, piece):
    # Every file gives the reference's header and table bits, or its refusal with exit code 1 at the same line and field.
    fields, lines = table
    body = "".join(",".join(cells) + end for cells, end in lines)
    if not last_newline:
        body = body.rstrip("\r\n")
    path = tmp_path_factory.mktemp("read") / "t.csv"
    path.write_bytes(",".join(f"c{k}" for k in range(fields)).encode() + b"\n" + body.encode())
    with mock.patch.object(cli, "_PIECE", piece):
        assert _read_outcome(path) == _reference_outcome(path.read_bytes())


_CR_REFUSALS = {
    b"1.0,2.0\r3.0,4.0\r": "field 2 on line 2: '2.0\\r3.0' is not a number of 1 to 32 bytes as repr writes it",
    b"1.0,2.0\r\n\r\n3.0,4.0\r\n": "no row on line 3: field 1 is missing",
}


@pytest.mark.parametrize("body, rows", [
    (b"1.0,2.0\r3.0,4.0\r", None),  # a lone CR is no line end
    (b"1.0,2.0\r\n3.0,4.0", 2),
    (b"1.0,2.0\r\n\r\n3.0,4.0\r\n", None),  # a blank line is no row
])
def test_read_table_counts_cr_and_crlf_lines(tmp_path, body, rows):
    path = tmp_path / "t.csv"
    path.write_bytes(b"c0,c1\r\n" + body)
    if rows is None:
        with pytest.raises(cli._CliError) as err:
            cli._read_table(path)
        assert (err.value.code, err.value.message) == (1, f"{path}: schema mismatch: {_CR_REFUSALS[body]}")
    else:
        header, table = cli._read_table(path)
        assert header == ["c0", "c1"] and table.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_undecodable_byte_is_refused_at_its_line_and_field(tmp_path):
    # A 0xff byte about 180 kB into a CRLF table, past the first pieces orjson parses.
    rows = "".join(f"{k * 1e-4!r},{k * 0.5!r}\r\n" for k in range(12000))
    data = bytearray(("delta_prime_ev,intensity\r\n" + rows).encode())
    at = data.index(b"1", 180_000)  # a digit about 180 kB in
    data[at] = 0xFF
    path = tmp_path / "bad.csv"
    path.write_bytes(bytes(data))
    start = data.rindex(b"\n", 0, at) + 1  # of the byte's line
    line, field = data.count(b"\n", 0, at) + 1, data.count(b",", start, at) + 1
    cell = bytes(data[start : data.index(b"\r\n", at)]).split(b",")[field - 1]
    message = f"{path}: schema mismatch: field {field} on line {line}: {repr(cell)[1:]} is not a number of 1 to 32 bytes as repr writes it"
    with pytest.raises(cli._CliError) as err:
        cli._read_table(path)
    assert (err.value.code, err.value.message) == (1, message)
    assert b"\xff" in cell and 4000 < line < 12002


def test_read_table_of_a_pipe_exit_2(tmp_path, capsys):
    # plot reads a file more than once (to count its lines, then to parse it), so a pipe is refused.
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"delta_prime_ev,intensity\n0.0,1.0\n1.0,2.0\n")
        os.close(write_end)
        svg = tmp_path / "pipe.svg"
        assert main(["plot", f"/dev/fd/{read_end}", "--kind", "line", "--out", str(svg)]) == 2
    finally:
        os.close(read_end)
    assert "cannot read" in capsys.readouterr().err
    assert not svg.exists()


_READ_ONLY_MAP = np.linspace(-0.35, 0.35, 12).reshape(3, 4)
_READ_ONLY_MAP.setflags(write=False)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(), max_size=64))
# Zeros, the smallest subnormal, and both sides of the low end of orjson's notation range.
@example(values=[0.0, -0.0, 5e-324, -5e-324, np.nextafter(1e-4, -np.inf), 1e-4, np.nextafter(1e-4, np.inf), -1e-4])
# The high end: 1e16 and its neighbours (the one below is 9999999999999998.0), and the largest float.
@example(values=[np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, np.inf), 9999999999999998.0, 1.7976931348623157e308])
@example(values=[math.nan, math.inf, -math.inf, -1.7976931348623157e308])
@example(values=np.array([]))
@example(values=np.linspace(-1.0, 1.0, 11)[::2])
@example(values=_READ_ONLY_MAP[1])
@example(values=np.array([0.1, 1e-5, 3.4e38, 1e-45, np.nan], dtype=np.float32))
def test_each_written_cell_is_repr_of_its_value(values):
    # One column, and two (the second reversed): every cell's bytes are repr's text of its value as a float.
    values = np.asarray(values)
    cells = list(map(repr, values.astype(float).tolist()))
    one = b"".join(cli._csv_bytes(["v"], [(b"", values[:, None])]))
    assert one == "".join(f"{cell}\n" for cell in ["v", *cells]).encode()
    two = b"".join(cli._csv_bytes(["v", "w"], [(b"", np.column_stack((values, values[::-1])))]))
    assert two == "".join(f"{a},{b}\n" for a, b in [("v", "w"), *zip(cells, cells[::-1])]).encode()


def test_spectrum_roundtrip_and_exit_code(cfg_path, tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = _read(out)
    assert header == ["delta_prime_ev", "intensity"]
    assert len(rows) == 701
    x = np.array([float(r[0]) for r in rows])
    assert x[0] == -0.35 and x[-1] == 0.35
    assert (np.diff(x) > 0).all()
    #

    # Shortest round-trip formatting: re-serializing the parsed floats
    # reproduces the file exactly.
    for r in rows[:50]:
        assert repr(float(r[0])) == r[0]
        assert repr(float(r[1])) == r[1]


def test_spectrum_seven_clusters_at_T5(tmp_path):
    # Needs the full default grid; the narrow T=5 peaks fall between the
    # samples of the coarser test grid.
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--temp", "5"]) == 0
    _, rows = _read(out)
    y = np.array([float(r[1]) for r in rows])
    inner = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]) & (y[1:-1] >= 1e-4 * y.max())
    assert int(inner.sum()) == 7


def test_transitions_table(cfg_path, tmp_path):
    out = tmp_path / "tr.csv"
    assert main(["transitions", "--config", str(cfg_path), "--out", str(out), "--delta", "0"]) == 0
    header, rows = _read(out)
    assert header == ["i", "j", "kind", "delta_prime_ev", "luminosity", "hwhm_ev", "intensity"]
    assert len(rows) == 9
    nonzero = [r for r in rows if float(r[4]) > 1e-20]
    assert len(nonzero) == 6
    kinds = {(int(r[0]), int(r[1])): r[2] for r in rows}
    assert kinds[(1, 1)] == "central" and kinds[(1, 2)] == "side"
    for r in rows:
        assert float(r[6]) == pytest.approx(float(r[4]) / float(r[5]), rel=1e-12)


def test_branches_long_form(cfg_path, tmp_path):
    out = tmp_path / "br.csv"
    assert main(["branches", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = _read(out)
    assert header == ["delta_ev", "i", "j", "delta_prime_ev"]
    assert len(rows) == 13 * 9
    # delta-major ordering, nine branches per block
    first_block = rows[:9]
    assert all(r[0] == first_block[0][0] for r in first_block)
    assert [(r[1], r[2]) for r in first_block] == [
        ("1", "1"), ("1", "2"), ("1", "3"),
        ("2", "1"), ("2", "2"), ("2", "3"),
        ("3", "1"), ("3", "2"), ("3", "3"),
    ]


def test_map_size_and_ordering(cfg_path, tmp_path):
    out = tmp_path / "map.csv"
    assert main(["map", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = _read(out)
    assert header == ["delta_ev", "delta_prime_ev", "intensity"]
    assert len(rows) == 13 * 701
    deltas = [float(r[0]) for r in rows]
    assert deltas == sorted(deltas)
    assert float(rows[0][1]) == -0.35 and float(rows[700][1]) == 0.35


def test_tempseries_writes_one_file_per_temperature(cfg_path, tmp_path):
    out = tmp_path / "series.csv"
    assert main(["tempseries", "--config", str(cfg_path), "--out", str(out)]) == 0
    for temp in (5, 20, 40):
        path = tmp_path / f"series_T{temp}K.csv"
        assert path.exists()
        header, rows = _read(path)
        assert header == ["delta_prime_ev", "intensity"]
        assert len(rows) == 701
    heights = []
    for temp in (5, 20, 40):
        _, rows = _read(tmp_path / f"series_T{temp}K.csv")
        heights.append(max(float(r[1]) for r in rows))
    assert heights[0] > heights[1] > heights[2]


def test_spectrum_is_the_one_temperature_tempseries(cfg_path, tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(out), "--temp", "20"]) == 0
    assert main(["tempseries", "--config", str(cfg_path), "--out", str(tmp_path / "series.csv"), "--temps", "20"]) == 0
    assert out.read_bytes() == (tmp_path / "series_T20K.csv").read_bytes()


def test_temp_and_delta_overrides(cfg_path, tmp_path):
    base = tmp_path / "a.csv"
    hot = tmp_path / "b.csv"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(base)]) == 0
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(hot), "--temp", "40"]) == 0
    _, rows_base = _read(base)
    _, rows_hot = _read(hot)
    assert max(float(r[1]) for r in rows_hot) < max(float(r[1]) for r in rows_base)

    shifted = tmp_path / "c.csv"
    assert main(["transitions", "--config", str(cfg_path), "--out", str(shifted), "--delta", "5.0"]) == 0
    _, rows = _read(shifted)
    a_max = max(abs(float(r[3])) for r in rows)
    assert a_max > 4.0  # XI branch pushed far out by the splitting override


def test_determinism_across_runs_and_workers(cfg_path, tmp_path):
    files = []
    for run in range(3):
        out = tmp_path / f"map_{run}.csv"
        assert main(["map", "--config", str(cfg_path), "--out", str(out)]) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1] == files[2]


def test_map_workers_reach_the_kernel(tmp_path, monkeypatch):
    # 241 rows of 701 points are three kernel blocks: one CPU starts no
    # thread, and eight (a thread per block) start two.
    cfg = tmp_path / "three_blocks.cfg"
    cfg.write_text(MINIMAL + "npoints = 701\nsweep_steps = 241\n")
    outs = {}
    for cpus, threads in ((1, 0), (8, 2)):
        started = count_thread_starts(monkeypatch, cpus=cpus)
        outs[cpus] = tmp_path / f"map_cpus{cpus}.csv"
        assert main(["map", "--config", str(cfg), "--out", str(outs[cpus])]) == 0
        assert len(started) == threads
    assert outs[1].read_bytes() == outs[8].read_bytes()


# np.linspace calls per run: parse_config builds the grid and the sweep once each, and a command that reads an
# axis builds it once more; plot reads no config.
@pytest.mark.parametrize("command, out, written, samplings", [
    ("spectrum", "s.csv", ["s.csv"], 3),
    ("transitions", "t.csv", ["t.csv"], 2),
    ("branches", "b.csv", ["b.csv"], 3),
    ("map", "m.csv", ["m.csv"], 4),
    ("tempseries", "s.csv", ["s_T5K.csv", "s_T20K.csv", "s_T40K.csv"], 3),
    ("plot", "p.svg", ["p.svg"], 0),
])
def test_a_run_writes_once_and_samples_each_axis_once(cfg_path, tmp_path, monkeypatch, command, out, written, samplings):
    table = tmp_path / "table.csv"
    table.write_text(_SPECTRUM_TEXT)
    extra = {"plot": [str(table), "--kind", "line"], "tempseries": ["--config", str(cfg_path), "--temps", "5,20,40"]}
    writes, calls = [], []
    real_write, real_linspace = cli._write_files, np.linspace
    monkeypatch.setattr(cli, "_write_files", lambda files: writes.append(list(files)) or real_write(files))
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: calls.append(args) or real_linspace(*args, **kwargs))
    argv = [command, *extra.get(command, ["--config", str(cfg_path)]), "--out", str(tmp_path / out)]
    assert run_cli(argv) == (0, "")
    assert writes == [[tmp_path / name for name in written]]
    assert len(calls) == samplings


def test_config_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "t_ev = 0.2\n")  # duplicate key
    out = tmp_path / "x.csv"
    assert main(["spectrum", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "duplicate key" in err
    assert not out.exists()


_BASE = "e_xd_ev = 1.0\nhw_l_ev = 1.0\nt_ev = 0.1\n"


_KERNEL = "Lorentzian denominators overflow: (x - a)^2 + f^2 is not finite at a grid end"


@pytest.mark.parametrize("command", ["spectrum", "transitions", "branches", "map", "tempseries"])
@pytest.mark.parametrize("text, message", [
    (_BASE + "g_ev = 0.01\nn = 1" + "0" * 400, "line 5: g_ev * sqrt(n) overflows (g_ev on line 4)"),
    (_BASE + "g_ev = 1e308\nn = 4", "line 5: g_ev * sqrt(n) overflows (g_ev on line 4)"),
    (_BASE + "g_sqrt_n_ev = 0.1\nfield_kv_per_cm = 1e308\nd_nm = 1e308",
     "line 5: field-tuned splitting delta_zero_field - d * field * 1e-4 must be finite, got -inf"),
    (_BASE + "g_sqrt_n_ev = 0.1\ndp_min_ev = -1e308\ndp_max_ev = 1e308",
     "line 5: grid span dp_max - dp_min overflows, got [-1e+308, 1e+308]"),
    (_BASE + "g_sqrt_n_ev = 0.1\nsweep_lo = -1e308\nsweep_hi = 1e308",
     "line 5: sweep span hi - lo overflows, got [-1e+308, 1e+308]"),
    (_BASE + "g_sqrt_n_ev = 0.1\ngamma0_ev = 1e308\na_ev_per_k = 1e308\ntemp_k = 10",
     "line 7: line widths overflow at temperature 10.0 K (Gamma(T) = inf eV)"),
    (_BASE + "g_sqrt_n_ev = 0.1\ngamma0_ev = 1.7e308\ngamma_rad_ev = 1.7e308",
     "line 5: line widths overflow at temperature 0.0 K (Gamma(T) = 1.7e+308 eV)"),
    (_BASE + "g_sqrt_n_ev = 0.1\ntemp_k = 1e308", "line 5: line widths overflow at temperature 1e+308 K"),
    ("e_xd_ev = -1e308\nhw_l_ev = 1e308\nt_ev = 0.1\ng_sqrt_n_ev = 0.1",
     "line 2: laser detuning hw_l + e0 - e_xd must be finite, got inf"),
    ("e_xd_ev = 1.0\nhw_l_ev = 1.0\nt_ev = 1e308\ng_sqrt_n_ev = 1e308",
     "line 4: line positions a = E_i - E_j must be finite; the dressed-energy spread overflows"),
    (_BASE + "g_sqrt_n_ev = 0.1\nsweep_hi = 1e308", f"line 5: {_KERNEL}"),
    (_BASE + "g_sqrt_n_ev = 0.1\nmu = 1e200", "line 5: line intensities overflow: lum / f * f * f is not finite"),
    (_BASE + "g_sqrt_n_ev = 0.1\nmu = 1e150\ngamma0_ev = 1e-10\ngamma_rad_ev = 1e-10",
     "line 5: line intensities overflow: lum / f * f * f is not finite"),
    (_BASE + "g_sqrt_n_ev = 0.1\ndelta_ev = 1e200", f"line 5: {_KERNEL}"),
    (_BASE + "g_sqrt_n_ev = 0.1\ndp_min_ev = -1e300\ndp_max_ev = 1e300", f"line 5: {_KERNEL}"),
    (_BASE + "g_sqrt_n_ev = 0.1\ngamma0_ev = 1e-200\ngamma_rad_ev = 1e-200",
     "line 5: line widths underflow at temperature 0.0 K (Gamma(T) = 1e-200 eV)"),
], ids=["huge-n", "huge-g", "field", "grid", "sweep", "gamma-t", "gamma-rad", "temp", "laser", "spread",
        "sweep-spread", "mu", "intensity", "kernel-delta", "kernel-grid", "width-underflow"])
def test_overflowing_value_exit_1(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text + "\n")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("spectrum", "--temp"), ("transitions", "--temp"), ("map", "--temp"), ("tempseries", "--temps"),
])
def test_overflowing_temperature_flag_exit_1(cfg_path, tmp_path, capsys, command, flag):
    # Gamma(1e308 K) = 2.2e303 eV is finite, but the kernel's f * f is not: the spectrum would be all zeros.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"), flag, "1e308"]) == 1
    assert "invalid parameters: line widths overflow at temperature 1e+308 K" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]


_HOT_NARROW = "mu = 1e150\ngamma0_ev = 1e-10\ngamma_rad_ev = 1e-10\ntemp_k = 1e9\n"


@pytest.mark.parametrize("command, extra, flag, message", [
    ("spectrum", "", "--delta=1e200", _KERNEL),
    ("tempseries", "", "--delta=1e200", _KERNEL),
    # A cold --temp under a hot temp_k narrows the lines until their peak heights lum / f overflow.
    ("spectrum", _HOT_NARROW, "--temp=0", "line intensities overflow: lum / f * f * f is not finite"),
    ("transitions", _HOT_NARROW, "--temp=0", "line intensities overflow: lum / f * f * f is not finite"),
    ("map", _HOT_NARROW, "--temp=0", "line intensities overflow: lum / f * f * f is not finite"),
], ids=["spectrum-delta", "tempseries-delta", "spectrum-temp", "transitions-temp", "map-temp"])
def test_flag_that_overflows_the_lines_exit_1(tmp_path, capsys, command, extra, flag, message):
    # parse_config accepts the config; the flag bypasses its checks, and the run refuses it by name.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL + extra)
    parse_config(cfg.read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv"), flag]) == 1
    assert capsys.readouterr().err == f"qdmfluor: invalid parameters: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command, flag", [
    ("tempseries", "--temp"),
    ("map", "--delta"),
    ("branches", "--temp"),
    ("branches", "--delta"),
])
def test_flag_the_command_does_not_read_exit_2(cfg_path, tmp_path, capsys, command, flag):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), "--out", str(out), flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_unwritable_output_exit_2(cfg_path, tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "out.csv"
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_over_cell_budget_exit_1(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(MINIMAL + "npoints = 100000\nsweep_steps = 1000\n")
    out = tmp_path / "map.csv"
    assert main(["map", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "npoints" in err and "sweep_steps" in err
    assert not out.exists()


def test_failed_tempseries_write_leaves_no_files(cfg_path, tmp_path, monkeypatch, capsys):
    real_open = open
    opened = []

    def failing_open(path, *args, **kwargs):
        opened.append(path)
        if len(opened) == 2:
            raise OSError(28, "No space left on device")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    out = tmp_path / "series.csv"
    assert main(["tempseries", "--config", str(cfg_path), "--out", str(out), "--temps", "5,20,40"]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert len(opened) == 2
    # Neither the first temperature's file nor any temp file is left behind.
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_output_through_symlink_and_non_regular_target(cfg_path, tmp_path, capsys):
    real = tmp_path / "data" / "spectrum.csv"
    real.parent.mkdir()
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(link)]) == 0
    assert link.is_symlink() and real.read_text().startswith("delta_prime_ev,intensity\n")
    # A target that is not a regular file (a pipe here, /dev/null in use) is refused, never replaced.
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(fifo)]) == 2
    assert "not a regular file" in capsys.readouterr().err
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "link.csv", "pipe.csv", "run.cfg"]


def test_bad_temps_exit_1(cfg_path, tmp_path, capsys):
    assert main(["tempseries", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv"),
                 "--temps", "5,-2"]) == 1
    assert "--temps" in capsys.readouterr().err


@pytest.mark.parametrize("temps", ["inf", "5,nan", "5,-inf"])
def test_non_finite_temps_exit_1(cfg_path, tmp_path, temps):
    argv = ["tempseries", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv"), "--temps", temps]
    assert run_cli(argv) == (1, f"qdmfluor: --temps needs a comma-separated list of finite temperatures >= 0, got {temps!r}\n")
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("command", ["spectrum", "transitions", "map"])
@pytest.mark.parametrize("temp", ["inf", "nan"])
def test_non_finite_temp_flag_exit_1(cfg_path, tmp_path, command, temp):
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x.csv"), "--temp", temp]
    assert run_cli(argv) == (1, f"qdmfluor: invalid parameters: temperature must be finite and >= 0 K, got {temp}\n")
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("command, flag, value, message", [
    ("spectrum", "--temp", "-inf", "invalid parameters: temperature must be finite and >= 0 K, got -inf"),
    ("map", "--temp", "-1e5", "invalid parameters: temperature must be finite and >= 0 K, got -100000.0"),
    ("spectrum", "--delta", "-inf", "invalid parameters: delta must be finite, got -inf"),
    ("tempseries", "--temps", "-inf", "--temps needs a comma-separated list of finite temperatures >= 0, got '-inf'"),
    ("tempseries", "--temps", "-5,4", "--temps needs a comma-separated list of finite temperatures >= 0, got '-5,4'"),
], ids=["temp-inf", "temp-1e5", "delta-inf", "temps-inf", "temps-list"])
def test_a_value_that_starts_with_a_dash_reaches_its_check(cfg_path, tmp_path, command, flag, value, message):
    # argparse alone takes -inf, -1e5 and -5,4 for flags; both spellings give the value's own refusal.
    common = ["--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]
    for argv in ([command, *common, flag, value], [command, flag, value, *common], [command, *common, f"{flag}={value}"]):
        assert run_cli(argv) == (1, f"qdmfluor: {message}\n")
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_a_dash_token_after_double_dash_stays_a_positional(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["plot", "--kind", "line", "--", "-missing.csv"]) == 2
    assert capsys.readouterr().err.startswith("qdmfluor: cannot read -missing.csv: ")


def test_every_long_flag_but_help_takes_one_value():
    # main joins `--flag -value` on this rule; a flag that takes no value would break it.
    parser = cli._build_parser()
    (commands,) = [action for action in parser._actions if action.choices and action.dest == "command"]
    for command in commands.choices.values():
        for action in command._actions:
            flags = [flag for flag in action.option_strings if flag.startswith("--")]
            assert not flags or flags == ["--help"] or action.nargs is None, flags


def test_temps_that_are_not_numbers_exit_1(cfg_path, tmp_path):
    argv = ["tempseries", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv"), "--temps", "5,abc"]
    assert run_cli(argv) == (1, "qdmfluor: bad --temps value '5,abc': could not convert string to float: 'abc'\n")
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_config_that_is_not_utf8_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe=1\n")
    code, err = run_cli(["spectrum", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert err.startswith("qdmfluor: config error: ") and "codec can't decode byte 0xff in position 0" in err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("command", ["map", "branches"])
@pytest.mark.parametrize("bounds, message", [
    # Bounds one float apart hold no five distinct samples; nor do three between 0 and the least subnormal.
    ("dp_min_ev = 1.0\ndp_max_ev = 1.0000000000000002\nnpoints = 5",
     "line 5: grid samples repeat: npoints = 5 over [1.0, 1.0000000000000002] are not strictly increasing"),
    ("sweep_lo = 0.0\nsweep_hi = 5e-324\nsweep_steps = 3",
     "line 5: sweep samples repeat: steps = 3 over [0.0, 5e-324] are not strictly increasing"),
], ids=["grid", "sweep"])
def test_axis_whose_samples_repeat_exit_1(tmp_path, command, bounds, message):
    text = MINIMAL + bounds + "\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [message]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code_and_err = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code_and_err == (1, f"qdmfluor: config error: {message}\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_commands_do_not_read_in_the_locale_encoding(cfg_path, tmp_path):
    # Configs are read as UTF-8 and tables as bytes: a read in the locale's encoding would raise EncodingWarning here.
    src = str(Path(qdmfluor.__file__).parents[1])  # the child imports the package under test
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    spectrum, crlf = tmp_path / "spectrum.csv", tmp_path / "spectrum_crlf.csv"

    def run(*argv):
        cmd = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "qdmfluor.cli"]
        return subprocess.run(cmd + list(argv), env=env, capture_output=True, encoding="utf-8")

    done = run("spectrum", "--config", str(cfg_path), "--out", str(spectrum))
    assert (done.returncode, done.stderr) == (0, "")
    crlf.write_bytes(spectrum.read_bytes().replace(b"\n", b"\r\n"))
    done = run("plot", str(crlf), "--kind", "line", "--out", str(tmp_path / "spectrum.svg"))
    assert (done.returncode, done.stderr) == (0, "")


def test_colliding_tempseries_names_exit_1(cfg_path, tmp_path, capsys):
    # {temp:g} renders both as 20, so the second spectrum would overwrite the first.
    out = tmp_path / "s.csv"
    assert main(["tempseries", "--config", str(cfg_path), "--out", str(out), "--temps", "5,20,20.0000001"]) == 1
    err = capsys.readouterr().err
    assert "20.0" in err and "20.0000001" in err and "s_T20K.csv" in err
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_negative_zero_temperature_is_written_as_zero(cfg_path, tmp_path):
    # -0 is 0 K: with 0 it names one file twice, and alone it writes the _T0K.csv that 0 writes.
    out = tmp_path / "s.csv"
    argv = ["tempseries", "--config", str(cfg_path), "--out", str(out), "--temps"]
    assert run_cli(argv + ["0,-0"]) == (1, "qdmfluor: --temps 0.0 and 0.0 would both write s_T0K.csv\n")
    assert list(tmp_path.iterdir()) == [cfg_path]
    assert run_cli(argv + ["0"]) == (0, "")
    zero = (tmp_path / "s_T0K.csv").read_bytes()
    assert run_cli(argv + ["-0"]) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg", "s_T0K.csv"]
    assert (tmp_path / "s_T0K.csv").read_bytes() == zero


_SPECTRUM_TEXT = "delta_prime_ev,intensity\n0.0,1.0\n0.5,3.0\n1.0,2.0\n"


_NOT_NINE = f"schema mismatch: rows are not nine per splitting in (i,j) order {BRANCH_LABELS}"


def _branches_text(edit):
    """A branches table of two splittings as the command writes it, with its body rows edited."""
    rows = [f"{delta!r},{i},{j},{delta + i - j!r}\n" for delta in (0.0, 0.01) for i, j in BRANCH_LABELS]
    return ",".join(cli.BRANCHES_HEADER) + "\n" + "".join(edit(rows))


class TestPlot:
    def test_spectrum_line_plot(self, cfg_path, tmp_path):
        csv_path = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(csv_path)]) == 0
        svg_path = tmp_path / "spectrum.svg"
        assert main(["plot", str(csv_path), "--kind", "line", "--out", str(svg_path)]) == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg ")
        assert 'data-x-range="-0.35,0.35"' in svg
        assert "<polyline" in svg

    def test_branches_line_plot_has_nine_series(self, cfg_path, tmp_path):
        csv_path = tmp_path / "branches.csv"
        assert main(["branches", "--config", str(cfg_path), "--out", str(csv_path)]) == 0
        svg_path = tmp_path / "branches.svg"
        assert main(["plot", str(csv_path), "--kind", "line", "--out", str(svg_path)]) == 0
        assert svg_path.read_text().count("<polyline") == 9

    def test_map_heatmap_orientation(self, cfg_path, tmp_path):
        csv_path = tmp_path / "map.csv"
        assert main(["map", "--config", str(cfg_path), "--out", str(csv_path)]) == 0
        svg_path = tmp_path / "map.svg"
        assert main(["plot", str(csv_path), "--kind", "heatmap", "--out", str(svg_path)]) == 0
        svg = svg_path.read_text()
        # delta_prime horizontal, delta vertical
        assert 'data-x-range="-0.35,0.35"' in svg
        assert 'data-y-range="0.0,0.06"' in svg

    def test_plot_default_output_path(self, cfg_path, tmp_path):
        csv_path = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(csv_path)]) == 0
        assert main(["plot", str(csv_path), "--kind", "line"]) == 0
        assert (tmp_path / "spectrum.svg").exists()

    def test_empty_csv_schema_mismatch(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["plot", str(empty), "--kind", "line"]) == 1
        assert "schema mismatch" in capsys.readouterr().err

    def test_kind_schema_mismatch(self, cfg_path, tmp_path, capsys):
        csv_path = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(csv_path)]) == 0
        assert main(["plot", str(csv_path), "--kind", "heatmap"]) == 1
        assert "schema mismatch" in capsys.readouterr().err

    def test_heatmap_rejects_non_finite_intensity(self, tmp_path, capsys):
        csv_path = tmp_path / "map.csv"
        csv_path.write_text("delta_ev,delta_prime_ev,intensity\n0.0,-0.1,1.0\n0.0,0.1,2.0\n0.01,-0.1,nan\n0.01,0.1,3.0\n")
        assert main(["plot", str(csv_path), "--kind", "heatmap"]) == 1
        assert "line 4: non-finite value 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "map.svg").exists()

    def test_heatmap_rejects_a_repeated_row(self, tmp_path):
        csv_path = tmp_path / "map.csv"
        csv_path.write_text("delta_ev,delta_prime_ev,intensity\n0.0,-0.1,1.0\n0.0,0.1,2.0\n0.0,0.1,2.0\n")
        assert run_cli(["plot", str(csv_path), "--kind", "heatmap"]) == (
            1, f"qdmfluor: {csv_path}: schema mismatch: map is not a full grid\n")
        assert not (tmp_path / "map.svg").exists()

    def test_heatmap_rejects_shuffled_rows(self, tmp_path):
        csv_path = tmp_path / "map.csv"
        for body, line in [
            ("0.0,-0.1,1.0\n0.01,-0.1,2.0\n0.0,0.1,4.0\n0.01,0.1,3.0\n", 3),  # detuning-major
            ("0.0,-0.1,1.0\n0.0,0.1,2.0\n0.01,0.1,4.0\n0.01,-0.1,3.0\n", 4),  # the last two lines swapped
            ("0.01,-0.1,1.0\n0.01,0.1,2.0\n0.0,-0.1,4.0\n0.0,0.1,3.0\n", 2),  # descending splittings
        ]:
            csv_path.write_text("delta_ev,delta_prime_ev,intensity\n" + body)
            assert run_cli(["plot", str(csv_path), "--kind", "heatmap"]) == (
                1, f"qdmfluor: {csv_path}: schema mismatch: rows are not in ascending splitting-major order on line {line}\n")
        assert not (tmp_path / "map.svg").exists()

    @pytest.mark.parametrize("text, message", [
        (_SPECTRUM_TEXT.replace("\n1.0,", "\n\n1.0,"), "schema mismatch"),
        (_SPECTRUM_TEXT.replace("\n0.0,", "\n\n0.0,"), "schema mismatch: no row on line 2"),
        (_SPECTRUM_TEXT.replace("0.0,1.0", "0.0,1.0,5.0"), "schema mismatch"),
        (_SPECTRUM_TEXT.replace("1.0,2.0", "1.0"), "schema mismatch"),
        ("delta_prime_ev,intensity\n", "schema mismatch: no row on line 2"),
        ("", "schema mismatch: no row on line 2"),
        (_SPECTRUM_TEXT.replace("2.0", "1_000"), "schema mismatch"),
        (_SPECTRUM_TEXT.replace("1.0,2.0", "1.0,NaN"), "line 4: non-finite value 'NaN'"),
        (_SPECTRUM_TEXT.replace("1.0,2.0", "1.0,1e999"), "line 4: non-finite value '1e999'"),
        (_branches_text(lambda rows: rows[:3] + [rows[4], rows[3]] + rows[5:]), f"{_NOT_NINE} on line 5\n"),
        (_branches_text(lambda rows: [row for row in rows if ",3,3," not in row]), f"{_NOT_NINE} on line 10\n"),
        (_branches_text(lambda rows: rows[:4] + ["0.005" + rows[4][3:]] + rows[5:]), f"{_NOT_NINE} on line 6\n"),
        (_branches_text(lambda rows: rows[:-1]), f"{_NOT_NINE} on line 19\n"),  # the line after the last is missing
        # No command writes a spectrum of one row, or branches of one splitting.
        ("delta_prime_ev,intensity\n0.0,1.0\n", "schema mismatch: a line chart needs at least two rows"),
        (_branches_text(lambda rows: rows[:9]), "schema mismatch: a line chart needs at least two splittings"),
        # Spellings outside the grammar the table commands write.
        *((_SPECTRUM_TEXT.replace("1.0,2.0", f"{cell},2.0"), f"field 1 on line 4: {cell!r} is not a number of 1 to 32 bytes as repr")
          for cell in ("+1", ".5", "1.", "01", "-0", " 1.0", "1.0 ")),
        (_SPECTRUM_TEXT.replace("1.0,2.0", "1.0,0." + "1" * 31), f"field 2 on line 4: '0.{'1' * 31}' is not a number of 1 to 32 bytes"),
        (_SPECTRUM_TEXT.replace("\n0.5", "\r0.5"), "field 2 on line 2: '1.0\\r0.5' is not a number of 1 to 32 bytes"),
        ("d\u00e9lta_prime_ev,intensity\n0.0,1.0\n1.0,2.0\n", "field 1 on line 1: header name 'd\\xc3\\xa9lta_prime_ev' is not ASCII"),
    ], ids=["blank", "blank-line-2", "extra-field", "missing-field", "header-only", "empty", "underscore",
            "nan", "overflow", "branches-swapped", "branch-missing", "branches-ragged", "branches-short", "one-row", "one-splitting",
            "plus", "leading-dot", "trailing-dot", "leading-zero", "integer-minus-zero", "blank-before", "blank-after",
            "long-cell", "lone-cr", "non-ascii-header"])
    def test_bad_table_exit_1(self, tmp_path, capsys, text, message):
        csv_path = tmp_path / "table.csv"
        csv_path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plot", str(csv_path), "--kind", "line"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"qdmfluor: {csv_path}: ") and message in err
        assert "Traceback" not in err
        assert not csv_path.with_suffix(".svg").exists()

    @pytest.mark.parametrize("x_col", [(1e16, 1.0000000000000002e16), (0.0, 5e-324)])
    def test_line_plot_of_a_span_below_one_tick_step(self, tmp_path, capsys, x_col):
        # The x span is one ulp of 1e16, or one subnormal step: no tick step resolves it.
        csv_path = tmp_path / "spectrum.csv"
        csv_path.write_text(f"delta_prime_ev,intensity\n{x_col[0]!r},1.0\n{x_col[1]!r},2.0\n")
        assert main(["plot", str(csv_path), "--kind", "line"]) == 0
        assert capsys.readouterr().err == ""
        assert "<polyline" in (tmp_path / "spectrum.svg").read_text()

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(_FLOATS, _FLOATS), max_size=8))
    @example(rows=[(0.0, 1e17), (1.0, 1e17)])  # a constant column that + 1.0 cannot widen
    @example(rows=[(-1e308, 0.0), (1e308, 1.0)])  # an x span that overflows
    @example(rows=[(0.0, -1.7976931348623157e308), (1.0, 1.7976931348623157e308)])
    def test_line_plot_of_any_finite_csv_exits_cleanly(self, tmp_path_factory, rows):
        # Exit 0, or exit 1 with a qdmfluor: message; never a traceback or a warning.
        csv_path = tmp_path_factory.mktemp("plot") / "spectrum.csv"
        csv_path.write_text("delta_prime_ev,intensity\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["plot", str(csv_path), "--kind", "line"])
        svg = csv_path.with_suffix(".svg")
        if code == 0:
            assert err.getvalue() == ""
            text = svg.read_text()
            assert "nan" not in text and "inf" not in text
        else:
            assert code == 1 and err.getvalue().startswith("qdmfluor: ")
            assert not svg.exists()

    def test_plot_determinism(self, cfg_path, tmp_path):
        csv_path = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(csv_path)]) == 0
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        assert main(["plot", str(csv_path), "--kind", "line", "--out", str(a)]) == 0
        assert main(["plot", str(csv_path), "--kind", "line", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
