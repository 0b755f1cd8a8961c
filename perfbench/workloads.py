"""Seeded workloads of the qdmfluor benchmark and the checks on their outputs.

A workload is a list of operations.  Each operation is one CLI command
(``cli.<subcommand>``, run in-process through ``qdmfluor.cli.main``) or
the library calls of one study point (``lib.point``), followed by a check
of what it produced.  The package only ever sees the generated inputs.

- ``map-render``: ``map`` on the default configuration (241 x 7001 =
  1.69M rows), then ``plot --kind heatmap`` of that file.  Almost all the
  time is CSV formatting and parsing in ``cli`` and SVG emission in
  ``svgplot``; the physics is about 2%.  The seed changes nothing here.
- ``sweep-study``: library calls only, no files.  Each seeded parameter
  point runs energy curves and transition branches over a 2001-step
  splitting sweep, the intensity map over that sweep on a 401-point grid
  (two pool threads), and a 32-temperature series.  Per-row objects in
  ``core``, ``spectrum`` and ``sweep`` dominate; ``cli``, ``config`` and
  ``svgplot`` do nothing.
- ``cli-batch``: 40 seeded small configurations, a quarter field-tuned,
  each through spectrum, transitions, branches, tempseries and two line
  plots: per-command latency over many small files.

Outputs are checked against invariants for every seed and, for the pinned
seeds, against sha256 digests of the CSV/SVG bytes and result arrays.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from qdmfluor import cli, sweep
from qdmfluor.core import DriveParams, EmitterParams, diagonalize, reduced_hamiltonian
from qdmfluor.spectrum import BroadeningModel, GridSpec, transitions
from qdmfluor.sweep import BRANCH_LABELS, SweepRange

# configs/default.cfg, kept here so the workload stays fixed when the
# repository's example config changes.
DEFAULT_CFG = """\
e_xd_ev = 1.0
hw_l_ev = 1.0
g_sqrt_n_ev = 0.1
t_ev = 0.1
"""

# The acceptance suite's SMALL_CFG: the map-render size for smoke tests.
SMALL_CFG = DEFAULT_CFG + "npoints = 701\nsweep_steps = 25\n"

SIZES = {
    "full": {"sweep_points": 4, "sweep_steps": 2001, "map_grid": 401, "temps": 32,
             "configs": 40, "npoints": (2001, 3001, 4001, 5001, 6001, 7001),
             "cfg_steps": (61, 121, 181, 241)},
    "small": {"sweep_points": 1, "sweep_steps": 41, "map_grid": 101, "temps": 4,
              "configs": 2, "npoints": (201, 701), "cfg_steps": (5, 25)},
}

# Digest of each group (see group_digests), per (workload, size, seed).
# map-render ignores its seed, so its pins hold for every seed: the sha256
# of `map` and `plot --kind heatmap` output for configs/default.cfg.
PINS: dict[tuple[str, str, int | None], dict[str, str]] = {
    ("map-render", "full", None): {
        "map.csv": "3135ea75ac9689c0fd775b515c83d4ed3b671da56614bc7ae87dc4dc9523c3a0",
        "map.svg": "0f5f2c64aa2404b2ca1775979bbae06d4cb884752c2a03b791c15a0b7b745fd6",
    },
    ("sweep-study", "full", 1): {
        "arrays": "a48aeb6f52da2b34139fc8b2c2efdfd494cee6511c9298f0d17a1538ebd0c266",
    },
    ("cli-batch", "full", 1): {
        "spectrum": "5cadfd6d23e1cfd3aabc2dac97bbc84a7c7e70b63720a16fe4d646d5c8498668",
        "transitions": "0f4c05bbec96e944076400ee7ddd5e4f77a29e8929800bf89619652c1a2f5457",
        "branches": "7ec288e1b628d2f3b4a799fc81b328f231531ed134cd5bde451ea4560b9f00ad",
        "tempseries": "e9f2a6c4c678d49b14698036fa93f9ad3036fdc88335c5191c7b53c42afc32ff",
        "plot-spectrum": "2dc0f7464cf3f653c83e4df7511026b2292ee5ef1683d64064b66f9bb4de5bc9",
        "plot-branches": "9a0c5f4966d8456e2e775519bd594408e9200ad54092711521eb577407705af7",
    },
}

SUM_RULE_TOL = 1e-12


class CheckError(Exception):
    """An output broke an invariant or a pinned digest."""


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    run performs it; check raises CheckError on a wrong result; digest feeds
    the result's bytes (its files or arrays) to a hash; group names the
    pinned digest it counts towards; rows is the number of splitting values
    it solves; files_in and files_out are what a CLI command reads and writes.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object, object], None]
    group: str
    rows: int
    files_in: tuple[Path, ...] = ()
    files_out: tuple[Path, ...] = ()


def pins(workload: str, size: str, seed: int) -> dict[str, str]:
    return PINS.get((workload, size, None)) or PINS.get((workload, size, seed), {})


def build(workload: str, seed: int, size: str, workdir: Path) -> list[Op]:
    """Generate the inputs of one workload into workdir and return its operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "map-render":
        return _map_render(size, workdir)
    if workload == "sweep-study":
        return _sweep_study(seed, SIZES[size])
    if workload == "cli-batch":
        return _cli_batch(seed, SIZES[size], workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- checks


def _floats(texts: tuple[str, ...], where: str) -> list[float]:
    """Parse a column; every value must be finite and print back as the same text."""
    try:
        values = list(map(float, texts))
    except ValueError as exc:
        raise CheckError(f"{where}: {exc}") from exc
    if tuple(map(repr, values)) != texts or not all(map(math.isfinite, values)):
        raise CheckError(f"{where}: values are not finite shortest round-trip floats")
    return values


def _csv_columns(path: Path, header: list[str], nrows: int) -> list[tuple[str, ...]]:
    lines = path.read_text().split("\n")
    if lines[-1] != "":
        raise CheckError(f"{path.name}: missing final newline")
    if lines[0] != ",".join(header):
        raise CheckError(f"{path.name}: header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != nrows or set(map(len, rows)) != {len(header)}:
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {nrows} of {len(header)} fields")
    return list(zip(*rows))


def _check_spectrum(path: Path, cfg: dict) -> None:
    x, y = (_floats(col, path.name) for col in _csv_columns(path, cli.SPECTRUM_HEADER, cfg["npoints"]))
    if x[0] != cfg["dp_min_ev"] or x[-1] != cfg["dp_max_ev"]:
        raise CheckError(f"{path.name}: grid ends {x[0]}, {x[-1]}")
    if not all(map(operator.lt, x, x[1:])):
        raise CheckError(f"{path.name}: detuning not ascending")
    if min(y) < 0.0:
        raise CheckError(f"{path.name}: negative intensity")


def _check_transitions(path: Path, cfg: dict) -> None:
    i_col, j_col, kinds, *numbers = _csv_columns(path, cli.TRANSITIONS_HEADER, 9)
    labels = [(str(i), str(j), "central" if i == j else "side") for i, j in BRANCH_LABELS]
    if list(zip(i_col, j_col, kinds)) != labels:
        raise CheckError(f"{path.name}: line labels out of order")
    a, lum, width, intensity = (_floats(col, path.name) for col in numbers)
    for k, (i, j) in enumerate(BRANCH_LABELS):
        if (i == j and a[k] != 0.0) or lum[k] < 0.0 or width[k] <= 0.0 or intensity[k] != lum[k] / width[k]:
            raise CheckError(f"{path.name}: inconsistent line ({i},{j})")
    _check_sum_rule(sum(lum), cfg["mu"], path.name)


def _check_branches(path: Path, cfg: dict) -> None:
    steps = cfg["sweep_steps"]
    delta, i_col, j_col, a_col = _csv_columns(path, cli.BRANCHES_HEADER, 9 * steps)
    if list(zip(i_col, j_col)) != [(str(i), str(j)) for i, j in BRANCH_LABELS] * steps:
        raise CheckError(f"{path.name}: branch labels out of order")
    d = _floats(delta, path.name)
    if d != [v for v in d[::9] for _ in range(9)] or not all(map(operator.lt, d[::9], d[9::9])):
        raise CheckError(f"{path.name}: splitting column is not an ascending sweep")
    a = np.array(_floats(a_col, path.name)).reshape(steps, 3, 3)
    if (a.diagonal(axis1=1, axis2=2) != 0.0).any() or (a != -a.transpose(0, 2, 1)).any():
        raise CheckError(f"{path.name}: branch energies not antisymmetric")


def _check_svg(path: Path, polylines: int) -> None:
    text = path.read_text()
    if not (text.startswith("<svg xmlns=") and text.endswith("</svg>\n")):
        raise CheckError(f"{path.name}: not a complete SVG document")
    if text.count("<polyline") != polylines:
        raise CheckError(f"{path.name}: {text.count('<polyline')} polylines, expected {polylines}")


def _check_sum_rule(lum_sum: float, mu: float, where: str) -> None:
    if abs(lum_sum - mu * mu) > SUM_RULE_TOL * max(1.0, mu * mu):
        raise CheckError(f"{where}: luminosities sum to {lum_sum!r}, expected mu^2 = {mu * mu!r}")


def _exit_ok(code: object) -> None:
    if code != 0:
        raise CheckError(f"exit code {code}")


def _hash_files(*paths: Path) -> Callable[[object, object], None]:
    def update(_result: object, h) -> None:
        for path in paths:
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)

    return update


def _cli_op(argv: list[str], check: Callable[[], None], group: str, rows: int,
            files_in: tuple[Path, ...], files_out: tuple[Path, ...]) -> Op:
    def run() -> object:
        return cli.main(argv)

    def check_all(code: object) -> None:
        _exit_ok(code)
        check()

    return Op(name=f"cli.{argv[0]}", run=run, check=check_all, digest=_hash_files(*files_out),
              group=group, rows=rows, files_in=files_in, files_out=files_out)


# ------------------------------------------------------------ map-render


def _map_render(size: str, workdir: Path) -> list[Op]:
    cfg_path = workdir / "default.cfg"
    cfg_path.write_text(DEFAULT_CFG if size == "full" else SMALL_CFG)
    steps, npoints = (241, 7001) if size == "full" else (25, 701)
    csv_path = workdir / "map.csv"
    svg_path = workdir / "map.svg"

    def check_map() -> None:
        with open(csv_path, "rb") as fh:
            head = fh.readline()
            lines = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        if head != (",".join(cli.MAP_HEADER) + "\n").encode() or lines != steps * npoints + 1:
            raise CheckError(f"map.csv: header {head!r}, {lines} lines")

    return [
        _cli_op(["map", "--config", str(cfg_path), "--out", str(csv_path)], check_map,
                "map.csv", steps, (cfg_path,), (csv_path,)),
        _cli_op(["plot", str(csv_path), "--kind", "heatmap", "--out", str(svg_path)],
                lambda: _check_svg(svg_path, 0), "map.svg", 0, (csv_path,), (svg_path,)),
    ]


# ----------------------------------------------------------- sweep-study


def sweep_points(seed: int, count: int) -> list[dict]:
    """Seeded parameter points: tunneling, coupling, laser detuning, splitting, temperature."""
    rng = np.random.default_rng([seed, 2])
    points = []
    for _ in range(count):
        points.append({
            "t": float(rng.uniform(0.02, 0.2)),
            "g_sqrt_n": float(rng.uniform(0.02, 0.2)),
            "laser_detuning": float(rng.uniform(-0.02, 0.02)),
            "delta": float(rng.uniform(-0.02, 0.06)),
            "temp_k": float(rng.uniform(0.0, 40.0)),
            "mu": float(rng.uniform(0.5, 2.0)),
        })
    return points


def _sweep_study(seed: int, size: dict) -> list[Op]:
    model = BroadeningModel(gamma0=75e-6, a_coef=22e-6, gamma_rad=75e-6)
    grid = GridSpec(dp_min=-0.4, dp_max=0.4, npoints=size["map_grid"])
    steps = size["sweep_steps"]
    ops = []
    for p in sweep_points(seed, size["sweep_points"]):
        emitter = EmitterParams(e_xd=1.0, delta=p["delta"], t=p["t"], mu=p["mu"])
        drive = DriveParams.from_effective_coupling(p["g_sqrt_n"], hw_l=1.0 + p["laser_detuning"])
        rng = SweepRange(lo=p["delta"] - 0.05, hi=p["delta"] + 0.05, steps=steps)
        temps = [p["temp_k"] + float(x) for x in np.linspace(0.0, 30.0, size["temps"])]
        ops.append(_point_op(emitter, drive, rng, grid, model, p["temp_k"], temps))
    return ops


def _point_op(emitter, drive, rng, grid, model, temp_k, temps) -> Op:
    """One study point: four library calls, timed together as one request."""
    steps = rng.steps
    workers = 2

    def run():
        return (
            sweep.dressed_energy_curves(rng, emitter, drive),
            sweep.transition_branches(rng, emitter, drive),
            sweep.intensity_map(rng, grid, emitter, drive, model, temp_k=temp_k, workers=workers),
            sweep.temperature_series(temps, emitter, drive, model, grid, workers=workers),
        )

    def check(result) -> None:
        curves, branches, imap, series = result
        e = curves.energies
        if e.shape != (steps, 3) or not np.isfinite(e).all():
            raise CheckError("energy curves: bad shape or non-finite")
        if not ((e[:, 0] <= e[:, 1]) & (e[:, 1] <= e[:, 2])).all():
            raise CheckError("energy curves: energies not ascending")
        expected = np.stack([e[:, i - 1] - e[:, j - 1] for i, j in BRANCH_LABELS], axis=1)
        if not np.array_equal(branches.a, expected):
            raise CheckError("branches: not the differences of the energy curves")
        v = imap.values
        if v.shape != (steps, grid.npoints) or not np.isfinite(v).all() or (v < 0.0).any():
            raise CheckError("intensity map: bad shape, non-finite or negative")
        for d in imap.delta_axis[:: max(1, steps // 4)]:
            dressed = diagonalize(reduced_hamiltonian(replace(emitter, delta=float(d)), drive))
            _check_sum_rule(sum(tr.lum for tr in transitions(dressed, emitter.mu)), emitter.mu,
                            f"map row delta={d!r}")
        if len(series) != len(temps):
            raise CheckError("temperature series: wrong spectrum count")
        for g in series:
            if g.npoints != grid.npoints or not np.isfinite(g.intensity).all() or (g.intensity < 0.0).any():
                raise CheckError("temperature series: bad spectrum")

    def digest(result, h) -> None:
        curves, branches, imap, series = result
        for arr in (curves.energies, branches.a, imap.values, *(g.intensity for g in series)):
            h.update(arr.tobytes())

    return Op("lib.point", run, check, digest, "arrays", 3 * steps + 1)


# ------------------------------------------------------------- cli-batch


def cli_configs(seed: int, size: dict) -> list[dict]:
    """Seeded small configurations; every fourth one is tuned by a bias field.

    The seed draws the physics; grid sizes cycle with the index, so every
    seed asks for the same amount of work.
    """
    rng = np.random.default_rng([seed, 3])
    configs = []
    for k in range(size["configs"]):
        gsn = float(rng.uniform(0.02, 0.2))
        cfg = {
            "e_xd_ev": 1.0,
            "hw_l_ev": 1.0 + float(rng.uniform(-0.02, 0.02)),
            "t_ev": float(rng.uniform(0.02, 0.2)),
            "mu": float(rng.uniform(0.5, 2.0)),
            "temp_k": float(rng.uniform(0.0, 40.0)),
            "delta_ev": float(rng.uniform(-0.02, 0.06)),
            "dp_max_ev": float(rng.uniform(0.3, 0.5)),
            "npoints": size["npoints"][k % len(size["npoints"])],
            "sweep_lo": float(rng.uniform(-0.03, 0.0)),
            "sweep_steps": size["cfg_steps"][k % len(size["cfg_steps"])],
        }
        cfg["dp_min_ev"] = -cfg["dp_max_ev"]
        cfg["sweep_hi"] = cfg["sweep_lo"] + float(rng.uniform(0.04, 0.1))
        if k % 2:
            n = int(rng.choice([4, 100, 2500]))
            cfg["n"] = n
            cfg["g_ev"] = gsn / math.sqrt(n)
        else:
            cfg["g_sqrt_n_ev"] = gsn
        if k % 4 == 3:
            cfg["field_kv_per_cm"] = float(rng.uniform(-20.0, 20.0))
            cfg["d_nm"] = float(rng.uniform(5.0, 15.0))
            cfg["delta_zero_field_ev"] = float(rng.uniform(0.0, 0.04))
        configs.append(cfg)
    return configs


def config_text(cfg: dict) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in cfg.items())


def _cli_batch(seed: int, size: dict, workdir: Path) -> list[Op]:
    ops = []
    for k, cfg in enumerate(cli_configs(seed, size)):
        cfg_path = workdir / f"c{k:02d}.cfg"
        cfg_path.write_text(config_text(cfg))
        base = ["--config", str(cfg_path), "--out"]
        spec = workdir / f"c{k:02d}_spectrum.csv"
        trans = workdir / f"c{k:02d}_transitions.csv"
        branches = workdir / f"c{k:02d}_branches.csv"
        series = workdir / f"c{k:02d}_ts.csv"
        series_out = tuple(series.with_name(f"{series.stem}_T{t}K.csv") for t in (5, 20, 40))
        spec_svg = spec.with_suffix(".svg")
        branches_svg = branches.with_suffix(".svg")
        ops += [
            _cli_op(["spectrum", *base, str(spec)], lambda s=spec, c=cfg: _check_spectrum(s, c),
                    "spectrum", 1, (cfg_path,), (spec,)),
            _cli_op(["transitions", *base, str(trans)], lambda s=trans, c=cfg: _check_transitions(s, c),
                    "transitions", 1, (cfg_path,), (trans,)),
            _cli_op(["branches", *base, str(branches)], lambda s=branches, c=cfg: _check_branches(s, c),
                    "branches", cfg["sweep_steps"], (cfg_path,), (branches,)),
            _cli_op(["tempseries", *base, str(series), "--temps", "5,20,40"],
                    lambda s=series_out, c=cfg: [_check_spectrum(p, c) for p in s],
                    "tempseries", 1, (cfg_path,), series_out),
            _cli_op(["plot", str(spec), "--kind", "line", "--out", str(spec_svg)],
                    lambda s=spec_svg: _check_svg(s, 1), "plot-spectrum", 0, (spec,), (spec_svg,)),
            _cli_op(["plot", str(branches), "--kind", "line", "--out", str(branches_svg)],
                    lambda s=branches_svg: _check_svg(s, 9), "plot-branches", 0, (branches,), (branches_svg,)),
        ]
    return ops


def output_digest(op: Op, result: object) -> str:
    h = hashlib.sha256()
    op.digest(result, h)
    return h.hexdigest()


def group_digests(ops: list[Op], digests: list[str]) -> dict[str, str]:
    """sha256 per digest group over its operations' output digests, in order.

    A group of one operation keeps that output's own digest, so the pins of
    map.csv and map.svg read as `sha256sum` prints them.
    """
    groups: dict[str, list[str]] = {}
    for op, digest in zip(ops, digests):
        groups.setdefault(op.group, []).append(digest)
    return {group: d[0] if len(d) == 1 else hashlib.sha256("".join(d).encode()).hexdigest()
            for group, d in groups.items()}
