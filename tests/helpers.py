"""Shared test oracles and measurement utilities.

Everything here is deliberately independent of the library's own solver
paths: closed-form eigensystems, characteristic-polynomial evaluation, and
half-maximum crossing measurements on sampled curves.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from qdmfluor import DriveParams, EmitterParams
from qdmfluor.cli import main

TABLE_COMMANDS = ("spectrum", "transitions", "branches", "map", "tempseries")


def strong_drive(delta: float, t: float = 0.1, g_sqrt_n: float = 0.1):
    """The strong-drive parameter point used across the suite.

    e_xd = hw_l = 1 eV with e0 = 0 puts the laser exactly on resonance;
    n = 100 with g chosen so g*sqrt(n) hits the requested coupling.
    """
    emitter = EmitterParams(e_xd=1.0, delta=delta, t=t, mu=1.0, e0=0.0)
    drive = DriveParams(n=100, g=g_sqrt_n / 10.0, hw_l=1.0)
    return emitter, drive


def analytic_degenerate(g: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form dressed states at zero splitting and zero laser detuning.

    The characteristic polynomial factors as lam * (lam^2 - (g^2 + t^2)),
    giving energies (-r, 0, +r) with r = sqrt(g^2 + t^2) and eigenvectors

        lam = -r : (g, -r, t) / (sqrt(2) r)
        lam =  0 : (t, 0, -g) / r
        lam = +r : (g, +r, t) / (sqrt(2) r)

    Rows are returned with the library's sign convention applied (largest
    magnitude component positive, first on ties).
    """
    r = math.hypot(g, t)
    rows = np.array(
        [
            [g / (math.sqrt(2) * r), -1.0 / math.sqrt(2), t / (math.sqrt(2) * r)],
            [t / r, 0.0, -g / r],
            [g / (math.sqrt(2) * r), 1.0 / math.sqrt(2), t / (math.sqrt(2) * r)],
        ]
    )
    for k in range(3):
        mag = np.abs(rows[k])
        lead = int(np.argmax(mag >= mag.max() * (1.0 - 1e-12)))
        if rows[k, lead] < 0.0:
            rows[k] = -rows[k]
    return np.array([-r, 0.0, r]), rows


def char_poly(m: np.ndarray, lam: float) -> float:
    """Evaluate det(m - lam I) from explicit cofactors; no eigensolver involved."""
    a = m - lam * np.eye(3)
    return (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def poly_roots(m: np.ndarray) -> np.ndarray:
    """Eigenvalues via the companion-matrix route, as an independent check."""
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    minors = (
        m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    )
    det = char_poly(m, 0.0)
    roots = np.roots([1.0, -tr, minors, -det])
    return np.sort(roots.real)


def measure_fwhm(x: np.ndarray, y: np.ndarray, peak_idx: int | None = None) -> float:
    """Full width at half maximum around a sampled peak.

    Crossings of the half-maximum level are located by linear interpolation
    between neighbouring samples, so the result is accurate to well under
    one grid step for smooth peaks.
    """
    if peak_idx is None:
        peak_idx = int(np.argmax(y))
    half = y[peak_idx] / 2.0

    left = peak_idx
    while left > 0 and y[left] > half:
        left -= 1
    if y[left] > half:
        raise ValueError("peak does not fall to half maximum on the left")
    xl = x[left] + (x[left + 1] - x[left]) * (half - y[left]) / (y[left + 1] - y[left])

    right = peak_idx
    n = len(y)
    while right < n - 1 and y[right] > half:
        right += 1
    if y[right] > half:
        raise ValueError("peak does not fall to half maximum on the right")
    xr = x[right - 1] + (x[right] - x[right - 1]) * (half - y[right - 1]) / (y[right] - y[right - 1])
    return float(xr - xl)


def local_max_indices(y: np.ndarray, rel_floor: float = 1e-4) -> np.ndarray:
    """Strict interior local maxima above rel_floor of the strongest sample."""
    y = np.asarray(y, dtype=float)
    inner = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]) & (y[1:-1] >= rel_floor * y.max())
    return np.flatnonzero(inner) + 1


def match_peaks(grids, rel_floor: float = 1e-3, tol: float = 2e-3):
    """Match local maxima across several spectra by position.

    Returns a list of lists of sample indices, one inner list per spectrum,
    covering only peaks present in every spectrum within tol.
    """
    all_idx = [local_max_indices(g.intensity, rel_floor) for g in grids]
    base = grids[0].delta_prime
    matched: list[list[int]] = []
    for idx0 in all_idx[0]:
        pos = base[idx0]
        row = [int(idx0)]
        ok = True
        for g, idxs in zip(grids[1:], all_idx[1:]):
            cand = [i for i in idxs if abs(g.delta_prime[i] - pos) <= tol]
            if not cand:
                ok = False
                break
            row.append(int(min(cand, key=lambda i: abs(g.delta_prime[i] - pos))))
        if ok:
            matched.append(row)
    return matched


def count_thread_starts(monkeypatch, cpus: int = 8) -> list:
    """Record every threading.Thread started from here on, on a host of `cpus` CPUs.

    Fixing the CPUs the process may run on (os.sched_getaffinity, and
    os.cpu_count where the OS has no affinity call) makes the kernel's
    thread bound the same on every machine, so a test sees the threads it
    asks for.
    """
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return started


def run_cli(argv: list[str]) -> tuple[int, str]:
    """The exit code and stderr of main(argv), run in-process with every warning an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


def assert_finite_csv(path: Path) -> None:
    """Every field below the header is a finite float, or a line kind."""
    for row in path.read_text().splitlines()[1:]:
        for value in row.split(","):
            assert value in ("central", "side") or math.isfinite(float(value)), (path.name, row)


def assert_runs_clean(text: str) -> None:
    """Every table command exits 0 on the config text, with nothing on stderr and only finite CSV fields."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        for command in TABLE_COMMANDS:
            out = Path(tmp) / command
            out.mkdir()
            assert run_cli([command, "--config", str(cfg), "--out", str(out / "x.csv")]) == (0, ""), command
            for path in out.iterdir():
                assert_finite_csv(path)
