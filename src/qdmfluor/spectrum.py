"""Dressed-state transitions and Lorentzian emission-spectrum synthesis.

A dressed triplet emits into the triplet one photon rung below.  In the
intense-drive limit both rungs share the same coefficients, so the nine
allowed transitions (i upper, j lower) sit at detunings

    a_ij = E_i - E_j        (eV, relative to the laser energy)

and carry luminosities

    L_ij = mu^2 * (C_g^j)^2 * (C_XD^i)^2

where the lower state contributes its ground-configuration weight and the
upper state its direct-exciton weight (the emission matrix element is
<j| d |i> with d destroying the direct exciton).  Summed over all nine
transitions the luminosities always add up to mu^2.

Each transition contributes an unnormalized Lorentzian

    S(dp) = I_ij * f^2 / ((dp - a_ij)^2 + f^2),   I_ij = L_ij / f

with half width f = Gamma/2 for the central peaks (i == j) and
f = (Gamma + gamma)/2 for the side peaks, Gamma being the temperature
dependent population linewidth and gamma the pure radiative rate.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import DressedTriplet, _check_axis, _check_intensities, _freeze, _require_finite

__all__ = [
    "CENTRAL",
    "SIDE",
    "K_B",
    "BRANCH_LABELS",
    "Transition",
    "BroadeningModel",
    "GridSpec",
    "SpectrumGrid",
    "line_table",
    "transitions",
    "linewidth",
    "line_widths",
    "lorentz_terms",
    "lorentz_sum",
    "synthesize",
    "count_peaks",
    "resolvable_maxima",
]

CENTRAL = "central"
SIDE = "side"

K_B = 8.617333262e-5
"""Boltzmann constant in eV/K."""

BRANCH_LABELS: tuple[tuple[int, int], ...] = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))
"""Fixed (upper, lower) labeling of the nine lines, row-major; the column order of line tables."""

_UPPER = np.array([i - 1 for i, _ in BRANCH_LABELS])
_LOWER = np.array([j - 1 for _, j in BRANCH_LABELS])
_KINDS = tuple(CENTRAL if i == j else SIDE for i, j in BRANCH_LABELS)

# Rows per lorentz_sum block: 64k cells (512 kB) stay in L2; 16k-256k measured, 64k fastest.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class Transition:
    """One dressed-state transition between adjacent triplets.

    i, j are 1-based dressed-state indices (upper, lower), a the detuning
    energy E_i - E_j in eV (the absolute photon energy is a + hw_l), lum
    the luminosity in units of mu^2, kind "central" for i == j else "side".
    """

    i: int
    j: int
    a: float
    lum: float
    kind: str

    def __post_init__(self) -> None:
        if self.i not in (1, 2, 3) or self.j not in (1, 2, 3):
            raise ValueError(f"indices must be in 1..3, got ({self.i}, {self.j})")
        expected = CENTRAL if self.i == self.j else SIDE
        if self.kind != expected:
            raise ValueError(f"kind {self.kind!r} inconsistent with indices ({self.i}, {self.j})")
        if self.kind == CENTRAL and self.a != 0.0:
            raise ValueError("central transitions must have a == 0 exactly")
        if not (math.isfinite(self.a) and math.isfinite(self.lum)):
            raise ValueError("a and lum must be finite")
        if self.lum < 0.0:
            raise ValueError(f"luminosity must be non-negative, got {self.lum}")


@dataclass(frozen=True)
class BroadeningModel:
    """Temperature-dependent linewidth model.

    Gamma(T) = gamma0 + a_coef * T + b_coef * exp(-delta_e / (k_B * T))

    gamma0 is the zero-temperature population linewidth, the linear term the
    acoustic-phonon contribution, the exponential term the optical-phonon
    contribution (disabled at b_coef = 0, the low-temperature default).
    gamma_rad is the pure radiative rate entering the side-peak width.
    All rates in eV, a_coef in eV/K, delta_e in eV.
    """

    gamma0: float
    a_coef: float
    gamma_rad: float
    b_coef: float = 0.0
    delta_e: float = 36e-3

    def __post_init__(self) -> None:
        for name in ("gamma0", "a_coef", "gamma_rad", "b_coef", "delta_e"):
            _require_finite(name, getattr(self, name))
        if self.gamma0 <= 0.0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if self.a_coef < 0.0:
            raise ValueError(f"a_coef must be non-negative, got {self.a_coef}")
        if self.b_coef < 0.0:
            raise ValueError(f"b_coef must be non-negative, got {self.b_coef}")
        if self.gamma_rad <= 0.0:
            raise ValueError(f"gamma_rad must be positive, got {self.gamma_rad}")
        if self.b_coef > 0.0 and self.delta_e <= 0.0:
            raise ValueError("delta_e must be positive when the optical-phonon term is active")


@dataclass(frozen=True)
class GridSpec:
    """Uniform detuning grid: npoints samples over [dp_min, dp_max] (eV), taken once; values() returns that one read-only array."""

    dp_min: float
    dp_max: float
    npoints: int

    def __post_init__(self) -> None:
        _freeze(self, _x=_check_axis("grid", ("dp_min", "dp_max", "npoints"), self.dp_min, self.dp_max, self.npoints))

    def values(self) -> np.ndarray:
        return self._x

    @property
    def step(self) -> float:
        return (self.dp_max - self.dp_min) / (self.npoints - 1)


@dataclass(frozen=True)
class SpectrumGrid:
    """Sampled emission spectrum S(delta_prime)."""

    delta_prime: np.ndarray
    intensity: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.delta_prime, dtype=float)
        y = np.asarray(self.intensity, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError("delta_prime and intensity must be equal-length 1-d arrays, >= 2 points")
        if not (np.diff(x) > 0.0).all():
            raise ValueError("delta_prime must be strictly increasing")
        _check_intensities(y)
        _freeze(self, delta_prime=x, intensity=y)

    @property
    def npoints(self) -> int:
        return int(self.delta_prime.size)


def line_table(energies: np.ndarray, coeffs: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Detunings a and luminosities lum, each (N, 9) in BRANCH_LABELS order.

    energies (N, 3) and coeffs (N, 3, 3) are N stacked dressed states.  The
    lower state j supplies the C_g factor and the upper state i the C_XD factor.
    """
    if not math.isfinite(mu * mu) or mu < 0.0:  # each luminosity is mu * mu times at most 1
        raise ValueError(f"dipole scale mu must be non-negative with a finite square, got {mu!r}")
    with np.errstate(over="ignore"):  # refused below, with a message that names the quantity
        a = energies[:, _UPPER] - energies[:, _LOWER]
        # float_power calls libm pow per element, as Python's float ** 2 does;
        # x * x, np.square and np.power differ from it in the last bit for some x.
        sq = np.float_power(coeffs[:, :, :2], 2.0)
        lum = mu * mu * sq[:, _LOWER, 0] * sq[:, _UPPER, 1]
    if not np.isfinite(a).all():
        raise ValueError("line positions a = E_i - E_j must be finite; the dressed-energy spread overflows")
    if not np.isfinite(lum).all():
        raise ValueError("luminosities must be finite")
    return a, lum


def transitions(dressed: DressedTriplet, mu: float) -> list[Transition]:
    """Enumerate the nine transitions of a dressed triplet, (i, j) ordered."""
    a, lum = line_table(dressed.energies[None], dressed.coeffs[None], mu)
    return [
        Transition(i=i, j=j, a=float(a[0, k]), lum=float(lum[0, k]), kind=_KINDS[k])
        for k, (i, j) in enumerate(BRANCH_LABELS)
    ]


def linewidth(model: BroadeningModel, temp_k: float) -> float:
    """Population linewidth Gamma(T) in eV; rejects a negative or non-finite temperature."""
    if not math.isfinite(temp_k) or temp_k < 0.0:
        raise ValueError(f"temperature must be finite and >= 0 K, got {temp_k!r}")
    optical = 0.0
    if model.b_coef > 0.0 and K_B * temp_k > 0.0:  # K_B * T underflows to 0 for a subnormal T
        optical = model.b_coef * math.exp(-model.delta_e / (K_B * temp_k))
    return model.gamma0 + model.a_coef * temp_k + optical


def _half_widths(kinds, gamma_pop: float, gamma_rad: float, where: str) -> list[float]:
    """Half widths (eV) of lines of the given kinds: Gamma/2 for a central line, (Gamma + gamma)/2 for a side line.

    lorentz_sum squares them, so a width whose square overflows, or rounds
    to 0 (a division by 0 at the line's centre), is refused; the message
    ends with where, which names the rates.
    """
    central, side = gamma_pop / 2.0, (gamma_pop + gamma_rad) / 2.0
    row = [central if kind == CENTRAL else side for kind in kinds]
    narrow, wide = min(row), max(row)
    if not math.isfinite(wide * wide):
        raise ValueError(f"line widths overflow {where}")
    if not narrow * narrow > 0.0:
        raise ValueError(f"line widths underflow {where}")
    return row


def line_widths(model: BroadeningModel, temps: list[float]) -> np.ndarray:
    """Half widths, shape (len(temps), 9) in BRANCH_LABELS order, one row per temperature; see _half_widths."""
    rows = []
    for temp in temps:
        gamma = linewidth(model, temp)
        where = f"at temperature {temp!r} K (Gamma(T) = {gamma!r} eV)"
        rows.append(_half_widths(_KINDS, gamma, model.gamma_rad, where))
    return np.array(rows)


def lorentz_terms(a, lum, f, x_ends=()) -> tuple[np.ndarray, np.ndarray]:
    """The scales lum / f * f * f and squared widths f * f that lorentz_sum sums with.

    a, lum and f broadcast to one (N, K) line table.  A scale, or a
    denominator (x - a)^2 + f^2 at an x in x_ends, that overflows is refused
    with a ValueError; on an interval of x the denominators peak at its ends.
    """
    a, lum, f = np.broadcast_arrays(a, lum, f)
    with np.errstate(over="ignore"):  # refused below, with a message that names the quantity
        scale = lum / f * f * f
        f2 = f * f
        dens = np.square(np.subtract.outer(a, np.asarray(x_ends, dtype=float))) + f2[..., None]
    if not np.isfinite(scale).all():
        raise ValueError("line intensities overflow: lum / f * f * f is not finite")
    if not np.isfinite(dens).all():
        raise ValueError("Lorentzian denominators overflow: (x - a)^2 + f^2 is not finite at a grid end")
    return scale, f2


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS reports one, which os.cpu_count() ignores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_workers(workers) -> None:
    """Refuse a workers cap that is not an int >= 1 or None."""
    if workers is not None and (not isinstance(workers, int) or isinstance(workers, bool) or workers < 1):
        raise ValueError(f"workers must be an integer >= 1 or None, got {workers!r}")


def lorentz_sum(a: np.ndarray, lum: np.ndarray, f: np.ndarray, x: np.ndarray, workers: int | None = None) -> np.ndarray:
    """Row r of the result is the sum over lines k of the Lorentzians on x.

    a, lum and f (half widths) broadcast to one (N, K) line table.  Each
    line with nonzero luminosity adds I * f^2 / ((x - a)^2 + f^2) with
    I = lum / f, in column order, to 0.0; lines with zero luminosity add
    nothing.  A table whose scales or denominators overflow on x is refused
    first, by lorentz_terms.
    Rows are summed a block of about _BLOCK_CELLS cells at a time.  When a
    block holds several rows, a line whose a and f are the same on every
    row has its denominator computed once per call.  min(blocks, usable
    CPUs) threads, at most workers (an int >= 1; None sets no cap) of them,
    each claim the next block from one shared iterator until none is left,
    so a thread slowed by other load sums fewer blocks.  Each sums in its
    own scratch block: the caller's thread, and every other a thread
    started in a copy of the caller's context, so np.errstate carries over.
    A thread stops claiming once any block has failed.  Every thread is
    joined, also when a block raises; then the error of the lowest faulty
    block is raised, whichever thread summed it, as every block below it
    was summed before.
    Each thread sums with numpy's ufunc buffer cut to
    min(np.getbufsize(), max(16, x.size // 16 * 16)): a buffer no longer
    than a row spares the copies that pack several short rows into it when
    an operand is a broadcast column, and rows of 8192 points or more keep
    the default.  The caller's buffer size comes back on return or raise.
    The footprint is the result, one block per thread and at most half a
    block per shared line.  Every cell gets the same operations in the same
    order, so the result does not depend on the block size, on workers, on
    which thread sums a block or on the buffer size.
    """
    _check_workers(workers)
    a, lum, f = np.broadcast_arrays(a, lum, f)
    scale, f2 = lorentz_terms(a, lum, f, (x.min(), x.max()) if x.size else ())
    n_rows, n_lines = a.shape
    y = np.empty((n_rows, x.size))
    if not y.size:
        return y
    rows = max(1, _BLOCK_CELLS // x.size)
    dark = lum == 0.0
    darks = [dark[:, k] if any_dark else None for k, any_dark in enumerate(dark.any(axis=0).tolist())]
    same_f2 = (f2 == f2[:1]).all(axis=0)
    widths = [float(f2[0, k]) if same else None for k, same in enumerate(same_f2.tolist())]  # adds as its column would
    dens = {}
    if n_rows > 1 and rows > 1:  # blocks of several rows, so each row of a shared line is at most half a block
        shared = np.flatnonzero((a == a[:1]).all(axis=0) & same_f2)
        shared_dens = np.subtract(x, a[0, shared, None])  # one row per shared line
        np.square(shared_dens, out=shared_dens)
        np.add(shared_dens, f2[0, shared, None], out=shared_dens)
        dens = dict(zip(shared.tolist(), shared_dens))
    n_threads = min(-(-n_rows // rows), _usable_cpus(), workers or n_rows)
    bufs = np.empty((n_threads, min(rows, n_rows), x.size))  # one scratch block per thread
    blocks = iter(range(0, n_rows, rows))  # each block's first row, claimed by one thread
    claims = threading.Lock()
    errors = []  # (first row, error) of each failed block

    def claim() -> int | None:
        with claims:
            return None if errors else next(blocks, None)

    def sum_block(lo: int, term: np.ndarray) -> None:
        hi = lo + len(term)
        out = y[lo:hi]
        for k in range(n_lines):
            den = dens.get(k)
            if den is None:
                np.subtract(x, a[lo:hi, k, None], out=term)
                np.square(term, out=term)
                np.add(term, f2[lo:hi, k, None] if widths[k] is None else widths[k], out=term)
                den = term
            quotient = term if k else out  # line 0's is written in place; adding it to 0.0 follows below
            np.divide(scale[lo:hi, k, None], den, out=quotient)
            if darks[k] is not None:
                quotient[darks[k][lo:hi]] = 0.0  # a dark line adds exactly nothing, even where its term is 0/0
            if k:
                out += term
            else:
                out += 0.0  # 0.0 + t, which is t but for a -0.0 quotient

    def run(thread: int) -> None:
        # Put back on every thread: the size is per thread (numpy 1.x) or per context (2.x).
        old = np.setbufsize(min(np.getbufsize(), max(16, x.size // 16 * 16)))
        try:
            while (lo := claim()) is not None:
                try:
                    sum_block(lo, bufs[thread, : min(rows, n_rows - lo)])
                except Exception as exc:  # raised by the caller after the join
                    with claims:
                        errors.append((lo, exc))
        finally:
            np.setbufsize(old)

    started = []  # blocks are disjoint, and numpy releases the GIL
    try:
        for thread in range(1, n_threads):
            worker = threading.Thread(target=contextvars.copy_context().run, args=(run, thread))
            worker.start()
            started.append(worker)
        run(0)
    finally:
        for worker in started:
            worker.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return y


def synthesize(
    trans: list[Transition],
    gamma_pop: float,
    gamma_rad: float,
    grid: GridSpec,
) -> SpectrumGrid:
    """Sum the transition Lorentzians on a uniform detuning grid.

    Each transition with nonzero luminosity contributes
    I * f^2 / ((dp - a)^2 + f^2) with I = lum / f.  Transitions sharing a
    position (the three central ones) simply add.
    """
    if not trans:
        raise ValueError("transition list must not be empty")
    for name, rate in (("gamma_pop", gamma_pop), ("gamma_rad", gamma_rad)):
        if not (math.isfinite(rate) and rate > 0.0):
            raise ValueError(f"{name} must be positive, got {rate!r}")
    where = f"at gamma_pop = {gamma_pop!r} eV, gamma_rad = {gamma_rad!r} eV"
    f = np.array([_half_widths([tr.kind for tr in trans], gamma_pop, gamma_rad, where)])
    x = grid.values()
    a = np.array([[tr.a for tr in trans]])
    lum = np.array([[tr.lum for tr in trans]])
    return SpectrumGrid(delta_prime=x, intensity=lorentz_sum(a, lum, f, x)[0])


def count_peaks(
    trans: list[Transition],
    energy_tol: float = 1e-6,
    intensity_floor: float = 1e-3,
) -> tuple[int, list[float]]:
    """Count distinct emission lines after a relative luminosity floor.

    Transitions with lum < intensity_floor * max(lum) are discarded, the
    remaining positions are clustered with gap tolerance energy_tol, and the
    luminosity-weighted cluster centers are returned ascending.  Returns
    (0, []) when every luminosity is 0, which signals a vanishing dipole
    scale; otherwise the floor, below 1, keeps at least the strongest line.
    """
    if not (math.isfinite(energy_tol) and energy_tol > 0.0):
        raise ValueError(f"energy_tol must be positive, got {energy_tol!r}")
    if not (0.0 <= intensity_floor < 1.0):
        raise ValueError(f"intensity_floor must be in [0, 1), got {intensity_floor!r}")
    if not trans:
        raise ValueError("transition list must not be empty")

    max_lum = max(tr.lum for tr in trans)
    if max_lum <= 0.0:
        return 0, []
    threshold = intensity_floor * max_lum
    kept = [tr for tr in trans if tr.lum >= threshold] if intensity_floor > 0.0 else list(trans)

    kept.sort(key=lambda tr: tr.a)
    clusters: list[list[Transition]] = [[kept[0]]]
    for tr in kept[1:]:
        if tr.a - clusters[-1][-1].a <= energy_tol:
            clusters[-1].append(tr)
        else:
            clusters.append([tr])

    centers = []
    for members in clusters:
        weight = sum(tr.lum for tr in members)
        if weight > 0.0:
            centers.append(sum(tr.a * tr.lum for tr in members) / weight)
        else:
            centers.append(sum(tr.a for tr in members) / len(members))
    return len(clusters), centers


def resolvable_maxima(intensity: np.ndarray, rel_floor: float = 1e-4) -> np.ndarray:
    """Indices of strict local maxima at least rel_floor of the strongest sample.

    The floor keeps numerical ripple in flat tails from counting as
    structure; endpoints never qualify.
    """
    y = np.asarray(intensity, dtype=float)
    if y.ndim != 1 or y.size < 3:
        return np.empty(0, dtype=int)
    if not (0.0 <= rel_floor < 1.0):
        raise ValueError(f"rel_floor must be in [0, 1), got {rel_floor!r}")
    inner = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
    top = y.max()
    if top > 0.0:
        inner &= y[1:-1] >= rel_floor * top
    return np.flatnonzero(inner) + 1
