"""Parameter sweeps: dressed-energy curves, transition branches, temperature
series, and the 2-d intensity map over (exciton splitting, detuning).

A sweep is evaluated as arrays in one pass: one stacked eigensolve over all
splittings (:func:`core.dressed_states`) and one (N, 9) line table
(:func:`spectrum.line_table`), both on the caller's thread, then one
broadcast Lorentzian sum (:func:`spectrum.lorentz_sum`), whose row blocks
are claimed one at a time by up to one thread per CPU, ``workers`` capping
the count.  Row r of every result equals the standalone per-triplet
computation at that row's splitting or temperature, to the last bit,
whatever ``workers`` is and whichever thread sums its block: each matrix
is solved on its own.

One sweep is solved once: ``functools.lru_cache(maxsize=1)`` keeps the
energies and the line table of the last splitting sweep solved, keyed on
the exact bits of its matrix stack and on mu, so the curves, the branches
and the map of one sweep share a single eigensolve, whatever ``workers``
each passes.  The temperature series solves its one splitting directly
and keeps nothing.  The kept arrays are read-only, and results may share
them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import DriveParams, EmitterParams, _check_axis, _check_intensities, _eigensystems, _freeze, _reduced_matrices
from .core import dressed_states
from .spectrum import BRANCH_LABELS, BroadeningModel, GridSpec, SpectrumGrid, line_table, line_widths, lorentz_sum
from .spectrum import _check_workers

# perfbench/layers.py wraps these per-triplet names in this namespace; the sweeps do not call them.
from .core import diagonalize, reduced_hamiltonian  # noqa: F401
from .spectrum import synthesize, transitions  # noqa: F401

__all__ = [
    "SweepRange",
    "EnergyCurves",
    "TransitionBranches",
    "IntensityMap",
    "dressed_energy_curves",
    "transition_branches",
    "temperature_series",
    "intensity_map",
]


@dataclass(frozen=True)
class SweepRange:
    """Uniform sweep: steps values from lo to hi inclusive, taken once; values() returns that one read-only array."""

    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        _freeze(self, _x=_check_axis("sweep", ("lo", "hi", "steps"), self.lo, self.hi, self.steps))

    def values(self) -> np.ndarray:
        return self._x


@dataclass(frozen=True)
class EnergyCurves:
    """Dressed-state energies along a splitting sweep; energies[k] ascends."""

    delta: np.ndarray
    energies: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.delta, dtype=float)
        e = np.asarray(self.energies, dtype=float)
        if d.ndim != 1 or e.shape != (d.size, 3):
            raise ValueError("energies must have shape (len(delta), 3)")
        _freeze(self, delta=d, energies=e)


@dataclass(frozen=True)
class TransitionBranches:
    """Transition detunings along a splitting sweep, columns in BRANCH_LABELS order."""

    delta: np.ndarray
    a: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.delta, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if d.ndim != 1 or a.shape != (d.size, 9):
            raise ValueError("a must have shape (len(delta), 9)")
        _freeze(self, delta=d, a=a)


@dataclass(frozen=True)
class IntensityMap:
    """Spectrum intensity sampled over (splitting, detuning)."""

    delta_axis: np.ndarray
    dp_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.delta_axis, dtype=float)
        x = np.asarray(self.dp_axis, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if d.ndim != 1 or x.ndim != 1 or v.shape != (d.size, x.size):
            raise ValueError("values must have shape (len(delta_axis), len(dp_axis))")
        _check_intensities(v)
        _freeze(self, delta_axis=d, dp_axis=x, values=v)


@functools.lru_cache(maxsize=1, typed=True)
def _solve(m_bytes: bytes, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only energies (N, 3) and line table a, lum (N, 9) of the matrix stack whose bytes are m_bytes.

    Only the last stack solved is kept, and a refusal is not.  The key is
    the bytes of the stack, not the parameters: a -0.0 splitting is another
    matrix than a 0.0 one.  typed=True keys mu by type as well, since a
    float32 mu equal to a float one squares in float32.
    """
    energies, coeffs = _eigensystems(np.frombuffer(m_bytes).reshape(-1, 3, 3))
    a, lum = line_table(energies, coeffs, mu)
    # An array over bytes can never be made writeable again, so no caller can change a kept result.
    return tuple(np.frombuffer(arr.tobytes()).reshape(arr.shape) for arr in (energies, a, lum))


def _solved(emitter: EmitterParams, drive: DriveParams, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bits of line_table(*dressed_states(emitter, drive, deltas), emitter.mu), with the energies first."""
    return _solve(_reduced_matrices(emitter, drive, deltas).tobytes(), emitter.mu)


def dressed_energy_curves(rng: SweepRange, emitter: EmitterParams, drive: DriveParams) -> EnergyCurves:
    """Dressed energies E1 <= E2 <= E3 at each splitting value."""
    deltas = rng.values()
    energies, _, _ = _solved(emitter, drive, deltas)
    return EnergyCurves(delta=deltas, energies=energies)


def transition_branches(rng: SweepRange, emitter: EmitterParams, drive: DriveParams) -> TransitionBranches:
    """Transition detunings a_ij at each splitting value.

    Branches are labeled by fixed (i, j) after ascending-energy sorting, so
    at an exact level crossing a pair of labels can swap between rows.
    """
    deltas = rng.values()
    _, a, _ = _solved(emitter, drive, deltas)
    return TransitionBranches(delta=deltas, a=a)


def temperature_series(
    temps: Iterable[float],
    emitter: EmitterParams,
    drive: DriveParams,
    model: BroadeningModel,
    grid: GridSpec,
    workers: int | None = None,
) -> list[SpectrumGrid]:
    """One spectrum per temperature on a shared grid, same transitions throughout.

    All temperatures are evaluated as one array.  workers (an int >= 1, or
    None for no cap) caps the threads of the Lorentzian kernel's row
    blocks; the result does not depend on it.  A bad workers is refused
    before anything is solved.
    """
    _check_workers(workers)
    f = line_widths(model, [float(t) for t in temps])
    if not f.size:
        raise ValueError("temps must not be empty")
    a, lum = line_table(*dressed_states(emitter, drive, [emitter.delta]), emitter.mu)
    x = grid.values()
    rows = lorentz_sum(a, lum, f, x, workers)
    return [SpectrumGrid(x, row) for row in rows]


def intensity_map(
    delta_range: SweepRange,
    grid: GridSpec,
    emitter: EmitterParams,
    drive: DriveParams,
    model: BroadeningModel,
    temp_k: float = 0.0,
    workers: int | None = None,
) -> IntensityMap:
    """Spectrum rows over a splitting sweep at fixed temperature.

    Row r equals a standalone spectrum computed at delta_axis[r].  All rows
    are evaluated as one array.  workers (an int >= 1, or None for no cap)
    caps the threads of the Lorentzian kernel's row blocks; the result does
    not depend on it.  A bad workers is refused before anything is solved.
    """
    _check_workers(workers)
    deltas = delta_range.values()
    f = line_widths(model, [temp_k])
    _, a, lum = _solved(emitter, drive, deltas)
    dp = grid.values()
    values = lorentz_sum(a, lum, f, dp, workers)
    return IntensityMap(delta_axis=deltas, dp_axis=dp, values=values)
