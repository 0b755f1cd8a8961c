"""Dressed-state model of a laser-driven double-quantum-dot molecule.

All energies are in eV.  The three-state basis is ordered

    (|n, g>, |n-1, XD>, |n-1, XI>)

i.e. the ground configuration with n laser photons, the optically active
direct exciton, and the tunnel-coupled, optically dark indirect exciton.
Every photon-number triplet maps onto the same 3x3 eigenproblem, written
relative to its rung energy E_XD + (n - 1) * hw_l, which keeps the
numerics well conditioned (absolute rung energies are of order n * hw_l).
No result carries the rung energy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EmitterParams",
    "DriveParams",
    "TripletHamiltonian",
    "DressedTriplet",
    "reduced_hamiltonian",
    "diagonalize",
    "dressed_states",
    "delta_from_field",
]

# Relative slack when deciding which eigenvector components are tied for
# the largest magnitude; exact analytic ties come back from the eigensolver
# a few ulp apart.
_TIE_RTOL = 1e-12

_ORTHO_TOL = 1e-12


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _freeze(obj: object, **arrays: np.ndarray) -> None:
    """Make each array read-only and set it as the attribute of that name on the frozen dataclass obj."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _check_axis(kind: str, names: tuple[str, str, str], lo: float, hi: float, n: int) -> np.ndarray:
    """The n uniform samples lo..hi (fields named names), refused unless np.linspace gives them strictly increasing.

    np.linspace warns of an overflow when its last step passes the largest
    float; it then sets the last sample to hi, so the warning is dropped.
    """
    lo_name, hi_name, n_name = names
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{kind} bounds must be finite")
    if not lo < hi:
        raise ValueError(f"need {lo_name} < {hi_name}, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ValueError(f"{kind} span {hi_name} - {lo_name} overflows, got [{lo}, {hi}]")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{n_name} must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"{n_name} must be >= 2, got {n}")
    with np.errstate(over="ignore"):
        x = np.linspace(lo, hi, n)
    if not (x[1:] > x[:-1]).all():
        raise ValueError(f"{kind} samples repeat: {n_name} = {n} over [{lo}, {hi}] are not strictly increasing")
    return x


def _check_intensities(values: np.ndarray) -> None:
    """Refuse values unless each is finite and >= 0; -0.0 passes, and an empty array has none to refuse."""
    if values.size and not (values.min() >= 0.0 and values.max() < math.inf):  # a NaN fails the first test
        raise ValueError("intensities must be finite and non-negative")


@dataclass(frozen=True)
class EmitterParams:
    """Physical parameters of the quantum-dot molecule.

    e_xd:  direct-exciton energy (eV)
    delta: exciton splitting E_XI - E_XD (eV); any finite value, either sign
    t:     tunneling rate between the exciton states (eV, >= 0)
    mu:    dipole scale of the direct exciton (arbitrary luminosity units, > 0)
    e0:    ground-configuration energy (eV); 0 puts the energy zero there
    """

    e_xd: float
    delta: float
    t: float
    mu: float = 1.0
    e0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("e_xd", "delta", "t", "mu", "e0"):
            _require_finite(name, getattr(self, name))
        if self.t < 0.0:
            raise ValueError(f"tunneling rate t must be non-negative, got {self.t}")
        if self.mu <= 0.0:
            raise ValueError(f"dipole scale mu must be positive, got {self.mu}")


@dataclass(frozen=True)
class DriveParams:
    """Monochromatic drive field.

    n:    photon number (integer >= 1); the intense-drive regime has n >> 1
    g:    radiation-matter coupling (eV, >= 0)
    hw_l: laser photon energy (eV, > 0)

    Only the product g * sqrt(n) enters the Hamiltonian, so a measured
    effective coupling can be supplied directly via
    :meth:`from_effective_coupling`.
    """

    n: int
    g: float
    hw_l: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"photon number n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"photon number n must be >= 1, got {self.n}")
        if self.n > sys.float_info.max:  # g_sqrt_n takes the sqrt of float(n)
            raise ValueError("photon number n is too large to convert to a float")
        _require_finite("g", self.g)
        _require_finite("hw_l", self.hw_l)
        if self.g < 0.0:
            raise ValueError(f"coupling g must be non-negative, got {self.g}")
        if self.hw_l <= 0.0:
            raise ValueError(f"laser photon energy hw_l must be positive, got {self.hw_l}")

    @property
    def g_sqrt_n(self) -> float:
        """Effective Rabi coupling g * sqrt(n) (eV)."""
        return self.g * math.sqrt(self.n)

    @classmethod
    def from_effective_coupling(cls, g_sqrt_n: float, hw_l: float) -> "DriveParams":
        """Build drive parameters from a precomputed g * sqrt(n) value."""
        return cls(n=1, g=g_sqrt_n, hw_l=hw_l)


@dataclass(frozen=True)
class TripletHamiltonian:
    """Rotating-frame Hamiltonian of one photon triplet.

    m is a real symmetric 3x3 matrix in the basis described in the module
    docstring, relative to the rung energy.  The (g, XI) corner is exactly
    zero: the indirect exciton is optically dark, so the only couplings are
    the drive (g-XD) and the tunneling (XD-XI).
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"m must be 3x3, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("m must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("m must be exactly symmetric")
        if m[0, 2] != 0.0 or m[2, 0] != 0.0:
            raise ValueError("no direct g-XI coupling allowed: m[0][2] must be 0")
        _freeze(self, m=m)


@dataclass(frozen=True)
class DressedTriplet:
    """Eigensystem of a triplet Hamiltonian.

    energies: the three eigenvalues, ascending, relative to the rung energy (eV)
    coeffs:   3x3 orthonormal matrix; row i holds (C_g, C_XD, C_XI) of
              dressed state i.  Sign convention: in each row the component
              of largest magnitude is positive, ties resolved in favor of
              the first such component.
    """

    energies: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        energies = np.asarray(self.energies, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if energies.shape != (3,):
            raise ValueError(f"energies must have shape (3,), got {energies.shape}")
        if coeffs.shape != (3, 3):
            raise ValueError(f"coeffs must be 3x3, got shape {coeffs.shape}")
        _check_eigensystems(energies, coeffs)
        _freeze(self, energies=energies, coeffs=coeffs)


def _leading_negative(rows: np.ndarray) -> np.ndarray:
    """Per row of rows (..., 3): is its leading component negative?

    The leading component is the first whose magnitude is within _TIE_RTOL
    of the row maximum; a row with a NaN gets its last.
    """
    cols = np.reshape(rows, (-1, 3)).T.copy()  # contiguous: ufuncs run several times slower on strided columns
    c0, c1, c2 = cols
    m0, m1, m2 = np.abs(cols)
    tie = np.maximum(np.maximum(m0, m1), m2) * (1.0 - _TIE_RTOL)
    lead = np.where(m0 >= tie, c0, np.where(m1 >= tie, c1, c2))
    return lead.reshape(rows.shape[:-1]) < 0.0


def _check_eigensystems(energies: np.ndarray, coeffs: np.ndarray) -> None:
    """Validate energies (..., 3) and coeffs (..., 3, 3) as in DressedTriplet."""
    if not (np.isfinite(energies).all() and np.isfinite(coeffs).all()):
        raise ValueError("dressed energies and coeffs must be finite")
    e1, e2, e3 = np.moveaxis(energies, -1, 0)
    if not ((e1 <= e2) & (e2 <= e3)).all():
        raise ValueError(f"energies must be ascending, got {energies}")
    gram = coeffs @ np.swapaxes(coeffs, -1, -2)
    if np.abs(gram - np.eye(3)).max() > _ORTHO_TOL:
        raise ValueError("coeff rows must be orthonormal within 1e-12")
    if _leading_negative(coeffs).any():
        raise ValueError("sign convention violated: leading component negative")


def _reduced_matrices(emitter: EmitterParams, drive: DriveParams, deltas: np.ndarray) -> np.ndarray:
    """Stack of reduced triplet matrices, shape (N, 3, 3), one per splitting in deltas."""
    bad = deltas[~np.isfinite(deltas)]
    if bad.size:
        raise ValueError(f"delta must be finite, got {float(bad[0])!r}")
    detuning = drive.hw_l + emitter.e0 - emitter.e_xd
    _require_finite("laser detuning hw_l + e0 - e_xd", detuning)
    m = np.zeros((deltas.size, 3, 3))
    m[:, 0, 0] = detuning
    m[:, 0, 1] = m[:, 1, 0] = drive.g_sqrt_n
    m[:, 1, 2] = m[:, 2, 1] = emitter.t
    m[:, 2, 2] = deltas
    return m


def reduced_hamiltonian(emitter: EmitterParams, drive: DriveParams) -> TripletHamiltonian:
    """Build the rotating-frame triplet Hamiltonian.

    With the laser detuning delta_l = hw_l + e0 - e_xd the reduced matrix is

        [[delta_l, g*sqrt(n), 0    ],
         [g*sqrt(n), 0,       t    ],
         [0,         t,       delta]]

    relative to the rung energy e_xd + (n - 1) * hw_l.  At exact resonance
    (hw_l = e_xd - e0) the top-left entry vanishes.
    """
    return TripletHamiltonian(m=_reduced_matrices(emitter, drive, np.array([emitter.delta]))[0])


def _eigensystems(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies (N, 3) and sign-fixed coeffs (N, 3, 3) of a stack of reduced matrices.

    One stacked eigh call; it gives the same bits as one call per matrix.
    Fully decoupled (diagonal) matrices are solved exactly instead, so the
    bare energies are reproduced bit for bit.
    """
    energies, evecs = np.linalg.eigh(m)
    coeffs = np.swapaxes(evecs, -1, -2)
    coeffs = np.where(_leading_negative(coeffs)[..., None], -coeffs, coeffs)
    decoupled = (m[:, 0, 1] == 0.0) & (m[:, 1, 2] == 0.0)
    if decoupled.any():
        diag = np.diagonal(m[decoupled], axis1=1, axis2=2)
        order = np.argsort(diag, axis=1, kind="stable")
        energies[decoupled] = np.take_along_axis(diag, order, axis=1)
        coeffs[decoupled] = np.eye(3)[order]
    _check_eigensystems(energies, coeffs)
    return energies, coeffs


def dressed_states(emitter: EmitterParams, drive: DriveParams, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dressed energies (N, 3) and coeffs (N, 3, 3) at each splitting in deltas.

    Row r equals, to the last bit, diagonalize() of the emitter with delta = deltas[r].
    """
    return _eigensystems(_reduced_matrices(emitter, drive, np.asarray(deltas, dtype=float)))


def diagonalize(h: TripletHamiltonian) -> DressedTriplet:
    """Diagonalize a triplet Hamiltonian into its dressed states.

    Eigenvalues come back ascending; eigenvector rows follow the sign
    convention of :class:`DressedTriplet`.  A fully decoupled (diagonal)
    Hamiltonian is handled exactly so the bare energies are reproduced
    bit for bit.
    """
    energies, coeffs = _eigensystems(h.m[None])
    return DressedTriplet(energies=energies[0], coeffs=coeffs[0])


def delta_from_field(delta_zero_field: float, d_nm: float, field_kv_per_cm: float) -> float:
    """Exciton splitting under a bias field along the growth axis.

    The field shifts only the indirect exciton, by e * d * F; with d in nm
    and F in kV/cm that is d * F * 1e-4 eV.  A positive field lowers the
    indirect-exciton energy, so the splitting decreases linearly and
    crosses zero at F = delta_zero_field / (d * 1e-4).
    """
    _require_finite("delta_zero_field", delta_zero_field)
    _require_finite("field_kv_per_cm", field_kv_per_cm)
    if not math.isfinite(d_nm) or d_nm <= 0.0:
        raise ValueError(f"interdot distance d must be positive, got {d_nm}")
    delta = delta_zero_field - d_nm * field_kv_per_cm * 1e-4
    _require_finite("field-tuned splitting delta_zero_field - d * field * 1e-4", delta)
    return delta
