import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdmfluor import (
    DressedTriplet,
    DriveParams,
    EmitterParams,
    TripletHamiltonian,
    delta_from_field,
    diagonalize,
    reduced_hamiltonian,
)
from qdmfluor.spectrum import GridSpec, SpectrumGrid
from qdmfluor.sweep import EnergyCurves, IntensityMap, SweepRange, TransitionBranches

from helpers import analytic_degenerate, char_poly, poly_roots, strong_drive

SQRT_002 = math.sqrt(0.02)  # 0.1414213562373095


def test_reduced_hamiltonian_strong_drive_point():
    emitter, drive = strong_drive(delta=0.0)
    h = reduced_hamiltonian(emitter, drive)
    expected = np.array([[0.0, 0.1, 0.0], [0.1, 0.0, 0.1], [0.0, 0.1, 0.0]])
    assert np.allclose(h.m, expected, rtol=0.0, atol=1e-15)


def test_reduced_hamiltonian_zero_couplings_is_diagonal():
    emitter = EmitterParams(e_xd=1.0, delta=0.37, t=0.0)
    drive = DriveParams(n=5, g=0.0, hw_l=1.0)
    h = reduced_hamiltonian(emitter, drive)
    assert np.array_equal(h.m, np.diag([0.0, 0.0, 0.37]))


def test_reduced_hamiltonian_laser_detuning_entry():
    emitter = EmitterParams(e_xd=1.0, delta=0.0, t=0.1, e0=0.0)
    drive = DriveParams.from_effective_coupling(0.1, hw_l=1.02)
    h = reduced_hamiltonian(emitter, drive)
    assert h.m[0, 0] == pytest.approx(0.02, rel=1e-12)


def test_diagonalize_degenerate_closed_form():
    emitter, drive = strong_drive(delta=0.0)
    ds = diagonalize(reduced_hamiltonian(emitter, drive))
    assert ds.energies[0] == pytest.approx(-SQRT_002, abs=1e-12)
    assert ds.energies[1] == pytest.approx(0.0, abs=1e-12)
    assert ds.energies[2] == pytest.approx(SQRT_002, abs=1e-12)
    # Middle eigenvector is (1, 0, -1)/sqrt(2) under the sign convention.
    assert ds.coeffs[1, 0] == pytest.approx(1.0 / math.sqrt(2), abs=1e-10)
    assert abs(ds.coeffs[1, 1]) <= 1e-12
    assert ds.coeffs[1, 2] == pytest.approx(-1.0 / math.sqrt(2), abs=1e-10)
    # Full closed-form comparison.
    energies, rows = analytic_degenerate(g=0.1, t=0.1)
    assert np.allclose(ds.energies, energies, atol=1e-12)
    assert np.allclose(ds.coeffs, rows, atol=1e-10)
    # Independent oracle: each eigenvalue is a root of det(m - lam I).
    m = reduced_hamiltonian(emitter, drive).m
    for lam in ds.energies:
        assert abs(char_poly(m, lam)) <= 1e-14


def test_diagonalize_diagonal_input_degenerate():
    h = TripletHamiltonian(m=np.diag([0.0, 0.0, 5.0]))
    ds = diagonalize(h)
    assert np.array_equal(ds.energies, [0.0, 0.0, 5.0])
    # Identity up to row permutation and the sign rule.
    assert np.abs(ds.coeffs @ ds.coeffs.T - np.eye(3)).max() <= 1e-12
    assert abs(ds.coeffs[2, 2]) == 1.0
    assert np.abs(ds.coeffs[:2, 2]).max() <= 1e-12


def test_diagonalize_two_level_decoupled_limit():
    m = np.array([[0.0, 0.1, 0.0], [0.1, 0.0, 0.1], [0.0, 0.1, 5.0]])
    ds = diagonalize(TripletHamiltonian(m=m))
    assert ds.energies[0] == pytest.approx(-0.1, abs=5e-3)
    assert ds.energies[1] == pytest.approx(0.1, abs=5e-3)
    # Cross-check against companion-matrix roots of the characteristic polynomial.
    assert np.allclose(ds.energies, poly_roots(m), atol=1e-8)


def test_eigensolver_residual_and_identities_randomized():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        delta = rng.uniform(-1.0, 1.0)
        t = rng.uniform(0.0, 0.5)
        gsn = rng.uniform(0.0, 0.5)
        dl = rng.uniform(-0.1, 0.1)
        m = np.array([[dl, gsn, 0.0], [gsn, 0.0, t], [0.0, t, delta]])
        ds = diagonalize(TripletHamiltonian(m=m))
        scale = max(1.0, np.abs(m).max())
        for lam, row in zip(ds.energies, ds.coeffs):
            assert np.abs(m @ row - lam * row).max() <= 1e-10 * scale
        assert np.abs(ds.coeffs @ ds.coeffs.T - np.eye(3)).max() <= 1e-12
        assert abs((dl + delta) - ds.energies.sum()) <= 1e-12
        assert abs(np.linalg.det(m) - np.prod(ds.energies)) <= 1e-10


_ENERGY = st.floats(-10.0, 10.0)
_RATE = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    emitter=st.builds(EmitterParams, e_xd=_ENERGY, delta=_ENERGY, t=_RATE, mu=st.floats(1e-3, 1e3), e0=_ENERGY),
    drive=st.builds(DriveParams, n=st.integers(1, 10**6), g=_RATE, hw_l=st.floats(1e-3, 10.0)),
)
def test_eigen_residual_over_the_parameter_domain(emitter, drive):
    # |M c - E c| for every dressed state, relative to the largest matrix entry.
    h = reduced_hamiltonian(emitter, drive)
    ds = diagonalize(h)
    residual = h.m @ ds.coeffs.T - ds.coeffs.T * ds.energies
    assert np.abs(residual).max() <= 1e-13 * np.abs(h.m).max()


def test_energy_continuity_in_delta():
    emitter, drive = strong_drive(delta=0.0)
    deltas = np.arange(-0.05, 0.05, 1e-4)
    energies = np.array(
        [diagonalize(reduced_hamiltonian(EmitterParams(e_xd=1.0, delta=float(d), t=0.1), drive)).energies
         for d in deltas]
    )
    jumps = np.abs(np.diff(energies, axis=0))
    # No jump may exceed 10x the local slope estimate from its neighbours.
    for k in range(3):
        col = jumps[:, k]
        local = np.maximum((np.roll(col, 1) + np.roll(col, -1)) / 2.0, 1e-12)
        assert (col[1:-1] <= 10.0 * local[1:-1]).all()


def test_decoupling_limit_large_delta():
    _, drive = strong_drive(delta=0.0)
    prev_err = None
    prev_leak = None
    for delta in (1.0, 2.0, 4.0, 8.0, 16.0):
        emitter = EmitterParams(e_xd=1.0, delta=delta, t=0.1)
        ds = diagonalize(reduced_hamiltonian(emitter, drive))
        err = max(abs(ds.energies[0] + 0.1), abs(ds.energies[1] - 0.1))
        assert err <= 0.1**2 / delta  # O(t^2 / delta)
        xi_state = ds.coeffs[2]  # highest state is XI-dominant at large delta
        leak = max(abs(xi_state[0]), abs(xi_state[1]))
        assert leak <= 2.0 * 0.1 / delta  # O(1/delta)
        if prev_err is not None:
            assert err < prev_err
            assert leak < prev_leak
        prev_err, prev_leak = err, leak


def test_zero_coupling_reproduces_bare_energies_exactly():
    emitter = EmitterParams(e_xd=1.0, delta=0.5, t=0.0)
    drive = DriveParams(n=3, g=0.0, hw_l=0.97)
    ds = diagonalize(reduced_hamiltonian(emitter, drive))
    bare = sorted([0.97 + 0.0 - 1.0, 0.0, 0.5])
    assert ds.energies.tolist() == bare


def test_delta_from_field_values():
    assert delta_from_field(0.05, 10.0, 50.0) == pytest.approx(0.0, abs=1e-15)
    assert delta_from_field(0.05, 10.0, 0.0) == 0.05
    # Resonance condition: the zero-crossing field restores delta = 0.
    f_star = 0.05 / (10.0 * 1e-4)
    assert delta_from_field(0.05, 10.0, f_star) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        delta_from_field(0.05, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^field-tuned splitting .* must be finite, got -inf$"):
        delta_from_field(0.05, 1e308, 1e308)


def test_emitter_params_validation():
    with pytest.raises(ValueError):
        EmitterParams(e_xd=1.0, delta=0.0, t=-0.1)
    with pytest.raises(ValueError):
        EmitterParams(e_xd=1.0, delta=0.0, t=0.1, mu=0.0)
    with pytest.raises(ValueError):
        EmitterParams(e_xd=1.0, delta=math.inf, t=0.1)


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams(n=0, g=0.1, hw_l=1.0)
    with pytest.raises(ValueError):
        DriveParams(n=2.0, g=0.1, hw_l=1.0)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        DriveParams(n=1, g=-0.1, hw_l=1.0)
    with pytest.raises(ValueError):
        DriveParams(n=1, g=0.1, hw_l=0.0)
    # An n past the largest float has no float sqrt: refused as a ValueError, not an OverflowError.
    with pytest.raises(ValueError, match="photon number n"):
        DriveParams(n=10**400, g=1e-300, hw_l=1.0)
    assert DriveParams(n=100, g=0.01, hw_l=1.0).g_sqrt_n == pytest.approx(0.1, rel=1e-15)


def test_triplet_hamiltonian_validation():
    with pytest.raises(ValueError):
        TripletHamiltonian(m=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        TripletHamiltonian(m=np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))


def test_dressed_triplet_validation():
    with pytest.raises(ValueError):
        DressedTriplet(energies=np.array([1.0, 0.0, 2.0]), coeffs=np.eye(3))
    with pytest.raises(ValueError):
        DressedTriplet(energies=np.array([0.0, 1.0, 2.0]), coeffs=2.0 * np.eye(3))
    bad_sign = np.eye(3)
    bad_sign[1, 1] = -1.0
    with pytest.raises(ValueError):
        DressedTriplet(energies=np.array([0.0, 1.0, 2.0]), coeffs=bad_sign)


def test_dressed_triplet_is_immutable():
    emitter, drive = strong_drive(delta=0.004)
    ds = diagonalize(reduced_hamiltonian(emitter, drive))
    with pytest.raises(ValueError):
        ds.energies[0] = 0.0
    with pytest.raises(ValueError):
        ds.coeffs[0, 0] = 0.0


@pytest.mark.parametrize("build, message", [
    (lambda: TripletHamiltonian(m=np.zeros((2, 3))), "m must be 3x3, got shape (2, 3)"),
    (lambda: TripletHamiltonian(m=np.diag([0.0, math.nan, 0.0])), "m must be finite"),
    (lambda: DressedTriplet(energies=np.zeros(2), coeffs=np.eye(3)), "energies must have shape (3,), got (2,)"),
    (lambda: DressedTriplet(energies=np.arange(3.0), coeffs=np.eye(2)), "coeffs must be 3x3, got shape (2, 2)"),
], ids=["hamiltonian-shape", "hamiltonian-nan", "energies-shape", "coeffs-shape"])
def test_refusals_name_their_value(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message



# Each value type with inputs it accepts and inputs it refuses, built fresh: writable float64 arrays.
_VALUE_TYPES = [
    (TripletHamiltonian, lambda: {"m": np.diag([0.0, 0.0, 0.37])}, lambda: {"m": np.ones((3, 3))}),
    (DressedTriplet, lambda: {"energies": np.arange(3.0), "coeffs": np.eye(3)},
     lambda: {"energies": np.array([2.0, 1.0, 0.0]), "coeffs": np.eye(3)}),
    (SpectrumGrid, lambda: {"delta_prime": np.arange(4.0), "intensity": np.ones(4)},
     lambda: {"delta_prime": np.arange(4.0), "intensity": -np.ones(4)}),
    (EnergyCurves, lambda: {"delta": np.arange(2.0), "energies": np.zeros((2, 3))},
     lambda: {"delta": np.arange(2.0), "energies": np.zeros((2, 9))}),
    (TransitionBranches, lambda: {"delta": np.arange(2.0), "a": np.zeros((2, 9))},
     lambda: {"delta": np.arange(2.0), "a": np.zeros((2, 3))}),
    (IntensityMap, lambda: {"delta_axis": np.arange(2.0), "dp_axis": np.arange(3.0), "values": np.ones((2, 3))},
     lambda: {"delta_axis": np.arange(2.0), "dp_axis": np.arange(3.0), "values": -np.ones((2, 3))}),
]


@pytest.mark.parametrize("cls, accepted, refused", _VALUE_TYPES, ids=[t[0].__name__ for t in _VALUE_TYPES])
def test_value_types_hold_the_callers_arrays_read_only_once_accepted(cls, accepted, refused):
    arrays = accepted()
    value = cls(**arrays)
    for name, arr in arrays.items():
        held = getattr(value, name)
        assert not held.flags.writeable and np.shares_memory(held, arr), name  # no copy is taken
    arrays = refused()
    with pytest.raises(ValueError):
        cls(**arrays)
    assert all(arr.flags.writeable for arr in arrays.values())  # checked before anything is frozen


# Each value type that holds read-only arrays, built from accepted inputs.
_VALUES = [lambda cls=cls, accepted=accepted: cls(**accepted()) for cls, accepted, _ in _VALUE_TYPES]
_VALUES += [lambda: GridSpec(-0.35, 0.35, 7), lambda: SweepRange(0.0, 0.06, 5)]


@pytest.mark.parametrize("build", _VALUES, ids=[t[0].__name__ for t in _VALUE_TYPES] + ["GridSpec", "SweepRange"])
def test_a_copied_or_pickled_value_is_rebuilt_read_only(build):
    value = build()
    held = {name: arr for name, arr in vars(value).items() if isinstance(arr, np.ndarray)}
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and vars(copied).keys() == vars(value).keys()
        for name, arr in held.items():
            assert not getattr(copied, name).flags.writeable, name
            assert getattr(copied, name).tobytes() == arr.tobytes(), name


@pytest.mark.parametrize("axis", [GridSpec, SweepRange])
def test_an_axis_samples_once_and_holds_its_samples_read_only(monkeypatch, axis):
    calls, real = [], np.linspace
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    built = axis(-0.35, 0.35, 7)
    assert calls == [(-0.35, 0.35, 7)]  # the strict-increase check's samples are the ones kept
    x = built.values()
    assert built.values() is x and not x.flags.writeable
    assert len(calls) == 1
    assert x.tobytes() == np.linspace(-0.35, 0.35, 7).tobytes()
    # The samples are no field: equality, hash and repr are those of the three bounds.
    twin = axis(-0.35, 0.35, 7)
    assert twin == built and hash(twin) == hash(built) and repr(twin) == repr(built) and twin.values() is not x
