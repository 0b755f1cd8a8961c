"""Property test: the array-evaluated sweeps against a per-row scalar reference.

The reference below is the per-triplet loop the sweeps replaced: one eigh
per matrix, Python-float squares for the luminosities, and one Lorentzian
per line added in (i, j) order.  The array path must match it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdmfluor import (
    BRANCH_LABELS,
    BroadeningModel,
    DriveParams,
    EmitterParams,
    GridSpec,
    SweepRange,
    diagonalize,
    dressed_energy_curves,
    intensity_map,
    linewidth,
    reduced_hamiltonian,
    synthesize,
    temperature_series,
    transition_branches,
    transitions,
)
from qdmfluor.core import _leading_negative, dressed_states
from qdmfluor.spectrum import line_table


def _leading(row):
    mag = np.abs(row)
    return int(np.argmax(mag >= mag.max() * (1.0 - 1e-12)))


def _ref_dressed(emitter, drive, delta):
    gsn, t = drive.g_sqrt_n, emitter.t
    m = np.array([[drive.hw_l + emitter.e0 - emitter.e_xd, gsn, 0.0], [gsn, 0.0, t], [0.0, t, delta]])
    if gsn == 0.0 and t == 0.0:
        order = np.argsort(np.diag(m), kind="stable")
        return np.diag(m)[order].copy(), np.eye(3)[order]
    evals, evecs = np.linalg.eigh(m)
    coeffs = evecs.T.copy()
    for k in range(3):
        if coeffs[k, _leading(coeffs[k])] < 0.0:
            coeffs[k] = -coeffs[k]
    return evals, coeffs


def _ref_lines(energies, coeffs, mu):
    lines = []
    for i, j in BRANCH_LABELS:
        a = 0.0 if i == j else float(energies[i - 1] - energies[j - 1])
        lum = mu * mu * float(coeffs[j - 1, 0]) ** 2 * float(coeffs[i - 1, 1]) ** 2
        lines.append((a, lum, i == j))
    return lines


def _ref_spectrum(lines, gamma, gamma_rad, x):
    y = np.zeros_like(x)
    for a, lum, central in lines:
        if lum == 0.0:
            continue
        f = gamma / 2.0 if central else (gamma + gamma_rad) / 2.0
        y += (lum / f) * f * f / ((x - a) ** 2 + f * f)
    return y


def _same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _case(t, gsn, detuning, lo, hi):
    emitter = EmitterParams(e_xd=1.0, delta=lo, t=t, mu=1.3)
    drive = DriveParams.from_effective_coupling(gsn, hw_l=1.0 + detuning)
    model = BroadeningModel(gamma0=75e-6, a_coef=22e-6, gamma_rad=75e-6)
    return emitter, drive, SweepRange(lo, hi, 9), model, GridSpec(-0.4, 0.4, 201), [0.0, 20.0]


@st.composite
def _cases(draw):
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3)))
    gsn = draw(st.one_of(st.just(0.0), st.just(t), st.floats(0.0, 0.3)))
    detuning = draw(st.one_of(st.just(0.0), st.floats(-0.05, 0.05)))
    e_xd = draw(st.floats(0.5, 2.0))
    emitter = EmitterParams(e_xd=e_xd, delta=draw(st.floats(-0.3, 0.3)), t=t, mu=draw(st.floats(0.1, 3.0)))
    drive = DriveParams.from_effective_coupling(gsn, hw_l=e_xd + detuning)
    lo = draw(st.one_of(st.just(0.0), st.floats(-0.3, 0.3)))
    rng = SweepRange(lo=lo, hi=lo + draw(st.floats(1e-3, 0.3)), steps=draw(st.integers(2, 200)))
    model = BroadeningModel(
        gamma0=draw(st.floats(1e-5, 1e-3)), a_coef=draw(st.floats(0.0, 1e-4)), gamma_rad=draw(st.floats(1e-5, 1e-3))
    )
    grid = GridSpec(-0.4, 0.4, draw(st.integers(2, 300)))
    temps = draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4))
    return emitter, drive, rng, model, grid, temps


@settings(max_examples=80, deadline=None)
@given(_cases())
@example(_case(0.1, 0.1, 0.0, 0.0, 0.02))  # delta = 0 at zero laser detuning: tied components
@example(_case(0.0, 0.1, 0.0, -0.2, -0.01))  # t = 0, negative splittings
@example(_case(0.1, 0.0, 0.01, -0.05, 0.05))  # g*sqrt(n) = 0
@example(_case(0.0, 0.0, 0.0, -0.05, 0.05))  # decoupled: exact bare energies
def test_sweeps_match_scalar_reference_bit_for_bit(case):
    emitter, drive, rng, model, grid, temps = case
    x = grid.values()
    gamma = linewidth(model, 3.0)
    curves = dressed_energy_curves(rng, emitter, drive)
    branches = transition_branches(rng, emitter, drive)
    imap = intensity_map(rng, grid, emitter, drive, model, temp_k=3.0)
    _, coeffs = dressed_states(emitter, drive, rng.values())
    _, lum_table = line_table(*dressed_states(emitter, drive, rng.values()), emitter.mu)
    for r, delta in enumerate(rng.values()):
        energies, ref_coeffs = _ref_dressed(emitter, drive, float(delta))
        lines = _ref_lines(energies, ref_coeffs, emitter.mu)
        assert _same(curves.energies[r], energies)
        assert _same(coeffs[r], ref_coeffs)
        assert _same(branches.a[r], [a for a, _, _ in lines])
        assert _same(lum_table[r], [lum for _, lum, _ in lines])
        assert _same(imap.values[r], _ref_spectrum(lines, gamma, model.gamma_rad, x))
        lum_sum = sum(lum for _, lum, _ in lines)
        assert abs(lum_sum - emitter.mu**2) <= 1e-12 * max(1.0, emitter.mu**2)
        for row in coeffs[r]:
            assert row[_leading(row)] > 0.0

    energies, ref_coeffs = _ref_dressed(emitter, drive, emitter.delta)
    lines = _ref_lines(energies, ref_coeffs, emitter.mu)
    for temp_k, spec in zip(temps, temperature_series(temps, emitter, drive, model, grid)):
        assert _same(spec.intensity, _ref_spectrum(lines, linewidth(model, temp_k), model.gamma_rad, x))

    # The per-triplet API is a one-row view of the same arrays.
    trans = transitions(diagonalize(reduced_hamiltonian(emitter, drive)), emitter.mu)
    assert [(tr.a, tr.lum) for tr in trans] == [(a, lum) for a, lum, _ in lines]
    single = synthesize(trans, gamma, model.gamma_rad, grid)
    assert _same(single.intensity, _ref_spectrum(lines, gamma, model.gamma_rad, x))


@st.composite
def _sign_rows(draw):
    """Stacks of rows whose components tie exactly or within 1e-12 of the largest, with zeros and -0.0 among them."""
    top = draw(st.floats(1e-300, 1e300))
    pool = [top, -top, top * (1.0 - 1e-12), -top * (1.0 - 1e-12), top * (1.0 - 2e-12), -float(np.nextafter(top, 0.0)),
            0.0, -0.0, draw(st.floats(-1e300, 1e300))]
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=3, max_size=3), min_size=1, max_size=12))
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(_sign_rows())
@example(np.array([[0.0, -0.0, -0.0], [-0.0, 0.0, 0.0], [0.5, -0.5, 0.5], [-0.5, 0.5, -0.5]]))
def test_sign_rule_picks_the_argmax_references_component(rows):
    want = [row[_leading(row)] < 0.0 for row in rows]
    assert _leading_negative(rows).tolist() == want
    # The rows that fill whole matrices, as a (N, 3, 3) stack and in the eigensolve's transposed layout.
    stack = rows[: len(rows) // 3 * 3].reshape(-1, 3, 3)
    strided = np.swapaxes(np.swapaxes(stack, -1, -2).copy(), -1, -2)
    for matrices in (stack, strided):
        assert _leading_negative(matrices).ravel().tolist() == want[: stack.size // 3]


def test_overflowing_sweep_values_rejected():
    # A span hi - lo that overflows would make linspace give [nan, inf, 1e308]; it is refused up front.
    with pytest.raises(ValueError, match="sweep span hi - lo overflows"):
        SweepRange(lo=-1e308, hi=1e308, steps=3)
    with pytest.raises(ValueError, match="grid span dp_max - dp_min overflows"):
        GridSpec(-1e308, 1e308, 11)
    emitter = EmitterParams(e_xd=1.0, delta=0.0, t=0.1)
    drive = DriveParams.from_effective_coupling(0.1, hw_l=1.0)
    with pytest.raises(ValueError, match="delta must be finite"):
        dressed_states(emitter, drive, [0.0, np.inf])
    far = EmitterParams(e_xd=-1e308, delta=0.0, t=0.1)
    with pytest.raises(ValueError, match=r"^laser detuning hw_l \+ e0 - e_xd must be finite, got inf$"):
        dressed_states(far, DriveParams.from_effective_coupling(0.1, hw_l=1e308), [0.0])
