"""Acceptance suite: ten numbered end-to-end checks, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
check; a failed test is the corresponding fail line.  Tolerances are fixed
here, not tuned at runtime.
"""

import math

import numpy as np
import pytest

from qdmfluor import (
    CENTRAL,
    SIDE,
    BroadeningModel,
    GridSpec,
    SweepRange,
    Transition,
    TripletHamiltonian,
    count_peaks,
    delta_from_field,
    diagonalize,
    intensity_map,
    linewidth,
    reduced_hamiltonian,
    resolvable_maxima,
    synthesize,
    transitions,
)
from qdmfluor.cli import main

from helpers import analytic_degenerate, match_peaks, measure_fwhm, strong_drive

N_DRAWS = 10_000
SQRT_002 = math.sqrt(0.02)

MINIMAL_CFG = """\
e_xd_ev = 1.0
hw_l_ev = 1.0
g_sqrt_n_ev = 0.1
t_ev = 0.1
"""

SMALL_CFG = MINIMAL_CFG + "npoints = 701\nsweep_steps = 25\n"


def _model():
    return BroadeningModel(gamma0=75e-6, a_coef=22e-6, gamma_rad=75e-6)


def _draws(seed=20260810):
    rng = np.random.default_rng(seed)
    for _ in range(N_DRAWS):
        yield (
            rng.uniform(-1.0, 1.0),   # delta
            rng.uniform(0.0, 0.5),    # t
            rng.uniform(0.0, 0.5),    # g sqrt(n)
            rng.uniform(-0.1, 0.1),   # laser detuning
            rng.uniform(0.1, 3.0),    # mu
        )


def _matrix(delta, t, gsn, dl):
    return np.array([[dl, gsn, 0.0], [gsn, 0.0, t], [0.0, t, delta]])


def _transitions_at(delta):
    emitter, drive = strong_drive(delta=delta)
    return transitions(diagonalize(reduced_hamiltonian(emitter, drive)), emitter.mu)


def _report(num, text):
    print(f"[PASS] {num:02d} {text}")


def test_01_eigensolver_contract():
    eye = np.eye(3)
    for delta, t, gsn, dl, _ in _draws():
        m = _matrix(delta, t, gsn, dl)
        ds = diagonalize(TripletHamiltonian(m=m))
        scale = max(1.0, np.abs(m).max())
        for lam, row in zip(ds.energies, ds.coeffs):
            assert np.abs(m @ row - lam * row).max() <= 1e-10 * scale
        assert np.abs(ds.coeffs @ ds.coeffs.T - eye).max() <= 1e-12
        assert abs((dl + delta) - ds.energies.sum()) <= 1e-12
        assert abs(np.linalg.det(m) - np.prod(ds.energies)) <= 1e-10
    _report(1, f"eigensolver contract over {N_DRAWS} randomized draws "
               "(residual 1e-10, orthonormality 1e-12, trace 1e-12, det 1e-10)")


def test_02_luminosity_sum_rule():
    for delta, t, gsn, dl, mu in _draws():
        ds = diagonalize(TripletHamiltonian(m=_matrix(delta, t, gsn, dl)))
        total = sum(tr.lum for tr in transitions(ds, mu))
        assert abs(total - mu * mu) <= 1e-12
    _report(2, f"luminosity sum rule = mu^2 within 1e-12 over {N_DRAWS} draws")


def test_03_peak_count_regimes():
    count0, _ = count_peaks(_transitions_at(0.0), energy_tol=1e-6, intensity_floor=1e-3)
    assert count0 == 5
    # No luminosity floor for the generic-splitting count: the two lines fed
    # by the nearly dark middle state sit at ~8e-4 of the strongest line.
    count7, _ = count_peaks(_transitions_at(0.008), energy_tol=1e-6, intensity_floor=0.0)
    assert count7 == 7
    count3, _ = count_peaks(_transitions_at(5.0), energy_tol=1e-6, intensity_floor=1e-3)
    assert count3 == 3
    _report(3, "peak counts 5 / 7 / 3 at splitting 0 / 0.008 eV / 5 eV")


def test_04_mollow_limit_positions():
    count, centers = count_peaks(_transitions_at(5.0), energy_tol=1e-6, intensity_floor=1e-3)
    assert count == 3
    assert abs(centers[0] + 0.2) <= 5e-3
    assert abs(centers[1]) <= 5e-3
    assert abs(centers[2] - 0.2) <= 5e-3
    _report(4, "large-splitting spectrum collapses to {0, +-0.2 eV} within 5e-3 eV")


def test_05_degenerate_closed_form():
    emitter, drive = strong_drive(delta=0.0)
    ds = diagonalize(reduced_hamiltonian(emitter, drive))
    assert abs(ds.energies[0] + 0.1414213562) <= 1e-10
    assert abs(ds.energies[1]) <= 1e-10
    assert abs(ds.energies[2] - 0.1414213562) <= 1e-10
    # Oracle fixture: luminosities evaluated from the closed-form eigenvectors.
    _, rows = analytic_degenerate(g=0.1, t=0.1)
    expected = {
        (i + 1, j + 1): rows[j, 0] ** 2 * rows[i, 1] ** 2 for i in range(3) for j in range(3)
    }
    actual = {(tr.i, tr.j): tr.lum for tr in transitions(ds, emitter.mu)}
    for key, value in expected.items():
        assert abs(actual[key] - value) <= 1e-12
    branch = sorted(round(v, 12) for v in (actual[(1, 1)], actual[(1, 2)], actual[(1, 3)]))
    assert branch == [0.125, 0.125, 0.25]
    _report(5, "degenerate point: energies {0, +-sqrt(0.02)} at 1e-10; "
               "luminosities {1/8, 1/4, 1/8} per branch vs closed-form fixture")


def test_06_broadening_law_and_peak_widths():
    model = _model()
    for temp, expected in ((5.0, 185e-6), (20.0, 515e-6), (40.0, 955e-6)):
        value = linewidth(model, temp)
        assert abs(value - expected) <= 1e-12 * expected
    for temp in (5.0, 20.0, 40.0):
        gamma = linewidth(model, temp)
        span = 8.0 * (gamma + model.gamma_rad)
        grid = GridSpec(-span, span, 4001)
        central = synthesize(
            [Transition(i=1, j=1, a=0.0, lum=1.0, kind=CENTRAL)], gamma, model.gamma_rad, grid
        )
        assert abs(measure_fwhm(central.delta_prime, central.intensity) - gamma) <= grid.step
        side = synthesize(
            [Transition(i=1, j=2, a=0.0, lum=1.0, kind=SIDE)], gamma, model.gamma_rad, grid
        )
        width = measure_fwhm(side.delta_prime, side.intensity)
        assert abs(width - (gamma + model.gamma_rad)) <= grid.step
    _report(6, "linewidth law 185/515/955 ueV at 1e-12 rel; "
               "central FWHM = Gamma and side FWHM = Gamma + gamma within one grid step")


def test_07_temperature_monotonicity():
    trs = _transitions_at(0.008)
    model = _model()
    grid = GridSpec(-0.35, 0.35, 7001)
    grids = [synthesize(trs, linewidth(model, t), model.gamma_rad, grid) for t in (5.0, 20.0, 40.0)]
    matched = match_peaks(grids, rel_floor=1e-3)
    assert len(matched) >= 5
    for row in matched:
        heights = [g.intensity[i] for g, i in zip(grids, row)]
        assert heights[0] > heights[1] > heights[2]
        widths = [measure_fwhm(g.delta_prime, g.intensity, i) for g, i in zip(grids, row)]
        assert widths[0] < widths[1] < widths[2]
    _report(7, f"heights strictly fall and widths strictly grow with T over {len(matched)} matched peaks")


def test_08_map_regimes():
    emitter, drive = strong_drive(delta=0.0)
    grid = GridSpec(-0.35, 0.35, 7001)

    def row_maxima(sweep):
        result = intensity_map(sweep, grid, emitter, drive, _model(), temp_k=0.0)
        return result.delta_axis, [resolvable_maxima(row) for row in result.values]

    axis, maxima = row_maxima(SweepRange(lo=0.0, hi=0.06, steps=241))
    counts = [len(m) for m in maxima]
    assert counts[0] == 5, f"row at splitting 0 resolved {counts[0]} maxima, expected 5"
    near = [r for r, d in enumerate(axis) if 0.0095 <= d <= 0.0105]
    assert near and all(counts[r] == 7 for r in near), (
        f"rows near 0.01 eV resolved {[counts[r] for r in near]} maxima, expected 7"
    )
    # The default sweep ends well below the tunneling t = 0.1 eV: the indirect
    # exciton is still hybridised and the outermost maxima reach 12-26% of the
    # strongest sample, so the tail of the sweep keeps seven maxima.
    tail = [r for r, d in enumerate(axis) if d >= 0.055]
    observed = sorted({counts[r] for r in tail})
    assert tail and observed == [7], (
        f"rows at splitting >= 0.055 eV resolved {observed} maxima, expected 7 "
        "(the indirect exciton is not yet tuned away at t = 0.1 eV)"
    )

    # Where the Mollow triplet must appear.  In the basis (g, XD, XI) at zero
    # laser detuning the g-XD block has eigenvalues +-g*sqrt(n), so Cauchy
    # interlacing gives E2 <= g*sqrt(n); the Rayleigh quotient of XI gives
    # E3 >= delta.  Every side line (i != j) involving state 3 therefore sits
    # at |a| >= delta - g*sqrt(n), outside the +-0.35 eV window once
    # delta > g*sqrt(n) + 0.35 = 0.45 eV.  What stays inside are the central
    # lines at 0 and the (1,2)/(2,1) pair near +-2*g*sqrt(n) = +-0.2 eV.
    axis, maxima = row_maxima(SweepRange(lo=0.5, hi=5.0, steps=241))
    dp = grid.values()
    for d, idx in zip(axis, maxima):
        centers = dp[idx]
        assert len(idx) == 3, (
            f"row at splitting {d:g} eV resolved {len(idx)} maxima, expected the Mollow triplet"
        )
        for got, want in zip(centers, (-0.2, 0.0, 0.2)):
            assert abs(got - want) <= 5e-3, (
                f"row at splitting {d:g} eV has Mollow maxima at {centers.tolist()}, "
                "expected {0, +-0.2 eV} within 5e-3 eV"
            )
    _report(8, "map rows resolve 5 / 7 / 7 maxima at splitting 0 / near 0.01 eV / >= 0.055 eV; "
               "3 maxima at {0, +-0.2 eV} within 5e-3 eV over splitting 0.5-5 eV")


def test_09_field_tuning_affine():
    for delta0, d in ((0.05, 10.0), (0.008, 7.5), (0.12, 20.0)):
        f1, f2 = 10.0, 60.0
        y1 = delta_from_field(delta0, d, f1)
        y2 = delta_from_field(delta0, d, f2)
        slope = (y2 - y1) / (f2 - f1)
        assert abs(slope - (-d * 1e-4)) <= 1e-15
        # Zero crossing from the affine fit vs the analytic value.
        f_star = f1 - y1 * (f2 - f1) / (y2 - y1)
        analytic = delta0 / (d * 1e-4)
        assert abs(f_star - analytic) <= 1e-12 * analytic
        # Affinity: midpoint value matches the fit exactly at 1e-15 scale.
        mid = delta_from_field(delta0, d, (f1 + f2) / 2.0)
        assert abs(mid - (y1 + y2) / 2.0) <= 1e-15
    _report(9, "field tuning affine with slope -d*1e-4 at 1e-15; zero crossing at 1e-12 rel")


def test_10_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)

    def run(tag, argv):
        before = set(tmp_path.iterdir())
        assert main(argv) == 0
        produced = sorted(p for p in set(tmp_path.iterdir()) - before)
        assert produced, f"{tag} wrote no files"
        return {p.name.replace(tag, ""): p.read_bytes() for p in produced}

    def spin(tag, command, extra=()):
        out = tmp_path / f"{tag}{command}.csv"
        return run(tag, [command, "--config", str(cfg), "--out", str(out), *extra])

    for command in ("spectrum", "transitions", "branches"):
        assert spin("a_", command) == spin("b_", command)
    assert spin("a_", "map") == spin("b_", "map")
    assert spin("c_", "map") == spin("d_", "map")
    assert spin("a_", "tempseries") == spin("b_", "tempseries")

    csv_path = tmp_path / "a_spectrum.csv"
    svg_a = run("pa_", ["plot", str(csv_path), "--kind", "line", "--out", str(tmp_path / "pa_s.svg")])
    svg_b = run("pb_", ["plot", str(csv_path), "--kind", "line", "--out", str(tmp_path / "pb_s.svg")])
    assert svg_a == svg_b
    _report(10, "byte-identical CSV and SVG across repeated runs")
