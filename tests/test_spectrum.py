import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdmfluor import (
    CENTRAL,
    SIDE,
    BRANCH_LABELS,
    BroadeningModel,
    DriveParams,
    EmitterParams,
    GridSpec,
    Transition,
    count_peaks,
    diagonalize,
    dressed_states,
    line_table,
    line_widths,
    linewidth,
    reduced_hamiltonian,
    resolvable_maxima,
    synthesize,
    transitions,
)
from qdmfluor import spectrum

from helpers import analytic_degenerate, count_thread_starts, local_max_indices, match_peaks, measure_fwhm, strong_drive

SQRT_002 = math.sqrt(0.02)


def _transitions_at(delta, mu=1.0, t=0.1, g_sqrt_n=0.1):
    emitter, drive = strong_drive(delta=delta, t=t, g_sqrt_n=g_sqrt_n)
    dressed = diagonalize(reduced_hamiltonian(emitter, drive))
    return transitions(dressed, mu)


def _model():
    return BroadeningModel(gamma0=75e-6, a_coef=22e-6, gamma_rad=75e-6)


class TestTransitions:
    def test_degenerate_luminosities_match_closed_form(self):
        trs = _transitions_at(0.0)
        by_ij = {(tr.i, tr.j): tr for tr in trs}
        # Oracle: direct matrix-element evaluation from the analytic eigenvectors.
        _, rows = analytic_degenerate(g=0.1, t=0.1)
        for (i, j), tr in by_ij.items():
            expected = rows[j - 1, 0] ** 2 * rows[i - 1, 1] ** 2
            assert tr.lum == pytest.approx(expected, abs=1e-12)
        for j in (1, 2, 3):
            assert by_ij[(2, j)].lum <= 1e-30  # XD-dark middle state
        assert by_ij[(1, 1)].lum == pytest.approx(0.125, abs=1e-12)
        assert by_ij[(1, 3)].lum == pytest.approx(0.125, abs=1e-12)
        assert by_ij[(3, 1)].lum == pytest.approx(0.125, abs=1e-12)
        assert by_ij[(3, 3)].lum == pytest.approx(0.125, abs=1e-12)
        assert by_ij[(1, 2)].lum == pytest.approx(0.25, abs=1e-12)
        assert by_ij[(3, 2)].lum == pytest.approx(0.25, abs=1e-12)

    def test_three_central_transitions_always(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            trs = _transitions_at(rng.uniform(-1, 1), t=rng.uniform(0, 0.5), g_sqrt_n=rng.uniform(0, 0.5))
            central = [tr for tr in trs if tr.kind == CENTRAL]
            assert len(central) == 3
            assert all(tr.a == 0.0 for tr in central)

    def test_five_distinct_positions_at_zero_splitting(self):
        trs = _transitions_at(0.0)
        positions = sorted({round(tr.a, 9) for tr in trs if tr.lum > 1e-20})
        assert len(positions) == 5
        expected = [-2 * SQRT_002, -SQRT_002, 0.0, SQRT_002, 2 * SQRT_002]
        assert np.allclose(positions, expected, atol=1e-9)

    def test_sum_rule_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            mu = rng.uniform(0.1, 10.0)
            emitter, drive = strong_drive(
                delta=rng.uniform(-1, 1), t=rng.uniform(0, 0.5), g_sqrt_n=rng.uniform(0, 0.5)
            )
            dressed = diagonalize(reduced_hamiltonian(emitter, drive))
            total = sum(tr.lum for tr in transitions(dressed, mu))
            assert abs(total - mu * mu) <= 1e-12 * max(1.0, mu * mu)

    def test_mirror_symmetry_at_zero_splitting(self):
        for t, gsn in ((0.1, 0.1), (0.3, 0.05), (0.02, 0.4)):
            trs = _transitions_at(0.0, t=t, g_sqrt_n=gsn)
            fwd = sorted((round(tr.a, 10), round(tr.lum, 10)) for tr in trs)
            rev = sorted((round(-tr.a, 10), round(tr.lum, 10)) for tr in trs)
            assert fwd == rev

    def test_line_table_refuses_overflow_by_name(self):
        # Finite dressed energies near -+1.4e308, whose differences exceed the largest float.
        emitter = EmitterParams(e_xd=1.0, delta=0.0, t=1e308)
        energies, coeffs = dressed_states(emitter, DriveParams.from_effective_coupling(1e308, hw_l=1.0), [0.0])
        assert np.isfinite(energies).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would be an error here
            with pytest.raises(ValueError, match=r"^line positions a = E_i - E_j must be finite"):
                line_table(energies, coeffs, 1.0)
            with pytest.raises(ValueError, match="^dipole scale mu must be non-negative with a finite square"):
                line_table(energies, coeffs, 1e200)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])
    @example(values=[2.2250738585072014e-308, -1e-300, 1.5e-154, 0.7071067811865476, 0.9999999999999999, 1e-4])
    # Values whose x * x differs from float ** 2 in the last bit.
    @example(values=[0.3493787908695549, -0.803434124030634, -0.39464743475060593, -0.8450838257706985,
                     -0.8584462047366135, -0.6730968242491282])
    def test_line_table_squares_are_python_float_squares(self, values):
        # With mu = 1 and the other factor +-1, each luminosity is one squared coefficient, bit for bit float ** 2.
        coeffs = np.ones((2, 3, 3))
        coeffs[0, :, 0] = values[:3]  # C_g of each lower state j
        coeffs[1, :, 1] = values[3:]  # C_XD of each upper state i
        coeffs[0, 1, 1] = coeffs[1, 2, 0] = -1.0
        _, lum = line_table(np.zeros((2, 3)), coeffs, 1.0)
        want = [[values[j - 1] ** 2 for _, j in BRANCH_LABELS], [values[2 + i] ** 2 for i, _ in BRANCH_LABELS]]
        assert lum.tobytes() == np.array(want).tobytes()

    def test_rejects_bad_mu(self):
        emitter, drive = strong_drive(delta=0.0)
        dressed = diagonalize(reduced_hamiltonian(emitter, drive))
        with pytest.raises(ValueError):
            transitions(dressed, -1.0)


class TestLinewidth:
    def test_values_from_linear_law(self):
        model = _model()
        assert linewidth(model, 0.0) == pytest.approx(75e-6, rel=1e-12)
        assert linewidth(model, 5.0) == pytest.approx(185e-6, rel=1e-12)
        assert linewidth(model, 20.0) == pytest.approx(515e-6, rel=1e-12)
        assert linewidth(model, 40.0) == pytest.approx(955e-6, rel=1e-12)

    def test_optical_phonon_term(self):
        model = BroadeningModel(gamma0=75e-6, a_coef=22e-6, gamma_rad=75e-6, b_coef=1e-3, delta_e=36e-3)
        expected = 75e-6 + 22e-6 * 100.0 + 1e-3 * math.exp(-36e-3 / (8.617333262e-5 * 100.0))
        assert linewidth(model, 100.0) == pytest.approx(expected, rel=1e-12)
        # The exponential contributes nothing at T = 0, with or without b.
        assert linewidth(model, 0.0) == pytest.approx(75e-6, rel=1e-12)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            linewidth(_model(), -1.0)

    @pytest.mark.parametrize("temp", [math.inf, math.nan])
    def test_non_finite_temperature_rejected(self, temp):
        with pytest.raises(ValueError) as err:
            linewidth(_model(), temp)
        assert str(err.value) == f"temperature must be finite and >= 0 K, got {temp!r}"

    def test_subnormal_temperature_with_optical_term(self):
        # K_B * 5e-324 rounds to 0: the optical term is its T -> 0 limit, 0, not a division by zero.
        model = BroadeningModel(gamma0=75e-6, a_coef=22e-6, gamma_rad=75e-6, b_coef=1e-3, delta_e=36e-3)
        assert linewidth(model, 5e-324) == 75e-6

    def test_line_widths_refuse_a_width_whose_square_overflows(self):
        model = _model()
        gamma = linewidth(model, 5.0)
        expected = [gamma / 2.0 if i == j else (gamma + model.gamma_rad) / 2.0 for i, j in BRANCH_LABELS]
        assert line_widths(model, [5.0]).tolist() == [expected]
        assert np.isfinite(line_widths(model, [1e150]) ** 2).all()  # f = 1.1e145: f * f is finite
        for temps in ([1e160], [5.0, 1e308]):  # f * f overflows; Gamma(1e308 K) itself is finite
            with pytest.raises(ValueError) as err:
                line_widths(model, temps)
            assert f"line widths overflow at temperature {temps[-1]!r} K" in str(err.value)
        huge = BroadeningModel(gamma0=1.7e308, a_coef=0.0, gamma_rad=1.7e308)  # Gamma + gamma overflows
        with pytest.raises(ValueError, match="at temperature 0.0 K"):
            line_widths(huge, [0.0])
        # (Gamma / 2)^2 underflows to 0: the kernel would divide by zero at the centre of a line.
        tiny = BroadeningModel(gamma0=1e-200, a_coef=0.0, gamma_rad=1e-200)
        with pytest.raises(ValueError, match=r"^line widths underflow at temperature 0.0 K \(Gamma\(T\) = 1e-200 eV\)$"):
            line_widths(tiny, [0.0])

    def test_model_validation(self):
        with pytest.raises(ValueError):
            BroadeningModel(gamma0=0.0, a_coef=22e-6, gamma_rad=75e-6)
        with pytest.raises(ValueError):
            BroadeningModel(gamma0=75e-6, a_coef=-1e-6, gamma_rad=75e-6)
        with pytest.raises(ValueError):
            BroadeningModel(gamma0=75e-6, a_coef=22e-6, gamma_rad=0.0)
        with pytest.raises(ValueError):
            BroadeningModel(gamma0=75e-6, a_coef=22e-6, gamma_rad=75e-6, b_coef=1e-3, delta_e=0.0)


class TestHwhm:
    @staticmethod
    def _widths(gamma_pop, gamma_rad):
        """The (central, side) half widths line_widths gives at Gamma(T) = gamma_pop."""
        row = line_widths(BroadeningModel(gamma0=gamma_pop, a_coef=0.0, gamma_rad=gamma_rad), [0.0])[0]
        assert {row[k] for k, (i, j) in enumerate(BRANCH_LABELS) if i == j} == {row[0]}
        assert {row[k] for k, (i, j) in enumerate(BRANCH_LABELS) if i != j} == {row[1]}
        return row[0], row[1]

    def test_side_average(self):
        assert self._widths(75e-6, 75e-6)[1] == pytest.approx(75e-6, rel=1e-12)
        assert self._widths(185e-6, 75e-6)[1] == pytest.approx(130e-6, rel=1e-12)

    def test_central_halving(self):
        assert self._widths(515e-6, 75e-6)[0] == pytest.approx(257.5e-6, rel=1e-12)

    def test_rejects_nonpositive_rates(self):
        trans = _transitions_at(0.0)
        grid = GridSpec(dp_min=-0.3, dp_max=0.3, npoints=11)
        for gamma_pop, gamma_rad, message in [
            (0.0, 75e-6, "gamma_pop must be positive, got 0.0"),
            (math.nan, 75e-6, "gamma_pop must be positive, got nan"),
            (75e-6, -1.0, "gamma_rad must be positive, got -1.0"),
            (75e-6, math.inf, "gamma_rad must be positive, got inf"),
        ]:
            with pytest.raises(ValueError) as err:
                synthesize(trans, gamma_pop, gamma_rad, grid)
            assert str(err.value) == message

    # Widths whose square rounds to 0 would divide by zero where a sample falls on a line centre, and pass
    # unnoticed where none does (the 701-point grid); widths whose square overflows make every denominator inf.
    @pytest.mark.parametrize("rate, fault", [(1e-200, "underflow"), (1e200, "overflow")])
    @pytest.mark.parametrize("grid", [GridSpec(-1.0, 1.0, 3), GridSpec(-0.35, 0.35, 701)], ids=["centre", "no-centre"])
    def test_rejects_widths_whose_square_leaves_the_float_range(self, rate, fault, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                synthesize(_transitions_at(0.0), rate, rate, grid)
        assert str(err.value) == f"line widths {fault} at gamma_pop = {rate!r} eV, gamma_rad = {rate!r} eV"


class TestSynthesize:
    def test_single_lorentzian_peak_and_half_points(self):
        tr = Transition(i=1, j=2, a=0.2, lum=1.0, kind=SIDE)
        grid = GridSpec(dp_min=0.2 - 1e-4, dp_max=0.2 + 1e-4, npoints=3)
        sg = synthesize([tr], gamma_pop=1e-4, gamma_rad=1e-4, grid=grid)
        assert sg.intensity[1] == pytest.approx(1e4, rel=1e-12)
        assert sg.intensity[0] == pytest.approx(5e3, rel=1e-12)
        assert sg.intensity[2] == pytest.approx(5e3, rel=1e-12)

    def test_linearity_in_luminosity(self):
        trs = _transitions_at(0.008)
        grid = GridSpec(-0.35, 0.35, 501)
        base = synthesize(trs, 185e-6, 75e-6, grid)
        scaled_trs = [
            Transition(i=tr.i, j=tr.j, a=tr.a, lum=3.5 * tr.lum, kind=tr.kind) for tr in trs
        ]
        scaled = synthesize(scaled_trs, 185e-6, 75e-6, grid)
        assert np.allclose(scaled.intensity, 3.5 * base.intensity, rtol=1e-12, atol=0.0)

    def test_mollow_limit_three_peaks(self):
        trs = _transitions_at(5.0)
        grid = GridSpec(-0.35, 0.35, 7001)
        sg = synthesize(trs, 75e-6, 75e-6, grid)
        idx = resolvable_maxima(sg.intensity, rel_floor=1e-3)
        centers = sg.delta_prime[idx]
        assert len(centers) == 3
        assert np.allclose(np.sort(centers), [-0.2, 0.0, 0.2], atol=5e-3)

    def test_nonnegative_and_quadratic_tail_decay(self):
        trs = _transitions_at(0.008)
        grid = GridSpec(-20.0, 20.0, 2001)
        sg = synthesize(trs, 185e-6, 75e-6, grid)
        assert (sg.intensity >= 0.0).all()
        # S(x) * x^2 approaches a constant; doubling x quarters S far out.
        x = sg.delta_prime
        s_far = np.interp(10.0, x, sg.intensity)
        s_farther = np.interp(20.0, x, sg.intensity)
        assert s_farther == pytest.approx(s_far / 4.0, rel=0.05)

    def test_error_paths(self):
        trs = _transitions_at(0.0)
        grid = GridSpec(-0.1, 0.1, 11)
        with pytest.raises(ValueError):
            synthesize([], 75e-6, 75e-6, grid)
        with pytest.raises(ValueError):
            synthesize(trs, 0.0, 75e-6, grid)
        with pytest.raises(ValueError):
            synthesize(trs, 75e-6, -1e-6, grid)

    def test_zero_luminosity_contributes_nothing(self):
        quiet = Transition(i=1, j=2, a=0.1, lum=0.0, kind=SIDE)
        loud = Transition(i=2, j=1, a=-0.1, lum=1.0, kind=SIDE)
        grid = GridSpec(-0.2, 0.2, 101)
        both = synthesize([quiet, loud], 1e-4, 1e-4, grid)
        only = synthesize([loud], 1e-4, 1e-4, grid)
        assert np.array_equal(both.intensity, only.intensity)


def _unblocked_lorentz_sum(a, lum, f, x):
    """The whole-array kernel: every line's term over all (N, G) cells at once."""
    a, lum, f = np.broadcast_arrays(a, lum, f)
    scale = lum / f * f * f
    f2 = f * f
    y = np.zeros((a.shape[0], x.size))
    term = np.empty_like(y)
    for k in range(a.shape[1]):
        np.subtract(x, a[:, k, None], out=term)
        np.square(term, out=term)
        np.add(term, f2[:, k, None], out=term)
        np.divide(scale[:, k, None], term, out=term)
        term[lum[:, k] == 0.0] = 0.0
        y += term
    return y


def _lorentz_case(n_lines, n_widths, grid, seed):
    """Random (n_lines, 9) positions and luminosities, (n_widths, 9) widths, a few dark lines."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-0.35, 0.35, grid)
    a = rng.uniform(-0.3, 0.3, (n_lines, 9))
    a[:, [0, 4, 8]] = 0.0
    lum = rng.uniform(0.0, 1.0, (n_lines, 9))
    lum[rng.uniform(size=lum.shape) < 0.1] = 0.0
    f = rng.uniform(2e-5, 2e-3, (n_widths, 9))
    return a, lum, f, x


def _with_row_constant_columns(a, lum, f, x, seed):
    """The case broadcast to full rows, plus four columns that are the same, or nearly, on every row.

    9: one a on every row, a different width on each row (the temperature_series shape);
    10: one a and one width on every row;
    11: one a (on a grid point) and one width whose square underflows, dark on every row;
    12: a that mixes 0.0 and -0.0 across rows, with one width.
    """
    rng = np.random.default_rng(seed)
    a, lum, f = (np.array(v) for v in np.broadcast_arrays(a, lum, f))
    n = a.shape[0]
    extra_a = np.column_stack([
        np.full(n, 0.123), np.full(n, -0.2), np.full(n, x[x.size // 3]), np.where(np.arange(n) % 2, -0.0, 0.0),
    ])
    extra_lum = rng.uniform(0.0, 1.0, (n, 4))
    extra_lum[:, 2] = 0.0
    extra_lum[rng.uniform(size=n) < 0.1, 1] = 0.0
    extra_f = np.column_stack([rng.uniform(2e-5, 2e-3, n), np.full(n, 7e-4), np.full(n, 1e-200), np.full(n, 3e-4)])
    return (np.hstack([a, extra_a]), np.hstack([lum, extra_lum]), np.hstack([f, extra_f]))


_ROWS = spectrum._BLOCK_CELLS // 401


@pytest.mark.parametrize(
    "n_lines, n_widths, grid",
    [
        (2 * _ROWS + 7, 1, 401),  # two full blocks and a ragged third
        (3, 1, spectrum._BLOCK_CELLS + 3),  # a row wider than a block: one row per block
        (1, 1, 7001),
        (1, 2 * (spectrum._BLOCK_CELLS // 7001) + 3, 7001),  # temperature_series: one line table, a width row per T
    ],
)
def test_lorentz_sum_blocks_match_unblocked_kernel(monkeypatch, n_lines, n_widths, grid):
    count_thread_starts(monkeypatch)
    a, lum, f, x = _lorentz_case(n_lines, n_widths, grid, seed=n_lines * 7 + n_widths)
    want = _unblocked_lorentz_sum(a, lum, f, x)
    # The dark column's 0/0 must not warn in any thread: np.errstate reaches them all.
    wide = _with_row_constant_columns(a, lum, f, x, seed=n_lines + n_widths)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        want_wide = _unblocked_lorentz_sum(*wide, x)
        for workers in (1, 2, 3, None):
            got = spectrum.lorentz_sum(a, lum, f, x, workers)
            assert got.shape == want.shape == (max(n_lines, n_widths), grid)
            assert got.tobytes() == want.tobytes()
            got_wide = spectrum.lorentz_sum(*wide, x, workers)
            assert got_wide.shape == want_wide.shape
            assert np.isfinite(got_wide).all()
            assert got_wide.tobytes() == want_wide.tobytes()


def test_lorentz_sum_refuses_overflow_by_name():
    a, lum, f, x = _lorentz_case(3, 1, 101, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would be an error here
        # A line 1e200 from the grid: its denominator (x - a)^2 overflows.
        far = a.copy()
        far[1, 2] = 1e200
        with pytest.raises(ValueError, match=r"^Lorentzian denominators overflow: \(x - a\)\^2 \+ f\^2 is not finite"):
            spectrum.lorentz_sum(far, lum, f, x)
        # A peak height lum / f that overflows.
        with pytest.raises(ValueError, match=r"^line intensities overflow: lum / f \* f \* f is not finite$"):
            spectrum.lorentz_sum(a, lum * 1e305, f, x)
        # With no grid, only the scales are checked; the terms the kernel sums with come back.
        scale, f2 = spectrum.lorentz_terms(far, lum, f)
        assert scale.tobytes() == (lum / f * f * f).tobytes() and f2.tobytes() == np.broadcast_to(f * f, a.shape).tobytes()


def test_lorentz_sum_thread_count_is_bounded(monkeypatch):
    started = count_thread_starts(monkeypatch)
    a, lum, f, x = _lorentz_case(_ROWS, 1, 401, seed=3)  # exactly one block
    one_block = spectrum.lorentz_sum(a, lum, f, x, workers=10**6)
    assert started == []
    assert one_block.tobytes() == _unblocked_lorentz_sum(a, lum, f, x).tobytes()

    a, lum, f, x = _lorentz_case(2 * _ROWS + 7, 1, 401, seed=4)  # three blocks
    three_blocks = spectrum.lorentz_sum(a, lum, f, x, workers=10**6)
    assert 1 <= len(started) <= 3
    assert not any(thread.is_alive() for thread in started)
    assert three_blocks.tobytes() == _unblocked_lorentz_sum(a, lum, f, x).tobytes()

    started.clear()
    spectrum.lorentz_sum(a, lum, f, x)  # no cap: a thread per block, the caller's among them
    assert len(started) == 2

    started.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one usable CPU of the host's eight
    spectrum.lorentz_sum(a, lum, f, x)
    assert started == []

    monkeypatch.delattr(os, "sched_getaffinity")  # no affinity call, and an unknown CPU count: the caller's thread only
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    spectrum.lorentz_sum(a, lum, f, x, workers=4)
    assert started == []


@pytest.mark.parametrize(
    "n_rows, grid",
    [
        (1, 1 << 18),  # synthesize's one-row table: every line is row-constant, and nothing is shared
        (3, spectrum._BLOCK_CELLS + 3),  # rows wider than a block, all lines row-constant
    ],
)
def test_lorentz_sum_footprint_is_the_result_and_one_block(n_rows, grid):
    a, lum, f, x = _lorentz_case(1, 1, grid, seed=n_rows)
    a = np.repeat(a, n_rows, axis=0)
    tracemalloc.start()
    try:
        y = spectrum.lorentz_sum(a, lum, f, x, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= y.nbytes + x.nbytes + (64 << 10)  # the result, one one-row block, small arrays


def _delay_helper_threads(monkeypatch, seconds: float) -> None:
    """Run every thread started from here on only after `seconds`, so the caller's thread claims blocks first."""
    real = threading.Thread

    class LateThread(real):
        def run(self):
            time.sleep(seconds)
            super().run()

    monkeypatch.setattr(threading, "Thread", LateThread)


def _faulty_case():
    """Three blocks, with an 0/0 (invalid) in the last row and, on another line, a 1/0 (divide) in row 0."""
    a, lum, f, x = _lorentz_case(2 * _ROWS + 7, 2 * _ROWS + 7, 401, seed=6)
    a[0, 3], lum[0, 3], f[0, 3] = x[50], 0.5, 1e-200  # lum / f * f * f = 5e-201 over a denominator 0 at x[50]
    a[-1, 5], lum[-1, 5], f[-1, 5] = x[9], 0.0, 1e-200  # a dark line: 0 / 0 at x[9]
    return a, lum, f, x


def test_lorentz_sum_raises_what_a_thread_raises(monkeypatch):
    count_thread_starts(monkeypatch)
    a, lum, f, x = _lorentz_case(2 * _ROWS + 7, 1, 401, seed=6)
    # A dark 0/0 in the last row: whichever thread claims the last block raises it.
    a[-1, 2], lum[-1, 2], f[0, 2] = x[9], 0.0, 1e-200
    for late in (False, True):
        if late:  # the caller's thread claims the blocks, the faulty last one among them
            _delay_helper_threads(monkeypatch, 0.05)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="invalid value"):
            spectrum.lorentz_sum(a, lum, f, x, workers=2)


@pytest.mark.parametrize("workers", [1, 2, None])
def test_lorentz_sum_raises_the_lowest_faulty_blocks_error(monkeypatch, workers):
    count_thread_starts(monkeypatch)
    a, lum, f, x = _faulty_case()
    with np.errstate(divide="raise", invalid="raise"), pytest.raises(FloatingPointError, match="divide by zero"):
        spectrum.lorentz_sum(a, lum, f, x, workers)


def test_lorentz_sum_raises_the_lowest_block_also_when_a_higher_one_fails_first(monkeypatch):
    # The helper thread claims block 0 and waits in its first division until the
    # caller's thread has claimed the other blocks and failed on the last.
    started = count_thread_starts(monkeypatch)
    a, lum, f, x = _faulty_case()
    helper_claimed, caller_failed = threading.Event(), threading.Event()
    raised = []
    real_divide, real_setbufsize = np.divide, np.setbufsize

    def divide(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread() and not helper_claimed.is_set():
            helper_claimed.set()
            caller_failed.wait(10.0)
        try:
            return real_divide(*args, **kwargs)
        except FloatingPointError as exc:
            raised.append(str(exc))
            if threading.current_thread() is threading.main_thread():
                caller_failed.set()
            raise

    def setbufsize(size):
        if threading.current_thread() is threading.main_thread() and started:
            helper_claimed.wait(10.0)  # the caller's thread claims only after the helper has block 0
        return real_setbufsize(size)

    with np.errstate(divide="raise", invalid="raise"):
        monkeypatch.setattr(np, "divide", divide)
        monkeypatch.setattr(np, "setbufsize", setbufsize)
        with pytest.raises(FloatingPointError, match="divide by zero"):
            spectrum.lorentz_sum(a, lum, f, x, workers=2)
        monkeypatch.undo()
    assert len(started) == 1 and helper_claimed.is_set() and caller_failed.is_set()
    assert [message.split(" encountered")[0] for message in raised] == ["invalid value", "divide by zero"]


def test_lorentz_sum_bits_do_not_depend_on_which_thread_claims_a_block(monkeypatch):
    started = count_thread_starts(monkeypatch)
    _delay_helper_threads(monkeypatch, 0.05)  # the caller's thread claims every block, or all but one
    a, lum, f, x = _lorentz_case(4 * _ROWS + 7, 1, 401, seed=11)
    wide = _with_row_constant_columns(a, lum, f, x, seed=12)
    with np.errstate(invalid="ignore"):
        for case in ((a, lum, f), wide):
            want = _unblocked_lorentz_sum(*case, x)
            assert spectrum.lorentz_sum(*case, x, workers=2).tobytes() == want.tobytes()
    assert len(started) == 2


def test_lorentz_sum_claims_every_block_once_under_fast_thread_switching(monkeypatch):
    # Eight threads on any host claim 25 blocks of four rows: a lost claim would leave a block
    # of np.empty's memory in the result, and two threads on one block would mix their sums.
    started = count_thread_starts(monkeypatch)
    a, lum, f, x = _lorentz_case(4 * 24 + 1, 1, spectrum._BLOCK_CELLS // 4, seed=13)
    want = _unblocked_lorentz_sum(a, lum, f, x)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert spectrum.lorentz_sum(a, lum, f, x, workers=8).tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 3 * 7
    assert not any(thread.is_alive() for thread in started)


@pytest.mark.parametrize("bufsize", [16, None, 1 << 16])  # None: numpy's default
def test_lorentz_sum_keeps_the_callers_buffer_and_error_state(monkeypatch, bufsize):
    count_thread_starts(monkeypatch)
    a, lum, f, x = _lorentz_case(2 * _ROWS + 7, 1, 401, seed=8)
    want = _unblocked_lorentz_sum(a, lum, f, x)
    old = np.getbufsize()
    try:
        with np.errstate(divide="ignore", over="raise"):  # not numpy's defaults
            if bufsize is not None:
                np.setbufsize(bufsize)
            caller = np.getbufsize(), np.geterr()
            assert spectrum.lorentz_sum(a, lum, f, x, workers=2).tobytes() == want.tobytes()
            assert (np.getbufsize(), np.geterr()) == caller
            with pytest.raises(ValueError, match="^line intensities overflow"):
                spectrum.lorentz_sum(a, lum * 1e305, f, x, workers=2)
            assert (np.getbufsize(), np.geterr()) == caller
            for row in (0, -1):  # a dark 0/0 in the caller's share, then in the other thread's
                bad_a, bad_lum, bad_f = a.copy(), lum.copy(), f.copy()
                bad_a[row, 2], bad_lum[row, 2], bad_f[0, 2] = x[9], 0.0, 1e-200
                with np.errstate(invalid="raise"):
                    inner = np.getbufsize(), np.geterr()
                    with pytest.raises(FloatingPointError):
                        spectrum.lorentz_sum(bad_a, bad_lum, bad_f, x, workers=2)
                    assert (np.getbufsize(), np.geterr()) == inner
            assert (np.getbufsize(), np.geterr()) == caller
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("grid, bufsize", [(10, 16), (401, 400), (7001, 6992), (9000, 8192)])
def test_lorentz_sum_buffer_is_at_most_a_row(monkeypatch, grid, bufsize):
    sizes = []
    real = np.setbufsize
    monkeypatch.setattr(np, "setbufsize", lambda size: sizes.append(size) or real(size))
    a, lum, f, x = _lorentz_case(1, 1, grid, seed=9)
    spectrum.lorentz_sum(a, lum, f, x)
    assert sizes == [bufsize, np.getbufsize()]  # the kernel's size, then the caller's back


def test_lorentz_sum_dark_line_with_underflowing_width():
    # Row 0 of the last block holds a dark line whose f * f underflows to 0
    # and which sits on a grid point, so its term there is 0/0: it must add 0.
    a, lum, f, x = _lorentz_case(_ROWS + 2, _ROWS + 2, 401, seed=5)
    row = _ROWS
    a[row, 3], lum[row, 3], f[row, 3] = x[200], 0.0, 1e-200
    a[row - 1, 5], lum[row - 1, 5] = x[17], 0.0
    with np.errstate(invalid="ignore"):
        got = spectrum.lorentz_sum(a, lum, f, x)
        want = _unblocked_lorentz_sum(a, lum, f, x)
    assert f[row, 3] * f[row, 3] == 0.0
    assert np.isfinite(got).all()
    assert got.tobytes() == want.tobytes()


def _mirror_asymmetry(delta, t, g_sqrt_n, mu=1.0, e_xd=1.0, temp_k=0.0):
    """max |S(x) - S(-x)| over x in [0, 1.5] eV and the line positions, relative to the peak of S.

    The laser is on resonance (hw_l = e_xd with e0 = 0), so the laser detuning is exactly zero.
    """
    emitter = EmitterParams(e_xd=e_xd, delta=delta, t=t, mu=mu)
    drive = DriveParams.from_effective_coupling(g_sqrt_n, hw_l=e_xd)
    a, lum = line_table(*dressed_states(emitter, drive, [delta]), mu)
    f = line_widths(_model(), [temp_k])
    x = np.concatenate([np.linspace(0.0, 1.5, 3001), np.abs(a[0])])
    s_pos = spectrum.lorentz_sum(a, lum, f, x)[0]
    s_neg = spectrum.lorentz_sum(a, lum, f, -x)[0]
    return np.abs(s_pos - s_neg).max() / max(s_pos.max(), s_neg.max())


@settings(max_examples=100, deadline=None)
@given(
    t=st.floats(0.0, 0.5),
    g_sqrt_n=st.floats(0.0, 0.5),
    mu=st.floats(1e-3, 1e3),
    e_xd=st.floats(0.1, 10.0),
    temp_k=st.floats(0.0, 100.0),
)
def test_spectrum_mirror_symmetric_at_zero_splitting_and_laser_detuning(t, g_sqrt_n, mu, e_xd, temp_k):
    # Lines within 2 * hypot(t, g_sqrt_n) <= 1.42 eV of the laser, so [0, 1.5] covers them all.
    assert _mirror_asymmetry(0.0, t, g_sqrt_n, mu, e_xd, temp_k) <= 1e-10


@pytest.mark.parametrize("t, g_sqrt_n", [(0.1, 0.1), (0.3, 0.05)])
def test_nonzero_splitting_breaks_the_mirror_symmetry(t, g_sqrt_n):
    # The control for the property above: the same measure at a 0.01 eV splitting is of order 1.
    assert _mirror_asymmetry(0.0, t, g_sqrt_n) <= 1e-10
    assert _mirror_asymmetry(0.01, t, g_sqrt_n) > 0.1


class TestCountPeaks:
    def test_regime_counts(self):
        assert count_peaks(_transitions_at(0.0), 1e-6, 1e-3)[0] == 5
        assert count_peaks(_transitions_at(0.008), 1e-6, 0.0)[0] == 7
        assert count_peaks(_transitions_at(5.0), 1e-6, 1e-3)[0] == 3

    def test_large_splitting_centers(self):
        count, centers = count_peaks(_transitions_at(5.0), 1e-6, 1e-3)
        assert count == 3
        assert np.allclose(centers, [-0.2, 0.0, 0.2], atol=5e-3)

    def test_floor_removes_dark_branch(self):
        trs = _transitions_at(5.0)
        max_lum = max(tr.lum for tr in trs)
        dark = [tr for tr in trs if tr.lum < 1e-3 * max_lum]
        assert len(dark) == 5  # both XI-branch sides and the XI central line
        count_no_floor, _ = count_peaks(trs, 1e-6, 0.0)
        assert count_no_floor == 7

    def test_all_below_floor_counts_zero(self):
        trs = [Transition(i=1, j=1, a=0.0, lum=0.0, kind=CENTRAL),
               Transition(i=1, j=2, a=0.1, lum=0.0, kind=SIDE)]
        count, centers = count_peaks(trs, 1e-6, 1e-3)
        assert count == 0
        assert centers == []

    def test_clustering_tolerance(self):
        trs = [Transition(i=1, j=2, a=0.1, lum=1.0, kind=SIDE),
               Transition(i=2, j=1, a=0.1 + 5e-7, lum=1.0, kind=SIDE),
               Transition(i=1, j=3, a=0.2, lum=2.0, kind=SIDE)]
        count, centers = count_peaks(trs, 1e-6, 0.0)
        assert count == 2
        assert centers[0] == pytest.approx(0.1 + 2.5e-7, abs=1e-12)
        assert centers[1] == pytest.approx(0.2, abs=1e-15)

    def test_validation(self):
        trs = _transitions_at(0.0)
        with pytest.raises(ValueError):
            count_peaks(trs, 0.0, 1e-3)
        with pytest.raises(ValueError):
            count_peaks(trs, 1e-6, 1.0)
        with pytest.raises(ValueError):
            count_peaks([], 1e-6, 1e-3)


class TestBroadeningEffects:
    def test_temperature_monotonicity_heights_and_widths(self):
        trs = _transitions_at(0.008)
        model = _model()
        grid = GridSpec(-0.35, 0.35, 7001)
        grids = [
            synthesize(trs, linewidth(model, t), model.gamma_rad, grid) for t in (5.0, 20.0, 40.0)
        ]
        matched = match_peaks(grids, rel_floor=1e-3)
        assert len(matched) >= 5
        for row in matched:
            heights = [g.intensity[i] for g, i in zip(grids, row)]
            assert heights[0] > heights[1] > heights[2]
            widths = [measure_fwhm(g.delta_prime, g.intensity, i) for g, i in zip(grids, row)]
            assert widths[0] < widths[1] < widths[2]

    def test_isolated_peak_widths_match_rates(self):
        model = _model()
        for temp in (0.0, 5.0, 20.0, 40.0):
            gamma = linewidth(model, temp)
            grid = GridSpec(-6 * gamma, 6 * gamma, 4001)
            central = synthesize(
                [Transition(i=1, j=1, a=0.0, lum=1.0, kind=CENTRAL)], gamma, model.gamma_rad, grid
            )
            fwhm = measure_fwhm(central.delta_prime, central.intensity)
            assert abs(fwhm - gamma) <= grid.step
            side = synthesize(
                [Transition(i=1, j=2, a=0.0, lum=1.0, kind=SIDE)], gamma, model.gamma_rad, grid
            )
            fwhm = measure_fwhm(side.delta_prime, side.intensity)
            assert abs(fwhm - (gamma + model.gamma_rad)) <= grid.step


def test_resolvable_maxima_floor_and_strictness():
    y = np.array([0.0, 1.0, 0.5, 2.0, 2.0, 0.1, 1e-6, 2e-6, 1e-6, 0.0])
    idx = resolvable_maxima(y, rel_floor=1e-4)
    # The plateau at 2.0 has no strict maximum; 2e-6 falls below the floor.
    assert idx.tolist() == [1]
    idx = resolvable_maxima(y, rel_floor=0.0)
    assert idx.tolist() == [1, 7]
    assert local_max_indices(y, 0.0).tolist() == [1, 7]


@pytest.mark.parametrize("build, message", [
    (lambda: GridSpec(dp_min=math.nan, dp_max=1.0, npoints=5), "grid bounds must be finite"),
    (lambda: GridSpec(dp_min=0.0, dp_max=math.inf, npoints=5), "grid bounds must be finite"),
    (lambda: GridSpec(dp_min=1.0, dp_max=1.0, npoints=5), "need dp_min < dp_max, got [1.0, 1.0]"),
    (lambda: GridSpec(dp_min=0.0, dp_max=1.0, npoints=5.0), "npoints must be an integer, got 5.0"),
    (lambda: GridSpec(dp_min=0.0, dp_max=1.0, npoints=1), "npoints must be >= 2, got 1"),
    (lambda: GridSpec(dp_min=1.0, dp_max=1.0000000000000002, npoints=5),
     "grid samples repeat: npoints = 5 over [1.0, 1.0000000000000002] are not strictly increasing"),
    (lambda: spectrum.SpectrumGrid(delta_prime=[0.0], intensity=[1.0]),
     "delta_prime and intensity must be equal-length 1-d arrays, >= 2 points"),
    (lambda: spectrum.SpectrumGrid(delta_prime=[0.0, 0.0], intensity=[1.0, 1.0]), "delta_prime must be strictly increasing"),
    (lambda: spectrum.SpectrumGrid(delta_prime=[0.0, 1.0], intensity=[1.0, -1.0]),
     "intensities must be finite and non-negative"),
    (lambda: BroadeningModel(gamma0=math.nan, a_coef=0.0, gamma_rad=75e-6), "gamma0 must be finite, got nan"),
    (lambda: BroadeningModel(gamma0=75e-6, a_coef=0.0, gamma_rad=75e-6, b_coef=-1e-3), "b_coef must be non-negative, got -0.001"),
    (lambda: Transition(i=0, j=1, a=0.1, lum=1.0, kind=SIDE), "indices must be in 1..3, got (0, 1)"),
    (lambda: Transition(i=1, j=2, a=0.1, lum=1.0, kind=CENTRAL), "kind 'central' inconsistent with indices (1, 2)"),
    (lambda: Transition(i=2, j=2, a=0.1, lum=1.0, kind=CENTRAL), "central transitions must have a == 0 exactly"),
    (lambda: Transition(i=1, j=2, a=math.inf, lum=1.0, kind=SIDE), "a and lum must be finite"),
    (lambda: Transition(i=1, j=2, a=0.1, lum=-1.0, kind=SIDE), "luminosity must be non-negative, got -1.0"),
    # Coefficients of 1e200 are not a unit eigenvector: their squares overflow.
    (lambda: line_table(np.zeros((1, 3)), np.full((1, 3, 3), 1e200), 1.0), "luminosities must be finite"),
    (lambda: resolvable_maxima(np.ones(5), rel_floor=1.0), "rel_floor must be in [0, 1), got 1.0"),
], ids=["grid-nan", "grid-inf", "grid-empty", "npoints-float", "npoints-1", "grid-repeat", "spectrum-short", "spectrum-order",
        "spectrum-negative", "gamma0-nan", "b-coef-negative", "transition-index", "transition-kind",
        "transition-central-a", "transition-inf", "transition-lum", "line-table-lum", "rel-floor"])
def test_refusals_name_their_value(build, message):
    with warnings.catch_warnings(), pytest.raises(ValueError) as err:
        warnings.simplefilter("error")  # the refusal is the only report: no numpy warning before it
        build()
    assert str(err.value) == message
