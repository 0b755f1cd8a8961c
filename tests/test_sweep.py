import ast
import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdmfluor import (
    BRANCH_LABELS,
    BroadeningModel,
    GridSpec,
    SweepRange,
    diagonalize,
    dressed_energy_curves,
    intensity_map,
    linewidth,
    reduced_hamiltonian,
    resolvable_maxima,
    synthesize,
    temperature_series,
    transition_branches,
    transitions,
)
from qdmfluor import DriveParams, EmitterParams, dressed_states, line_table, line_widths, lorentz_sum, spectrum, sweep

from helpers import count_thread_starts, strong_drive

SQRT_002 = math.sqrt(0.02)


def _model():
    return BroadeningModel(gamma0=75e-6, a_coef=22e-6, gamma_rad=75e-6)


def test_sweep_range_validation():
    with pytest.raises(ValueError):
        SweepRange(lo=1.0, hi=0.0, steps=5)
    with pytest.raises(ValueError):
        SweepRange(lo=0.0, hi=1.0, steps=1)
    rng = SweepRange(lo=0.0, hi=1.0, steps=5)
    assert np.array_equal(rng.values(), np.linspace(0.0, 1.0, 5))


class TestEnergyCurves:
    def test_row_at_zero_splitting(self):
        emitter, drive = strong_drive(delta=0.0)
        rng = SweepRange(lo=-0.01, hi=0.01, steps=3)
        curves = dressed_energy_curves(rng, emitter, drive)
        mid = curves.energies[1]
        assert np.allclose(mid, [-SQRT_002, 0.0, SQRT_002], atol=1e-10)
        assert (np.diff(curves.energies, axis=1) >= 0.0).all()

    def test_zero_couplings_reproduce_bare_triples(self):
        emitter = EmitterParams(e_xd=1.0, delta=0.0, t=0.0)
        drive = DriveParams(n=2, g=0.0, hw_l=0.99)
        rng = SweepRange(lo=-0.2, hi=0.2, steps=9)
        curves = dressed_energy_curves(rng, emitter, drive)
        for delta, row in zip(curves.delta, curves.energies):
            assert row.tolist() == sorted([0.99 - 1.0, 0.0, float(delta)])

    def test_large_splitting_endpoint(self):
        emitter, drive = strong_drive(delta=0.0)
        rng = SweepRange(lo=0.0, hi=50.0, steps=11)
        curves = dressed_energy_curves(rng, emitter, drive)
        last = curves.energies[-1]
        assert last[0] == pytest.approx(-0.1, abs=0.1**2 / 50.0)
        assert last[1] == pytest.approx(0.1, abs=0.1**2 / 50.0)


class TestBranches:
    def test_multiset_at_zero_splitting(self):
        emitter, drive = strong_drive(delta=0.0)
        rng = SweepRange(lo=0.0, hi=0.01, steps=2)
        table = transition_branches(rng, emitter, drive)
        row = np.sort(table.a[0])
        expected = np.sort(
            [0.0, 0.0, 0.0, -SQRT_002, -SQRT_002, SQRT_002, SQRT_002, -2 * SQRT_002, 2 * SQRT_002]
        )
        assert np.allclose(row, expected, atol=1e-10)

    def test_central_branches_identically_zero(self):
        emitter, drive = strong_drive(delta=0.0)
        rng = SweepRange(lo=-0.05, hi=0.05, steps=21)
        table = transition_branches(rng, emitter, drive)
        for k, (i, j) in enumerate(BRANCH_LABELS):
            if i == j:
                assert np.array_equal(table.a[:, k], np.zeros(21))

    def test_seven_distinct_values_at_generic_splitting(self):
        emitter, drive = strong_drive(delta=0.0)
        rng = SweepRange(lo=0.008, hi=0.009, steps=2)
        table = transition_branches(rng, emitter, drive)
        distinct = {round(v, 9) for v in table.a[0]}
        assert len(distinct) == 7

    def test_branch_continuity(self):
        emitter, drive = strong_drive(delta=0.0)
        rng = SweepRange(lo=-0.02, hi=0.02, steps=401)  # 1e-4 step
        table = transition_branches(rng, emitter, drive)
        jumps = np.abs(np.diff(table.a, axis=0))
        for k in range(9):
            col = jumps[:, k]
            local = np.maximum((np.roll(col, 1) + np.roll(col, -1)) / 2.0, 1e-12)
            assert (col[1:-1] <= 10.0 * local[1:-1]).all()


class TestTemperatureSeries:
    def test_heights_strictly_decrease(self):
        emitter, drive = strong_drive(delta=0.008)
        model = _model()
        grid_spec = GridSpec(-0.35, 0.35, 3501)
        grids = temperature_series([5.0, 20.0, 40.0], emitter, drive, model, grid_spec)
        maxima = [g.intensity.max() for g in grids]
        assert maxima[0] > maxima[1] > maxima[2]
        # Each spectrum is the standalone one at its own temperature, in the order given.
        trans = transitions(diagonalize(reduced_hamiltonian(emitter, drive)), emitter.mu)
        for grid, temp in zip(grids, (5.0, 20.0, 40.0)):
            standalone = synthesize(trans, linewidth(model, temp), model.gamma_rad, grid_spec)
            assert grid.intensity.tobytes() == standalone.intensity.tobytes()

    def test_zero_temperature_uses_floor_linewidth(self):
        emitter, drive = strong_drive(delta=0.008)
        model = _model()
        grid_spec = GridSpec(-0.35, 0.35, 501)
        (grid,) = temperature_series([0.0], emitter, drive, model, grid_spec)
        trans = transitions(diagonalize(reduced_hamiltonian(emitter, drive)), emitter.mu)
        floor = synthesize(trans, model.gamma0, model.gamma_rad, grid_spec)
        assert grid.intensity.tobytes() == floor.intensity.tobytes()

    def test_duplicate_temperatures_identical(self):
        emitter, drive = strong_drive(delta=0.008)
        grids = temperature_series([20.0, 20.0], emitter, drive, _model(), GridSpec(-0.35, 0.35, 501))
        assert np.array_equal(grids[0].intensity, grids[1].intensity)

    def test_empty_and_negative_rejected(self):
        emitter, drive = strong_drive(delta=0.008)
        with pytest.raises(ValueError):
            temperature_series([], emitter, drive, _model(), GridSpec(-0.35, 0.35, 501))
        with pytest.raises(ValueError):
            temperature_series([-1.0], emitter, drive, _model(), GridSpec(-0.35, 0.35, 501))


class TestIntensityMap:
    def test_rows_equal_standalone_runs(self):
        from dataclasses import replace

        emitter, drive = strong_drive(delta=0.0)
        model = _model()
        grid = GridSpec(-0.35, 0.35, 801)
        rng = SweepRange(lo=0.0, hi=0.01, steps=2)
        result = intensity_map(rng, grid, emitter, drive, model, temp_k=0.0)
        gamma = linewidth(model, 0.0)
        for r, delta in enumerate(result.delta_axis):
            dressed = diagonalize(reduced_hamiltonian(replace(emitter, delta=float(delta)), drive))
            standalone = synthesize(transitions(dressed, emitter.mu), gamma, model.gamma_rad, grid)
            assert np.array_equal(result.values[r], standalone.intensity)

    def test_mu_scaling_is_quadratic(self):
        emitter, drive = strong_drive(delta=0.004)
        grid = GridSpec(-0.35, 0.35, 401)
        rng = SweepRange(lo=0.0, hi=0.02, steps=3)
        base = intensity_map(rng, grid, emitter, drive, _model())
        doubled_emitter = EmitterParams(e_xd=emitter.e_xd, delta=emitter.delta, t=emitter.t, mu=2.0, e0=emitter.e0)
        doubled = intensity_map(rng, grid, doubled_emitter, drive, _model())
        assert np.allclose(doubled.values, 4.0 * base.values, rtol=1e-12, atol=0.0)

    def test_workers_do_not_change_results(self, monkeypatch):
        started = count_thread_starts(monkeypatch)
        emitter, drive = strong_drive(delta=0.0)
        grid = GridSpec(-0.35, 0.35, 401)
        rows = spectrum._BLOCK_CELLS // 401
        rng = SweepRange(lo=0.0, hi=0.06, steps=3 * rows + 11)  # three full kernel blocks and a ragged fourth
        serial = intensity_map(rng, grid, emitter, drive, _model(), workers=1)
        assert started == []
        threaded = intensity_map(rng, grid, emitter, drive, _model())
        assert len(started) == 3  # by default a thread per block, the caller's among them
        assert threaded.values.tobytes() == serial.values.tobytes()

    def test_default_map_regimes_at_small_splitting(self):
        emitter, drive = strong_drive(delta=0.0)
        grid = GridSpec(-0.35, 0.35, 7001)
        rng = SweepRange(lo=0.0, hi=0.06, steps=241)
        result = intensity_map(rng, grid, emitter, drive, _model(), temp_k=0.0)
        assert len(resolvable_maxima(result.values[0])) == 5
        near_001 = [r for r, d in enumerate(result.delta_axis) if 0.0095 <= d <= 0.0105]
        for r in near_001:
            assert len(resolvable_maxima(result.values[r])) == 7

    def test_temperature_series_workers_identical(self, monkeypatch):
        started = count_thread_starts(monkeypatch)
        emitter, drive = strong_drive(delta=0.008)
        grid = GridSpec(-0.35, 0.35, 6001)
        rows = spectrum._BLOCK_CELLS // 6001
        temps = np.linspace(5.0, 40.0, 2 * rows + 5).tolist()  # two full kernel blocks and a ragged third
        serial = temperature_series(temps, emitter, drive, _model(), grid, workers=1)
        assert started == []
        threaded = temperature_series(temps, emitter, drive, _model(), grid)
        assert len(started) == 2
        for a, b in zip(serial, threaded):
            assert a.intensity.tobytes() == b.intensity.tobytes()


def _count_solves(monkeypatch) -> list[int]:
    """The row count of each eigensolve: the kept sweep's (_eigensystems) and the series' (dressed_states)."""
    solved = []
    eig, states = sweep._eigensystems, sweep.dressed_states
    monkeypatch.setattr(sweep, "_eigensystems", lambda m: solved.append(len(m)) or eig(m))
    monkeypatch.setattr(sweep, "dressed_states", lambda e, d, deltas: solved.append(len(deltas)) or states(e, d, deltas))
    sweep._solve.cache_clear()  # no kept sweep, which an earlier test may have left behind, so every solve shows
    return solved


@pytest.mark.parametrize("workers", [0, -3, 1.5, "2", True])
def test_bad_workers_rejected(workers, monkeypatch):
    solved = _count_solves(monkeypatch)
    emitter, drive = strong_drive(delta=0.0)
    grid = GridSpec(-0.35, 0.35, 11)
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        intensity_map(SweepRange(0.0, 0.06, 3), grid, emitter, drive, _model(), workers=workers)
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        temperature_series([5.0], emitter, drive, _model(), grid, workers=workers)
    assert solved == []  # refused before anything is solved


def _uncached(emitter, drive, deltas):
    """Energies, a and lum of deltas through the public per-call path, which keeps nothing."""
    energies, coeffs = dressed_states(emitter, drive, deltas)
    return (energies, *line_table(energies, coeffs, emitter.mu))


def test_one_study_point_solves_each_sweep_once(monkeypatch):
    solved = _count_solves(monkeypatch)
    emitter, drive = strong_drive(delta=0.008)
    rng = SweepRange(lo=0.0, hi=0.06, steps=201)
    grid = GridSpec(-0.35, 0.35, 101)
    dressed_energy_curves(rng, emitter, drive)
    transition_branches(rng, emitter, drive)
    intensity_map(rng, grid, emitter, drive, _model(), workers=1)  # workers is no part of the key: no second solve
    temperature_series([5.0, 20.0], emitter, drive, _model(), grid)
    assert solved == [201, 1]  # the sweep once for curves, branches and map; the series' one splitting, not kept


# Twins that compare equal but may differ in bits.  SweepRange(lo, -0.0, n) == SweepRange(lo, 0.0, n), yet
# the last splitting keeps its sign, and with no coupling a -0.0 splitting gives a -0.0 energy and -0.0
# line positions (linspace drops the sign of lo, and e0 = -0.0 builds the same matrix as e0 = 0.0).  A
# float32 mu equal to a float one squares in float32.
_F32 = np.float32(1.1)
_SWEEP_OP = st.tuples(
    st.sampled_from(["curves", "branches", "map", "series"]),
    st.sampled_from([(0.0, 0.02), (-0.0, 0.02), (-0.02, 0.0), (-0.02, -0.0), (-0.01, 0.01)]),  # lo, hi
    st.sampled_from([0.0, -0.0]),  # e0
    st.sampled_from([0.0, -0.0, 0.008]),  # the emitter's own splitting, the series'
    st.sampled_from([(0.1, 0.1), (0.0, 0.0)]),  # (g, t); without coupling the sign of a zero survives
    st.sampled_from([1.0, 1.5, _F32, float(_F32)]),  # mu
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_SWEEP_OP, min_size=1, max_size=8))
@example(ops=[("branches", (-0.02, 0.0), 0.0, 0.0, (0.0, 0.0), 1.0), ("branches", (-0.02, -0.0), 0.0, 0.0, (0.0, 0.0), 1.0)])
@example(ops=[("series", (0.0, 0.02), 0.0, 0.0, (0.0, 0.0), 1.0), ("series", (0.0, 0.02), 0.0, -0.0, (0.0, 0.0), 1.0)])
@example(ops=[("map", (0.0, 0.02), 0.0, 0.0, (0.1, 0.1), _F32), ("map", (0.0, 0.02), -0.0, 0.0, (0.1, 0.1), float(_F32))])
def test_any_interleaving_of_sweeps_matches_the_uncached_bits(ops):
    model, grid, temp = _model(), GridSpec(-0.05, 0.05, 41), 5.0
    for kind, (lo, hi), e0, delta, (g, t), mu in ops:
        emitter = EmitterParams(e_xd=1.0, delta=delta, t=t, mu=mu, e0=e0)
        drive = DriveParams(n=1, g=g, hw_l=1.0)
        rng = SweepRange(lo=lo, hi=hi, steps=5)
        if kind == "curves":
            got, want = dressed_energy_curves(rng, emitter, drive).energies, _uncached(emitter, drive, rng.values())[0]
        elif kind == "branches":
            got, want = transition_branches(rng, emitter, drive).a, _uncached(emitter, drive, rng.values())[1]
        elif kind == "map":
            got = intensity_map(rng, grid, emitter, drive, model, temp_k=temp).values
            _, a, lum = _uncached(emitter, drive, rng.values())
            want = lorentz_sum(a, lum, line_widths(model, [temp]), grid.values())
        else:
            got = temperature_series([temp], emitter, drive, model, grid)[0].intensity
            _, a, lum = _uncached(emitter, drive, [delta])
            want = lorentz_sum(a, lum, line_widths(model, [temp]), grid.values())[0]
        assert got.tobytes() == want.tobytes(), (kind, lo, hi, e0, delta, g, t, mu)


def test_kept_arrays_cannot_be_written():
    emitter, drive = strong_drive(delta=0.0)
    rng = SweepRange(lo=0.0, hi=0.06, steps=11)
    curves = dressed_energy_curves(rng, emitter, drive)
    branches = transition_branches(rng, emitter, drive)  # shares the solve of the curves
    kept = sweep._solved(emitter, drive, rng.values())
    _, want_a, want_lum = _uncached(emitter, drive, rng.values())
    for arr in (curves.energies, branches.a, *kept):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.negative(arr, out=arr)
        base = arr
        while isinstance(base, np.ndarray):  # no array over the kept bytes can be made writeable
            with pytest.raises(ValueError, match="WRITEABLE"):
                base.setflags(write=True)
            base = base.base
    # The writes failed, so the next call, a cache hit, still gives the solved bits.
    again = transition_branches(rng, emitter, drive)
    assert again.a.tobytes() == want_a.tobytes()
    assert sweep._solved(emitter, drive, rng.values())[2].tobytes() == want_lum.tobytes()


def test_concurrent_sweeps_get_their_own_bits():
    # More threads than a small host has cores.  Each alternates between two sweeps of its own, so
    # every call evicts the kept sweep, and switches threads often, so that the calls overlap.
    own = [
        [(SweepRange(lo=-0.01 * k, hi=0.06, steps=301), *strong_drive(delta=0.0, t=0.1 - 0.01 * i)) for i in range(2)]
        for k in range(4)
    ]
    want = [[_uncached(emitter, drive, rng.values())[1].tobytes() for rng, emitter, drive in sweeps] for sweeps in own]
    start = threading.Barrier(len(own))
    got: list[list[bytes]] = [[] for _ in own]

    def run(k: int) -> None:
        start.wait(timeout=60)
        for i in range(40):
            got[k].append(transition_branches(*own[k][i % 2]).a.tobytes())

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(own))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(len(own)):
        assert got[k] == [want[k][i % 2] for i in range(40)]


def _solve_case(n, seed):
    """n reduced matrices, coupled and decoupled, with 0.0 and -0.0 splittings in every quarter of the stack."""
    rng = np.random.default_rng(seed)
    m = np.zeros((n, 3, 3))
    m[:, 0, 0] = rng.uniform(-0.05, 0.05, n)
    m[:, 0, 1] = m[:, 1, 0] = rng.uniform(0.0, 0.2, n)
    m[:, 1, 2] = m[:, 2, 1] = rng.uniform(0.0, 0.2, n)
    m[:, 2, 2] = rng.uniform(-0.06, 0.06, n)
    decoupled = np.arange(n) % 5 == 0
    m[decoupled, 0, 1] = m[decoupled, 1, 0] = m[decoupled, 1, 2] = m[decoupled, 2, 1] = 0.0
    m[np.arange(n) % 7 == 0, 2, 2] = -0.0
    m[np.arange(n) % 11 == 0, 2, 2] = 0.0
    return m


def test_solve_gives_the_uncached_bits_on_the_callers_thread(monkeypatch):
    started = count_thread_starts(monkeypatch)
    m = _solve_case(1027, seed=1)
    energies, coeffs = sweep._eigensystems(m)
    want = (energies, *line_table(energies, coeffs, 1.3))
    assert (np.signbit(energies) & (energies == 0.0)).any()  # a decoupled -0.0 splitting keeps its sign
    sweep._solve.cache_clear()  # so the call below solves
    got = sweep._solve(m.tobytes(), 1.3)
    assert started == []  # the caller's thread solves the whole stack
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_solve_refuses_as_the_eigensolve_does():  # the first failing check over every row
    m = _solve_case(1027, seed=5)
    m[0] = np.diag([1e308, 0.0, -1e308])  # first row: finite energies whose differences overflow (line_table)
    m[-1, 0, 0] = np.inf  # last row: a coupled row whose energies are not finite (_eigensystems)
    with pytest.raises(ValueError) as eigensystems:
        sweep._eigensystems(m)  # what _solve runs first, on every row
    with pytest.raises(ValueError) as solve:
        sweep._solve(m.tobytes(), 1.0)
    assert str(solve.value) == str(eigensystems.value) == "dressed energies and coeffs must be finite"


def test_one_worker_map_solves_on_the_callers_thread(monkeypatch):
    started = count_thread_starts(monkeypatch)
    emitter, drive = strong_drive(delta=0.008)
    sweep._solve.cache_clear()  # so the map solves
    intensity_map(SweepRange(lo=0.0, hi=0.06, steps=2001), GridSpec(-0.35, 0.35, 401), emitter, drive, _model(), workers=1)
    assert started == []  # with workers=1 neither the eigensolve nor the kernel starts a thread


def test_the_cache_keeps_only_the_last_sweep():
    emitter, drive = strong_drive(delta=0.008)
    sweep._solve.cache_clear()
    transition_branches(SweepRange(lo=0.0, hi=0.06, steps=11), emitter, drive)
    transition_branches(SweepRange(lo=0.0, hi=0.06, steps=21), emitter, drive)
    assert sweep._solve.cache_info().currsize == 1  # the second sweep replaced the first


def test_no_module_has_a_global_statement():
    # The kept sweep lives in _solve's lru_cache; no module rebinds a global.
    for path in sorted(Path(sweep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)], path.name


@pytest.mark.parametrize("build, message", [
    (lambda: SweepRange(lo=math.nan, hi=1.0, steps=5), "sweep bounds must be finite"),
    (lambda: SweepRange(lo=0.0, hi=math.inf, steps=5), "sweep bounds must be finite"),
    (lambda: SweepRange(lo=0.0, hi=1.0, steps=5.0), "steps must be an integer, got 5.0"),
    (lambda: SweepRange(lo=0.0, hi=1.0, steps=True), "steps must be an integer, got True"),
    (lambda: SweepRange(lo=0.0, hi=5e-324, steps=3),
     "sweep samples repeat: steps = 3 over [0.0, 5e-324] are not strictly increasing"),
    (lambda: sweep.EnergyCurves(delta=np.zeros(2), energies=np.zeros((2, 9))), "energies must have shape (len(delta), 3)"),
    (lambda: sweep.TransitionBranches(delta=np.zeros(2), a=np.zeros((2, 3))), "a must have shape (len(delta), 9)"),
    (lambda: sweep.IntensityMap(delta_axis=np.zeros(2), dp_axis=np.zeros(3), values=np.zeros((3, 2))),
     "values must have shape (len(delta_axis), len(dp_axis))"),
    (lambda: sweep.IntensityMap(delta_axis=np.zeros(2), dp_axis=np.zeros(3), values=-np.ones((2, 3))),
     "intensities must be finite and non-negative"),
], ids=["range-nan", "range-inf", "steps-float", "steps-bool", "range-repeat", "curves-shape", "branches-shape", "map-shape",
        "map-negative"])
def test_refusals_name_their_value(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def _intensity_holder(kind, value):
    """An IntensityMap or a SpectrumGrid with value between two good intensities."""
    if kind == "map":
        return sweep.IntensityMap(delta_axis=[0.0, 1.0], dp_axis=[0.0, 1.0, 2.0], values=[[1.0, 2.0, 3.0], [1.0, value, 3.0]])
    return spectrum.SpectrumGrid(delta_prime=[0.0, 1.0, 2.0], intensity=[1.0, value, 3.0])


@pytest.mark.parametrize("kind", ["map", "spectrum"])
@pytest.mark.parametrize("value, refused", [(math.nan, True), (math.inf, True), (-math.inf, True), (-1e-300, True), (-0.0, False)],
                         ids=["nan", "inf", "-inf", "-1e-300", "-0.0"])
def test_value_types_refuse_what_is_not_a_finite_non_negative_intensity(kind, value, refused):
    if not refused:
        held = _intensity_holder(kind, value)
        intensity = held.values[1] if kind == "map" else held.intensity
        assert math.copysign(1.0, intensity[1]) == -1.0  # kept as given
        return
    with warnings.catch_warnings(), pytest.raises(ValueError) as err:
        warnings.simplefilter("error")  # the refusal is the only report: no numpy warning before it
        _intensity_holder(kind, value)
    assert str(err.value) == "intensities must be finite and non-negative"


def test_an_intensity_map_with_an_empty_axis_constructs():
    assert sweep.IntensityMap(delta_axis=[], dp_axis=[0.0, 1.0], values=np.zeros((0, 2))).values.shape == (0, 2)
    assert sweep.IntensityMap(delta_axis=[0.0], dp_axis=[], values=np.zeros((1, 0))).values.shape == (1, 0)
