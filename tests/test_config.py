import math

import pytest

from qdmfluor import ConfigError, parse_config
from qdmfluor.config import MAX_CELLS

MINIMAL = """\
e_xd_ev = 1.0
hw_l_ev = 1.0
g_sqrt_n_ev = 0.1
t_ev = 0.1
"""


def test_minimal_config_accepts_and_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.delta_ev == 0.008
    assert cfg.e0_ev == 0.0
    assert cfg.mu == 1.0
    assert cfg.gamma0_ev == 75e-6
    assert cfg.a_ev_per_k == 22e-6
    assert cfg.b_ev == 0.0
    assert cfg.gamma_rad_ev == 75e-6
    assert cfg.temp_k == 0.0
    assert (cfg.dp_min_ev, cfg.dp_max_ev, cfg.npoints) == (-0.35, 0.35, 7001)
    assert (cfg.sweep_lo, cfg.sweep_hi, cfg.sweep_steps) == (0.0, 0.06, 241)
    assert cfg.g_sqrt_n_ev == 0.1
    assert cfg.effective_delta == 0.008


def test_coupling_via_g_and_n_matches_direct_form():
    direct = parse_config(MINIMAL)
    paired = parse_config(
        "e_xd_ev = 1.0\nhw_l_ev = 1.0\ng_ev = 0.01\nn = 100\nt_ev = 0.1\n"
    )
    assert paired.n == 100
    assert paired.g_ev == 0.01
    assert paired.g_sqrt_n_ev == pytest.approx(direct.g_sqrt_n_ev, rel=1e-15)
    assert paired.drive().g_sqrt_n == pytest.approx(direct.drive().g_sqrt_n, rel=1e-15)


def test_comments_blanks_and_inline_comments():
    cfg = parse_config(
        "# full line comment\n"
        "\n"
        "e_xd_ev = 1.0  # trailing comment\n"
        "hw_l_ev = 1.0\n"
        "g_sqrt_n_ev = 0.1\n"
        "t_ev = 0.1\n"
        "delta_ev = 0.0  # resonance\n"
    )
    assert cfg.delta_ev == 0.0


def test_negative_tunneling_reports_constraint_and_line():
    bad = MINIMAL.replace("t_ev = 0.1", "t_ev = -0.1")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "non-negative" in str(err.value)
    assert "line 4" in str(err.value)


def test_conflicting_coupling_specification():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "g_ev = 0.01\nn = 100\n")
    assert "conflicting coupling specification" in str(err.value)


def test_incomplete_coupling_pair():
    with pytest.raises(ConfigError) as err:
        parse_config("e_xd_ev = 1.0\nhw_l_ev = 1.0\ng_ev = 0.01\nt_ev = 0.1\n")
    assert "requires n" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("e_xd_ev = 1.0\nhw_l_ev = 1.0\nn = 100\nt_ev = 0.1\n")
    assert "requires g_ev" in str(err.value)


def test_missing_everything_reports_all():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    message = str(err.value)
    for key in ("e_xd_ev", "hw_l_ev", "t_ev"):
        assert key in message
    assert "missing coupling" in message


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "tt_ev = 0.3\n")
    assert "unknown key 'tt_ev'" in str(err.value)
    assert "line 5" in str(err.value)


def test_malformed_number_and_integer():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "delta_ev = abc\nnpoints = 10.5\n")
    message = str(err.value)
    assert "malformed number 'abc'" in message
    assert "npoints must be an integer" in message


def test_multiple_violations_all_reported():
    bad = (
        "e_xd_ev = 1.0\n"
        "hw_l_ev = -1.0\n"
        "g_sqrt_n_ev = 0.1\n"
        "t_ev = -0.5\n"
        "mu = 0.0\n"
        "npoints = 1\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    problems = err.value.problems
    assert len(problems) >= 4
    text = "\n".join(problems)
    assert "hw_l_ev" in text and "t_ev" in text and "mu" in text and "npoints" in text


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "delta_ev = 0.1\ndelta_ev = 0.2\n")
    assert "duplicate key" in str(err.value)


def test_non_finite_value_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "delta_ev = inf\n")
    assert "finite" in str(err.value)


def test_field_tuning_overrides_delta():
    cfg = parse_config(
        MINIMAL + "field_kv_per_cm = 50.0\ndelta_zero_field_ev = 0.05\nd_nm = 10.0\n"
    )
    assert cfg.effective_delta == pytest.approx(0.0, abs=1e-15)
    assert cfg.emitter().delta == pytest.approx(0.0, abs=1e-15)
    # Zero field leaves delta_ev in charge.
    cfg = parse_config(MINIMAL + "delta_zero_field_ev = 0.05\n")
    assert cfg.effective_delta == 0.008


def test_overrides_helper():
    cfg = parse_config(MINIMAL + "field_kv_per_cm = 50.0\ndelta_zero_field_ev = 0.05\n")
    assert cfg.with_overrides(temp_k=20.0).temp_k == 20.0
    forced = cfg.with_overrides(delta_ev=0.03)
    assert forced.effective_delta == 0.03


def test_builders_produce_valid_objects():
    cfg = parse_config(MINIMAL)
    emitter = cfg.emitter()
    assert emitter.delta == 0.008 and emitter.t == 0.1 and emitter.mu == 1.0
    drive = cfg.drive()
    assert drive.g_sqrt_n == pytest.approx(0.1, rel=1e-15)
    model = cfg.broadening()
    assert model.gamma0 == 75e-6 and model.gamma_rad == 75e-6
    grid = cfg.grid()
    assert grid.npoints == 7001 and grid.step == pytest.approx(1e-4, rel=1e-12)
    rng = cfg.delta_range()
    assert rng.steps == 241 and rng.axis == "delta"
    assert math.isclose(rng.values()[1] - rng.values()[0], 0.06 / 240, rel_tol=1e-12)


def test_optical_phonon_constraint():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "b_ev = 1e-3\ndelta_e_ev = 0.0\n")
    assert "delta_e_ev" in str(err.value)
    cfg = parse_config(MINIMAL + "b_ev = 1e-3\n")
    assert cfg.delta_e_ev == 36e-3


def test_cell_budget_rejects_oversized_map_before_allocating():
    defaults = parse_config(MINIMAL)
    assert defaults.npoints * defaults.sweep_steps <= MAX_CELLS
    # Exactly at the budget is accepted; one more splitting step is not.
    at_budget = MINIMAL + "npoints = 65536\nsweep_steps = 256\n"
    assert 65536 * 256 == MAX_CELLS
    assert parse_config(at_budget).npoints == 65536
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "npoints = 65536\nsweep_steps = 257\n")
    message = str(err.value)
    assert "npoints" in message and "sweep_steps" in message and "cell budget" in message
    assert "line 5" in message
    # The default 241-step sweep caps npoints too, even if only npoints is set.
    with pytest.raises(ConfigError, match="cell budget"):
        parse_config(MINIMAL + "npoints = 70000\n")
