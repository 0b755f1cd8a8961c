import math
import sys
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdmfluor import ConfigError, RunConfig, parse_config
from qdmfluor.config import DEFAULTS, MAX_CELLS, REQUIRED_KEYS
from qdmfluor.core import dressed_states
from qdmfluor.spectrum import line_table, line_widths, lorentz_terms

from helpers import assert_runs_clean

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = """\
e_xd_ev = 1.0
hw_l_ev = 1.0
g_sqrt_n_ev = 0.1
t_ev = 0.1
"""

LINES_OVERFLOW = "line positions a = E_i - E_j must be finite; the dressed-energy spread overflows"
KERNEL_OVERFLOWS = "Lorentzian denominators overflow: (x - a)^2 + f^2 is not finite at a grid end"
INTENSITIES_OVERFLOW = "line intensities overflow: lum / f * f * f is not finite"
# Small tables, so that a run of every command stays quick.
SMALL = "npoints = 7\nsweep_steps = 3\n"


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
    assert rng.steps == 241
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
    # Two integers of the most digits int() parses have a product too long to print.
    big = "9" * 4300
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"npoints = {big}\nsweep_steps = {big}\n")
    assert err.value.problems == [
        f"line 5: npoints * sweep_steps = {big} * {big} exceeds the cell budget of {MAX_CELLS}"
    ]


PAIRED = "e_xd_ev = 1.0\nhw_l_ev = 1.0\nt_ev = 0.1\n"


def test_every_rule_reports_its_exact_message():
    bad = (
        "e_xd_ev = 1.0\nhw_l_ev = 0.0\nt_ev = -0.1\n"
        "g_ev = -0.01\nn = 0\nmu = 0\nd_nm = 0\ngamma0_ev = 0\na_ev_per_k = -1\nb_ev = -1\n"
        "gamma_rad_ev = 0\ntemp_k = -1\ndp_min_ev = 1\ndp_max_ev = 0\nnpoints = 1\nsweep_lo = 1\n"
        "sweep_hi = 0\nsweep_steps = 1\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    # The coupling group, then the one-key rules in table order, then the cross-key checks.
    assert err.value.problems == [
        "line 4: g_ev must be non-negative",
        "line 5: n must be >= 1",
        "line 2: hw_l_ev must be positive",
        "line 3: t_ev must be non-negative (tunneling rate)",
        "line 6: mu must be positive",
        "line 7: d_nm must be positive",
        "line 8: gamma0_ev must be positive",
        "line 9: a_ev_per_k must be non-negative",
        "line 10: b_ev must be non-negative",
        "line 11: gamma_rad_ev must be positive",
        "line 12: temp_k must be >= 0",
        "line 15: npoints must be >= 2",
        "line 18: sweep_steps must be >= 2",
        "line 13: need dp_min_ev < dp_max_ev",
        "line 16: need sweep_lo < sweep_hi",
    ]
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "b_ev = 1e-3\ndelta_e_ev = -1\n")
    assert err.value.problems == ["line 6: delta_e_ev must be positive when b_ev > 0"]


def test_defaults_pass_their_own_rules():
    # parse_config applies a one-key rule only to a key the text sets.
    for f in fields(RunConfig):
        if f.metadata["rule"] and f.default is not MISSING:
            test, _ = f.metadata["rule"]
            assert test(f.default), f.name


def test_coupling_that_overflows_is_a_config_error():
    # An n past the largest float has no sqrt, whatever g_ev is.
    for n in ("1" + "0" * 400, str(2**1024), "9" * 4300):
        with pytest.raises(ConfigError) as err:
            parse_config(PAIRED + f"g_ev = 1e-200\nn = {n}\n")
        assert err.value.problems == ["line 5: g_ev * sqrt(n) overflows (g_ev on line 4)"]
    with pytest.raises(ConfigError) as err:
        parse_config(PAIRED + "n = 4\ng_ev = 1e308\n")
    assert err.value.problems == ["line 4: g_ev * sqrt(n) overflows (g_ev on line 5)"]
    largest = int(sys.float_info.max)
    assert parse_config(PAIRED + f"g_ev = 1e-200\nn = {largest}\n").g_sqrt_n_ev == 1e-200 * math.sqrt(largest)
    # A finite g * sqrt(n) of 1.6e308 puts the dressed energies 3.2e308 apart: the line positions overflow.
    with pytest.raises(ConfigError) as err:
        parse_config(PAIRED + "n = 4\ng_ev = 8e307\n")
    assert err.value.problems == [f"line 5: {LINES_OVERFLOW}"]
    # Lines 1.6e308 apart are finite, but the kernel squares them.
    with pytest.raises(ConfigError) as err:
        parse_config(PAIRED + "n = 4\ng_ev = 4e307\n")
    assert err.value.problems == [f"line 5: {KERNEL_OVERFLOWS}"]
    assert parse_config(PAIRED + "n = 4\ng_ev = 3e153\n").g_sqrt_n_ev == 6e153
    assert_runs_clean(PAIRED + "n = 4\ng_ev = 3e153\n" + SMALL)


_HOSTILE = [
    "0", "1", "-1", "2", "4", "0.5", "-0.0", "1e-320", "1e308", "-1e308", "1.7976931348623157e308",
    "inf", "-inf", "nan", "1e400", "1" + "0" * 400, "9" * 4300, "9" * 4301, "1_0", "0x10", "", "abc", "=", "1 2", "#",
]
# Half the keys drawn are the coupling and the integer keys, where a hostile value can do most harm.
_KEY = st.one_of(
    st.sampled_from(["g_ev", "n", "g_sqrt_n_ev", "npoints", "sweep_steps"]),
    st.sampled_from([f.name for f in fields(RunConfig)] + ["tt_ev", "N", ""]),
)
_VALUE = st.one_of(st.sampled_from(_HOSTILE), st.integers().map(str), st.floats().map(repr), st.text(max_size=6))
_EDIT = st.one_of(
    st.tuples(_KEY, _VALUE),  # set a key
    st.tuples(_KEY, st.none()),  # drop it
    st.tuples(st.none(), st.builds("{} = {}".format, _KEY, _VALUE) | st.text(max_size=12)),  # add a raw line
)


def _edited(base, edits):
    """A valid config's text after edits: (key, value) sets, (key, None) drops, (None, line) appends a line."""
    entries = dict(line.split(" = ") for line in base.splitlines())
    extra = []
    for key, value in edits:
        if key is None:
            extra.append(value)
        elif value is None:
            entries.pop(key, None)
        else:
            entries[key] = value
    return "\n".join([f"{key} = {value}" for key, value in entries.items()] + extra)


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from([MINIMAL, PAIRED + "g_ev = 0.01\nn = 4\n"]), edits=st.lists(_EDIT, max_size=6))
@example(base=PAIRED + "g_ev = 0.01\nn = 4\n", edits=[("n", "1" + "0" * 400)])
@example(base=PAIRED + "g_ev = 0.01\nn = 4\n", edits=[("g_ev", "1e308")])
@example(base=MINIMAL, edits=[("npoints", "9" * 4300), ("sweep_steps", "9" * 4300)])
@example(base=MINIMAL, edits=[("field_kv_per_cm", "1e308"), ("d_nm", "1e308")])
@example(base=MINIMAL, edits=[("dp_min_ev", "-1e308"), ("dp_max_ev", "1e308")])
@example(base=MINIMAL, edits=[("sweep_lo", "-1e308"), ("sweep_hi", "1e308")])
@example(base=MINIMAL, edits=[("gamma0_ev", "1e308"), ("a_ev_per_k", "1e308"), ("temp_k", "10")])
@example(base=MINIMAL, edits=[("gamma0_ev", "1.7e308"), ("gamma_rad_ev", "1.7e308")])
@example(base=MINIMAL, edits=[("temp_k", "1e308")])
@example(base=MINIMAL, edits=[("e_xd_ev", "-1e308"), ("hw_l_ev", "1e308")])
@example(base=MINIMAL, edits=[("b_ev", "1e-3"), ("temp_k", "5e-324")])  # K_B * T underflows to 0
@example(base=MINIMAL, edits=[("g_sqrt_n_ev", "1e308"), ("t_ev", "1e308")])  # finite energies, lines overflow
@example(base=MINIMAL, edits=[("g_sqrt_n_ev", "4e307"), ("t_ev", "4e307")])  # finite lines, squares overflow
@example(base=MINIMAL, edits=[("mu", "1e150"), ("gamma0_ev", "1e-10"), ("gamma_rad_ev", "1e-10")])  # lum / f overflows
@example(base=MINIMAL, edits=[("delta_ev", "1e200")])  # (x - a)^2 overflows
@example(base=MINIMAL, edits=[("dp_min_ev", "-1e300"), ("dp_max_ev", "1e300")])
@example(base=MINIMAL, edits=[("gamma0_ev", "1e-200"), ("gamma_rad_ev", "1e-200")])  # f * f underflows to 0
@example(base=MINIMAL, edits=[("sweep_hi", "1e308")])
@example(base=MINIMAL, edits=[("mu", "1e200")])
@example(base=MINIMAL, edits=[("sweep_hi", "5e-324")])  # 241 samples of [0, 5e-324] repeat
def test_any_text_parses_or_raises_config_error(base, edits):
    try:
        cfg = parse_config(_edited(base, edits))
    except ConfigError as exc:
        assert exc.problems
        return
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        assert type(value) is f.type
        assert f.type is int or math.isfinite(value), f.name
    # An accepted config builds every library object the commands use, finite lines at every
    # splitting a command may use, and finite Lorentzian terms at its grid ends, without a numpy warning.
    # Its axes' samples, which the commands write, are strictly increasing.
    cfg.emitter(), cfg.drive(), cfg.broadening()
    for axis in (cfg.grid().values(), cfg.delta_range().values()):
        assert (np.diff(axis) > 0.0).all()
    f = line_widths(cfg.broadening(), [cfg.temp_k])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        splittings = [cfg.effective_delta, cfg.delta_ev, cfg.sweep_lo, cfg.sweep_hi]
        a, lum = line_table(*dressed_states(cfg.emitter(), cfg.drive(), splittings), cfg.mu)
        lorentz_terms(a, lum, f, (cfg.dp_min_ev, cfg.dp_max_ev))


def test_cross_key_errors_name_a_line():
    cases = {
        "dp_max_ev = -1\n": "line 5: need dp_min_ev < dp_max_ev",
        "sweep_hi = -1\n": "line 5: need sweep_lo < sweep_hi",
        "field_kv_per_cm = 1e308\nd_nm = 1e308\n":
            "line 5: field-tuned splitting delta_zero_field - d * field * 1e-4 must be finite, got -inf",
        "delta_zero_field_ev = -1e308\nfield_kv_per_cm = -1e308\nd_nm = 1e4\n":
            "line 6: field-tuned splitting delta_zero_field - d * field * 1e-4 must be finite, got inf",
        "dp_min_ev = -1e308\ndp_max_ev = 1e308\n": "line 5: grid span dp_max - dp_min overflows, got [-1e+308, 1e+308]",
        "dp_max_ev = 1.7976931348623157e308\ndp_min_ev = -1e300\n":
            "line 6: grid span dp_max - dp_min overflows, got [-1e+300, 1.7976931348623157e+308]",
        "sweep_hi = 1e308\nsweep_lo = -1e308\n": "line 6: sweep span hi - lo overflows, got [-1e+308, 1e+308]",
        # Finite spans and splitting, but the kernel squares grid ends 8e307 from the lines.
        "dp_min_ev = -8e307\ndp_max_ev = 8e307\nfield_kv_per_cm = 1e308\nd_nm = 1\n": f"line 5: {KERNEL_OVERFLOWS}",
    }
    for extra, message in cases.items():
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + extra)
        assert err.value.problems == [message], extra
    # The largest grid whose denominators stay finite is accepted, with a field-tuned splitting, and runs clean.
    text = MINIMAL + SMALL + "dp_min_ev = -1e154\ndp_max_ev = 1e154\nfield_kv_per_cm = 1e150\nd_nm = 1\n"
    cfg = parse_config(text)
    assert cfg.grid().step == 2e154 / 6 and cfg.effective_delta == 0.008 - 1e150 * 1e-4
    assert_runs_clean(text)
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("-1e154", "-1.35e154"))
    assert err.value.problems == [f"line 7: {KERNEL_OVERFLOWS}"]


def test_dressed_energy_spread_that_overflows_is_a_config_error():
    # The line named is that of the largest magnitude the lines read; coupling and tunneling tie at 1e308.
    cases = {
        "e_xd_ev = 1.0\nhw_l_ev = 1.0\ng_sqrt_n_ev = 1e308\nt_ev = 1e308\n": (3, LINES_OVERFLOW),
        PAIRED + "g_ev = 1e300\nn = 1" + "0" * 16 + "\n": (4, LINES_OVERFLOW),  # g_ev * sqrt(n) = 1e308
        # Finite lines whose squares in the kernel overflow.
        MINIMAL + "delta_ev = 1e308\n": (5, KERNEL_OVERFLOWS),
        MINIMAL + "sweep_lo = -9e307\n": (5, KERNEL_OVERFLOWS),
        MINIMAL + "field_kv_per_cm = 1\ndelta_zero_field_ev = -1e308\n": (6, KERNEL_OVERFLOWS),  # field-tuned
        "e_xd_ev = -5e307\nhw_l_ev = 5e307\ng_sqrt_n_ev = 0.1\nt_ev = 0.1\n": (2, KERNEL_OVERFLOWS),  # detuning 1e308
        "e_xd_ev = 1.0\nhw_l_ev = 1.0\ng_sqrt_n_ev = 4e307\nt_ev = 4e307\n": (3, KERNEL_OVERFLOWS),
        # A laser detuning that overflows, and dressed energies that do.
        "e_xd_ev = -1e308\nhw_l_ev = 1e308\ng_sqrt_n_ev = 0.1\nt_ev = 0.1\n":
            (2, "laser detuning hw_l + e0 - e_xd must be finite, got inf"),
        "e_xd_ev = -1.5e308\nhw_l_ev = 1.0\ng_sqrt_n_ev = 1.5e308\nt_ev = 0.1\n":
            (2, "dressed energies and coeffs must be finite"),
    }
    for text, (line, message) in cases.items():
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [f"line {line}: {message}"], text
    # Reported together with a line width that overflows.
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "delta_ev = 1e308\ntemp_k = 1e308\n")
    assert err.value.problems == [
        "line 6: line widths overflow at temperature 1e+308 K (Gamma(T) = 2.2e+303 eV)",
        f"line 5: {KERNEL_OVERFLOWS}",
    ]
    # The largest coupling and tunneling whose lines the kernel can square are accepted, and run clean.
    text = "e_xd_ev = 1.0\nhw_l_ev = 1.0\ng_sqrt_n_ev = 4e153\nt_ev = 4e153\n" + SMALL
    cfg = parse_config(text)
    a, _ = line_table(*dressed_states(cfg.emitter(), cfg.drive(), [cfg.delta_ev]), cfg.mu)
    assert np.abs(a).max() > 1e154
    assert_runs_clean(text)
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("4e153", "5e153"))
    assert err.value.problems == [f"line 3: {KERNEL_OVERFLOWS}"]


def test_dipole_scale_whose_square_overflows_is_a_config_error():
    # mu * mu overflows; mu * mu is finite, but the peak heights lum / f are not, at the default
    # widths and at narrow ones.
    for extra in ("mu = 1e200\n", "mu = 1e154\n", "mu = 1e150\ngamma0_ev = 1e-10\ngamma_rad_ev = 1e-10\n"):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + extra)
        assert err.value.problems == [f"line 5: {INTENSITIES_OVERFLOW}"], extra
    # The largest mu whose peak heights stay finite at the default widths is accepted, and runs clean.
    assert parse_config(MINIMAL + "mu = 8e151\n").mu == 8e151
    assert_runs_clean(MINIMAL + SMALL + "mu = 8e151\n")


def _readme_config_table():
    """The prose above the README's config table, and its rows as {key: (default, meaning)}."""
    section = README.read_text().split("### Config format", 1)[1].split("\n#", 1)[0]
    prose, _, table = section.partition("| key | default | meaning |")
    rows = {}
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        keys, defaults, meaning = (cell.strip() for cell in line.strip().strip("|").split("|"))
        for key, default in zip(keys.split(","), defaults.split(","), strict=True):
            rows[key.strip(" `")] = (float(default.strip(" `")), meaning)
    return prose, rows


def test_readme_config_table_matches_the_key_table():
    prose, rows = _readme_config_table()
    assert {key: default for key, (default, _) in rows.items()} == {key: float(v) for key, v in DEFAULTS.items()}
    docs = {f.name: f.metadata["doc"] for f in fields(RunConfig)}
    assert {key: meaning for key, (_, meaning) in rows.items()} == {key: docs[key] for key in rows}
    for key in docs.keys() - DEFAULTS.keys():
        assert f"`{key}`" in prose, key
    assert set(REQUIRED_KEYS) < docs.keys() - DEFAULTS.keys()
