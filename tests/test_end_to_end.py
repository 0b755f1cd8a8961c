"""Every config and flag value runs clean on every table command, or is refused by line or by name.

Configs are drawn over each key's whole domain, extremes included (huge,
tiny and subnormal magnitudes), with the --temp, --temps and --delta flags
that bypass parse_config's cross-key checks.  Only npoints and sweep_steps
stay small, to keep each run short.
"""

import operator
import re
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdmfluor import RunConfig

from helpers import TABLE_COMMANDS, assert_finite_csv, run_cli

# The flags each command reads.
_FLAGS = {
    "spectrum": ("temp", "delta"),
    "transitions": ("temp", "delta"),
    "branches": (),
    "map": ("temp",),
    "tempseries": ("temps", "delta"),
}
# A config is refused by parse_config, with a line; a flag value only when the run meets it.
# tempseries without --temps runs at DEFAULT_TEMPS, which parse_config checks, so only a passed flag may be refused by name.
_CONFIG_REFUSED = re.compile(r"qdmfluor: config error: line \d+: ")
_FLAG_REFUSED = re.compile(r"qdmfluor: invalid parameters: ")

_EXTREMES = [
    0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-200, 1e-154, 1e-10, 0.008, 0.1, 1.0, 300.0,
    1e154, 1e200, 1e300, 1e308, 1.7976931348623157e308,
]
_MAGNITUDE = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from(_EXTREMES), st.floats(min_value=0.0, allow_infinity=False)
)
_SIGNED = st.builds(operator.mul, st.sampled_from([1.0, -1.0]), _MAGNITUDE)
_SIMPLE_KEYS = [
    f for f in fields(RunConfig) if f.type is float and f.name not in ("g_sqrt_n_ev", "g_ev")
]


@st.composite
def _configs(draw):
    """Config text: the required keys, about a quarter of the others, the coupling in either form."""
    keys = {}
    for f in _SIMPLE_KEYS:
        if f.metadata["required"] or draw(st.sampled_from([True, False, False, False])):
            # A key with a one-key rule is drawn from its sign's side, so most drawn texts reach the probe.
            keys[f.name] = draw(_MAGNITUDE if f.metadata["rule"] else _SIGNED)
    if draw(st.booleans()):
        keys["g_sqrt_n_ev"] = draw(_MAGNITUDE)
    else:
        keys["g_ev"] = draw(_MAGNITUDE)
        keys["n"] = draw(st.one_of(st.integers(1, 10**6), st.sampled_from([2**53, 10**300, 10**400])))
    keys["npoints"] = draw(st.integers(2, 9))
    keys["sweep_steps"] = draw(st.integers(2, 5))
    return "".join(f"{key} = {keys[key]!r}\n" for key in draw(st.permutations(list(keys))))


def _assert_clean_or_refused(text: str, flags: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text)
        for command in TABLE_COMMANDS:
            out_dir = Path(tmp) / command
            out_dir.mkdir()
            flag_args = [f"--{flag}={flags[flag]}" for flag in _FLAGS[command] if flags[flag] is not None]
            code, err = run_cli([command, "--config", str(cfg), "--out", str(out_dir / f"{command}.csv"), *flag_args])
            written = sorted(out_dir.iterdir())
            if code == 1:
                assert _CONFIG_REFUSED.match(err) or (flag_args and _FLAG_REFUSED.match(err)), (command, flag_args, err)
                assert "Traceback" not in err, (command, err)
                assert written == [], command
                continue
            assert code == 0 and err == "", (command, code, err)
            assert written, command
            for path in written:
                assert_finite_csv(path)


_BASE = "e_xd_ev = 1.0\nhw_l_ev = 1.0\ng_sqrt_n_ev = 0.1\nt_ev = 0.1\nnpoints = 5\nsweep_steps = 3\n"
_NO_FLAGS = {"temp": None, "temps": None, "delta": None}


@settings(max_examples=150, deadline=None)
@given(
    text=_configs(),
    flags=st.fixed_dictionaries({
        "temp": st.none() | _SIGNED,
        "temps": st.none() | st.lists(_MAGNITUDE, min_size=1, max_size=3, unique_by=lambda t: f"{t:g}").map(
            lambda temps: ",".join(map(repr, temps))
        ),
        "delta": st.none() | _SIGNED,
    }),
)
# Intensities lum / f that overflow: transitions wrote inf, spectrum and map named no key.
@example(text=_BASE + "mu = 1e150\ngamma0_ev = 1e-10\ngamma_rad_ev = 1e-10\n", flags=_NO_FLAGS)
@example(text=_BASE + "mu = 1e150\ngamma0_ev = 1e-10\ngamma_rad_ev = 1e-10\ntemp_k = 1e9\n", flags={**_NO_FLAGS, "temp": 0.0})
# Kernel denominators (x - a)^2 + f^2 that overflow: a leaked overflow warning, then exit 0.
@example(text=_BASE + "delta_ev = 1e200\n", flags=_NO_FLAGS)
@example(text=_BASE + "dp_min_ev = -1e300\ndp_max_ev = 1e300\n", flags=_NO_FLAGS)
@example(text=_BASE, flags={**_NO_FLAGS, "delta": 1e200})
@example(text=_BASE + "dp_min_ev = -8e307\ndp_max_ev = 8e307\nfield_kv_per_cm = 1e308\nd_nm = 1\n", flags=_NO_FLAGS)
@example(text=_BASE.replace("0.1", "4e307"), flags=_NO_FLAGS)
@example(text=_BASE.replace("g_sqrt_n_ev = 0.1", "n = 4\ng_ev = 4e307"), flags=_NO_FLAGS)
# Widths that overflow only at tempseries' default temperatures: tempseries named no line.
@example(text=_BASE + "b_ev = 1e200\n", flags=_NO_FLAGS)
# Widths whose squares underflow to 0: a division by zero at the centre of a line on the grid.
@example(text=_BASE + "gamma0_ev = 1e-200\ngamma_rad_ev = 1e-200\ndp_min_ev = -1\ndp_max_ev = 1\n", flags=_NO_FLAGS)
# A sweep to the largest float: np.linspace's last step overflows before it sets the endpoint, with a warning.
@example(text=_BASE.replace("sweep_steps = 3", "sweep_steps = 4") + "sweep_hi = 1.7976931348623157e+308\n", flags=_NO_FLAGS)
def test_every_command_runs_clean_or_refuses_by_line_or_name(text, flags):
    _assert_clean_or_refused(text, flags)
