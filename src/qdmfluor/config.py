"""Plain-text run configuration: flat `key = value` lines, `#` comments.

Every key has a default except the emitter/drive essentials (e_xd_ev,
hw_l_ev, t_ev, and the coupling given either as g_sqrt_n_ev or as g_ev
plus n).  Unknown keys are rejected so typos cannot silently fall back to
defaults, and validation reports every problem at once, each with the line
it came from.  Units: energies in eV, temperatures in K, fields in kV/cm,
distances in nm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import DriveParams, EmitterParams, delta_from_field
from .spectrum import BroadeningModel, GridSpec
from .sweep import SweepRange

__all__ = ["ConfigError", "RunConfig", "parse_config", "DEFAULTS", "REQUIRED_KEYS"]

# Keys with built-in defaults.  The required keys (below) have none.
DEFAULTS: dict[str, float | int] = {
    "e0_ev": 0.0,
    "delta_ev": 0.008,
    "mu": 1.0,
    "d_nm": 10.0,
    "field_kv_per_cm": 0.0,
    "delta_zero_field_ev": 0.008,
    "gamma0_ev": 75e-6,
    "a_ev_per_k": 22e-6,
    "b_ev": 0.0,
    "delta_e_ev": 36e-3,
    "gamma_rad_ev": 75e-6,
    "temp_k": 0.0,
    "dp_min_ev": -0.35,
    "dp_max_ev": 0.35,
    "npoints": 7001,
    "sweep_lo": 0.0,
    "sweep_hi": 0.06,
    "sweep_steps": 241,
    "energy_tol_ev": 1e-6,
    "intensity_floor": 1e-3,
}

REQUIRED_KEYS = ("e_xd_ev", "hw_l_ev", "t_ev")

# Largest npoints * sweep_steps a config may ask for: one (sweep_steps,
# npoints) float64 map buffer is then at most 134 MB.  The defaults ask for
# 241 * 7001 = 1.69M cells.
MAX_CELLS = 2**24

_INT_KEYS = {"n", "npoints", "sweep_steps"}

_ALL_KEYS = set(DEFAULTS) | set(REQUIRED_KEYS) | {"g_ev", "n", "g_sqrt_n_ev"}


class ConfigError(ValueError):
    """Carries every violation found in one parse, formatted one per line."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully defaulted run parameters."""

    e_xd_ev: float
    hw_l_ev: float
    t_ev: float
    g_sqrt_n_ev: float
    n: int
    g_ev: float
    e0_ev: float
    delta_ev: float
    mu: float
    d_nm: float
    field_kv_per_cm: float
    delta_zero_field_ev: float
    gamma0_ev: float
    a_ev_per_k: float
    b_ev: float
    delta_e_ev: float
    gamma_rad_ev: float
    temp_k: float
    dp_min_ev: float
    dp_max_ev: float
    npoints: int
    sweep_lo: float
    sweep_hi: float
    sweep_steps: int
    energy_tol_ev: float
    intensity_floor: float

    @property
    def effective_delta(self) -> float:
        """Splitting used by the commands: field tuning wins when a field is set."""
        if self.field_kv_per_cm != 0.0:
            return delta_from_field(self.delta_zero_field_ev, self.d_nm, self.field_kv_per_cm)
        return self.delta_ev

    def emitter(self, delta: float | None = None) -> EmitterParams:
        return EmitterParams(
            e_xd=self.e_xd_ev,
            delta=self.effective_delta if delta is None else delta,
            t=self.t_ev,
            mu=self.mu,
            d=self.d_nm,
            e0=self.e0_ev,
        )

    def drive(self) -> DriveParams:
        return DriveParams(n=self.n, g=self.g_ev, hw_l=self.hw_l_ev)

    def broadening(self) -> BroadeningModel:
        return BroadeningModel(
            gamma0=self.gamma0_ev,
            a_coef=self.a_ev_per_k,
            gamma_rad=self.gamma_rad_ev,
            b_coef=self.b_ev,
            delta_e=self.delta_e_ev,
        )

    def grid(self) -> GridSpec:
        return GridSpec(dp_min=self.dp_min_ev, dp_max=self.dp_max_ev, npoints=self.npoints)

    def delta_range(self) -> SweepRange:
        return SweepRange(lo=self.sweep_lo, hi=self.sweep_hi, steps=self.sweep_steps, axis="delta")

    def with_overrides(self, temp_k: float | None = None, delta_ev: float | None = None) -> "RunConfig":
        cfg = self
        if temp_k is not None:
            cfg = replace(cfg, temp_k=temp_k)
        if delta_ev is not None:
            # An explicit splitting override also bypasses field tuning.
            cfg = replace(cfg, delta_ev=delta_ev, field_kv_per_cm=0.0)
        return cfg


def _parse_lines(text: str) -> tuple[dict[str, float | int], dict[str, int], list[str]]:
    raw: dict[str, float | int] = {}
    lines: dict[str, int] = {}
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            problems.append(f"line {lineno}: expected 'key = value', got {body!r}")
            continue
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        if key in _INT_KEYS:
            try:
                raw[key] = int(value)
            except ValueError:
                problems.append(f"line {lineno}: {key} must be an integer, got {value!r}")
                continue
        else:
            try:
                number = float(value)
            except ValueError:
                problems.append(f"line {lineno}: malformed number {value!r} for {key}")
                continue
            if not math.isfinite(number):
                problems.append(f"line {lineno}: {key} must be finite, got {value!r}")
                continue
            raw[key] = number
        lines[key] = lineno
    return raw, lines, problems


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration, reporting all violations at once."""
    raw, lines, problems = _parse_lines(text)

    def where(key: str) -> str:
        return f"line {lines[key]}: " if key in lines else ""

    for key in REQUIRED_KEYS:
        if key not in raw:
            problems.append(f"missing required key {key!r}")

    has_direct = "g_sqrt_n_ev" in raw
    has_pair = "g_ev" in raw or "n" in raw
    if has_direct and has_pair:
        offender = "g_ev" if "g_ev" in raw else "n"
        problems.append(
            f"{where(offender)}conflicting coupling specification: "
            "give either g_sqrt_n_ev or g_ev with n, not both"
        )
    elif has_direct:
        if raw["g_sqrt_n_ev"] < 0.0:
            problems.append(f"{where('g_sqrt_n_ev')}g_sqrt_n_ev must be non-negative")
    elif has_pair:
        if "g_ev" not in raw or "n" not in raw:
            missing = "n" if "g_ev" in raw else "g_ev"
            present = "g_ev" if "g_ev" in raw else "n"
            problems.append(f"{where(present)}coupling via {present} also requires {missing}")
        else:
            if raw["g_ev"] < 0.0:
                problems.append(f"{where('g_ev')}g_ev must be non-negative")
            if raw["n"] < 1:
                problems.append(f"{where('n')}n must be >= 1")
    else:
        problems.append("missing coupling: give g_sqrt_n_ev, or g_ev together with n")

    values: dict[str, float | int] = dict(DEFAULTS)
    values.update(raw)

    def check(cond: bool, key: str, message: str) -> None:
        if not cond:
            problems.append(f"{where(key)}{message}")

    if "e_xd_ev" in raw:
        check(math.isfinite(raw["e_xd_ev"]), "e_xd_ev", "e_xd_ev must be finite")
    if "hw_l_ev" in raw:
        check(raw["hw_l_ev"] > 0.0, "hw_l_ev", "hw_l_ev must be positive")
    if "t_ev" in raw:
        check(raw["t_ev"] >= 0.0, "t_ev", "t_ev must be non-negative (tunneling rate)")
    check(values["mu"] > 0.0, "mu", "mu must be positive")
    check(values["d_nm"] > 0.0, "d_nm", "d_nm must be positive")
    check(values["gamma0_ev"] > 0.0, "gamma0_ev", "gamma0_ev must be positive")
    check(values["a_ev_per_k"] >= 0.0, "a_ev_per_k", "a_ev_per_k must be non-negative")
    check(values["b_ev"] >= 0.0, "b_ev", "b_ev must be non-negative")
    check(values["gamma_rad_ev"] > 0.0, "gamma_rad_ev", "gamma_rad_ev must be positive")
    if values["b_ev"] > 0.0:
        check(values["delta_e_ev"] > 0.0, "delta_e_ev", "delta_e_ev must be positive when b_ev > 0")
    check(values["temp_k"] >= 0.0, "temp_k", "temp_k must be >= 0")
    check(values["npoints"] >= 2, "npoints", "npoints must be >= 2")
    check(values["dp_min_ev"] < values["dp_max_ev"], "dp_min_ev", "need dp_min_ev < dp_max_ev")
    check(values["sweep_lo"] < values["sweep_hi"], "sweep_lo", "need sweep_lo < sweep_hi")
    check(values["sweep_steps"] >= 2, "sweep_steps", "sweep_steps must be >= 2")
    if values["npoints"] >= 2 and values["sweep_steps"] >= 2:
        cells = values["npoints"] * values["sweep_steps"]
        check(
            cells <= MAX_CELLS,
            "npoints" if "npoints" in lines else "sweep_steps",
            f"npoints * sweep_steps = {values['npoints']} * {values['sweep_steps']} = {cells} "
            f"exceeds the cell budget of {MAX_CELLS}",
        )
    check(values["energy_tol_ev"] > 0.0, "energy_tol_ev", "energy_tol_ev must be positive")
    check(
        0.0 <= values["intensity_floor"] < 1.0,
        "intensity_floor",
        "intensity_floor must be in [0, 1)",
    )

    if problems:
        raise ConfigError(problems)

    if has_direct:
        n = 1
        g_ev = float(raw["g_sqrt_n_ev"])
        g_sqrt_n = g_ev
    else:
        n = int(raw["n"])
        g_ev = float(raw["g_ev"])
        g_sqrt_n = g_ev * math.sqrt(n)

    return RunConfig(
        e_xd_ev=float(raw["e_xd_ev"]),
        hw_l_ev=float(raw["hw_l_ev"]),
        t_ev=float(raw["t_ev"]),
        g_sqrt_n_ev=g_sqrt_n,
        n=n,
        g_ev=g_ev,
        e0_ev=float(values["e0_ev"]),
        delta_ev=float(values["delta_ev"]),
        mu=float(values["mu"]),
        d_nm=float(values["d_nm"]),
        field_kv_per_cm=float(values["field_kv_per_cm"]),
        delta_zero_field_ev=float(values["delta_zero_field_ev"]),
        gamma0_ev=float(values["gamma0_ev"]),
        a_ev_per_k=float(values["a_ev_per_k"]),
        b_ev=float(values["b_ev"]),
        delta_e_ev=float(values["delta_e_ev"]),
        gamma_rad_ev=float(values["gamma_rad_ev"]),
        temp_k=float(values["temp_k"]),
        dp_min_ev=float(values["dp_min_ev"]),
        dp_max_ev=float(values["dp_max_ev"]),
        npoints=int(values["npoints"]),
        sweep_lo=float(values["sweep_lo"]),
        sweep_hi=float(values["sweep_hi"]),
        sweep_steps=int(values["sweep_steps"]),
        energy_tol_ev=float(values["energy_tol_ev"]),
        intensity_floor=float(values["intensity_floor"]),
    )
