"""Plain-text run configuration: flat `key = value` lines, `#` comments.

Every key has a default except the emitter/drive essentials (e_xd_ev,
hw_l_ev, t_ev, and the coupling given either as g_sqrt_n_ev or as g_ev
plus n).  Unknown keys are rejected so typos cannot silently fall back to
defaults, and validation reports every problem at once, each with the line
it came from.  Units: energies in eV, temperatures in K, fields in kV/cm,
distances in nm.

The fields of :class:`RunConfig` are the one table of keys: each carries
its type, its default (none when the key is required or part of the
coupling), its one-key rule and its meaning.  DEFAULTS, REQUIRED_KEYS and
the parser's key set are read from them.  The library values parse_config
builds as it checks a config (emitter, drive, broadening, grid, delta_range)
are the ones the commands read; --temp rebuilds none, --delta the emitter.
"""

import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property

from .core import DriveParams, EmitterParams, delta_from_field, dressed_states
from .spectrum import BroadeningModel, GridSpec, line_table, line_widths, lorentz_terms
from .sweep import SweepRange

__all__ = ["ConfigError", "RunConfig", "parse_config", "DEFAULTS", "DEFAULT_TEMPS", "REQUIRED_KEYS"]

# Largest npoints * sweep_steps a config may ask for: one (sweep_steps,
# npoints) float64 map buffer is then at most 134 MB.  The defaults ask for
# 241 * 7001 = 1.69M cells.
MAX_CELLS = 2**24

# The temperatures (K) of `tempseries` without --temps; parse_config checks the line widths at them too.
DEFAULT_TEMPS = (5.0, 20.0, 40.0)

# One-key rules: a test of the value and the end of the message "<key> ...".
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0.0, "must be non-negative")
_AT_LEAST_2 = (lambda v: v >= 2, "must be >= 2")


def _key(default=MISSING, rule=None, doc: str = "", required: bool = False):
    """One config key: its default, its one-key rule, and its meaning (the README's)."""
    return field(default=default, metadata={"rule": rule, "doc": doc, "required": required})


class ConfigError(ValueError):
    """Carries every violation found in one parse, formatted one per line."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully defaulted run parameters, and the library values built from them, each once on first read."""

    e_xd_ev: float = _key(required=True, doc="direct-exciton energy")
    hw_l_ev: float = _key(required=True, rule=_POSITIVE, doc="laser photon energy")
    t_ev: float = _key(
        required=True, rule=(lambda v: v >= 0.0, "must be non-negative (tunneling rate)"), doc="tunneling rate"
    )
    # The coupling: g_sqrt_n_ev alone, or g_ev with n.  parse_config checks them as a group.
    g_sqrt_n_ev: float = _key(doc="effective coupling g * sqrt(n)")
    n: int = _key(doc="photon number")
    g_ev: float = _key(doc="radiation-matter coupling")
    e0_ev: float = _key(0.0, doc="ground-configuration energy (energy zero)")
    delta_ev: float = _key(0.008, doc="exciton splitting E_XI - E_XD")
    mu: float = _key(1.0, _POSITIVE, doc="dipole scale (arbitrary luminosity units)")
    d_nm: float = _key(10.0, _POSITIVE, doc="interdot distance")
    field_kv_per_cm: float = _key(0.0, doc="bias field; nonzero replaces `delta_ev` by field tuning")
    delta_zero_field_ev: float = _key(0.008, doc="splitting at zero field (used with the field)")
    gamma0_ev: float = _key(75e-6, _POSITIVE, doc="zero-temperature population linewidth")
    a_ev_per_k: float = _key(22e-6, _NON_NEGATIVE, doc="acoustic-phonon coefficient")
    b_ev: float = _key(0.0, _NON_NEGATIVE, doc="optical-phonon coefficient (0 disables the term)")
    delta_e_ev: float = _key(36e-3, doc="optical-phonon activation energy")
    gamma_rad_ev: float = _key(75e-6, _POSITIVE, doc="pure radiative decay rate")
    temp_k: float = _key(0.0, (lambda v: v >= 0.0, "must be >= 0"), doc="temperature")
    dp_min_ev: float = _key(-0.35, doc="detuning grid bounds")
    dp_max_ev: float = _key(0.35, doc="detuning grid bounds")
    npoints: int = _key(7001, _AT_LEAST_2, doc="detuning grid size")
    sweep_lo: float = _key(0.0, doc="splitting sweep bounds")
    sweep_hi: float = _key(0.06, doc="splitting sweep bounds")
    sweep_steps: int = _key(241, _AT_LEAST_2, doc="splitting sweep size")

    @cached_property
    def emitter(self) -> EmitterParams:
        """The emitter at the commands' splitting: field tuning wins when a field is set."""
        delta = self.delta_ev
        if self.field_kv_per_cm != 0.0:
            delta = delta_from_field(self.delta_zero_field_ev, self.d_nm, self.field_kv_per_cm)
        return EmitterParams(e_xd=self.e_xd_ev, delta=delta, t=self.t_ev, mu=self.mu, e0=self.e0_ev)

    @cached_property
    def drive(self) -> DriveParams:
        return DriveParams(n=self.n, g=self.g_ev, hw_l=self.hw_l_ev)

    @cached_property
    def broadening(self) -> BroadeningModel:
        return BroadeningModel(gamma0=self.gamma0_ev, a_coef=self.a_ev_per_k, gamma_rad=self.gamma_rad_ev,
                               b_coef=self.b_ev, delta_e=self.delta_e_ev)

    @cached_property
    def grid(self) -> GridSpec:
        return GridSpec(dp_min=self.dp_min_ev, dp_max=self.dp_max_ev, npoints=self.npoints)

    @cached_property
    def delta_range(self) -> SweepRange:
        return SweepRange(lo=self.sweep_lo, hi=self.sweep_hi, steps=self.sweep_steps)

    @cached_property
    def _dressed(self) -> tuple:
        """Dressed energies and coeffs at the emitter's splitting (row 0), delta_ev, sweep_lo and sweep_hi."""
        return dressed_states(self.emitter, self.drive, [self.emitter.delta, self.delta_ev, self.sweep_lo, self.sweep_hi])

    def with_overrides(self, temp_k: float | None = None, delta_ev: float | None = None) -> "RunConfig":
        """This config with the flags' values, keeping its built values but the emitter's when --delta is given."""
        delta = {} if delta_ev is None else {"delta_ev": delta_ev, "field_kv_per_cm": 0.0}  # it bypasses field tuning
        cfg = replace(self, temp_k=self.temp_k if temp_k is None else temp_k, **delta)
        kept = vars(self).keys() - _TYPES.keys() - ({"emitter", "_dressed"} if delta else set())
        cfg.__dict__.update({name: vars(self)[name] for name in kept})  # cached_property's values, past the frozen setattr
        return cfg


_KEYS = fields(RunConfig)
_TYPES = {f.name: f.type for f in _KEYS}
_RULES = [(f.name, *f.metadata["rule"]) for f in _KEYS if f.metadata["rule"]]

# Keys with built-in defaults.  The required keys (below) and the coupling have none.
DEFAULTS: dict[str, float | int] = {f.name: f.default for f in _KEYS if f.default is not MISSING}

REQUIRED_KEYS = tuple(f.name for f in _KEYS if f.metadata["required"])

# The keys the line widths read; a width that fails names the first of them the text sets.
_WIDTH_KEYS = ("temp_k", "gamma0_ev", "a_ev_per_k", "b_ev", "delta_e_ev", "gamma_rad_ev")
# The keys whose magnitudes the line positions and their denominators read, in the order that breaks ties.
_SIZED_KEYS = (
    "hw_l_ev", "delta_ev", "sweep_lo", "sweep_hi", "delta_zero_field_ev", "g_sqrt_n_ev", "g_ev", "t_ev",
    "dp_min_ev", "dp_max_ev", "gamma0_ev", "gamma_rad_ev",
)


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
        kind = _TYPES.get(key)
        if kind is None:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            number = kind(value)
        except ValueError:
            problems.append(
                f"line {lineno}: {key} must be an integer, got {value!r}"
                if kind is int
                else f"line {lineno}: malformed number {value!r} for {key}"
            )
            continue
        if kind is float and not math.isfinite(number):
            problems.append(f"line {lineno}: {key} must be finite, got {value!r}")
            continue
        raw[key] = number
        lines[key] = lineno
    return raw, lines, problems


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration, reporting all violations at once."""
    raw, lines, problems = _parse_lines(text)

    def where(*keys: str) -> str:  # the line of the first of keys that the text sets
        return next((f"line {lines[key]}: " for key in keys if key in lines), "")

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
            g, n = raw["g_ev"], raw["n"]
            if g < 0.0:
                problems.append(f"{where('g_ev')}g_ev must be non-negative")
            if n < 1:
                problems.append(f"{where('n')}n must be >= 1")
            # An n beyond the largest float has no sqrt; compare before taking it.
            elif n > sys.float_info.max or not math.isfinite(g * math.sqrt(n)):
                problems.append(f"{where('n')}g_ev * sqrt(n) overflows (g_ev on line {lines['g_ev']})")
    else:
        problems.append("missing coupling: give g_sqrt_n_ev, or g_ev together with n")

    for key, test, rule in _RULES:
        if key in raw and not test(raw[key]):
            problems.append(f"{where(key)}{key} {rule}")

    values: dict[str, float | int] = {**DEFAULTS, **raw}
    if values["b_ev"] > 0.0 and not values["delta_e_ev"] > 0.0:
        problems.append(f"{where('delta_e_ev')}delta_e_ev must be positive when b_ev > 0")
    for lo, hi in (("dp_min_ev", "dp_max_ev"), ("sweep_lo", "sweep_hi")):
        # The defaults pass both checks, so a failing pair has a bound set in the text.
        if not values[lo] < values[hi]:
            problems.append(f"{where(lo, hi)}need {lo} < {hi}")
    npoints, steps = values["npoints"], values["sweep_steps"]
    if npoints >= 2 and steps >= 2 and npoints * steps > MAX_CELLS:
        try:
            product = f"{npoints} * {steps} = {npoints * steps}"
        except ValueError:  # the product has more digits than int-to-str conversion allows
            product = f"{npoints} * {steps}"
        problems.append(
            f"{where('npoints', 'sweep_steps')}npoints * sweep_steps = {product} "
            f"exceeds the cell budget of {MAX_CELLS}"
        )

    if problems:
        raise ConfigError(problems)

    if has_direct:
        values.update(n=1, g_ev=values["g_sqrt_n_ev"])
    else:
        values["g_sqrt_n_ev"] = values["g_ev"] * math.sqrt(values["n"])
    cfg = RunConfig(**{key: kind(values[key]) for key, kind in _TYPES.items()})

    # Build the values the commands read, and run their library code at the config's extremes; a
    # stage's ValueError is one problem, on the line of a key the stage reads.  The extremes bound
    # every row a command computes: the dressed-energy spread is convex in the splitting, so the
    # sweep's ends bound its rows; the lines come in +- pairs, so the grid's ends bound every
    # denominator; and each luminosity is at most mu * mu, which bounds every peak height.  The
    # widths are those at temp_k and at tempseries' default temperatures, checked at every splitting.
    def stage(keys, compute):
        try:
            return compute()
        except ValueError as exc:
            problems.append(f"{where(*keys)}{exc}")

    emitter = stage(["field_kv_per_cm"], lambda: cfg.emitter)
    built = emitter, stage(["dp_min_ev", "dp_max_ev"], lambda: cfg.grid), stage(["sweep_lo", "sweep_hi"], lambda: cfg.delta_range)
    f = stage(_WIDTH_KEYS, lambda: line_widths(cfg.broadening, [cfg.temp_k, *DEFAULT_TEMPS]))
    widths = 1.0 if f is None else f  # widths that overflow are reported above; unit widths check the rest
    if None not in built:
        # The lines and their denominators name the set key of the largest magnitude they read (ties: the first).
        sizes = {key: abs(getattr(cfg, key)) for key in _SIZED_KEYS}
        sizes.update(hw_l_ev=abs(cfg.hw_l_ev + cfg.e0_ev - cfg.e_xd_ev), delta_zero_field_ev=abs(emitter.delta),
                     g_ev=cfg.g_sqrt_n_ev)
        largest = sorted(sizes, key=sizes.get, reverse=True)  # a stable sort
        # The positions at unit mu: mu only scales the luminosities, whose bound is checked below.
        table = stage(largest, lambda: line_table(*cfg._dressed, 1.0))
        if table is not None:
            stage(largest, lambda: lorentz_terms(table[0][:, None], 0.0, widths, (cfg.dp_min_ev, cfg.dp_max_ev)))
    stage(["mu", *_WIDTH_KEYS], lambda: lorentz_terms(0.0, cfg.mu * cfg.mu, widths))
    if problems:
        raise ConfigError(problems)
    return cfg
