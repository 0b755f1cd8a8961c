"""Resonance-fluorescence simulator for a laser-driven double-quantum-dot
molecule: dressed states, allowed transitions, phonon-broadened Lorentzian
spectra, and parameter sweeps."""

from . import core, spectrum, sweep
from .core import *  # noqa: F403
from .spectrum import *  # noqa: F403
from .sweep import *  # noqa: F403
from .config import ConfigError, RunConfig, parse_config

__version__ = "0.1.0"

__all__ = [*core.__all__, *spectrum.__all__, *sweep.__all__, "RunConfig", "ConfigError", "parse_config", "__version__"]
