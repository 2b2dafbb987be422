"""Monte Carlo simulator for secrecy rates in buffer-aided MIMO relay
networks with joint relay/jammer function selection."""

from ._version import __version__
from .config import SystemConfig, load_config, parse_config
from .errors import ConfigError, NumericError
from .sim import SecrecyReport, SweepSpec, emit_results, monte_carlo

__all__ = [
    "__version__",
    "SystemConfig", "load_config", "parse_config",
    "ConfigError", "NumericError",
    "SecrecyReport", "SweepSpec", "emit_results", "monte_carlo",
]
