"""Monte Carlo simulator for secrecy rates in buffer-aided MIMO relay
networks with joint relay/jammer function selection."""

from ._version import __version__
from .buffers import BufferedSignal, RelayBuffer, SignalClass, classify_signal
from .channel import gen_channel, gen_network_realization, gram, received_power
from .config import SystemConfig, load_config, parse_config, power_split
from .errors import ConfigError, NumericError
from .rates import RateReport, secrecy_rate
from .selection import POLICIES, PolicyState, SelectionOutcome, bf_rjfs_step, fresh_state
from .sim import SecrecyReport, SweepSpec, emit_results, monte_carlo, run_trial

__all__ = [
    "__version__",
    "BufferedSignal", "RelayBuffer", "SignalClass", "classify_signal",
    "gen_channel", "gen_network_realization", "gram", "received_power",
    "SystemConfig", "load_config", "parse_config", "power_split",
    "ConfigError", "NumericError",
    "RateReport", "secrecy_rate",
    "POLICIES", "PolicyState", "SelectionOutcome", "bf_rjfs_step", "fresh_state",
    "SecrecyReport", "SweepSpec", "emit_results",
    "monte_carlo", "run_trial",
]
