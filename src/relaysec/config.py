"""Scenario configuration.

All scenario scalars live in a single frozen dataclass so that a simulation
cell (one policy at one SNR and one power split) is a pure function of the
config plus the root seed.  Field names double as the keys of the flat
key-value config file format understood by :func:`load_config`, except the
sweep axes ``eta`` and ``sigma2``, which every sweep cell sets itself.  The
trial and slot counts are sweep settings too (:class:`relaysec.sim.SweepSpec`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError

_MAX_SEED = 2**64


@dataclass(frozen=True)
class SystemConfig:
    """All scenario scalars for one network setup.

    The defaults describe the standard evaluation scenario: a 6-antenna
    transmitter serving 3 users, overheard by 3 eavesdroppers, assisted by a
    poll of 6 buffer-aided relays of which 3 receive and 3 transmit/jam per
    slot, every relay/user/eavesdropper node carrying 2 antennas.

    ``sinr_threshold = None`` means "calibrate automatically": the Monte
    Carlo driver runs a short seeded pre-run per sweep cell and uses the
    median relay reception SINR as the forward/jam classification threshold.
    """

    # antennas
    N_t: int = 6   # transmitter
    N_r: int = 2   # per user
    N_e: int = 2   # per eavesdropper
    N_i: int = 2   # per relay (receive side)
    N_k: int = 2   # per relay (transmit side)
    # node counts
    M: int = 3     # users
    N: int = 3     # eavesdroppers
    Q: int = 6     # relay poll size
    T: int = 3     # receiving relays per slot
    K: int = 3     # jamming/transmitting relays per slot
    # powers and noise (linear scale)
    P: float = 1.0
    eta: float = 1.0          # transmitter gets eta*P, relays share (2-eta)*P
    sigma2: float = 1.0       # noise variance at every receiving node
    # thresholds
    gamma0: float = 1.0               # IRI-cancellation decodability threshold
    sinr_threshold: float | None = None   # None -> auto-calibrated per cell
    # buffering and rate averaging
    buffer_capacity: int = 8
    warmup_slots: int = 5     # leading slots of a trial dropped from rate averages
    seed: int = 1
    # behaviour switches
    iri_cancellation: bool = True      # attempt IRI cancellation at receivers
    consume_on_jam: bool = False       # jamming replay removes the record
    worst_sinr_seeding: bool = False   # seed slot-0 jammers from ranking bottom
    selection_noise_floor: bool = False  # add N_i*sigma2*I to receive metric
    rate_unit: str = "bits"            # "bits" (log2) or "nats" (ln)

    def __post_init__(self):
        for name in ("N_t", "N_r", "N_e", "N_i", "N_k", "M", "N", "Q", "T",
                     "buffer_capacity"):
            if int(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.K < 0:
            raise ConfigError(f"K must be >= 0, got {self.K}")
        if self.T + self.K > self.Q:
            raise ConfigError(
                f"need T + K <= Q, got T={self.T}, K={self.K}, Q={self.Q}")
        if self.N_r != self.N_i:
            raise ConfigError(
                f"N_r must equal N_i for the user-rate matrix product to be "
                f"defined, got N_r={self.N_r}, N_i={self.N_i}")
        if self.N_k != self.N_i:
            raise ConfigError(
                f"every policy replays buffered snapshots through the relays' "
                f"transmit antennas, which needs N_k == N_i, got N_k={self.N_k}, "
                f"N_i={self.N_i}")
        if self.K > 0 and self.N_e != self.N_i:
            raise ConfigError(
                f"with jamming relays (K > 0) the eavesdropper interference "
                f"product needs N_e == N_i, got N_e={self.N_e}, N_i={self.N_i}")
        if not 0 < self.P < math.inf:
            raise ConfigError(f"P must be finite and > 0, got {self.P}")
        if not (0.0 <= self.eta <= 2.0):
            raise ConfigError(f"eta must lie in [0, 2], got {self.eta}")
        if not math.isfinite(max(self.eta, 2.0 - self.eta) * self.P):
            raise ConfigError(f"the power split eta*P, (2-eta)*P overflows, got "
                              f"eta={self.eta}, P={self.P}")
        for name in ("sigma2", "gamma0"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(
                    f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.sinr_threshold is not None:
            if math.isnan(self.sinr_threshold) or self.sinr_threshold < 0:
                raise ConfigError(
                    f"sinr_threshold must be >= 0 or None, got {self.sinr_threshold}")
        if self.warmup_slots < 0:
            raise ConfigError(f"warmup_slots must be >= 0, got {self.warmup_slots}")
        if not (0 <= self.seed < _MAX_SEED):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.rate_unit not in ("bits", "nats"):
            raise ConfigError(f"rate_unit must be 'bits' or 'nats', got {self.rate_unit!r}")

    @property
    def log_base(self) -> float:
        return 2.0 if self.rate_unit == "bits" else math.e

    def replace(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)

    def single_antenna(self) -> "SystemConfig":
        """Variant with one antenna at every node, all else unchanged."""
        return self.replace(N_t=1, N_r=1, N_e=1, N_i=1, N_k=1)

    def with_snr_db(self, snr_db: float) -> "SystemConfig":
        """Set the noise variance so that P/sigma^2 equals ``snr_db``; raises
        ConfigError when that variance is not finite and positive."""
        try:
            s2 = self.P / 10.0 ** (snr_db / 10.0)
        except (OverflowError, ZeroDivisionError):
            s2 = math.nan
        if not 0 < s2 < math.inf:
            raise ConfigError(
                f"SNR {snr_db} dB gives a noise variance P/10^(SNR/10) that is "
                f"not finite and positive")
        return self.replace(sigma2=s2)


def power_split(config: SystemConfig) -> tuple[float, float]:
    """Transmitter power eta*P and the per-relay share of the remaining
    (2-eta)*P, split equally over the K jamming/transmitting relays.

    Silent relays (empty buffers) keep their nominal share unused; every
    policy's transmitting relays radiate the same per-relay power so that
    curves are power-fair across policies.
    """
    tx = config.eta * config.P
    relay_each = ((2.0 - config.eta) * config.P / config.K) if config.K > 0 else 0.0
    return tx, relay_each


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SystemConfig)}
_SWEEP_KEYS = {"eta": "--eta", "sigma2": "--snr", "trials": "--trials",
               "slots": "--slots"}


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r}: expected a boolean, got {raw!r}")
    if kind == "str":
        return raw
    if kind.endswith("| None") and raw.lower() in ("auto", "none"):
        return None
    try:
        return int(raw) if kind == "int" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc


def parse_config(text: str) -> SystemConfig:
    """Parse the flat ``key = value`` config format.

    Blank lines and ``#`` comments are ignored.  Unknown keys, and the sweep
    settings ``eta``, ``sigma2``, ``trials`` and ``slots`` (set by ``--eta``,
    ``--snr``, ``--trials`` and ``--slots``), are rejected.
    """
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in _SWEEP_KEYS:
            raise ConfigError(
                f"config key {key!r} (line {lineno}) is a sweep setting; "
                f"use {_SWEEP_KEYS[key]}")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        if key in overrides:
            raise ConfigError(f"duplicate config key {key!r} (line {lineno})")
        overrides[key] = _parse_value(key, raw)
    return SystemConfig(**overrides)


def load_config(path) -> SystemConfig:
    """:func:`parse_config` of the UTF-8 file ``path``, which may start with
    a byte-order mark; raises ConfigError on bytes that are not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                          f"offset {exc.start}") from exc
    return parse_config(text)
