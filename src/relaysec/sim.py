"""Monte Carlo engine: seeded trials on lockstep lanes, SNR/eta sweeps, CSV
emission.

Determinism contract: every random draw is keyed by (seed, stream, trial,
slot) through :func:`relaysec.channel.substream`, trials are aggregated in
trial-index order, and no timestamps enter the outputs, so a sweep produces
byte-identical files across reruns and across worker counts.

The engine runs the slot sequences of one policy, its lanes, together on
(B, ...) stacks (see :mod:`relaysec.selection`).  A lane is a trial or a
calibration pre-run with its own streams, noise variance, power split and
threshold, and it gives the same numbers in any batch, alone included.  One
routine, :func:`_run_cells`, runs a sweep at every worker count: each
policy's calibration pre-runs, then each cell's trials, as lane batches
split into ``workers`` chunks of at most ``_MAX_LANES`` lanes; only the
``map`` it is handed differs.

The printed rate formulas carry an implicit unit noise floor, so all powers
passed into the matrix-rate builders are divided by the one noise variance
sigma^2 that every receiving node (relay, user, eavesdropper) sees; each
sweep cell sets it from its SNR as sigma^2 = P / 10^(SNR/10).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import statistics
import struct
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from ._version import __version__
from .channel import (STREAM_CALIBRATION, STREAM_CHANNEL, STREAM_POLICY,
                      gen_network_realization, substream)
from .config import SystemConfig
from .errors import ConfigError, NumericError
from .rates import RateReport
# slot_rate_report is not called here; relaysec.sim.slot_rate_report stays a
# name that bench/tracing.py wraps
from .selection import (LANE_STEPS, POLICIES, DiagCounters, Lanes, fresh_state,
                        lane_rates, slot_rate_report)  # noqa: F401

POLICY_ORDER = tuple(POLICIES)

_CALIBRATION_SLOTS = 200
# lanes per batch, which bounds a batch's arrays; an oracle lane counts once
# per jam set it scores
_MAX_LANES = 256
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SweepSpec:
    """Grid of sweep cells: every policy at every (SNR, eta) pair."""

    policies: tuple
    snr_db_grid: tuple = (0.0, 5.0, 10.0, 15.0, 20.0)
    eta_grid: tuple = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75)
    trials: int = 2000
    slots_per_trial: int = 50
    workers: int = 1

    def __post_init__(self):
        if not self.policies:
            raise ConfigError("policy list must be nonempty")
        for name in self.policies:
            if name not in POLICIES:
                raise ConfigError(
                    f"unknown policy {name!r}; choose from {sorted(POLICIES)}")
        if not self.snr_db_grid or not self.eta_grid:
            raise ConfigError("snr and eta grids must be nonempty")
        for snr_db in self.snr_db_grid:
            if not math.isfinite(snr_db):
                raise ConfigError(f"snr grid value {snr_db} dB is not finite")
        for eta in self.eta_grid:
            if not (0.0 <= eta <= 2.0):
                raise ConfigError(f"eta grid value {eta} outside [0, 2]")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.slots_per_trial < 1:
            raise ConfigError("slots_per_trial must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass(frozen=True)
class CellResult:
    policy: str
    snr_db: float
    eta: float
    mean_secrecy_rate: float
    std: float
    ci95: float | None          # None when trials == 1 (written as "na")
    trials: int
    clamp_events: int
    iri_feasible_frac: float
    silent_transmitter_events: int
    sinr_threshold: float


@dataclass(frozen=True)
class SecrecyReport:
    cells: tuple
    config: SystemConfig
    sweep: SweepSpec


def _float_key(x: float) -> int:
    """Stable 64-bit key for a float, for content-addressed RNG substreams."""
    return int.from_bytes(struct.pack("<d", float(x)), "little")


def _stream_keys(policy: str, config: SystemConfig, trial, slot: int) -> tuple:
    """The (channel, policy) substream keys of a lane's slot: keyed by
    (trial, slot) for a trial, by (policy, sigma2, eta, slot) for a
    calibration pre-run (trial None)."""
    if trial is None:
        key = (STREAM_CALIBRATION, POLICY_ORDER.index(policy),
               _float_key(config.sigma2), _float_key(config.eta), slot)
        return key + (0,), key + (1,)
    return (STREAM_CHANNEL, trial, slot), (STREAM_POLICY, trial, slot)


def _lockstep(policy: str, configs, trials, slots: int, score: bool = True):
    """Run lanes of one policy in lockstep and yield (outcome, state, rates)
    after each slot.

    Lane b runs ``configs[b]`` (they may differ only in eta, sigma2 and
    sinr_threshold) as trial ``trials[b]``, or as a calibration pre-run where
    that is None.  ``rates`` is what :func:`~relaysec.selection.lane_rates`
    returns, or None unless ``score``.
    """
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}")
    step = LANE_STEPS[policy]
    lanes = Lanes.of(configs)
    config = lanes.config
    state = fresh_state(config, len(configs))
    for slot in range(slots):
        keys = [_stream_keys(policy, cfg, trial, slot)
                for cfg, trial in zip(configs, trials)]
        realization = gen_network_realization(
            config, slot, [substream(config.seed, *channel) for channel, _ in keys])
        rngs = ([substream(config.seed, *drawn) for _, drawn in keys]
                if policy == "random" else None)
        outcome = step(state, realization, lanes, rngs)
        rates = None
        if score:
            rates = lane_rates(realization, lanes, outcome.replays,
                               outcome.jammers, outcome.transmitters)
            state.diag.clamp_events += rates[3]
        yield outcome, state, rates


def _scored_slots(policy: str, config: SystemConfig, trials, slots: int):
    """Yield (slot, rates, state) of trial lanes of one cell.  A
    NumericError names the policy, the first failing trial and its slot."""
    slot = 0
    try:
        for _, state, rates in _lockstep(policy, [config] * len(trials), trials,
                                         slots):
            yield slot, rates, state
            slot += 1
    except NumericError as exc:
        if len(trials) == 1:
            raise NumericError(
                f"policy {policy!r} trial {trials[0]} slot {slot}: {exc}") from exc
        for trial in trials:    # alone, a lane fails where it fails in a batch
            for _ in _scored_slots(policy, config, (trial,), slots):
                pass
        raise


def run_trial(config: SystemConfig, policy: str, trial_index: int,
              slots: int) -> list:
    """Per-slot RateReports of one trial of ``slots`` slots; a pure function
    of (config, policy, trial_index, slots) including the root seed inside
    the config."""
    return [RateReport(user_rates=tuple(user[0].tolist()),
                       eav_rates=tuple(eav[0].tolist()),
                       secrecy_rate=float(secrecy[0]))
            for _, (user, eav, secrecy, _), _ in _scored_slots(
                policy, config, (trial_index,), slots)]


def _trial_lanes(config: SystemConfig, policy: str, trials, slots: int) -> list:
    """(mean secrecy rate over the retained slots, DiagCounters) of each of
    ``trials`` of one sweep cell, run as the lanes of one batch."""
    total = 0.0
    for slot, (_, _, secrecy, _), state in _scored_slots(policy, config, trials,
                                                         slots):
        if slot >= config.warmup_slots:
            total = total + secrecy
    means = total / (slots - config.warmup_slots)
    diag = state.diag
    return [(mean, DiagCounters(**{f.name: int(getattr(diag, f.name)[b])
                                   for f in dataclasses.fields(DiagCounters)}))
            for b, mean in enumerate(means.tolist())]


def _calibrate_lanes(policy: str, configs) -> list:
    """The :func:`calibrate_threshold` of each of ``configs``, cells of one
    policy whose pre-runs run as the lanes of one batch."""
    pre_runs = [cfg.replace(sinr_threshold=0.0) for cfg in configs]
    stored, received = [], []
    for outcome, _, _ in _lockstep(policy, pre_runs, (None,) * len(pre_runs),
                                   _CALIBRATION_SLOTS, score=False):
        stored.append(outcome.sinr)
        received.append(outcome.receivers)
    stored, received = np.stack(stored, axis=1), np.stack(received, axis=1)
    return [float(statistics.median(sinrs[mask].tolist())) if mask.any() else 0.0
            for sinrs, mask in zip(stored, received)]


def calibrate_threshold(config: SystemConfig, policy: str) -> float:
    """Median relay reception SINR over a seeded calibration pre-run.

    The pre-run executes the cell's own policy and settings for 200 slots
    with classification disabled (threshold 0), on a dedicated RNG stream
    keyed by (seed, policy, SNR, eta) so the result is independent of which
    other cells appear in a sweep.
    """
    return _calibrate_lanes(policy, [config])[0]


def _chunks(items, workers: int, cap: int) -> list:
    """``items`` split into max(workers, ceil(len / cap)) contiguous chunks
    of near-equal size, or one per item when there are fewer."""
    n = min(len(items), max(workers, -(-len(items) // cap)))
    return [items[len(items) * i // n:len(items) * (i + 1) // n] for i in range(n)]


def _lane_cap(config: SystemConfig, policy: str) -> int:
    sets = math.comb(config.Q, config.K) if policy == "oracle" else 1
    return max(1, _MAX_LANES // sets)


def _run_cell(rows, cell_cfg: SystemConfig, policy: str, snr_db: float,
              eta: float) -> CellResult:
    """Aggregate a cell's trial rows, (mean, DiagCounters) in trial-index
    order, into its CellResult; the DiagCounters fields are summed by name."""
    trials = len(rows)
    means = np.array([mean for mean, _ in rows])
    diag = DiagCounters(**{f.name: sum(getattr(d, f.name) for _, d in rows)
                           for f in dataclasses.fields(DiagCounters)})
    mean = float(np.mean(means))
    if trials > 1:
        std = float(np.std(means, ddof=1))
        ci95 = _Z95 * std / np.sqrt(trials)
    else:
        std, ci95 = 0.0, None
    return CellResult(
        policy=policy, snr_db=snr_db, eta=eta, mean_secrecy_rate=mean,
        std=std, ci95=ci95, trials=trials, clamp_events=diag.clamp_events,
        iri_feasible_frac=(diag.phi_feasible / diag.phi_tests
                           if diag.phi_tests else 0.0),
        silent_transmitter_events=diag.silent_transmitters,
        sinr_threshold=cell_cfg.sinr_threshold)


def _run_cells(map_, cells: list, sweep: SweepSpec) -> list:
    """Run every cell through ``map_`` (``pool.map``, or the builtin ``map``
    in process) as lane batches: first each policy's calibration pre-runs of
    its auto-threshold cells, in cell order, then each cell's trials once its
    threshold is known; rows are read back once every cell is mapped."""
    auto = {}
    for policy, _, _, cfg in cells:
        if cfg.sinr_threshold is None:
            auto.setdefault(policy, []).append(cfg)
    batches = [(policy, chunk) for policy, cfgs in auto.items()
               for chunk in _chunks(cfgs, sweep.workers, _lane_cap(cfgs[0], policy))]
    thresholds = chain.from_iterable(map_(
        _calibrate_lanes, [policy for policy, _ in batches],
        [chunk for _, chunk in batches]))
    mapped = []
    for policy, snr_db, eta, cfg in cells:
        if cfg.sinr_threshold is None:
            cfg = cfg.replace(sinr_threshold=next(thresholds))
        trials = _chunks(range(sweep.trials), sweep.workers, _lane_cap(cfg, policy))
        rows = map_(_trial_lanes, repeat(cfg), repeat(policy), trials,
                    repeat(sweep.slots_per_trial))
        mapped.append((rows, cfg, policy, snr_db, eta))
    return [_run_cell([row for batch in rows for row in batch], *cell)
            for rows, *cell in mapped]


def monte_carlo(config: SystemConfig, sweep: SweepSpec) -> SecrecyReport:
    """Run every sweep cell and aggregate trial-mean secrecy rates.

    Cells are independent: each derives its RNG streams and its calibrated
    threshold from (seed, policy, SNR, eta) alone, so adding or removing grid
    points does not change the numbers of the remaining cells.  Every sweep
    runs through :func:`_run_cells`, which maps all calibration pre-runs
    before any trial: in this process at ``sweep.workers == 1``, on one pool
    of N processes at N > 1.  The outputs are bit-identical for any N.  An
    error in a pooled task is raised here when its result is read back, and
    the work still queued in the pool is cancelled, not run.
    """
    if not 0 <= config.warmup_slots < sweep.slots_per_trial:
        raise ConfigError(
            f"warmup_slots must lie in [0, slots_per_trial), got "
            f"warmup_slots={config.warmup_slots}, "
            f"slots_per_trial={sweep.slots_per_trial}")
    cells = [(policy, snr_db, eta, config.replace(eta=eta).with_snr_db(snr_db))
             for policy in sweep.policies
             for snr_db in sweep.snr_db_grid
             for eta in sweep.eta_grid]
    if sweep.workers == 1:
        results = _run_cells(map, cells, sweep)
    else:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=sweep.workers)
        try:
            results = _run_cells(pool.map, cells, sweep)
        finally:
            pool.shutdown(cancel_futures=True)
    return SecrecyReport(cells=tuple(results), config=config, sweep=sweep)


CSV_HEADER = ("policy,snr_db,eta,mean_secrecy_rate,std,ci95,trials,"
              "clamp_events,iri_feasible_frac")


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def emit_results(report: SecrecyReport, path) -> None:
    """Write the per-cell CSV plus a ``<path>.manifest`` key-value file
    recording config, sweep, seed, calibrated thresholds, and code version.
    Both files are byte-deterministic for a given (config, sweep)."""
    lines = [CSV_HEADER]
    for cell in report.cells:
        ci = "na" if cell.ci95 is None else _fmt(cell.ci95)
        lines.append(",".join([
            cell.policy, _fmt(cell.snr_db), _fmt(cell.eta),
            _fmt(cell.mean_secrecy_rate), _fmt(cell.std), ci,
            str(cell.trials), str(cell.clamp_events),
            _fmt(cell.iri_feasible_frac)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    manifest = [f"version = {__version__}"]
    for name in ("N_t", "N_r", "N_e", "N_i", "N_k", "M", "N", "Q", "T", "K",
                 "P", "gamma0", "buffer_capacity", "warmup_slots", "seed",
                 "iri_cancellation", "consume_on_jam", "worst_sinr_seeding",
                 "selection_noise_floor", "rate_unit"):
        manifest.append(f"{name} = {getattr(report.config, name)}")
    manifest.append(f"sinr_threshold = "
                    f"{'auto' if report.config.sinr_threshold is None else report.config.sinr_threshold}")
    manifest.append(f"policies = {','.join(report.sweep.policies)}")
    manifest.append(f"snr_db_grid = {','.join(map(_fmt, report.sweep.snr_db_grid))}")
    manifest.append(f"eta_grid = {','.join(map(_fmt, report.sweep.eta_grid))}")
    manifest.append(f"trials = {report.sweep.trials}")
    manifest.append(f"slots_per_trial = {report.sweep.slots_per_trial}")
    for cell in report.cells:
        manifest.append(
            f"threshold.{cell.policy}.snr{_fmt(cell.snr_db)}.eta{_fmt(cell.eta)}"
            f" = {_fmt(cell.sinr_threshold)}")
    with open(str(path) + ".manifest", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(manifest) + "\n")
