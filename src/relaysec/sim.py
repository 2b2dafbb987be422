"""Monte Carlo engine: seeded trials on lockstep lanes, SNR/eta sweeps, CSV
emission.

Determinism contract: every random draw is keyed by (seed, stream, trial,
slot) through :func:`relaysec.channel.substream`, trials are aggregated in
trial-index order, and no timestamps enter the outputs, so a sweep produces
byte-identical files across reruns and across worker counts.

The engine runs the slot sequences of a task, its lanes, together on
(B, ...) stacks as one lane set (see :mod:`relaysec.selection`).  A lane is
a trial of a cell or a calibration pre-run with its own noise variance,
power split and threshold, and it gives the same numbers in any lane set,
alone included.  Each policy's step picks the roles of each contiguous run
of its lanes; one serve and one rate report per slot then cover every
lane of every policy.  A channel realization depends only on (seed, trial,
slot) and the antenna shapes, so every cell of a sweep runs trial t on the
same draws: each slot draws once per trial and every cell's lane of that
trial reads it.  One routine, :func:`_run_cells`, runs a sweep at every
worker count: the calibration pre-runs first, then the trials in contiguous
chunks, each chunk one task that runs every cell as one lane set; only the
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
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, repeat

import numpy as np

from ._version import __version__
from .channel import (STREAM_CALIBRATION, STREAM_CHANNEL, STREAM_POLICY,
                      gen_network_realization, substream)
from .config import SystemConfig
from .errors import ConfigError, NumericError
from .rates import RateReport
# slot_rate_report is not called here; relaysec.sim.slot_rate_report stays a
# name that bench/tracing.py wraps
from .selection import (JAMMING_POLICIES, LANE_STEPS, POLICIES, DiagCounters,
                        Lanes, PolicyState, _serve, fresh_state, lane_rates,
                        slot_rate_report)  # noqa: F401

POLICY_ORDER = tuple(POLICIES)

_CALIBRATION_SLOTS = 200
# lanes of one policy in a task, which bounds the arrays of the policy's step
# (the oracle's (B, S, ...) jam-set stacks stay per policy); an oracle lane
# counts once per jam set it scores.  A task's lane set, which the serve and
# the rate report cover at once, holds up to this many lanes of each of its
# policies.  A trial task holds at least one trial of each cell, so a policy
# with more cells than this runs one lane per cell.
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
        # a repeated policy or grid key would repeat a CSV row and its
        # manifest key
        for name, keys in (("policy list", self.policies),
                           ("snr grid", [_fmt(x) for x in self.snr_db_grid]),
                           ("eta grid", [_fmt(x) for x in self.eta_grid])):
            if len(set(keys)) < len(keys):
                raise ConfigError(f"{name} repeats a value: {','.join(keys)}")
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


def _lockstep(lanes, slots: int, each, score: bool = True) -> PolicyState:
    """Run ``lanes`` in lockstep as one lane set, hand each slot's
    (outcome, state, rates) to ``each``, and return the final state.

    A lane is (policy, config, trial): it runs ``config`` (the lanes' configs
    may differ only in eta, sigma2 and sinr_threshold) as trial ``trial``,
    or as a calibration pre-run where that is None.  All lanes share the
    shape fields and the seed.  The lane set holds the lanes in list order,
    and each maximal run of one policy is a range whose policy picks that
    range's roles; one serve covers every lane, and so does
    :func:`~relaysec.selection.lane_rates`, whose result is ``rates``, or
    None unless ``score``.  Each slot draws every distinct channel stream and
    every distinct policy stream of its lanes once, so every lane of a trial
    runs on one shared realization and every ``random`` lane of it on one
    permutation.  Once ``each`` returns, only the state's last slot keeps the
    slot's outcome, until the next slot's serve replaces it.
    """
    configs = [config for _, config, _ in lanes]
    lane_set, state = Lanes.of(configs), fresh_state(configs[0], len(configs))
    jamming = np.array([policy in JAMMING_POLICIES for policy, _, _ in lanes])
    ranges, start = [], 0
    for policy, run in groupby(policy for policy, _, _ in lanes):
        if policy not in POLICIES:
            raise ConfigError(f"unknown policy {policy!r}")
        at = slice(start, start + len(list(run)))
        # a range's state views the set's arrays, which stay put
        ranges.append((LANE_STEPS[policy], at, state.index_lanes(at),
                       Lanes.of(configs[at]), policy == "random"))
        start = at.stop
    config = configs[0]
    for slot in range(slots):
        keys = [_stream_keys(policy, cfg, trial, slot) for policy, cfg, trial in lanes]
        streams = {}        # channel key -> lane of the slot's draw
        rows = [streams.setdefault(channel, len(streams)) for channel, _ in keys]
        drawn = gen_network_realization(
            config, slot, [substream(config.seed, *key) for key in streams])
        realization = (drawn if rows == list(range(len(streams)))
                       else drawn.index_lanes(rows))
        receivers = np.zeros((len(configs), config.Q), dtype=bool)
        transmitters = np.zeros_like(receivers)
        for step, at, part, part_lanes, draws in ranges:
            rngs = None
            if draws:
                drawn_keys = [key for _, key in keys[at]]
                generators = {key: substream(config.seed, *key)
                              for key in dict.fromkeys(drawn_keys)}
                rngs = [generators[key] for key in drawn_keys]
            receivers[at], transmitters[at], _ = step(
                dataclasses.replace(part, last_slot=state.last_slot),
                realization if len(ranges) == 1 else realization.index_lanes(at),
                part_lanes, rngs)
        outcome = _serve(state, realization, lane_set, receivers, transmitters,
                         jamming)
        rates = None
        if score:
            rates = lane_rates(realization, lane_set, outcome)
            state.diag.clamp_events += rates[3]
        each(outcome, state, rates)
        # only the state's last slot keeps the outcome through the next draw
        del outcome, rates
    return state


def _lane(policy: str, config: SystemConfig, trial: int, slots: int) -> list:
    """The rates of each slot of one trial lane run alone.  A NumericError
    names the policy, the trial and the slot."""
    scored = []
    try:
        _lockstep([(policy, config, trial)], slots,
                  lambda outcome, state, rates: scored.append(rates))
    except NumericError as exc:
        raise NumericError(
            f"policy {policy!r} trial {trial} slot {len(scored)}: {exc}") from exc
    return scored


def run_trial(config: SystemConfig, policy: str, trial_index: int,
              slots: int) -> list:
    """Per-slot RateReports of one trial of ``slots`` slots; a pure function
    of (config, policy, trial_index, slots) including the root seed inside
    the config."""
    return [RateReport(user_rates=tuple(user[0].tolist()),
                       eav_rates=tuple(eav[0].tolist()),
                       secrecy_rate=float(secrecy[0]))
            for user, eav, secrecy, _ in _lane(policy, config, trial_index,
                                               slots)]


def _trial_chunk(cells, trials, slots: int) -> list:
    """(mean secrecy rate over the retained slots of each of ``trials``,
    DiagCounters summed over them) of each of ``cells``, (policy, config)
    pairs of one sweep with resolved thresholds.

    Every cell runs in one lane set, cell-major, on the slot's one draw per
    trial.  A NumericError names the failing lane with the smallest trial
    index, ties going to cell order."""
    secrecy = []
    try:
        state = _lockstep([(policy, config, trial) for policy, config in cells
                           for trial in trials], slots,
                          lambda outcome, state, rates: secrecy.append(rates[2]))
    except NumericError:
        # alone, a lane fails where it fails in a lane set
        for trial in trials:
            for policy, config in cells:
                _lane(policy, config, trial, slots)
        raise
    warmup = cells[0][1].warmup_slots
    means = (sum(secrecy[warmup:], 0.0) / (slots - warmup)).reshape(len(cells), -1)
    diag = {f.name: getattr(state.diag, f.name).reshape(len(cells), -1)
            for f in dataclasses.fields(DiagCounters)}
    return [(means[i], DiagCounters(
        **{name: int(counts[i].sum()) for name, counts in diag.items()}))
        for i in range(len(cells))]


def _calibrate_lanes(cells) -> list:
    """The :func:`calibrate_threshold` of each of ``cells``, (policy, config)
    pairs whose pre-runs run as the lanes of one lane set."""
    stored = []         # each slot's (reception SINRs, receiver masks)
    _lockstep([(policy, config.replace(sinr_threshold=0.0), None)
               for policy, config in cells], _CALIBRATION_SLOTS,
              lambda outcome, state, rates:
              stored.append((outcome.sinr, outcome.receivers)), score=False)
    return [float(statistics.median(sinrs[mask].tolist())) if mask.any() else 0.0
            for sinrs, mask in zip(*(np.stack(arrays, axis=1)
                                     for arrays in zip(*stored)))]


def calibrate_threshold(config: SystemConfig, policy: str) -> float:
    """Median relay reception SINR over a seeded calibration pre-run.

    The pre-run executes the cell's own policy and settings for 200 slots
    with classification disabled (threshold 0), on a dedicated RNG stream
    keyed by (seed, policy, SNR, eta) so the result is independent of which
    other cells appear in a sweep.
    """
    return _calibrate_lanes([(policy, config)])[0]


def _chunks(items, workers: int, cap: int) -> list:
    """``items`` split into max(workers, ceil(len / cap)) contiguous chunks
    of near-equal size, or one per item when there are fewer."""
    n = min(len(items), max(workers, -(-len(items) // cap)))
    return [items[len(items) * i // n:len(items) * (i + 1) // n] for i in range(n)]


def _jam_sets(config: SystemConfig, policy: str) -> int:
    """Jam sets a lane of ``policy`` scores per slot (1 unless the oracle)."""
    return math.comb(config.Q, config.K) if policy == "oracle" else 1


def _run_cell(rows, cell_cfg: SystemConfig, policy: str, snr_db: float,
              eta: float) -> CellResult:
    """Aggregate a cell's chunk rows, (per-trial mean secrecy rates,
    DiagCounters) in trial-index order, into its CellResult; the
    DiagCounters fields are summed by name."""
    means = np.concatenate([chunk_means for chunk_means, _ in rows])
    trials = len(means)
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
    in process): first the calibration pre-runs of the auto-threshold cells,
    in cell order, split into about ``sweep.workers`` tasks; then the trials
    of the sweep, split into at least ``sweep.workers`` contiguous chunks,
    each a task that runs every cell on one draw per (trial, slot)."""
    auto = [(policy, cfg) for policy, _, _, cfg in cells
            if cfg.sinr_threshold is None]
    lane_sets = max((_jam_sets(cfg, policy) for policy, cfg in auto), default=1)
    thresholds = chain.from_iterable(map_(
        _calibrate_lanes, _chunks(auto, sweep.workers,
                                  max(1, _MAX_LANES // lane_sets))))
    resolved = [(policy, cfg if cfg.sinr_threshold is not None
                 else cfg.replace(sinr_threshold=next(thresholds)))
                for policy, _, _, cfg in cells]
    trial_sets = max(count * _jam_sets(resolved[0][1], policy) for policy, count
                     in Counter(policy for policy, _ in resolved).items())
    chunks = list(map_(_trial_chunk, repeat(resolved),
                       _chunks(range(sweep.trials), sweep.workers,
                               max(1, _MAX_LANES // trial_sets)),
                       repeat(sweep.slots_per_trial)))
    return [_run_cell([rows[i] for rows in chunks], cfg, policy, snr_db, eta)
            for i, ((policy, snr_db, eta, _), (_, cfg))
            in enumerate(zip(cells, resolved))]


def monte_carlo(config: SystemConfig, sweep: SweepSpec) -> SecrecyReport:
    """Run every sweep cell and aggregate trial-mean secrecy rates.

    Cells are independent: a cell's trial t reads the channel draws of
    (seed, trial t) and, for ``random``, its policy draws, and its calibrated
    threshold comes from (seed, policy, SNR, eta) alone, so adding or
    removing grid points does not change the numbers of the remaining cells.
    Every cell sees the same channel draw per (trial, slot), drawn once per
    sweep.  Every sweep runs through :func:`_run_cells`, which maps all
    calibration pre-runs before any trial: in this process at
    ``sweep.workers == 1``, on one pool of N processes at N > 1.  The outputs
    are bit-identical for any N.

    A NumericError in a trial names the failing lane with the smallest
    trial index, ties going to cell order, with its policy, trial and slot,
    at any N.  An error in a pooled task is raised here when its result is
    read back, and the work still queued in the pool is cancelled, not run.
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
    for field in dataclasses.fields(SystemConfig):
        # each cell sets eta and sigma2; the threshold is written last
        if field.name not in ("eta", "sigma2", "sinr_threshold"):
            manifest.append(f"{field.name} = {getattr(report.config, field.name)}")
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
