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
trial reads it through its row of the lane realization, without a copy.
One routine, :func:`_run_cells`, runs a sweep at every worker count: the
calibration pre-runs first, then the trials in contiguous chunks, each chunk
one task that runs every cell as one lane set; only the ``map`` it is
handed differs.  Pooled sweeps of one worker count share one process pool,
forked at the first of them, so its workers do not see later changes to
the modules; an error in a sweep and the interpreter's exit close it, and
its workers exit on their own once the process that forked them is gone.

The printed rate formulas carry an implicit unit noise floor, so all powers
passed into the matrix-rate builders are divided by the one noise variance
sigma^2 that every receiving node (relay, user, eavesdropper) sees; each
sweep cell sets it from its SNR as sigma^2 = P / 10^(SNR/10).
"""

from __future__ import annotations

import atexit
import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import statistics
import struct
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, repeat

import numpy as np

from ._version import __version__
from .channel import (STREAM_CALIBRATION, STREAM_CHANNEL, STREAM_POLICY,
                      gen_network_realization, substream)
from .config import SystemConfig
from .errors import ConfigError, NumericError
# slot_rate_report is not called here; relaysec.sim.slot_rate_report stays a
# name that bench/tracing.py wraps
from .selection import (JAMMING_POLICIES, LANE_STEPS, DiagCounters, Lanes,
                        PolicyState, _serve, fresh_state, lane_rates,
                        slot_rate_report)  # noqa: F401

POLICY_ORDER = tuple(LANE_STEPS)

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
            if name not in LANE_STEPS:
                raise ConfigError(
                    f"unknown policy {name!r}; choose from {sorted(LANE_STEPS)}")
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


def _stream_keys(policy: str, config: SystemConfig, trial) -> tuple:
    """The (channel, policy) substream keys of a lane, each as a (head,
    tail) pair whose slot s key is head + (s,) + tail: keyed by (trial,
    slot) for a trial, by (policy, sigma2, eta, slot) for a calibration
    pre-run (trial None)."""
    if trial is None:
        head = (STREAM_CALIBRATION, POLICY_ORDER.index(policy),
                _float_key(config.sigma2), _float_key(config.eta))
        return (head, (0,)), (head, (1,))
    return ((STREAM_CHANNEL, trial), ()), ((STREAM_POLICY, trial), ())


def _lockstep(lanes, slots: int, each, score: bool = True) -> PolicyState:
    """Run ``lanes`` in lockstep as one lane set, hand each slot's
    (outcome, state, rates) to ``each``, and return the final state.

    A lane is (policy, config, trial): it runs ``config`` (the lanes' configs
    may differ only in eta, sigma2 and sinr_threshold) as trial ``trial``,
    or as a calibration pre-run where that is None.  All lanes share the
    shape fields and the seed.  The lane set holds the lanes in list order,
    and each maximal run of one policy is a range whose policy's step
    returns that range's (receivers, transmitters) masks, the roles alone;
    one serve covers every lane, and so does
    :func:`~relaysec.selection.lane_rates`, whose result is ``rates``, or
    None unless ``score``.  Each slot draws every distinct channel stream and
    every distinct policy stream of its lanes once, so every lane of a trial
    runs on one shared draw and every ``random`` lane of it on one
    permutation.  The slot's lane realization is those draws plus each
    lane's row of them, the draw's own row when every lane has its own draw.
    The serve and the rates read it, and no lane copies a draw.  The step of
    a range that covers the whole set runs on the set's own realization,
    state and Lanes; each range of a set of several policies reads views of
    them, and its roles are joined into the set's masks.  Once ``each``
    returns, only the state's last slot keeps the slot's outcome, until the
    next slot's serve replaces it.  A NumericError names its lane,
    ``policy 'p' trial t`` or ``policy 'p' calibration snr S eta E``, and
    slot; a larger set reruns its lanes alone (by trial, then list order) to
    find it, and re-raises its own error if none fails alone.
    """
    configs = [config for _, config, _ in lanes]
    lane_set, state = Lanes.of(configs), fresh_state(configs[0], len(configs))
    jamming = np.array([policy in JAMMING_POLICIES for policy, _, _ in lanes])
    runs = [(policy, len(list(run)))
            for policy, run in groupby(policy for policy, _, _ in lanes)]
    ranges, start = [], 0
    for policy, count in runs:
        if policy not in LANE_STEPS:
            raise ConfigError(f"unknown policy {policy!r}")
        at = slice(start, start + count)
        # a range's state views the set's arrays, which stay put; a range
        # that covers the whole set runs on the set's own
        part = ((state, lane_set) if len(runs) == 1 else
                (state.index_lanes(at), Lanes.of(configs[at])))
        ranges.append((LANE_STEPS[policy], at, *part, policy == "random"))
        start = at.stop
    config = configs[0]
    # each lane's keys less the slot, built once
    channel_keys, policy_keys = zip(*(_stream_keys(*lane) for lane in lanes))
    try:
        for slot in range(slots):
            streams = {}        # channel key -> lane of the slot's draw
            rows = [streams.setdefault(head + (slot,) + tail, len(streams))
                    for head, tail in channel_keys]
            realization = gen_network_realization(
                config, slot, [substream(config.seed, *key) for key in streams])
            if len(streams) < len(lanes):   # else rows is the identity
                realization = realization.index_lanes(rows)
            picks = []
            for step, at, part, part_lanes, draws in ranges:
                rngs = None
                if draws:
                    drawn_keys = [head + (slot,) + tail
                                  for head, tail in policy_keys[at]]
                    generators = {key: substream(config.seed, *key)
                                  for key in dict.fromkeys(drawn_keys)}
                    rngs = [generators[key] for key in drawn_keys]
                if part is state:       # the range is the whole set
                    picks.append(step(state, realization, lane_set, rngs))
                    continue
                part.last_slot = state.last_slot    # for the pick alone
                picks.append(step(part, realization.index_lanes(at), part_lanes,
                                  rngs))
                part.last_slot = None
            receivers, transmitters = (
                np.concatenate(masks) if len(masks) > 1 else masks[0]
                for masks in zip(*picks))
            outcome = _serve(state, realization, lane_set, receivers, transmitters,
                             jamming)
            rates = None
            if score:
                rates = lane_rates(outcome)
                state.diag.clamp_events += rates[3]
            each(outcome, state, rates)
            # only the state's last slot keeps the outcome through the next draw
            del outcome, rates
    except NumericError as exc:
        if len(lanes) > 1:      # alone, a lane fails where it fails in a set
            for lane in sorted(lanes, key=lambda lane: lane[2] or 0):
                _lockstep([lane], slots, lambda *served: None, score)
            raise
        policy, config, trial = lanes[0]
        name = (f"trial {trial}" if trial is not None else
                f"calibration snr {_fmt(10 * math.log10(config.P / config.sigma2))}"
                f" eta {_fmt(config.eta)}")
        raise NumericError(f"policy {policy!r} {name} slot {slot}: {exc}") from exc
    return state


def _trial_chunk(cells, trials, slots: int) -> list:
    """(mean secrecy rate over the retained slots of each of ``trials``,
    DiagCounters summed over them) of each of ``cells``, (policy, config)
    pairs of one sweep with resolved thresholds.

    Every cell runs in one lane set, cell-major, on the slot's one draw per
    trial.  A NumericError names the failing lane with the smallest trial
    index, ties going to cell order (see :func:`_lockstep`)."""
    secrecy = []
    state = _lockstep([(policy, config, trial) for policy, config in cells
                       for trial in trials], slots,
                      lambda outcome, state, rates: secrecy.append(rates[2]))
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
    other cells appear in a sweep; a NumericError names the cell and slot.
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


def _run_cells(map_, cells: list, sweep: SweepSpec, workers: int) -> list:
    """Run every cell through ``map_`` (``pool.map`` of ``workers``
    processes, or the builtin ``map`` in process): first the calibration
    pre-runs of the auto-threshold cells, in cell order, split into about
    ``workers`` tasks; then the trials of the sweep, split into at least
    ``workers`` contiguous chunks, each a task that runs every cell on one
    draw per (trial, slot)."""
    auto = [(policy, cfg) for policy, _, _, cfg in cells
            if cfg.sinr_threshold is None]
    lane_sets = max((_jam_sets(cfg, policy) for policy, cfg in auto), default=1)
    thresholds = chain.from_iterable(map_(
        _calibrate_lanes, _chunks(auto, workers,
                                  max(1, _MAX_LANES // lane_sets))))
    resolved = [(policy, cfg if cfg.sinr_threshold is not None
                 else cfg.replace(sinr_threshold=next(thresholds)))
                for policy, _, _, cfg in cells]
    trial_sets = max(count * _jam_sets(resolved[0][1], policy) for policy, count
                     in Counter(policy for policy, _ in resolved).items())
    chunks = list(map_(_trial_chunk, repeat(resolved),
                       _chunks(range(sweep.trials), workers,
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
    calibration pre-runs before any trial, on min(N, CPU count) processes
    for ``sweep.workers`` N: in this process when that capped count is 1,
    else on a pool of that many processes, which start at once.  The pool
    outlives the call: the next pooled sweep of the same capped N reuses it,
    one of another N closes it and starts its own, and an ``atexit`` hook
    closes it at exit; a worker whose parent dies without that exits by
    itself within a second.  Its workers are forked at the first pooled
    sweep, so they run the modules as they were then.  Do not run pooled
    sweeps from several threads at once: one's error or worker count would
    close the pool under the other.  The outputs are bit-identical for any
    N.

    A NumericError names the first failing pre-run in cell order, else the
    smallest failing trial, then cell, at any N.  A pooled task's error is
    raised when its result is read back; any error in a pooled sweep closes
    the pool, which cancels its queued work.
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
    workers = min(sweep.workers, os.cpu_count() or 1)
    if workers == 1:
        results = _run_cells(map, cells, sweep, workers)
    else:
        try:
            results = _run_cells(_pool(workers).map, cells, sweep, workers)
        except BaseException:
            _close_pool()
            raise
    return SecrecyReport(cells=tuple(results), config=config, sweep=sweep)


_POOL = None    # (workers, executor) of the last pooled sweep


def _pool(workers: int):
    """The process pool of ``workers`` processes that pooled sweeps share,
    built at the first of them, or after one of another size closes it."""
    global _POOL
    if _POOL is not None and _POOL[0] != workers:
        _close_pool()
    if _POOL is None:
        _POOL = workers, concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_exit_with_parent)
    return _POOL[1]


def _exit_with_parent() -> None:
    """Pool worker initializer: a daemon thread ends the worker once the
    process that built the pool is gone, which no ``atexit`` hook sees when
    a signal kills it. It waits on the parent's sentinel pipe, which closes
    when that process dies under every start method (under forkserver the
    worker's OS parent is the fork server), also if it died before the
    worker got here."""
    parent = multiprocessing.parent_process()

    def watch():
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@atexit.register
def _close_pool() -> None:
    """Shut the shared pool down, cancelling its queued work, if there is
    one; pooled sweeps then start a new one."""
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL[1], None
        pool.shutdown(cancel_futures=True)


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
