"""Monte Carlo engine: seeded trials, SNR/eta sweeps, CSV emission.

Determinism contract: every random draw is keyed by (seed, stream, trial,
slot) through :func:`relaysec.channel.substream`, trials are aggregated in
trial-index order, and no timestamps enter the outputs, so a sweep produces
byte-identical files across reruns and across worker counts.

The printed rate formulas carry an implicit unit noise floor, so all powers
passed into the matrix-rate builders are divided by the one noise variance
sigma^2 that every receiving node (relay, user, eavesdropper) sees; each
sweep cell sets it from its SNR as sigma^2 = P / 10^(SNR/10).
"""

from __future__ import annotations

import concurrent.futures
import math
import statistics
import struct
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ._version import __version__
from .channel import (STREAM_CALIBRATION, STREAM_CHANNEL, STREAM_POLICY,
                      gen_network_realization, substream)
from .config import SystemConfig
from .errors import ConfigError, NumericError
from .selection import POLICIES, fresh_state, slot_rate_report

POLICY_ORDER = tuple(POLICIES)

_CALIBRATION_SLOTS = 200
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


def _run_trial_full(config: SystemConfig, policy: str, trial_index: int):
    """All per-slot rate reports of one seeded trial plus its diagnostics."""
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}")
    step = POLICIES[policy]
    state = fresh_state(config)
    reports = []
    for slot in range(config.slots):
        try:
            rng = substream(config.seed, STREAM_CHANNEL, trial_index, slot)
            realization = gen_network_realization(config, slot, rng)
            prng = (substream(config.seed, STREAM_POLICY, trial_index, slot)
                    if policy == "random" else None)
            outcome, state = step(state, realization, config, prng)
            report, clamps = slot_rate_report(
                realization, config, outcome.replays,
                outcome.jamming_relays, outcome.transmitting_relays)
        except NumericError as exc:
            raise NumericError(
                f"policy {policy!r} trial {trial_index} slot {slot}: {exc}"
            ) from exc
        state.diag.clamp_events += clamps
        reports.append(report)
    return reports, state.diag


def run_trial(config: SystemConfig, policy: str, trial_index: int) -> list:
    """Per-slot RateReports of one trial; a pure function of (config, policy,
    trial_index) including the root seed inside the config."""
    return _run_trial_full(config, policy, trial_index)[0]


def _trial_summary(config: SystemConfig, policy: str, trial_index: int):
    reports, diag = _run_trial_full(config, policy, trial_index)
    retained = reports[config.warmup_slots:]
    mean = sum(r.secrecy_rate for r in retained) / len(retained)
    return (trial_index, mean, diag.phi_tests, diag.phi_feasible,
            diag.silent_transmitters, diag.clamp_events)


def _float_key(x: float) -> int:
    """Stable 64-bit key for a float, for content-addressed RNG substreams."""
    return int.from_bytes(struct.pack("<d", float(x)), "little")


def calibrate_threshold(config: SystemConfig, policy: str) -> float:
    """Median relay reception SINR over a seeded calibration pre-run.

    The pre-run executes the cell's own policy and settings for 200 slots
    with classification disabled (threshold 0), on a dedicated RNG stream
    keyed by (seed, policy, SNR, eta) so the result is independent of which
    other cells appear in a sweep.
    """
    cal_cfg = config.replace(sinr_threshold=0.0, slots=_CALIBRATION_SLOTS,
                             warmup_slots=0)
    key = (POLICY_ORDER.index(policy), _float_key(config.sigma2),
           _float_key(config.eta))
    state = fresh_state(cal_cfg)
    state.diag.collect_sinrs = True
    step = POLICIES[policy]
    for slot in range(cal_cfg.slots):
        rng = substream(cal_cfg.seed, STREAM_CALIBRATION, *key, slot, 0)
        realization = gen_network_realization(cal_cfg, slot, rng)
        prng = (substream(cal_cfg.seed, STREAM_CALIBRATION, *key, slot, 1)
                if policy == "random" else None)
        _, state = step(state, realization, cal_cfg, prng)
    if not state.diag.sinrs:
        return 0.0
    return float(statistics.median(state.diag.sinrs))


# Pool tasks are pickled by qualified name, so a wrapper installed over
# calibrate_threshold (a timing harness's local closure, say) cannot be
# submitted itself; this shim can, and looks the name up when it runs.
def _calibration_worker(args):
    return calibrate_threshold(*args)


def _run_cell(rows, cell_cfg: SystemConfig, policy: str, snr_db: float,
              eta: float) -> CellResult:
    """Aggregate a cell's ``_trial_summary`` rows, in trial-index order,
    into its CellResult."""
    trials = len(rows)
    means = np.array([row[1] for row in rows])
    phi_tests = sum(row[2] for row in rows)
    phi_feasible = sum(row[3] for row in rows)
    silent = sum(row[4] for row in rows)
    clamps = sum(row[5] for row in rows)
    mean = float(np.mean(means))
    if trials > 1:
        std = float(np.std(means, ddof=1))
        ci95 = _Z95 * std / np.sqrt(trials)
    else:
        std, ci95 = 0.0, None
    return CellResult(
        policy=policy, snr_db=snr_db, eta=eta, mean_secrecy_rate=mean,
        std=std, ci95=ci95, trials=trials, clamp_events=clamps,
        iri_feasible_frac=(phi_feasible / phi_tests if phi_tests else 0.0),
        silent_transmitter_events=silent,
        sinr_threshold=cell_cfg.sinr_threshold)


def _pooled_cells(pool, cells: list, sweep: SweepSpec) -> list:
    """Run every cell on one pool: all calibration pre-runs are queued first,
    in cell order, then each cell's trials as soon as its threshold is known;
    rows are read back once every cell is queued."""
    thresholds = [pool.submit(_calibration_worker, (cfg, policy))
                  if cfg.sinr_threshold is None else None
                  for policy, _, _, cfg in cells]
    chunksize = max(1, sweep.trials // (sweep.workers * 8))
    queued = []
    for (policy, snr_db, eta, cfg), threshold in zip(cells, thresholds):
        if threshold is not None:
            cfg = cfg.replace(sinr_threshold=threshold.result())
        rows = pool.map(_trial_summary, repeat(cfg), repeat(policy),
                        range(sweep.trials), chunksize=chunksize)
        queued.append((rows, cfg, policy, snr_db, eta))
    return [_run_cell(list(rows), *cell) for rows, *cell in queued]


def monte_carlo(config: SystemConfig, sweep: SweepSpec) -> SecrecyReport:
    """Run every sweep cell and aggregate trial-mean secrecy rates.

    Cells are independent: each derives its RNG streams and its calibrated
    threshold from (seed, policy, SNR, eta) alone, so adding or removing grid
    points does not change the numbers of the remaining cells.  At
    ``sweep.workers == 1`` everything runs in this process, cell by cell; at
    N > 1 one pool of N processes runs the calibration pre-runs and the
    trials of every cell, and the outputs are bit-identical for any N.  An
    error in a pooled task is raised here when its cell is read back, and
    the work still queued in the pool is cancelled, not run.
    """
    cells = [(policy, snr_db, eta,
              config.replace(eta=eta, slots=sweep.slots_per_trial).with_snr_db(snr_db))
             for policy in sweep.policies
             for snr_db in sweep.snr_db_grid
             for eta in sweep.eta_grid]
    if sweep.workers > 1:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=sweep.workers)
        try:
            results = _pooled_cells(pool, cells, sweep)
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        results = []
        for policy, snr_db, eta, cfg in cells:
            if cfg.sinr_threshold is None:
                cfg = cfg.replace(sinr_threshold=calibrate_threshold(cfg, policy))
            rows = [_trial_summary(cfg, policy, t) for t in range(sweep.trials)]
            results.append(_run_cell(rows, cfg, policy, snr_db, eta))
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
