import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

import relaysec.selection
import relaysec.sim
from relaysec.channel import STREAM_CHANNEL, STREAM_POLICY, gen_network_realization
from relaysec.config import SystemConfig, load_config, parse_config, power_split
from relaysec.errors import ConfigError, NumericError
from relaysec.selection import DiagCounters
from relaysec.sim import (SecrecyReport, SweepSpec, calibrate_threshold,
                          emit_results, monte_carlo)

from conftest import inject_trial_error, needs_fork, small_config
from test_golden import RUNS, assert_golden, write_run
from views import run_trial


@pytest.mark.parametrize("eta,P,K,expected", [
    (1.0, 1.0, 2, (1.0, 0.5)),
    (2.0, 1.0, 2, (2.0, 0.0)),
    (0.0, 1.0, 2, (0.0, 1.0)),
    (0.5, 2.0, 3, (1.0, 1.0)),
])
def test_apply_power_split(eta, P, K, expected):
    config = SystemConfig(P=P, eta=eta, K=K, T=1, Q=K + 1, sinr_threshold=1.0)
    tx, each = power_split(config)
    assert tx == pytest.approx(expected[0])
    assert each == pytest.approx(expected[1])


def test_apply_power_split_rejects_bad_eta():
    with pytest.raises(ConfigError, match="eta"):
        SystemConfig(eta=2.5, sinr_threshold=1.0)


@pytest.mark.parametrize("eta", [0.1, 0.0, 2.0])
def test_overflowing_power_split_rejected(eta):
    # (2 - eta) * P or eta * P overflows at P = 1e308 unless eta is 1
    with pytest.raises(ConfigError, match=r"eta\*P.*eta=.*P=1e\+308"):
        SystemConfig(P=1e308, eta=eta)
    assert power_split(SystemConfig(P=1e308, eta=1.0)) == (1e308, 1e308 / 3)


def test_zero_slot_config_rejected():
    # the slots per trial are a sweep setting
    with pytest.raises(ConfigError):
        SweepSpec(policies=("bf-rjfs",), slots_per_trial=0)


def test_warmup_must_be_shorter_than_a_trial():
    cfg = small_config(warmup_slots=4)
    sweep = SweepSpec(policies=("bf-rjfs",), snr_db_grid=(10.0,), eta_grid=(1.0,),
                      trials=1, slots_per_trial=4)
    with pytest.raises(ConfigError, match="warmup_slots"):
        monte_carlo(cfg, sweep)
    with pytest.raises(ConfigError, match="warmup_slots"):
        small_config(warmup_slots=-1)


def test_replay_antenna_mismatch_rejected_without_jammers():
    # every policy replays buffered snapshots through the N_k transmit
    # antennas, so N_k != N_i is invalid even with K = 0
    with pytest.raises(ConfigError, match="N_k == N_i"):
        SystemConfig(Q=4, T=1, K=0, N_r=1, N_i=1, N_k=2)


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError):
        run_trial(small_config(), "bogus", 0, 5)


def test_unresolved_threshold_rejected():
    cfg = small_config(sinr_threshold=None)
    with pytest.raises(ConfigError):
        run_trial(cfg, "bf-rjfs", 0, 5)


def test_run_trial_deterministic():
    cfg = small_config(seed=77)
    a = run_trial(cfg, "bf-rjfs", trial_index=3, slots=6)
    b = run_trial(cfg, "bf-rjfs", trial_index=3, slots=6)
    assert [r.secrecy_rate for r in a] == [r.secrecy_rate for r in b]
    assert [r.user_rates for r in a] == [r.user_rates for r in b]


def test_run_trial_distinct_across_trials():
    cfg = small_config(seed=77)
    a = run_trial(cfg, "bf-rjfs", trial_index=0, slots=6)
    b = run_trial(cfg, "bf-rjfs", trial_index=1, slots=6)
    assert [r.secrecy_rate for r in a] != [r.secrecy_rate for r in b]


def test_bf_rjfs_picks_no_jammers_after_the_last_slot(monkeypatch):
    # slot 0 seeds the jammers from the ranking; each later slot picks its
    # own at its start, so a trial of S slots runs the jam-side metric S - 1
    # times and never for a slot that does not exist
    select = relaysec.selection.select_jamming_relays
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return select(*args, **kwargs)

    monkeypatch.setattr(relaysec.selection, "select_jamming_relays", counted)
    run_trial(small_config(seed=77), "bf-rjfs", 0, 6)
    assert len(calls) == 6 - 1


def test_report_structure():
    cfg = small_config(seed=5)
    reports = run_trial(cfg, "bf-rjfs", 0, 4)
    assert len(reports) == 4
    for rep in reports:
        assert len(rep.user_rates) == cfg.T
        assert len(rep.eav_rates) == cfg.N
        assert rep.secrecy_rate >= 0.0


def test_oracle_dominates_on_shared_state_slot0():
    # both policies start from the same empty buffers at slot 0
    for seed in range(10):
        cfg = small_config(seed=seed)
        a = run_trial(cfg, "oracle", 0, 1)
        b = run_trial(cfg, "bf-rjfs", 0, 1)
        assert a[0].secrecy_rate >= b[0].secrecy_rate - 1e-9


def test_oracle_dominates_in_aggregate():
    # after slot 0 the buffer states diverge, so dominance holds on average
    cfg = small_config(seed=3)
    diff = 0.0
    for trial in range(12):
        a = run_trial(cfg, "oracle", trial, 5)
        b = run_trial(cfg, "bf-rjfs", trial, 5)
        diff += sum(r.secrecy_rate for r in a) - sum(r.secrecy_rate for r in b)
    assert diff > 0.0


def _tiny_sweep(policies=("bf-rjfs", "conventional-bf"), trials=6, workers=1):
    return SweepSpec(policies=policies, snr_db_grid=(0.0, 10.0),
                     eta_grid=(1.0,), trials=trials, slots_per_trial=4,
                     workers=workers)


def test_monte_carlo_cell_fields():
    cfg = small_config(seed=9, warmup_slots=1)
    report = monte_carlo(cfg, _tiny_sweep())
    assert len(report.cells) == 4
    for cell in report.cells:
        assert cell.trials == 6
        assert cell.mean_secrecy_rate >= 0.0
        assert cell.std >= 0.0
        assert cell.ci95 >= 0.0
        assert 0.0 <= cell.iri_feasible_frac <= 1.0


def test_monte_carlo_single_trial_ci_marker(tmp_path):
    cfg = small_config(seed=9, warmup_slots=1)
    report = monte_carlo(cfg, _tiny_sweep(trials=1))
    assert all(cell.ci95 is None for cell in report.cells)
    out = tmp_path / "res.csv"
    emit_results(report, out)
    body = out.read_text().splitlines()
    assert all(line.split(",")[5] == "na" for line in body[1:])


def test_monte_carlo_cell_independence():
    cfg = small_config(seed=9, warmup_slots=1)
    a = monte_carlo(cfg, _tiny_sweep(policies=("bf-rjfs", "conventional-bf")))
    b = monte_carlo(cfg, _tiny_sweep(policies=("conventional-bf", "bf-rjfs")))
    by_key_a = {(c.policy, c.snr_db, c.eta): c.mean_secrecy_rate for c in a.cells}
    by_key_b = {(c.policy, c.snr_db, c.eta): c.mean_secrecy_rate for c in b.cells}
    assert by_key_a == by_key_b


def test_monte_carlo_ci_shrinks_with_trials():
    cfg = small_config(seed=9, warmup_slots=1)
    small = monte_carlo(cfg, SweepSpec(policies=("bf-rjfs",), snr_db_grid=(10.0,),
                                       eta_grid=(1.0,), trials=16,
                                       slots_per_trial=4))
    big = monte_carlo(cfg, SweepSpec(policies=("bf-rjfs",), snr_db_grid=(10.0,),
                                     eta_grid=(1.0,), trials=64,
                                     slots_per_trial=4))
    ratio = small.cells[0].ci95 / big.cells[0].ci95
    assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3


def test_monte_carlo_workers_identical():
    cfg = small_config(seed=12, warmup_slots=1)
    serial = monte_carlo(cfg, _tiny_sweep(trials=8, workers=1))
    parallel = monte_carlo(cfg, _tiny_sweep(trials=8, workers=2))
    for a, b in zip(serial.cells, parallel.cells):
        assert a == b


def counting_pools(monkeypatch) -> list:
    """The process pools that sweeps build from now on, in order; each
    records its worker count as ``size`` and counts its ``shutdowns``."""
    built = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            super().__init__(max_workers=max_workers, **kwargs)
            self.size, self.shutdowns = max_workers, 0
            built.append(self)

        def shutdown(self, *args, **kwargs):
            self.shutdowns += 1
            super().shutdown(*args, **kwargs)

    # relaysec.sim looks the class up here, so that a serial run never
    # imports multiprocessing
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return built


def test_one_pool_per_sweep_runs_calibration(monkeypatch):
    built = counting_pools(monkeypatch)
    cfg = small_config(sinr_threshold=None, seed=21, warmup_slots=1)
    sweep = _tiny_sweep(trials=3)
    serial = monte_carlo(cfg, sweep)
    assert built == []
    pooled = monte_carlo(cfg, dataclasses.replace(sweep, workers=2))
    assert len(built) == 1
    assert len(serial.cells) == 4
    assert all(cell.sinr_threshold > 0.0 for cell in serial.cells)
    assert pooled.cells == serial.cells


def test_pool_never_outnumbers_the_cpus(monkeypatch):
    # a fork pool starts all its workers at the first task, so a large
    # --workers must not become that many processes, nor that many tasks for
    # the processes there are; this fake starts none
    sizes, tasks = [], Counter()

    class FakePool:
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)

        def map(self, fn, *iterables):
            def task(*args):
                tasks[fn.__name__] += 1
                return fn(*args)
            return map(task, *iterables)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = small_config(sinr_threshold=None, seed=21, warmup_slots=1)
    sweep = _tiny_sweep(trials=3)
    wide = monte_carlo(cfg, dataclasses.replace(sweep, workers=10_000))
    assert sizes == [2]
    assert 1 <= tasks["_calibrate_lanes"] <= 2
    assert 1 <= tasks["_trial_chunk"] <= 2
    assert wide.cells == monte_carlo(cfg, sweep).cells


def test_sweep_capped_to_one_process_builds_no_pool(monkeypatch):
    # on one CPU a pooled sweep would fork one worker to do this process's
    # work, so it runs here
    built = counting_pools(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    cfg = small_config(sinr_threshold=None, seed=21, warmup_slots=1)
    sweep = _tiny_sweep(trials=3)
    capped = monte_carlo(cfg, dataclasses.replace(sweep, workers=4))
    assert built == []
    assert capped.cells == monte_carlo(cfg, sweep).cells


def test_pooled_sweeps_reuse_one_pool(monkeypatch):
    built = counting_pools(monkeypatch)
    cfg = small_config(sinr_threshold=None, seed=21, warmup_slots=1)
    sweep = _tiny_sweep(trials=3)
    serial = monte_carlo(cfg, sweep)
    for _ in range(2):
        assert monte_carlo(cfg, dataclasses.replace(sweep, workers=2)).cells == serial.cells
    assert len(built) == 1 and built[0].shutdowns == 0


def test_another_worker_count_replaces_the_pool(monkeypatch):
    built = counting_pools(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = small_config(seed=21, warmup_slots=1)
    sweep = _tiny_sweep(trials=3)
    serial = monte_carlo(cfg, sweep)
    for workers in (2, 3, 3, 2):
        pooled = monte_carlo(cfg, dataclasses.replace(sweep, workers=workers))
        assert pooled.cells == serial.cells
    assert [pool.size for pool in built] == [2, 3, 2]
    assert [pool.shutdowns for pool in built] == [1, 1, 0]


@needs_fork
def test_failed_pooled_sweep_closes_the_pool(monkeypatch):
    # the failing sweep's workers run the patched module; if its pool
    # outlived it, the next sweep would fail on them too
    built = counting_pools(monkeypatch)
    cfg = small_config(seed=21, warmup_slots=1)
    sweep = _tiny_sweep(trials=3, workers=2)
    with monkeypatch.context() as patch:
        inject_trial_error(patch)
        with pytest.raises(NumericError, match="injected"):
            monte_carlo(cfg, sweep)
    assert len(built) == 1 and built[0].shutdowns == 1
    pooled = monte_carlo(cfg, sweep)
    assert len(built) == 2 and built[1].shutdowns == 0
    assert pooled.cells == monte_carlo(cfg, dataclasses.replace(sweep, workers=1)).cells


START_METHODS = multiprocessing.get_all_start_methods()


def test_pool_closes_at_exit():
    # a process that never closes the pool still exits cleanly, and its
    # workers with it, whichever way they were started
    script = """if True:
        import dataclasses, multiprocessing, sys
        from relaysec.config import SystemConfig
        from relaysec.sim import SweepSpec, monte_carlo
        multiprocessing.set_start_method(sys.argv[1])
        config = SystemConfig(Q=4, T=2, K=2, warmup_slots=1, seed=3)
        sweep = SweepSpec(policies=("bf-rjfs", "random"), snr_db_grid=(5.0,),
                          eta_grid=(1.0,), trials=4, slots_per_trial=3,
                          workers=2)
        pooled = monte_carlo(config, sweep)
        assert pooled == monte_carlo(config, sweep)
        assert pooled.cells == monte_carlo(
            config, dataclasses.replace(sweep, workers=1)).cells
        print(*(child.pid for child in multiprocessing.active_children()))
    """
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    for method in START_METHODS:
        result = subprocess.run([sys.executable, "-c", script, method],
                                env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, timeout=120)
        assert (method, result.returncode, result.stderr) == (method, 0, "")
        workers = [int(pid) for pid in result.stdout.split()]
        assert workers
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie: an orphaned
    worker is reaped by pid 1, which in a container may never reap it."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        # gone since the kill, unless there is no /proc to tell zombies by
        return not os.path.isdir("/proc")


@pytest.mark.parametrize("method", START_METHODS)
def test_pool_workers_exit_when_parent_is_killed(method):
    # SIGTERM runs no atexit hook, so the workers must notice the lost
    # parent themselves; under forkserver their parent is the fork server
    script = """if True:
        import multiprocessing, sys, time
        from relaysec.config import SystemConfig
        from relaysec.sim import SweepSpec, monte_carlo
        multiprocessing.set_start_method(sys.argv[1])
        config = SystemConfig(Q=4, T=2, K=2, warmup_slots=1, seed=3)
        sweep = SweepSpec(policies=("bf-rjfs",), snr_db_grid=(5.0,),
                          eta_grid=(1.0,), trials=4, slots_per_trial=3,
                          workers=2)
        monte_carlo(config, sweep)
        print(*(child.pid for child in multiprocessing.active_children()),
              flush=True)
        time.sleep(120)
    """
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.Popen([sys.executable, "-c", script, method],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, text=True)
    workers = []
    try:
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert workers
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def test_golden_runs_on_one_reused_pool(monkeypatch, tmp_path):
    built = counting_pools(monkeypatch)
    for name in sorted(RUNS):
        assert_golden(write_run(name, tmp_path, workers=2))
    assert len(built) == 1


def test_pooled_calibration_through_a_wrapped_calibrate_threshold(monkeypatch):
    # a timing harness wraps calibrate_threshold in a local closure, which a
    # pool cannot pickle; sweeps run their calibration pre-runs as lane
    # batches instead, serial and pooled alike, and every cell still gets the
    # threshold of its own one-lane pre-run
    calibrate = relaysec.sim.calibrate_threshold

    def timed(*args, **kwargs):
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(relaysec.sim, "calibrate_threshold", timed)
    cfg = small_config(sinr_threshold=None, seed=23, warmup_slots=1)
    sweep = _tiny_sweep(policies=("bf-rjfs", "random"), trials=2)
    serial = monte_carlo(cfg, sweep)
    pooled = monte_carlo(cfg, dataclasses.replace(sweep, workers=2))
    assert pooled.cells == serial.cells
    for cell in serial.cells:
        one_lane = calibrate(cfg.replace(eta=cell.eta).with_snr_db(cell.snr_db),
                             cell.policy)
        assert cell.sinr_threshold == one_lane > 0.0


@needs_fork
def test_pool_error_reaches_caller_and_cancels_queued_cells(monkeypatch, tmp_path):
    inject_trial_error(monkeypatch)
    real_lockstep = relaysec.sim._lockstep

    def lockstep(lanes, *args, **kwargs):
        trial = lanes[0][2]
        if trial is not None:      # leaves a file per started trial chunk
            (tmp_path / str(trial)).touch()
            if trial:
                time.sleep(0.2)
        return real_lockstep(lanes, *args, **kwargs)

    # one trial of the 3 cells per chunk, so that the sweep has more chunks
    # than the pool holds queued; the pool is handed _trial_chunk, which
    # looks _lockstep up
    monkeypatch.setattr(relaysec.sim, "_MAX_LANES", 3)
    monkeypatch.setattr(relaysec.sim, "_lockstep", lockstep)
    sweep = SweepSpec(policies=("bf-rjfs",), snr_db_grid=(10.0,),
                      eta_grid=(0.5, 1.0, 1.5), trials=24, slots_per_trial=4,
                      workers=2)
    with pytest.raises(NumericError,
                       match=r"policy 'bf-rjfs' trial 0 slot 0: injected"):
        monte_carlo(small_config(seed=9), sweep)
    # the chunk of trial 0 fails at once; of the 24 chunks, none after the
    # first 8 starts
    started = sorted(int(path.name) for path in tmp_path.iterdir())
    assert started[0] == 0
    assert started[-1] < 8, started


@needs_fork
def test_threshold_error_reaches_caller_and_cancels_queued_calibrations(
        monkeypatch, tmp_path):
    # the sweep raises in this process, on the first calibrated threshold,
    # while calibration tasks are still queued; the pool's shutdown cancels
    # them
    monkeypatch.setattr(statistics, "median", lambda values: math.nan)
    real_lockstep = relaysec.sim._lockstep
    cfg = small_config(sinr_threshold=None, seed=9, warmup_slots=1)
    snrs = tuple(float(snr) for snr in range(24))
    order = [cfg.with_snr_db(snr).sigma2 for snr in snrs]

    def lockstep(lanes, *args, **kwargs):
        index = order.index(lanes[0][1].sigma2)
        (tmp_path / str(index)).touch()     # a file per started calibration
        if index:
            time.sleep(0.2)
        return real_lockstep(lanes, *args, **kwargs)

    # one calibration lane per task, so that the sweep has more tasks than
    # the pool holds queued
    monkeypatch.setattr(relaysec.sim, "_MAX_LANES", 1)
    monkeypatch.setattr(relaysec.sim, "_lockstep", lockstep)
    sweep = SweepSpec(policies=("bf-rjfs",), snr_db_grid=snrs, eta_grid=(1.0,),
                      trials=2, slots_per_trial=4, workers=2)
    with pytest.raises(ConfigError, match="sinr_threshold"):
        monte_carlo(cfg, sweep)
    started = sorted(int(path.name) for path in tmp_path.iterdir())
    assert started[0] == 0
    assert started[-1] < 8, started


def test_batch_error_names_the_failing_trial_and_slot(monkeypatch):
    # trial 3's channels overflow at slot 2 inside a batch of 6 lanes; the
    # error names that trial and slot, as a run of trial 3 alone does
    real_substream = relaysec.sim.substream

    class Overflowing:
        def standard_normal(self, shape):
            return np.full(shape, np.inf)

    def substream(seed, *key):
        if key == (STREAM_CHANNEL, 3, 2):
            return Overflowing()
        return real_substream(seed, *key)

    monkeypatch.setattr(relaysec.sim, "substream", substream)
    sweep = SweepSpec(policies=("bf-rjfs",), snr_db_grid=(10.0,),
                      eta_grid=(1.0,), trials=6, slots_per_trial=4)
    with pytest.raises(NumericError, match=r"policy 'bf-rjfs' trial 3 slot 2: "):
        with np.errstate(all="ignore"):
            monte_carlo(small_config(seed=9), sweep)


_CALIBRATION_ERROR = (r"policy 'oracle' calibration snr 790 eta 1 slot 1: "
                      r"non-finite determinant")


def test_calibration_error_names_the_cell():
    with pytest.raises(NumericError, match=_CALIBRATION_ERROR):
        calibrate_threshold(SystemConfig().with_snr_db(790.0), "oracle")


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_sweep_calibration_error_names_first_failing_cell(workers):
    # both oracle pre-runs overflow; the first in cell order is named, whether
    # the pre-runs share one lane set or run in separate pool tasks
    sweep = SweepSpec(policies=("random", "oracle"), snr_db_grid=(790.0, 795.0),
                      eta_grid=(1.0,), trials=2, slots_per_trial=8,
                      workers=workers)
    with pytest.raises(NumericError, match=_CALIBRATION_ERROR):
        monte_carlo(SystemConfig(), sweep)


_RECEPTION_ERROR = "non-finite reception power or SINR"


@pytest.mark.parametrize("P,eta,iri_cancellation",
                         [(1e308, 1.0, True), (5e307, 0.25, False)],
                         ids=["nan-sinr", "infinite-interference"])
def test_overflowing_reception_power_names_the_trial(P, eta, iri_cancellation):
    # these are valid configs, but the raw reception powers overflow; the
    # trial raises a named error instead of storing NaN SINRs, or, with no
    # cancellation at eta 0.25, a SINR of 0 behind an infinite interference
    config = SystemConfig(P=P, eta=eta, iri_cancellation=iri_cancellation,
                          sinr_threshold=1.0).with_snr_db(10.0)
    with pytest.raises(NumericError, match=r"policy 'bf-rjfs' trial 0 slot 1: "
                       + _RECEPTION_ERROR):
        run_trial(config, "bf-rjfs", 0, 6)


def test_overflowing_reception_power_names_the_calibration_cell():
    # with an auto threshold the calibration pre-run overflows first, and
    # its error names the cell rather than a NaN threshold
    sweep = SweepSpec(policies=("bf-rjfs",), snr_db_grid=(10.0,),
                      eta_grid=(1.0,), trials=1, slots_per_trial=6)
    with pytest.raises(NumericError, match=r"policy 'bf-rjfs' calibration snr 10 "
                       r"eta 1 slot 0: " + _RECEPTION_ERROR):
        monte_carlo(SystemConfig(P=1e308), sweep)


def _fingerprint(config, trial, slot):
    """A value that tells the channel draw of (trial, slot) from any other."""
    return gen_network_realization(config, slot, [relaysec.sim.substream(
        config.seed, STREAM_CHANNEL, trial, slot)]).su_stack[0, 0, 0, 0]


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
@pytest.mark.parametrize("failures,expected", [
    # (policy, snr_db, trial, slot) of each failing lane
    ((("conventional-bf", 0.0, 2, 1), ("bf-rjfs", 10.0, 4, 0)),
     r"policy 'conventional-bf' trial 2 slot 1: injected"),
    ((("conventional-bf", 0.0, 2, 1), ("bf-rjfs", 10.0, 2, 3)),
     r"policy 'bf-rjfs' trial 2 slot 3: injected"),
])
def test_error_names_smallest_failing_trial_then_cell_order(monkeypatch, workers,
                                                            failures, expected):
    # two cells fail at different trials (or at one trial, different slots);
    # the error names the smallest trial, then the first cell in cell order,
    # whichever fails first in a batch and whichever chunk holds each trial
    cfg = small_config(seed=9, warmup_slots=1)
    for policy, snr_db, trial, slot in failures:
        step = relaysec.selection.LANE_STEPS[policy]
        sigma2, mark = cfg.with_snr_db(snr_db).sigma2, _fingerprint(cfg, trial, slot)

        def failing(state, realization, lanes, rngs=None, step=step,
                    sigma2=sigma2, mark=mark):
            if ((lanes.sigma2 == sigma2)
                    & (realization.per_lane("su_stack")[:, 0, 0, 0] == mark)).any():
                raise NumericError("injected")
            return step(state, realization, lanes, rngs)

        monkeypatch.setitem(relaysec.selection.LANE_STEPS, policy, failing)
    with pytest.raises(NumericError, match=expected):
        monte_carlo(cfg, _tiny_sweep(trials=6, workers=workers))


def test_lanes_read_the_slot_draw_without_a_copy(monkeypatch):
    # a two-cell task runs both cells' trials on one draw per (trial, slot):
    # the realization a step receives views the slot's draw, read-only, and
    # each lane's rows of it equal a per-lane copy of the draw bit for bit
    make, drawn, seen = relaysec.sim.gen_network_realization, [], []
    step = relaysec.selection.LANE_STEPS["bf-rjfs"]

    def recording(*args):
        drawn.append(make(*args))
        return drawn[-1]

    def seeing(state, realization, lanes, rngs=None):
        seen.append(realization)
        return step(state, realization, lanes, rngs)

    monkeypatch.setattr(relaysec.sim, "gen_network_realization", recording)
    monkeypatch.setitem(relaysec.selection.LANE_STEPS, "bf-rjfs", seeing)
    cfg = small_config(seed=9)
    relaysec.sim._trial_chunk([("bf-rjfs", cfg.with_snr_db(snr_db))
                               for snr_db in (0.0, 10.0)], range(3), 2)
    rows = [0, 1, 2, 0, 1, 2]
    assert len(drawn) == len(seen) == 2
    for draw, real in zip(drawn, seen):
        assert real.rows.tolist() == rows
        for name in ("su_stack", "se_stack", "rr_stack", "re_stack", "ru_stack"):
            stack, copy = getattr(real, name), getattr(draw, name)[rows]
            assert np.shares_memory(stack, getattr(draw, name))
            assert not stack.flags.writeable
            assert real.per_lane(name).tobytes() == copy.tobytes()


def test_calibration_deterministic_and_policy_scoped():
    cfg = small_config(sinr_threshold=None, seed=4).with_snr_db(10.0)
    t1 = calibrate_threshold(cfg, "bf-rjfs")
    t2 = calibrate_threshold(cfg, "bf-rjfs")
    assert t1 == t2 > 0.0


def test_emit_results_csv_format(tmp_path):
    cfg = small_config(seed=9, warmup_slots=1)
    report = monte_carlo(cfg, _tiny_sweep())
    out = tmp_path / "r.csv"
    emit_results(report, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ("policy,snr_db,eta,mean_secrecy_rate,std,ci95,trials,"
                        "clamp_events,iri_feasible_frac")
    assert len(lines) == 1 + 4
    manifest = (tmp_path / "r.csv.manifest").read_text()
    assert "seed = 9" in manifest
    assert "version = " in manifest


def test_manifest_lists_every_config_field(tmp_path):
    # the config lines follow the SystemConfig fields, so a new field gets
    # one; eta and sigma2 are per cell and the threshold comes last
    out = tmp_path / "r.csv"
    emit_results(monte_carlo(small_config(seed=9, warmup_slots=1),
                             _tiny_sweep()), out)
    lines = (tmp_path / "r.csv.manifest").read_text().splitlines()
    names = [line.split(" = ")[0] for line in lines]
    config_lines = names[names.index("version") + 1:names.index("policies")]
    assert config_lines == [
        f.name for f in dataclasses.fields(SystemConfig)
        if f.name not in ("eta", "sigma2", "sinr_threshold")] + ["sinr_threshold"]


def test_emit_results_byte_identical_reruns(tmp_path):
    cfg = small_config(seed=9, warmup_slots=1)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(monte_carlo(cfg, _tiny_sweep()), out1)
    emit_results(monte_carlo(cfg, _tiny_sweep()), out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_emit_results_empty_report(tmp_path):
    cfg = small_config()
    report = SecrecyReport(cells=(), config=cfg,
                           sweep=_tiny_sweep(policies=("bf-rjfs",)))
    out = tmp_path / "empty.csv"
    emit_results(report, out)
    assert out.read_text().splitlines() == [
        "policy,snr_db,eta,mean_secrecy_rate,std,ci95,trials,"
        "clamp_events,iri_feasible_frac"]


def test_sweep_validation():
    with pytest.raises(ConfigError):
        SweepSpec(policies=())
    with pytest.raises(ConfigError):
        SweepSpec(policies=("nope",))
    with pytest.raises(ConfigError):
        SweepSpec(policies=("bf-rjfs",), eta_grid=(2.5,))
    with pytest.raises(ConfigError):
        SweepSpec(policies=("bf-rjfs",), trials=0)
    # a repeated policy, or two grid values with one manifest key, would
    # write a CSV row and a manifest key twice
    with pytest.raises(ConfigError, match="policy list repeats"):
        SweepSpec(policies=("random", "bf-rjfs", "random"))
    with pytest.raises(ConfigError, match="snr grid repeats"):
        SweepSpec(policies=("random",), snr_db_grid=(10.0, 10))
    with pytest.raises(ConfigError, match="snr grid repeats"):
        SweepSpec(policies=("random",), snr_db_grid=(10.0, 10.0 + 1e-12))
    with pytest.raises(ConfigError, match="eta grid repeats"):
        SweepSpec(policies=("random",), eta_grid=(0.5, 1.0, 0.5))
    SweepSpec(policies=("random",), snr_db_grid=(10.0, 10.001))


# ---------------------------------------------------------------------------
# config file parsing


def test_parse_config_round_trip():
    text = """
    # scenario
    Q = 4
    T = 2
    K = 2
    N_t = 2
    M = 2
    N = 2
    sinr_threshold = auto
    iri_cancellation = false
    seed = 99
    """
    cfg = parse_config(text)
    assert cfg.Q == 4 and cfg.seed == 99
    assert cfg.sinr_threshold is None
    assert cfg.iri_cancellation is False


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("nonsense = 1\n")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError):
        parse_config("Q = 4\nQ = 5\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config("Q = four\n")
    with pytest.raises(ConfigError):
        parse_config("iri_cancellation = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("sinr_threshold = abc\n")


def test_parse_config_round_trips_every_file_field():
    # values are parsed from the SystemConfig annotations, so a new field is
    # settable without a parser change
    default = SystemConfig()
    for field in dataclasses.fields(SystemConfig):
        if field.name in ("eta", "sigma2"):
            continue
        value = getattr(default, field.name)
        assert getattr(parse_config(f"{field.name} = {value}\n"),
                       field.name) == value, field.name


def test_load_config(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("Q = 5\nT = 2\nK = 2\nsinr_threshold = 0.7\n")
    cfg = load_config(path)
    assert cfg.Q == 5
    assert cfg.sinr_threshold == 0.7


def test_load_config_reads_a_byte_order_mark(tmp_path):
    # an editor may save the file as UTF-8 with a leading byte-order mark
    path = tmp_path / "scenario.cfg"
    path.write_bytes(b"\xef\xbb\xbfQ = 5\nT = 2\n")
    cfg = load_config(path)
    assert (cfg.Q, cfg.T) == (5, 2)


def test_snr_sets_uniform_noise():
    cfg = SystemConfig(P=2.0, sinr_threshold=1.0).with_snr_db(10.0)
    assert cfg.sigma2 == pytest.approx(0.2)
    assert cfg.P / cfg.sigma2 == pytest.approx(10.0)


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0, -3100.0, 3100.0])
def test_snr_with_unrepresentable_noise_rejected(snr_db):
    # 10^(SNR/10) overflows, or P over it is zero or inf
    with pytest.raises(ConfigError, match=f"SNR {snr_db} dB"):
        SystemConfig().with_snr_db(snr_db)


# The relays (i), eavesdroppers (e) and users (r) all see the one noise
# variance sigma2; each receiver's case sets its noise through that field.
_NOISE_FIELD = {"sigma2_i": "sigma2", "sigma2_e": "sigma2", "sigma2_r": "sigma2"}


@pytest.mark.parametrize("field", ["P", "sigma2_i", "sigma2_e", "sigma2_r",
                                   "gamma0"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_power_noise_and_gamma0_rejected(field, value):
    name = _NOISE_FIELD.get(field, field)
    with pytest.raises(ConfigError, match=name):
        SystemConfig(**{name: value})


# ---------------------------------------------------------------------------
# lanes


_LANE_CONFIGS = {
    "Q=5 unforced receive": SystemConfig(Q=5, T=2, K=2, gamma0=0.3, seed=20261018),
    "default scenario": SystemConfig(seed=20261018),
    "consume_on_jam": SystemConfig(Q=5, T=2, K=2, gamma0=0.3, seed=20261018,
                                   consume_on_jam=True),
    "single antenna": SystemConfig(Q=5, T=2, K=2, gamma0=0.3,
                                   seed=20261018).single_antenna(),
    "no jammers": SystemConfig(Q=4, T=2, K=0, N_e=1, gamma0=0.3, seed=20261018),
}


def _lane_slot(outcome, state, rates, b):
    """Everything a lane's slot produced, as bytes: roles, replayed records,
    stored SINRs, stored-signal factors, jamming covariance, rates, clamps,
    the buffers and the counters."""
    bank, replays = state.buffers, outcome.replays
    return pickle.dumps((
        outcome.receivers[b], outcome.transmitters[b], outcome.jammers[b],
        replays.found[b], replays.snapshot[b], replays.sinr[b], replays.slot[b],
        replays.forward[b], outcome.sinr[b], outcome.factors[b], outcome.delta[b],
        [r[b] for r in rates],
        bank.valid[b], bank.snapshot[b], bank.sinr[b], bank.slot[b],
        bank.forward[b], bank.evictions[b],
        [getattr(state.diag, f.name)[b] for f in dataclasses.fields(DiagCounters)]))


def _slot_bytes(batches, slots):
    """``_lane_slot`` of every lane of the lane set of ``batches``, (policy,
    configs, trials) runs of lanes, per slot."""
    lanes = [(policy, cfg, trial) for policy, configs, trials in batches
             for cfg, trial in zip(configs, trials)]
    produced = []
    relaysec.sim._lockstep(lanes, slots, lambda *served: produced.append(
        [_lane_slot(*served, b) for b in range(len(lanes))]))
    return produced


@pytest.mark.parametrize("name", _LANE_CONFIGS)
@pytest.mark.parametrize("policy", relaysec.sim.POLICY_ORDER + ("every policy",))
def test_lanes_are_batch_invariant(policy, name):
    # a lane gives the same bits alone and in a batch with other trials of
    # its cell, lanes of other cells (other sigma2, eta and threshold) and a
    # calibration pre-run; this keeps outputs equal across worker counts and
    # cells independent.  One lane set may hold every policy, each on its
    # own lane range, served and scored at once: the peek rule on the joint
    # policies' lanes, the consume-forward rule on the baselines', and one
    # permutation draw for the random lanes of a trial.  The second random
    # range is not next to the first, so one policy runs as two ranges
    base = _LANE_CONFIGS[name]
    cells = [base.replace(eta=1.0, sinr_threshold=0.3).with_snr_db(10.0),
             base.replace(eta=0.5, sinr_threshold=0.1).with_snr_db(0.0),
             base.replace(eta=1.5, sinr_threshold=0.0).with_snr_db(20.0)]
    if policy == "every policy":
        # max-link's second lane is a calibration pre-run
        batches = [(each, [cells[i % 3], cells[(i + 1) % 3]],
                    (i % 2, None if each == "max-link" else 3))
                   for i, each in enumerate(relaysec.sim.POLICY_ORDER)]
        batches.append(("random", [cells[2], cells[2]], (0, 0)))
    else:
        # the last lane shares trial 0's draw with the first
        batches = [(policy, [cells[0], cells[0], cells[1], cells[2], cells[2]],
                    (0, 5, 1, None, 0))]
    slots = 12
    together = _slot_bytes(batches, slots)
    alone = [_slot_bytes([(each, [cfg], (trial,))], slots)
             for each, configs, trials in batches
             for cfg, trial in zip(configs, trials)]
    assert len(together) == slots
    for b, single in enumerate(alone):
        for slot in range(slots):
            assert together[slot][b] == single[slot][0], (slot, b)


def test_lanes_of_a_batch_differ_only_in_cell_fields():
    cfg = small_config()
    lanes = relaysec.selection.Lanes.of(
        [cfg, cfg.replace(eta=0.5), cfg.with_snr_db(3.0), cfg])
    assert lanes.sigma2.tolist() == [1.0, 1.0, cfg.with_snr_db(3.0).sigma2, 1.0]
    with pytest.raises(ConfigError, match="differ only"):
        relaysec.selection.Lanes.of([cfg, cfg.replace(eta=0.5),
                                     cfg.replace(gamma0=0.5)])


@pytest.mark.parametrize("workers", [1, 2])
def test_sub_grid_cells_equal_full_sweep_cells(workers):
    # every cell of a sweep runs on the one shared draw per (trial, slot), in
    # batches and chunks shaped by the whole grid; a sweep over a sub-grid
    # still gives the shared cells' results field for field
    cfg = small_config(sinr_threshold=None, seed=31, warmup_slots=1)
    full = monte_carlo(cfg, SweepSpec(
        policies=("bf-rjfs", "random", "conventional-bf"),
        snr_db_grid=(0.0, 10.0, 20.0), eta_grid=(0.5, 1.5), trials=5,
        slots_per_trial=4, workers=workers))
    sub = monte_carlo(cfg, SweepSpec(
        policies=("random", "bf-rjfs"), snr_db_grid=(10.0,),
        eta_grid=(1.5,), trials=5, slots_per_trial=4, workers=workers))
    by_key = {(c.policy, c.snr_db, c.eta): c for c in full.cells}
    assert len(sub.cells) == 2
    for cell in sub.cells:
        assert cell == by_key[(cell.policy, cell.snr_db, cell.eta)]


def test_one_channel_draw_per_trial_slot_per_sweep(monkeypatch):
    # 2 policies x 2 SNRs x 2 etas share each (trial, slot) channel draw,
    # and the 4 random cells each (trial, slot) permutation draw
    real_substream = relaysec.sim.substream
    keys = []

    def substream(seed, *key):
        keys.append(key)
        return real_substream(seed, *key)

    monkeypatch.setattr(relaysec.sim, "substream", substream)
    sweep = SweepSpec(policies=("bf-rjfs", "random"), snr_db_grid=(0.0, 10.0),
                      eta_grid=(0.5, 1.5), trials=7, slots_per_trial=3)
    monte_carlo(small_config(seed=9), sweep)
    for stream in (STREAM_CHANNEL, STREAM_POLICY):
        drawn = [key for key in keys if key[0] == stream]
        assert sorted(drawn) == [(stream, trial, slot)
                                 for trial in range(7) for slot in range(3)]


def test_bf_rjfs_scored_trial_computes_each_slot_delta_once(monkeypatch):
    # a served slot's jamming covariance is computed on the outcome when
    # first read, by the slot's rates or by the next slot's jam selection,
    # and never again; a calibration pre-run, which scores no slot, never
    # reads the last slot's, and a policy that does not score jammers
    # against it reads none; the oracle computes its jam sets' covariances
    # once per slot, to score them
    real = relaysec.selection._eav_interference
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(relaysec.selection, "_eav_interference", counted)
    run_trial(small_config(seed=77), "bf-rjfs", 0, 6)
    assert len(calls) == 6
    calls.clear()
    calibrate_threshold(small_config(sinr_threshold=None, seed=77), "bf-rjfs")
    assert len(calls) == relaysec.sim._CALIBRATION_SLOTS - 1
    calls.clear()
    for policy in ("conventional-bf", "random"):
        calibrate_threshold(small_config(sinr_threshold=None, seed=77), policy)
    assert calls == []
    calibrate_threshold(small_config(sinr_threshold=None, seed=77), "oracle")
    assert len(calls) == relaysec.sim._CALIBRATION_SLOTS


def test_pool_tasks_survive_pickling():
    # a pool task that fails to pickle can hang the pool's shutdown instead
    # of raising; every function and argument _run_cells hands its map, and
    # every result, must make the round trip
    handed = []

    def pickling_map(fn, *iterables):
        assert pickle.loads(pickle.dumps(fn)) is fn
        for args in zip(*iterables):
            handed.append(fn.__name__)
            assert pickle.loads(pickle.dumps(args)) == args
            result = fn(*args)
            sent = pickle.dumps(result)
            assert pickle.dumps(pickle.loads(sent)) == sent
            yield result

    cfg = small_config(sinr_threshold=None, seed=23, warmup_slots=1)
    sweep = _tiny_sweep(policies=("bf-rjfs", "random"), trials=3, workers=2)
    cells = [(policy, snr_db, eta, cfg.replace(eta=eta).with_snr_db(snr_db))
             for policy in sweep.policies for snr_db in sweep.snr_db_grid
             for eta in sweep.eta_grid]
    results = relaysec.sim._run_cells(pickling_map, cells, sweep, sweep.workers)
    assert set(handed) == {"_calibrate_lanes", "_trial_chunk"}
    assert tuple(results) == monte_carlo(cfg, sweep).cells
