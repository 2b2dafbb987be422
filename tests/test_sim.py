import concurrent.futures
import dataclasses
import time

import pytest

import relaysec.selection
import relaysec.sim
from relaysec.config import SystemConfig, load_config, parse_config, power_split
from relaysec.errors import ConfigError, NumericError
from relaysec.sim import (SecrecyReport, SweepSpec, calibrate_threshold,
                          emit_results, monte_carlo, run_trial)

from conftest import inject_trial_error, needs_fork, small_config


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


def test_zero_slot_config_rejected():
    with pytest.raises(ConfigError):
        small_config(slots=0)


def test_replay_antenna_mismatch_rejected_without_jammers():
    # every policy replays buffered snapshots through the N_k transmit
    # antennas, so N_k != N_i is invalid even with K = 0
    with pytest.raises(ConfigError, match="N_k == N_i"):
        SystemConfig(Q=4, T=1, K=0, N_r=1, N_i=1, N_k=2)


def test_unknown_policy_rejected():
    with pytest.raises(ConfigError):
        run_trial(small_config(), "bogus", 0)


def test_unresolved_threshold_rejected():
    cfg = small_config(sinr_threshold=None)
    with pytest.raises(ConfigError):
        run_trial(cfg, "bf-rjfs", 0)


def test_run_trial_deterministic():
    cfg = small_config(seed=77, slots=6)
    a = run_trial(cfg, "bf-rjfs", trial_index=3)
    b = run_trial(cfg, "bf-rjfs", trial_index=3)
    assert [r.secrecy_rate for r in a] == [r.secrecy_rate for r in b]
    assert [r.user_rates for r in a] == [r.user_rates for r in b]


def test_run_trial_distinct_across_trials():
    cfg = small_config(seed=77, slots=6)
    a = run_trial(cfg, "bf-rjfs", trial_index=0)
    b = run_trial(cfg, "bf-rjfs", trial_index=1)
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
    cfg = small_config(seed=77, slots=6)
    run_trial(cfg, "bf-rjfs", 0)
    assert len(calls) == cfg.slots - 1


def test_report_structure():
    cfg = small_config(seed=5, slots=4)
    reports = run_trial(cfg, "bf-rjfs", 0)
    assert len(reports) == 4
    for rep in reports:
        assert len(rep.user_rates) == cfg.T
        assert len(rep.eav_rates) == cfg.N
        assert rep.secrecy_rate >= 0.0


def test_oracle_dominates_on_shared_state_slot0():
    # both policies start from the same empty buffers at slot 0
    for seed in range(10):
        cfg = small_config(seed=seed, slots=1)
        a = run_trial(cfg, "oracle", 0)
        b = run_trial(cfg, "bf-rjfs", 0)
        assert a[0].secrecy_rate >= b[0].secrecy_rate - 1e-9


def test_oracle_dominates_in_aggregate():
    # after slot 0 the buffer states diverge, so dominance holds on average
    cfg = small_config(seed=3, slots=5)
    diff = 0.0
    for trial in range(12):
        a = run_trial(cfg, "oracle", trial)
        b = run_trial(cfg, "bf-rjfs", trial)
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


def test_one_pool_per_sweep_runs_calibration(monkeypatch):
    built = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    # relaysec.sim looks the class up here, so that a serial run never
    # imports multiprocessing
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    cfg = small_config(sinr_threshold=None, seed=21, warmup_slots=1)
    sweep = _tiny_sweep(trials=3)
    serial = monte_carlo(cfg, sweep)
    assert built == []
    pooled = monte_carlo(cfg, dataclasses.replace(sweep, workers=2))
    assert len(built) == 1
    assert len(serial.cells) == 4
    assert all(cell.sinr_threshold > 0.0 for cell in serial.cells)
    assert pooled.cells == serial.cells


def test_pooled_calibration_through_a_wrapped_calibrate_threshold(monkeypatch):
    # a timing harness wraps calibrate_threshold in a local closure, which a
    # pool cannot pickle; the pool must be handed a module-level task instead,
    # and in process every calibration must still go through the wrapper
    calibrate = relaysec.sim.calibrate_threshold
    calls = []

    def timed(*args, **kwargs):
        calls.append(args)
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(relaysec.sim, "calibrate_threshold", timed)
    cfg = small_config(sinr_threshold=None, seed=23, warmup_slots=1)
    sweep = _tiny_sweep(policies=("bf-rjfs",), trials=2)
    serial = monte_carlo(cfg, sweep)
    assert len(calls) == len(serial.cells) == 2   # one per auto-threshold cell
    pooled = monte_carlo(cfg, dataclasses.replace(sweep, workers=2))
    assert all(cell.sinr_threshold > 0.0 for cell in serial.cells)
    assert pooled.cells == serial.cells


@needs_fork
def test_pool_error_reaches_caller_and_cancels_queued_cells(monkeypatch, tmp_path):
    inject_trial_error(monkeypatch)
    real_trial = relaysec.sim._run_trial_full

    def summary(config, policy, trial_index):   # leaves a file per started trial
        (tmp_path / f"{config.eta}-{trial_index}").touch()
        if trial_index:
            time.sleep(0.2)
        return real_trial(config, policy, trial_index)

    # _run_trial_full, not the _trial_summary the pool is handed: a local
    # function cannot be pickled into a task
    monkeypatch.setattr(relaysec.sim, "_run_trial_full", summary)
    sweep = SweepSpec(policies=("bf-rjfs",), snr_db_grid=(10.0,),
                      eta_grid=(0.5, 1.0, 1.5), trials=8, slots_per_trial=4,
                      workers=2)
    with pytest.raises(NumericError,
                       match=r"policy 'bf-rjfs' trial 0 slot 0: injected"):
        monte_carlo(small_config(seed=9), sweep)
    # trial 0 of the first cell fails at once; no trial of a later cell starts
    started = [path.name for path in tmp_path.iterdir()]
    assert "0.5-0" in started
    assert all(name.startswith("0.5-") for name in started)


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
