"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria run the full 2000-trial protocol and share sweeps
through module-scoped fixtures; expect a few minutes of wall time.
"""

import math

import numpy as np
import pytest

from relaysec.buffers import BufferedSignal, RelayBuffer, SignalClass, classify_signal
from relaysec.channel import gram, substream
from relaysec.config import SystemConfig
from relaysec.selection import POLICIES, fresh_state, slot_rate_report
from relaysec.sim import SweepSpec, emit_results, monte_carlo

from conftest import cn_matrix, make_instance, random_psd, small_config
from views import pair_feasible, pair_sinr, rate

SEED = 20260808
TRIALS = 2000
SLOTS = 8
WARMUP = 2
SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status}  {detail}")
    return ok


def _cells(config, policies, snrs, etas, trials=TRIALS):
    sweep = SweepSpec(policies=policies, snr_db_grid=snrs, eta_grid=etas,
                      trials=trials, slots_per_trial=SLOTS, workers=2)
    return monte_carlo(config, sweep).cells


@pytest.fixture(scope="module")
def snr_cells():
    config = SystemConfig(seed=SEED, warmup_slots=WARMUP)
    return _cells(config, ("bf-rjfs", "conventional-bf"), SNR_GRID, (1.0,))


@pytest.fixture(scope="module")
def siso_cells():
    config = SystemConfig(seed=SEED, warmup_slots=WARMUP).single_antenna()
    return _cells(config, ("bf-rjfs",), SNR_GRID, (1.0,))


@pytest.fixture(scope="module")
def eta_cells_10db():
    grids = (0.5, 0.75, 1.0, 1.25, 1.5)
    out = {}
    for iri in (True, False):
        config = SystemConfig(seed=SEED, warmup_slots=WARMUP, gamma0=0.3,
                              iri_cancellation=iri)
        out[iri] = _cells(config, ("bf-rjfs",), (10.0,), grids)
    return grids, out


@pytest.fixture(scope="module")
def eta_cells_20db():
    grids = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    out = {}
    for iri in (True, False):
        config = SystemConfig(seed=SEED, warmup_slots=WARMUP, gamma0=0.3,
                              iri_cancellation=iri)
        out[iri] = _cells(config, ("bf-rjfs",), (20.0,), grids)
    return grids, out


def test_criterion_1_numerical_core():
    rng = np.random.default_rng(SEED)
    worst_rate = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        S = random_psd(rng, n) * float(rng.uniform(0.1, 20.0))
        expected = float(np.sum(np.log2(1.0 + np.linalg.eigvalsh(S))))
        # a user or an eavesdropper rate, which is one formula; the coin is
        # still drawn, as it is part of this criterion's sample stream
        rng.uniform()
        got = rate(S)
        if expected > 0:
            worst_rate = max(worst_rate, abs(got - expected) / expected)
    ok = worst_rate < 1e-9

    worst_herm, worst_eig = 0.0, 0.0
    for _ in range(1000):
        H = cn_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        G = gram(H)
        worst_herm = max(worst_herm, float(np.max(np.abs(G - G.conj().T))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(G).min()))
    ok = ok and worst_herm < 1e-12 and worst_eig >= -1e-10

    phi_ok = True
    for a in np.linspace(0.1, 4.0, 10):
        for b in np.linspace(0.1, 4.0, 10):
            got = pair_feasible(
                np.array([[a + 0j]]), np.array([[b + 0j]]), 2.0, 3.0, 1, 1, 1.1)
            phi_ok = phi_ok and (got == ((3.0 * b * b) / (2.0 * a * a + 1.0) >= 1.1))
    ok = ok and phi_ok
    assert _report(1, "numerical core", ok,
                   f"logdet rel err {worst_rate:.2e}, hermiticity "
                   f"{worst_herm:.2e}, min eig {worst_eig:.2e}, phi grid "
                   f"{'exact' if phi_ok else 'mismatch'}")


def test_criterion_2_oracle_dominance():
    results = {"oracle": [], "bf-rjfs": [], "random": []}
    pointwise_ok = True
    for idx in range(200):
        antennas = 1 + idx % 2
        n_t = 1 + (idx // 2) % 2
        config = small_config(seed=idx, N_t=n_t, N_r=antennas, N_e=antennas,
                              N_i=antennas, N_k=antennas)
        state_o, real = make_instance(config, seed=idx)
        out_o, _ = POLICIES["oracle"](state_o, real, config)
        rep_o, _ = slot_rate_report(real, config, out_o.replays,
                                    out_o.jamming_relays,
                                    out_o.transmitting_relays)
        results["oracle"].append(rep_o.secrecy_rate)

        state_b, _ = make_instance(config, seed=idx)
        out_b, _ = POLICIES["bf-rjfs"](state_b, real, config)
        rep_b, _ = slot_rate_report(real, config, out_b.replays,
                                    out_b.jamming_relays,
                                    out_b.transmitting_relays)
        results["bf-rjfs"].append(rep_b.secrecy_rate)
        if rep_o.secrecy_rate < rep_b.secrecy_rate - 1e-9:
            pointwise_ok = False

        state_r, _ = make_instance(config, seed=idx)
        out_r, _ = POLICIES["random"](state_r, real, config,
                                      substream(SEED, 3, idx, 99))
        rep_r, _ = slot_rate_report(real, config, out_r.replays,
                                    out_r.jamming_relays,
                                    out_r.transmitting_relays)
        results["random"].append(rep_r.secrecy_rate)

    means = {k: float(np.mean(v)) for k, v in results.items()}
    ok = (pointwise_ok and means["oracle"] >= means["bf-rjfs"]
          and means["bf-rjfs"] >= means["random"])
    assert _report(2, "oracle dominance", ok,
                   f"means: oracle {means['oracle']:.3f} >= bf-rjfs "
                   f"{means['bf-rjfs']:.3f} >= random {means['random']:.3f}; "
                   f"pointwise {'ok' if pointwise_ok else 'violated'}")


def test_criterion_3_beats_conventional(snr_cells):
    bf = {c.snr_db: c for c in snr_cells if c.policy == "bf-rjfs"}
    conv = {c.snr_db: c for c in snr_cells if c.policy == "conventional-bf"}
    above = all(bf[s].mean_secrecy_rate > conv[s].mean_secrecy_rate
                for s in SNR_GRID)
    significant = sum(
        bf[s].mean_secrecy_rate - conv[s].mean_secrecy_rate
        > 2.0 * math.hypot(bf[s].ci95, conv[s].ci95)
        for s in SNR_GRID)
    ok = above and significant >= 4
    gaps = ", ".join(
        f"{s:.0f}dB:+{bf[s].mean_secrecy_rate - conv[s].mean_secrecy_rate:.2f}"
        for s in SNR_GRID)
    assert _report(3, "bf-rjfs > conventional-bf", ok,
                   f"{gaps}; significant at {significant}/5 points")


def test_criterion_4_mimo_beats_single_antenna(snr_cells, siso_cells):
    mimo = {c.snr_db: c.mean_secrecy_rate for c in snr_cells
            if c.policy == "bf-rjfs"}
    siso = {c.snr_db: c.mean_secrecy_rate for c in siso_cells}
    ok = all(mimo[s] > siso[s] for s in SNR_GRID)
    detail = ", ".join(f"{s:.0f}dB: {mimo[s]:.2f} vs {siso[s]:.2f}"
                       for s in SNR_GRID)
    assert _report(4, "MIMO > single antenna", ok, detail)


def _ls_slope(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    return float(np.sum((x - x.mean()) * (y - y.mean()))
                 / np.sum((x - x.mean()) ** 2))


def test_criterion_5_eta_slope_negative(eta_cells_10db):
    grids, cells = eta_cells_10db
    slopes = {}
    for iri in (True, False):
        means = [c.mean_secrecy_rate for c in cells[iri]]
        slopes[iri] = _ls_slope(grids, means)
    ok = slopes[True] < 0.0 and slopes[False] < 0.0
    assert _report(5, "secrecy decreases with eta", ok,
                   f"slope with-iri {slopes[True]:.3f}, "
                   f"without {slopes[False]:.3f}")


def test_criterion_6_iri_crossover(eta_cells_20db):
    grids, cells = eta_cells_20db
    diff = [a.mean_secrecy_rate - b.mean_secrecy_rate
            for a, b in zip(cells[True], cells[False])]
    higher_at_half = diff[0] > 0.0
    crossings = [
        (grids[i], grids[i + 1])
        for i in range(len(grids) - 1)
        if grids[i] >= 1.0 and diff[i] * diff[i + 1] < 0.0]
    ok = higher_at_half and bool(crossings)
    detail = ("diff by eta: "
              + ", ".join(f"{e:.2f}:{d:+.4f}" for e, d in zip(grids, diff))
              + f"; crossings {crossings}")
    assert _report(6, "IRI-cancellation crossover", ok, detail)


def test_criterion_7_sinr_inequality():
    rng = np.random.default_rng(SEED + 7)
    ok = True
    for i in range(10_000):
        gs = float(rng.exponential(5.0))
        gi = 0.0 if i % 10 == 0 else float(rng.exponential(3.0))
        ni = int(rng.integers(1, 4))
        s2 = float(rng.uniform(0.05, 5.0))
        with_c = pair_sinr(gs, gi, 0, ni, s2)
        without = pair_sinr(gs, gi, 1, ni, s2)
        if with_c < without:
            ok = False
        if gi == 0.0 and with_c != without:
            ok = False
        if gi > 0.0 and gs > 0.0 and with_c <= without:
            ok = False
    assert _report(7, "cancellation SINR inequality", ok, "10^4 samples")


def test_criterion_8_reproducibility(tmp_path):
    config = SystemConfig(seed=SEED, warmup_slots=1, Q=4, T=2, K=2, N_t=2,
                          M=2, N=2)
    outputs = []
    for name, workers in (("a", 1), ("b", 2), ("c", 2)):
        sweep = SweepSpec(policies=("bf-rjfs", "conventional-bf"),
                          snr_db_grid=(0.0, 10.0), eta_grid=(1.0,),
                          trials=20, slots_per_trial=6, workers=workers)
        path = tmp_path / f"{name}.csv"
        emit_results(monte_carlo(config, sweep), path)
        outputs.append((path.read_bytes(),
                        (tmp_path / f"{name}.csv.manifest").read_bytes()))
    ok = (outputs[0] == outputs[1] == outputs[2])
    assert _report(8, "byte-identical reruns across parallelism", ok,
                   f"{len(outputs[0][0])} bytes")


def test_criterion_9_buffer_state_machine(monkeypatch):
    rng = np.random.default_rng(SEED + 9)
    buf = RelayBuffer(1, capacity=6)
    slot = 0
    threshold = 1.0
    ok = True
    for _ in range(100_000):
        op = rng.integers(0, 4)
        if op == 0:
            sinr = float(rng.exponential(1.0))
            buf.push(BufferedSignal(np.zeros((1, 1)), sinr, slot,
                                    classify_signal(sinr, threshold)))
            slot += 1
        elif op == 1:
            rec = buf.pop_forward()
            if rec is not None and rec.signal_class is not SignalClass.FORWARD:
                ok = False
        elif op == 2:
            rec = buf.peek_jamming()
            if rec is not None and len(buf) == 0:
                ok = False
        else:
            buf.peek_forward()
        slots = [r.slot for r in buf.records]
        if len(buf) > buf.capacity or slots != sorted(set(slots)):
            ok = False
        for rec in buf.records:
            expected = (SignalClass.FORWARD if rec.sinr_at_reception >= threshold
                        else SignalClass.JAM)
            if rec.signal_class is not expected:
                ok = False

    # threshold-0 runs must equal a control run with classification bypassed
    config = small_config(seed=SEED, sinr_threshold=0.0)
    outcomes = []
    for bypass in (False, True):
        if bypass:
            monkeypatch.setattr(
                "relaysec.selection.classify_signal",
                lambda sinr, threshold: SignalClass.FORWARD)
        else:
            monkeypatch.undo()
        state = fresh_state(config)
        per_run = []
        for slot_idx in range(30):
            from relaysec.channel import gen_network_realization
            real = gen_network_realization(
                config, slot_idx, [substream(config.seed, 0, 0, slot_idx)])
            outcome, state = POLICIES["bf-rjfs"](state, real, config)
            per_run.append((outcome.receiving_relays, outcome.jamming_relays))
        outcomes.append(per_run)
    ok = ok and outcomes[0] == outcomes[1]
    assert _report(9, "buffer state machine", ok,
                   "10^5 ops; threshold-0 equals no-classification control")
