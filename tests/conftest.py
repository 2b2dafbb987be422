import multiprocessing

import numpy as np
import pytest

import relaysec.sim
from relaysec.buffers import BufferedSignal, SignalClass, classify_signal
from relaysec.channel import (STREAM_INSTANCE, NetworkRealization,
                              gen_network_realization, substream)
from relaysec.config import SystemConfig
from relaysec.errors import NumericError
from relaysec.selection import fresh_state
from views import bank_records


def cn_matrix(rng, rows, cols):
    return np.sqrt(0.5) * (rng.standard_normal((rows, cols))
                           + 1j * rng.standard_normal((rows, cols)))


def random_psd(rng, n, extra=2):
    H = cn_matrix(rng, n, n + extra)
    return H @ H.conj().T


@pytest.fixture(autouse=True)
def fresh_pool():
    """Close the process pool that pooled sweeps share before and after each
    test, so that a test's pooled sweep forks its workers from the module as
    the test patched it."""
    relaysec.sim._close_pool()
    yield
    relaysec.sim._close_pool()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def small_config(**overrides):
    """Q=4 scenario small enough for exhaustive enumeration in tests."""
    defaults = dict(N_t=2, N_r=2, N_e=2, N_i=2, N_k=2, M=2, N=2,
                    Q=4, T=2, K=2, sinr_threshold=1.0,
                    warmup_slots=0, buffer_capacity=4)
    defaults.update(overrides)
    return SystemConfig(**defaults)


def realization_from_arrays(config, slot, su, se, rr_map, re, ru):
    """Assemble a one-lane NetworkRealization from explicit per-link arrays.

    su: (Q, N_i, N_t); se: (N, N_e, N_t); rr_map: {(k, i): (N_i, N_k)};
    re: (Q, N, N_e, N_k); ru: (Q, M, N_r, N_k).
    """
    Q = config.Q
    su = np.asarray(su, dtype=complex)
    se = np.asarray(se, dtype=complex)
    re = np.asarray(re, dtype=complex)
    ru = np.asarray(ru, dtype=complex)
    rr = np.zeros((Q * (Q - 1), config.N_i, config.N_k), dtype=complex)
    row = 0
    for k in range(1, Q + 1):
        for i in range(1, Q + 1):
            if k != i:
                rr[row] = np.asarray(rr_map[(k, i)])
                row += 1
    su, se, rr, re, ru = (arr[None] for arr in (su, se, rr, re, ru))
    for arr in (su, se, rr, re, ru):
        arr.flags.writeable = False
    return NetworkRealization(slot=slot, su_stack=su, se_stack=se, rr_stack=rr,
                              re_stack=re, ru_stack=ru, Q=Q,
                              rows=np.zeros(1, dtype=np.intp))


def rr_map(real):
    """{(k, i): relay k -> relay i channel} of a one-lane realization, k != i,
    read through its ``rr_block`` gather."""
    ids = np.arange(real.Q)
    block = real.rr_block(ids[None, :, None], ids[None, None])[0]
    return {(k, i): block[k - 1, i - 1]
            for k in range(1, real.Q + 1) for i in range(1, real.Q + 1)
            if k != i}


def stock(state, relay_id, record, lane=0):
    """Push one BufferedSignal into relay ``relay_id``'s buffer of a lane."""
    bank = state.buffers
    shape = bank.valid.shape[:2]
    relays = np.zeros(shape, dtype=bool)
    relays[lane, relay_id - 1] = True
    bank.push(relays, record.snapshot[None], [record.sinr_at_reception],
              record.slot, [record.signal_class is SignalClass.FORWARD])


def buffer_records(state, relay_id, lane=0):
    """The records of relay ``relay_id`` in a lane, oldest first."""
    return bank_records(state.buffers, lane, relay_id - 1)


def peek_all(state, lane=0):
    """{relay id: record it would replay now} over the relays that have one."""
    cell, found = state.buffers.peek_jamming()
    records = state.buffers.take(cell, found)
    return {q + 1: records.record(lane, q) for q in np.flatnonzero(found[lane])}


def make_instance(config, seed, start_slot=10):
    """Deterministic single-slot test instance: pre-stocked one-lane buffers
    plus a fresh one-lane realization.  Rebuilding with the same seed gives
    an identical but independent state, so policies can be compared on
    equal footing."""
    rng = substream(config.seed, STREAM_INSTANCE, seed, 0)
    state = fresh_state(config)
    threshold = config.sinr_threshold if config.sinr_threshold is not None else 1.0
    for q in range(1, config.Q + 1):
        n_records = int(rng.integers(0, 4))
        for j in range(n_records):
            sinr = float(rng.exponential(2.0))
            stock(state, q, BufferedSignal(
                snapshot=cn_matrix(rng, config.N_i, config.N_t),
                sinr_at_reception=sinr,
                slot=j,
                signal_class=classify_signal(sinr, threshold)))
    realization = gen_network_realization(
        config, start_slot, [substream(config.seed, STREAM_INSTANCE, seed, 1)])
    return state, realization


# pooled workers see a monkeypatched module only when they are forked from it
needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="pool workers are not forked")


def inject_trial_error(monkeypatch):
    """Make every trial slot raise NumericError("injected"); calibration
    pre-runs score no slot, so they are unaffected."""
    def failing_rates(*args, **kwargs):
        raise NumericError("injected")

    monkeypatch.setattr(relaysec.sim, "lane_rates", failing_rates)
