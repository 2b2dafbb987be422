"""One-matrix, one-pair, one-relay and one-trial views of the lane engine,
for tests that read better with one rate, one (receiver, interferer) pair,
one SINR, one relay's buffer or one trial at a time.  Each is the engine's
own code on a lane set, a stack or a lane of one."""

from __future__ import annotations

import numpy as np

from relaysec.channel import gram
from relaysec.rates import (RateReport, clamped_logdet_rate, iri_feasible,
                            reception_sinr)
from relaysec.sim import _lockstep


def rate(Gamma: np.ndarray, base: float = 2.0) -> float:
    """User or eavesdropper rate log_base det(I + Gamma), clamped at zero."""
    return clamped_logdet_rate(Gamma, base)[0]


def pair_feasible(H_i: np.ndarray, H_ki: np.ndarray, P_tx: float,
                  P_relay: float, N_t: int, N_k: int, gamma0: float) -> bool:
    """:func:`~relaysec.rates.iri_feasible` of one source channel
    ``H_i`` and one interferer channel ``H_ki``."""
    return bool(iri_feasible(gram(np.asarray(H_i)), gram(np.asarray(H_ki)),
                             P_tx, P_relay, N_t, N_k, gamma0))


def pair_sinr(gamma_S: float, interference: float, phi: int, N_i: int,
              sigma2: float) -> float:
    """:func:`~relaysec.rates.reception_sinr` of one receiver with
    one interferer; ``phi = 0`` means its interference was cancelled."""
    return float(reception_sinr(np.array([gamma_S]), np.array([[interference]]),
                                phi, N_i, sigma2)[0])


def bank_records(bank, lane: int, relay: int) -> tuple:
    """The records of relay index ``relay`` in ``lane`` of a
    :class:`~relaysec.buffers.BufferBank`, oldest first, as
    :class:`~relaysec.buffers.BufferedSignal`, each read by the bank's own
    ``take``."""
    cells = np.flatnonzero(bank.valid[lane, relay])
    found = np.zeros(bank.valid.shape[:2], dtype=bool)
    found[lane, relay] = True
    return tuple(bank.take(np.full(found.shape, cell), found).record(lane, relay)
                 for cell in cells[np.argsort(bank.slot[lane, relay, cells])].tolist())


def run_trial(config, policy: str, trial_index: int, slots: int) -> list:
    """Per-slot RateReports of one trial of ``slots`` slots, run as a lane set
    of one; a pure function of (config, policy, trial_index, slots) including
    the root seed inside the config.  A NumericError names the policy, the
    trial and the slot."""
    scored = []
    _lockstep([(policy, config, trial_index)], slots,
              lambda outcome, state, rates: scored.append(rates))
    return [RateReport.of_first_lane(user, eav, secrecy)
            for user, eav, secrecy, _ in scored]
