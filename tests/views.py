"""One-matrix and one-pair views of the batched kernels, for tests that read
better with one rate, one (receiver, interferer) pair or one SINR at a time.
Each is the kernel itself on a stack of one."""

from __future__ import annotations

import numpy as np

from relaysec.channel import gram
from relaysec.rates import clamped_logdet_rate, iri_feasible, reception_sinr


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
