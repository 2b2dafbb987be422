"""Link powers, the IRI-cancellation feasibility test and the relay
reception SINR.

The link powers take matrices or stacks, and only :func:`relayed_link_power`
forms the replay product H_ab Hs.  The feasibility test and the reception
SINR are implemented once each, batched only (:func:`iri_feasible` on the
SINR matrix of Grams, and :func:`reception_sinr`); the engine's reception
step calls them and the link powers.

Replayed-signal quantities are built from the buffered channel snapshot of
the transmitting relay (the source-side channel it saw when the signal was
stored), never from the current slot's source channel.
"""

from __future__ import annotations

import numpy as np

from .channel import received_power
from .rates import sinr_matrix


def source_link_power(H: np.ndarray):
    """Instantaneous received power of a direct link (no buffered replay),
    or of each link in a (..., rows, cols) stack; see
    :func:`~relaysec.channel.received_power`."""
    return received_power(H)


def relayed_link_power(H_ab: np.ndarray, H_stored: np.ndarray):
    """trace(H_ab Hs Hs^H H_ab^H) for a replayed buffered signal, by einsum.

    ``H_stored`` is the snapshot the transmitting relay recorded at reception;
    its row count must match the transmit antenna count (columns of H_ab).
    Matrices give a float; (..., rows, cols) stacks, broadcast against each
    other, give an array over the leading axes, bit-equal to per-pair calls.
    """
    H_ab = np.asarray(H_ab)
    H_stored = np.asarray(H_stored)
    if H_ab.ndim < 2 or H_stored.ndim < 2:
        raise ValueError("expected matrices or matrix stacks")
    if H_ab.shape[-1] != H_stored.shape[-2]:
        raise ValueError(
            f"replay dimension mismatch: H_ab is {H_ab.shape}, snapshot is "
            f"{H_stored.shape}")
    return received_power(np.einsum("...ab,...bc->...ac", H_ab, H_stored))


def iri_feasible(G_i: np.ndarray, G_ki: np.ndarray, P_tx: float,
                 P_relay: float, N_t: int, N_k: int, gamma0: float) -> np.ndarray:
    """Batched IRI-cancellation test over broadcast (..., N_i, N_i) Grams
    ``G_i`` = H_i H_i^H of the source channels and ``G_ki`` = H_ki H_ki^H of
    the interferer channels; the powers are numbers or arrays that broadcast
    against the Gram stacks.

    Relay i can decode-and-subtract relay k's interference iff
    det((P_tx/N_t * H_i H_i^H + I)^{-1} (P_relay/N_k * H_ki H_ki^H)) >= gamma0,
    i.e. the interference is strong enough relative to signal-plus-noise to be
    decoded first.  It reads that :func:`~relaysec.rates.sinr_matrix` through
    the real part of its (generally non-Hermitian) determinant, which reduces
    to the scalar test in the single-antenna case.
    """
    Gamma = sinr_matrix(G_ki, (P_tx / N_t) * G_i, P_relay, N_k)
    return np.linalg.det(Gamma).real >= gamma0


def reception_sinr(gamma_S: np.ndarray, interference: np.ndarray, phi,
                   N_i: int, sigma2: float) -> np.ndarray:
    """Reception SINR gamma_S / (sum_k phi_k gamma_k + N_i sigma2) of R
    receiving relays: ``gamma_S`` is the (..., R) source power,
    ``interference`` the (..., A, R) power of each interferer at each
    receiver, and ``phi`` (broadcast to it) is 0 where that interference was
    cancelled, else 1; ``sigma2`` broadcasts against (..., R).
    """
    return gamma_S / ((phi * interference).sum(axis=-2) + N_i * sigma2)
