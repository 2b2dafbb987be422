"""Link powers, the IRI-cancellation feasibility test and the relay
reception SINR.

The link powers take matrices or stacks, and only :func:`relayed_link_power`
forms the replay product H_ab Hs.  The feasibility test and the reception
SINR are implemented once each, batched (:func:`iri_feasible` on the SINR
matrix of Grams, and :func:`reception_sinr`); the engine's reception step
calls them and the link powers, and :func:`iri_cancellation_feasible` and
:func:`sinr_relay` are their one-pair views.

Replayed-signal quantities are built from the buffered channel snapshot of
the transmitting relay (the source-side channel it saw when the signal was
stored), never from the current slot's source channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import gram, received_power
from .rates import sinr_matrix


@dataclass(frozen=True)
class SinrValue:
    value: float                 # linear, dimensionless, >= 0
    cancellation_applied: bool


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


def iri_cancellation_feasible(H_i: np.ndarray, H_ki: np.ndarray,
                              P_tx: float, P_relay: float,
                              N_t: int, N_k: int, gamma0: float) -> bool:
    """:func:`iri_feasible` for one (H_i, H_ki) matrix pair."""
    H_i = np.asarray(H_i)
    H_ki = np.asarray(H_ki)
    if H_i.shape[0] != H_ki.shape[0]:
        raise ValueError(
            f"receive-side dimension mismatch: H_i is {H_i.shape}, H_ki is "
            f"{H_ki.shape}")
    if P_tx <= 0 or P_relay <= 0:
        raise ValueError("powers must be positive")
    return bool(iri_feasible(gram(H_i), gram(H_ki), P_tx, P_relay, N_t, N_k,
                             gamma0))


def sinr_relay(gamma_S_Ri: float, gamma_Rk_Ri_total: float, phi: int,
               N_i: int, sigma2: float) -> SinrValue:
    """Reception SINR at one relay; ``phi = 0`` means IRI was cancelled."""
    if phi not in (0, 1):
        raise ValueError(f"phi must be 0 or 1, got {phi}")
    value = reception_sinr(np.array([gamma_S_Ri]), np.array([[gamma_Rk_Ri_total]]),
                           phi, N_i, sigma2)[0]
    return SinrValue(value=float(value), cancellation_applied=(phi == 0))
