"""Scalar link powers, SINRs, and the IRI-cancellation feasibility test.

Replayed-signal quantities are built from the buffered channel snapshot of
the transmitting relay (the source-side channel it saw when the signal was
stored), never from the current slot's source channel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .channel import received_power

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SinrValue:
    value: float                 # linear, dimensionless, >= 0
    cancellation_applied: bool


def source_link_power(H: np.ndarray) -> float:
    """Instantaneous received power of a direct source->node link."""
    return received_power(H)


def relayed_link_power(H_ab: np.ndarray, H_stored: np.ndarray) -> float:
    """trace(H_ab Hs Hs^H H_ab^H) for a replayed buffered signal.

    ``H_stored`` is the snapshot the transmitting relay recorded at reception;
    its row count must match the transmit antenna count (columns of H_ab).
    """
    H_ab = np.asarray(H_ab)
    H_stored = np.asarray(H_stored)
    if H_ab.ndim != 2 or H_stored.ndim != 2:
        raise ValueError("expected matrices")
    if H_ab.shape[1] != H_stored.shape[0]:
        raise ValueError(
            f"replay dimension mismatch: H_ab is {H_ab.shape}, snapshot is "
            f"{H_stored.shape}")
    return received_power(H_ab @ H_stored)


def iri_cancellation_feasible(H_i: np.ndarray, H_ki: np.ndarray,
                              P_tx: float, P_relay: float,
                              N_t: int, N_k: int, gamma0: float) -> bool:
    """Decide whether relay i can decode-and-subtract relay k's interference.

    Feasible iff det((P_tx/N_t * H_i H_i^H + I)^{-1} (P_relay/N_k * H_ki
    H_ki^H)) >= gamma0, i.e. the interference is strong enough relative to
    signal-plus-noise to be decoded first.  The determinant of the (generally
    non-Hermitian) product is compared through its real part, which reduces to
    the scalar test in the single-antenna case.
    """
    H_i = np.asarray(H_i)
    H_ki = np.asarray(H_ki)
    if H_i.shape[0] != H_ki.shape[0]:
        raise ValueError(
            f"receive-side dimension mismatch: H_i is {H_i.shape}, H_ki is "
            f"{H_ki.shape}")
    if P_tx <= 0 or P_relay <= 0:
        raise ValueError("powers must be positive")
    n = H_i.shape[0]
    signal = (P_tx / N_t) * (H_i @ H_i.conj().T) + np.eye(n)
    interference = (P_relay / N_k) * (H_ki @ H_ki.conj().T)
    det = np.linalg.det(np.linalg.solve(signal, interference))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("iri feasibility det: real=%.6g imag=%.6g", det.real, det.imag)
    return bool(det.real >= gamma0)


def sinr_relay(gamma_S_Ri: float, gamma_Rk_Ri_total: float, phi: int,
               N_i: int, sigma2_i: float) -> SinrValue:
    """Reception SINR at a relay; ``phi = 0`` means IRI was cancelled."""
    if phi not in (0, 1):
        raise ValueError(f"phi must be 0 or 1, got {phi}")
    value = gamma_S_Ri / (phi * gamma_Rk_Ri_total + N_i * sigma2_i)
    return SinrValue(value=float(value), cancellation_applied=(phi == 0))
