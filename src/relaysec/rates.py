"""Achievable user/eavesdropper rates and the system secrecy rate.

This module owns the rate formulas, each implemented once and batched over
leading axes: the stored-signal factor, the per-relay replay term that user
signal matrices and the eavesdroppers' jamming covariance sum, the
eavesdropper SINR, the clamped and metric log-determinants and the secrecy
sum.  The scalar helpers are one-element views of these kernels.

The rate matrices sum products of Hermitian factors and are generally not
Hermitian themselves, so ``det(I + G)`` is genuinely complex: with several
transmitting relays the imaginary part is structural (commutator-sized), not
rounding noise.  All log-determinants therefore read the real part of the
determinant; the imaginary part is not checked.  Every log-determinant raises
:class:`~relaysec.errors.NumericError` on a non-finite determinant.
Rate-valued results clamp at zero from below and report the clamp (a
nonpositive real part counts as a clamp to zero); metric-valued results raise
``NumericError`` when the real part is nonpositive, while batched metric
log-dets give ``-inf`` there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import gram
from .errors import NumericError


@dataclass(frozen=True)
class RateReport:
    """Per-slot rates: one user-side entry per receiving-relay index, one
    eavesdropper entry per eavesdropper, and their combined secrecy rate."""

    user_rates: tuple
    eav_rates: tuple
    secrecy_rate: float


_EYE_CACHE: dict = {}


def _eye(n: int) -> np.ndarray:
    eye = _EYE_CACHE.get(n)
    if eye is None:
        eye = np.eye(n)
        eye.flags.writeable = False
        _EYE_CACHE[n] = eye
    return eye


def _dets_identity_plus(Gammas: np.ndarray) -> np.ndarray:
    Gammas = np.asarray(Gammas)
    with np.errstate(invalid="ignore", over="ignore"):
        dets = np.atleast_1d(np.linalg.det(_eye(Gammas.shape[-1]) + Gammas))
    if not np.isfinite(dets).all():
        raise NumericError("non-finite determinant")
    return dets


def logdet_identity_plus(Gamma: np.ndarray, base: float = 2.0) -> float:
    """Metric-valued log_base det(I + Gamma), unclamped (may be negative).

    Raises NumericError when the determinant's real part is nonpositive, the
    one case where the real-part reading has no defined logarithm.
    """
    value = float(logdet_identity_plus_stack(np.asarray(Gamma)[None], base)[0])
    if value == -math.inf:
        raise NumericError("nonpositive real det(I + Gamma)")
    return value


def logdet_identity_plus_stack(Gammas: np.ndarray, base: float = 2.0) -> np.ndarray:
    """Vectorized :func:`logdet_identity_plus` over a (..., n, n) stack, except
    that an entry whose determinant real part is <= 0 maps to -inf, so that
    ranking callers push degenerate candidates to the bottom.
    """
    real = _dets_identity_plus(Gammas).real
    return np.log(real, out=np.full(real.shape, -np.inf),
                  where=real > 0.0) / math.log(base)


def clamped_logdet_rate(Gamma: np.ndarray, base: float = 2.0) -> tuple[float, bool]:
    """Rate-valued log_base det(I + Gamma), clamped at 0 from below.

    A negative log-determinant or a nonpositive determinant real part (both
    artifacts of the non-Hermitian sums) clamps to 0 and flags the event.
    """
    rates, clamped = clamped_logdet_rate_stack(np.asarray(Gamma)[None], base)
    return float(rates[0]), bool(clamped[0])


def clamped_logdet_rate_stack(Gammas: np.ndarray,
                              base: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`clamped_logdet_rate`: (rates, clamp flags), both
    over the leading axes of the stack."""
    real = _dets_identity_plus(Gammas).real
    return np.log(np.maximum(real, 1.0)) / math.log(base), real < 1.0


def user_rate(Gamma_r: np.ndarray, base: float = 2.0) -> float:
    """Achievable user rate log det(I + Gamma_r), clamped at zero."""
    return clamped_logdet_rate(Gamma_r, base)[0]


def eav_rate(Gamma_e: np.ndarray, base: float = 2.0) -> float:
    """Achievable eavesdropper rate log det(I + Gamma_e), clamped at zero."""
    return clamped_logdet_rate(Gamma_e, base)[0]


def stored_signal_factor(snapshots: np.ndarray, P_tx: float, N_t: int) -> np.ndarray:
    """Covariance factors I + (P_tx/N_t) Hs Hs^H of replayed buffered signals,
    over a snapshot matrix or a (..., N_i, N_t) snapshot stack."""
    snapshots = np.asarray(snapshots)
    return _eye(snapshots.shape[-2]) + (P_tx / N_t) * gram(snapshots)


def relay_terms(channel_grams: np.ndarray, factors: np.ndarray,
                P_relay: float, N_k: int) -> np.ndarray:
    """Per-relay replay terms (P_relay/N_k) G_k F_k over matching stacks.

    G_k is the Gram H H^H of relay k's channel to a user, or that Gram
    summed over the eavesdroppers; F_k is its stored-signal factor.  A
    user's signal matrix is the sum of its terms over the transmitting
    relays, the eavesdroppers' interference covariance Delta the sum over
    the jamming relays.
    """
    return (P_relay / N_k) * (channel_grams @ factors)


def eav_sinr(G_e: np.ndarray, Delta: np.ndarray, P_tx: float, N_t: int) -> np.ndarray:
    """Per-eavesdropper SINR matrices (I + Delta)^{-1} (P_tx/N_t) H_e H_e^H
    of the (..., N, N_e, N_e) stack ``G_e`` of source->eavesdropper Grams
    H_e H_e^H against (..., N_e, N_e) interference covariances, the leading
    axes broadcast against each other: shape (..., N, N_e, N_e)."""
    signals = (P_tx / N_t) * G_e
    return np.linalg.solve(_eye(Delta.shape[-1]) + Delta[..., None, :, :], signals)


def secrecy_rate(user_rates, eav_rates):
    """Sum over (user-side, eavesdropper) pairs of max(0, R_r - R_e); the
    pairs run over the last axes, so (..., T) and (..., N) give (...)."""
    user_rates = np.asarray(user_rates, dtype=float)
    eav_rates = np.asarray(eav_rates, dtype=float)
    if user_rates.shape[-1] == 0 or eav_rates.shape[-1] == 0:
        raise ValueError("rate lists must be nonempty")
    gains = np.maximum(user_rates[..., :, None] - eav_rates[..., None, :], 0.0)
    # a row-major copy, so that every pair list sums in the same order
    return gains.reshape(gains.shape[:-2] + (-1,)).sum(axis=-1)
