"""Achievable user/eavesdropper rates, the relays' reception test and SINR,
and the system secrecy rate.

This module owns the rate and reception formulas, each implemented once and
batched over leading axes: the stored-signal factor, the per-relay replay
term that user signal matrices and the eavesdroppers' jamming covariance
sum, the replay covariance sum_j H_j S_j H_j^H that both selection metrics
score, the SINR matrix that the eavesdroppers' rates, both selection metrics
and the IRI-cancellation test read, that test, the relays' reception SINR,
the clamped and metric log-determinants and the secrecy sum.  The Gram,
the link powers and :func:`~relaysec.channel.product`, the one
matrix-product kernel that the Grams, the replay terms and the replay
covariance run on, are :mod:`relaysec.channel`'s; the two modules hold
every formula of the model.
:func:`logdet_identity_plus` and :func:`clamped_logdet_rate` are one-matrix
views of their ``_stack`` kernels.

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import gram, product
from .errors import NumericError


@dataclass(frozen=True)
class RateReport:
    """Per-slot rates: one user-side entry per receiving-relay index, one
    eavesdropper entry per eavesdropper, and their combined secrecy rate."""

    user_rates: tuple
    eav_rates: tuple
    secrecy_rate: float

    @classmethod
    def of_first_lane(cls, user, eav, secrecy) -> "RateReport":
        """Lane 0's report of (B, T) user, (B, N) eavesdropper and (B,)
        secrecy rates."""
        return cls(user_rates=tuple(user[0].tolist()),
                   eav_rates=tuple(eav[0].tolist()), secrecy_rate=float(secrecy[0]))


@functools.lru_cache(maxsize=8)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False     # shared by every caller
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
    with np.errstate(divide="ignore"):      # log(0) is the -inf wanted
        return np.log(np.maximum(real, 0.0)) / math.log(base)


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
    return (P_relay / N_k) * product(channel_grams, factors)


def replay_covariance(H: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Sums over axis -3 of H_j S_j H_j^H: the covariance that replays with
    snapshot Grams ``S`` (..., J, b, b) leave through channels ``H``
    (..., J, a, b); the two broadcast against each other and give
    (..., a, a).  Both selection metrics score these sandwiches."""
    return product(product(H, S), H.conj().swapaxes(-1, -2)).sum(axis=-3)


def sinr_matrix(G: np.ndarray, Delta: np.ndarray, P, N) -> np.ndarray:
    """SINR matrices (I + Delta)^{-1} (P/N) G of (..., n, n) signal Grams
    ``G`` against interference covariances ``Delta``, at power ``P`` over
    ``N`` antennas; ``G``, ``Delta`` and ``P`` broadcast against each other,
    so a caller that scores several signals per covariance inserts the axis."""
    return np.linalg.solve(_eye(Delta.shape[-1]) + Delta, (P / N) * G)


def iri_feasible(G_i: np.ndarray, G_ki: np.ndarray, P_tx: float,
                 P_relay: float, N_t: int, N_k: int, gamma0: float) -> np.ndarray:
    """Batched IRI-cancellation test over broadcast (..., N_i, N_i) Grams
    ``G_i`` = H_i H_i^H of the source channels and ``G_ki`` = H_ki H_ki^H of
    the interferer channels; the powers are numbers or arrays that broadcast
    against the Gram stacks.

    Relay i can decode-and-subtract relay k's interference iff
    det((P_tx/N_t * H_i H_i^H + I)^{-1} (P_relay/N_k * H_ki H_ki^H)) >= gamma0,
    i.e. the interference is strong enough relative to signal-plus-noise to be
    decoded first.  It reads that :func:`sinr_matrix` through the real part
    of its (generally non-Hermitian) determinant, which reduces to the scalar
    test in the single-antenna case.
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
