"""Achievable user/eavesdropper rates and the system secrecy rate.

The rate matrices sum products of Hermitian factors and are generally not
Hermitian themselves, so ``det(I + G)`` is genuinely complex: with several
transmitting relays the imaginary part is structural (commutator-sized), not
rounding noise.  All log-determinants therefore read the real part of the
determinant; the imaginary part is not checked.  Every log-determinant raises
:class:`~relaysec.errors.NumericError` on a non-finite determinant.
Rate-valued results clamp at zero from below and report the clamp (a
nonpositive real part counts as a clamp to zero); metric-valued results raise
``NumericError`` when the real part is nonpositive, unless a batched caller
asks for ``-inf`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import solve_identity_plus
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
    with np.errstate(invalid="ignore"):
        dets = np.atleast_1d(np.linalg.det(_eye(Gammas.shape[-1]) + Gammas))
    if not np.all(np.isfinite(dets.real)) or not np.all(np.isfinite(np.imag(dets))):
        raise NumericError("non-finite determinant")
    return dets


def logdet_identity_plus(Gamma: np.ndarray, base: float = 2.0) -> float:
    """Metric-valued log_base det(I + Gamma), unclamped (may be negative).

    Raises NumericError when the determinant's real part is nonpositive, the
    one case where the real-part reading has no defined logarithm.
    """
    det = complex(_dets_identity_plus(Gamma)[0])
    if det.real <= 0.0:
        raise NumericError(f"det(I + Gamma) has nonpositive real part: {det}")
    return math.log(det.real, base)


def logdet_identity_plus_stack(Gammas: np.ndarray, base: float = 2.0,
                               nonpositive: str = "raise") -> np.ndarray:
    """Vectorized :func:`logdet_identity_plus` over a (..., n, n) stack.

    ``nonpositive`` controls entries whose determinant real part is <= 0:
    ``"raise"`` matches the scalar op, ``"neginf"`` maps them to -inf so
    ranking callers can push degenerate candidates to the bottom.
    """
    real = _dets_identity_plus(Gammas).real
    bad = real <= 0.0
    if np.any(bad):
        if nonpositive == "raise":
            raise NumericError("nonpositive real det(I + Gamma) in batch")
        out = np.full(real.shape, -np.inf)
        np.log(real, out=out, where=~bad)
        return out / math.log(base)
    return np.log(real) / math.log(base)


def clamped_logdet_rate(Gamma: np.ndarray, base: float = 2.0) -> tuple[float, bool]:
    """Rate-valued log_base det(I + Gamma), clamped at 0 from below.

    A negative log-determinant or a nonpositive determinant real part (both
    artifacts of the non-Hermitian sums) clamps to 0 and flags the event.
    """
    det = complex(_dets_identity_plus(Gamma)[0])
    if det.real <= 1.0:
        return 0.0, det.real < 1.0
    return math.log(det.real, base), False


def clamped_logdet_rate_stack(Gammas: np.ndarray,
                              base: float = 2.0) -> tuple[np.ndarray, int]:
    """Vectorized :func:`clamped_logdet_rate`: (rates, clamp event count)."""
    real = _dets_identity_plus(Gammas).real
    clamps = int(np.count_nonzero(real < 1.0))
    return np.log(np.maximum(real, 1.0)) / math.log(base), clamps


def user_rate(Gamma_r: np.ndarray, base: float = 2.0) -> float:
    """Achievable user rate log det(I + Gamma_r), clamped at zero."""
    return clamped_logdet_rate(Gamma_r, base)[0]


def eav_rate(Gamma_e: np.ndarray, base: float = 2.0) -> float:
    """Achievable eavesdropper rate log det(I + Gamma_e), clamped at zero."""
    return clamped_logdet_rate(Gamma_e, base)[0]


def stored_signal_factor(snapshot: np.ndarray, P_tx: float, N_t: int) -> np.ndarray:
    """Covariance factor I + (P_tx/N_t) Hs Hs^H of a replayed buffered signal."""
    snapshot = np.asarray(snapshot)
    return np.eye(snapshot.shape[0]) + (P_tx / N_t) * (snapshot @ snapshot.conj().T)


def user_sinr_matrix(jammer_user_channels: Sequence[np.ndarray],
                     stored_snapshots: Sequence[np.ndarray],
                     P_relay: float, P_tx: float,
                     N_k: int, N_t: int) -> np.ndarray:
    """Signal matrix at one user: sum over transmitting relays k of
    (P_relay/N_k) H_kr H_kr^H (I + (P_tx/N_t) Hs_k Hs_k^H).

    Each relay is paired with its own buffered snapshot.  Relays with nothing
    to replay simply do not appear in the lists.
    """
    if len(jammer_user_channels) != len(stored_snapshots):
        raise ValueError("one stored snapshot per transmitting relay required")
    if not jammer_user_channels:
        raise ValueError("at least one transmitting relay required; an empty "
                         "set has no defined user signal matrix")
    n = np.asarray(jammer_user_channels[0]).shape[0]
    total = np.zeros((n, n), dtype=complex)
    for H_kr, snap in zip(jammer_user_channels, stored_snapshots):
        H_kr = np.asarray(H_kr)
        if H_kr.shape[0] != n:
            raise ValueError("inconsistent user antenna counts")
        term = (H_kr @ H_kr.conj().T) @ stored_signal_factor(snap, P_tx, N_t)
        total += (P_relay / N_k) * term
    return total


def eav_interference_sum(jammer_eav_channels: Sequence[Sequence[np.ndarray]],
                         stored_snapshots: Sequence[np.ndarray],
                         P_tx: float, P_relay: float,
                         N_t: int, N_k: int) -> np.ndarray:
    """Aggregate jamming covariance at the eavesdroppers.

    ``jammer_eav_channels[k][e]`` is the channel from transmitting relay k to
    eavesdropper e; the sum runs over every (relay, eavesdropper) pair, each
    relay paired with its own snapshot.
    """
    if len(jammer_eav_channels) != len(stored_snapshots):
        raise ValueError("one stored snapshot per transmitting relay required")
    if not jammer_eav_channels:
        raise ValueError("empty relay set has no interference sum; use a zero "
                         "matrix of the right size instead")
    n = np.asarray(jammer_eav_channels[0][0]).shape[0]
    delta = np.zeros((n, n), dtype=complex)
    for per_eav, snap in zip(jammer_eav_channels, stored_snapshots):
        factor = stored_signal_factor(snap, P_tx, N_t)
        for H_ke in per_eav:
            H_ke = np.asarray(H_ke)
            delta += (P_relay / N_k) * ((H_ke @ H_ke.conj().T) @ factor)
    return delta


def eav_sinr_from_interference(H_e: np.ndarray, Delta: np.ndarray,
                               P_tx: float, N_t: int) -> np.ndarray:
    """(I + Delta)^{-1} (P_tx/N_t) H_e H_e^H."""
    H_e = np.asarray(H_e)
    signal = (P_tx / N_t) * (H_e @ H_e.conj().T)
    return solve_identity_plus(Delta, signal)


def eav_sinr_matrix(H_e: np.ndarray,
                    jammer_eav_channels: Sequence[Sequence[np.ndarray]],
                    stored_snapshots: Sequence[np.ndarray],
                    P_tx: float, P_relay: float,
                    N_t: int, N_k: int, N: int) -> np.ndarray:
    """SINR matrix at one eavesdropper under jamming from all active relays."""
    for per_eav in jammer_eav_channels:
        if len(per_eav) != N:
            raise ValueError(
                f"expected one channel per eavesdropper (N={N}), got {len(per_eav)}")
    H_e = np.asarray(H_e)
    if not jammer_eav_channels:
        Delta = np.zeros((H_e.shape[0], H_e.shape[0]))
    else:
        Delta = eav_interference_sum(jammer_eav_channels, stored_snapshots,
                                     P_tx, P_relay, N_t, N_k)
    return eav_sinr_from_interference(H_e, Delta, P_tx, N_t)


def secrecy_rate(user_rates: Sequence[float], eav_rates: Sequence[float]) -> float:
    """Sum over (user-side, eavesdropper) pairs of max(0, R_r - R_e)."""
    if len(user_rates) == 0 or len(eav_rates) == 0:
        raise ValueError("rate lists must be nonempty")
    total = 0.0
    for rr in user_rates:
        for re_ in eav_rates:
            diff = rr - re_
            if diff > 0.0:
                total += diff
    return total
