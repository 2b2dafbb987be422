"""Independent per-matrix reference compositions of the rate formulas.

The simulator computes each rate formula once, batched, in
``relaysec.rates``.  The loop forms below build the same quantities one
matrix at a time, straight from the model's sums, so tests can check the
batched kernels against an implementation that shares none of their code.
:func:`max_ratio_roles` is the ``max-ratio`` policy's role choice with one
link-power call per matrix, for the batched policy to be checked against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from relaysec.link_metrics import relayed_link_power, source_link_power


def solve_identity_plus(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(I + A)^{-1} @ B without forming the inverse explicitly."""
    A = np.asarray(A)
    return np.linalg.solve(np.eye(A.shape[-1]) + A, B)


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


def max_ratio_roles(config, realization, own: dict) -> tuple:
    """(receivers, transmitters) of the ``max-ratio`` policy, sorted, from
    per-matrix link powers; ``own`` maps each relay id to the record it
    would replay (relays with nothing to replay are absent)."""
    ids = list(range(1, config.Q + 1))

    def summed_power(channels, q):
        rec = own.get(q)
        if rec is None:
            return 0.0
        return sum(relayed_link_power(H, rec.snapshot) for H in channels[q - 1])

    floor = config.N_e * config.sigma2
    leak = {q: summed_power(realization.re_stack, q) for q in ids}
    rx_ratio = {q: source_link_power(realization.su_stack[q - 1])
                / (leak[q] + floor) for q in ids}
    receivers = sorted(ids, key=lambda q: (-rx_ratio[q], q))[:config.T]
    rest = [q for q in ids if q not in receivers]
    tx_ratio = {q: summed_power(realization.ru_stack, q) / (leak[q] + floor)
                for q in rest}
    transmitters = sorted(rest, key=lambda q: (-tx_ratio[q], q))[:config.T]
    return tuple(sorted(receivers)), tuple(sorted(transmitters))
