"""Independent per-matrix reference compositions of the rate formulas.

The simulator computes each rate formula once, batched, in
``relaysec.rates``.  The loop forms below build the same quantities one
matrix at a time, straight from the model's sums, so tests can check the
batched kernels against an implementation that shares none of their code.
:func:`max_ratio_roles` is the ``max-ratio`` policy's role choice with one
link-power call per matrix, for the batched policy to be checked against.
:func:`reception_sinrs` writes out the relays' reception SINR in the
order of evaluation that pins its float bits, or with the replay product
as one labelled einsum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from relaysec.channel import received_power, relayed_link_power


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


def replay_covariance(channels: Sequence[np.ndarray],
                      grams: Sequence[np.ndarray]) -> np.ndarray:
    """sum_j H_j S_j H_j^H over paired channels H_j and snapshot Grams S_j."""
    n = np.asarray(channels[0]).shape[0]
    total = np.zeros((n, n), dtype=complex)
    for H, S in zip(channels, grams, strict=True):
        H = np.asarray(H)
        total += H @ S @ H.conj().T
    return total


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
    per-matrix link powers of a one-lane ``realization``; ``own`` maps each
    relay id to the record it would replay (relays with nothing to replay
    are absent)."""
    ids = list(range(1, config.Q + 1))

    def summed_power(channels, q):
        rec = own.get(q)
        if rec is None:
            return 0.0
        return sum(relayed_link_power(H, rec.snapshot) for H in channels[q - 1])

    floor = config.N_e * config.sigma2
    leak = {q: summed_power(realization.re_stack[0], q) for q in ids}
    rx_ratio = {q: received_power(realization.su_stack[0, q - 1])
                / (leak[q] + floor) for q in ids}
    receivers = sorted(ids, key=lambda q: (-rx_ratio[q], q))[:config.T]
    rest = [q for q in ids if q not in receivers]
    tx_ratio = {q: summed_power(realization.ru_stack[0], q) / (leak[q] + floor)
                for q in rest}
    transmitters = sorted(rest, key=lambda q: (-tx_ratio[q], q))[:config.T]
    return tuple(sorted(receivers)), tuple(sorted(transmitters))


def replay_products(H_ki, snapshots):
    """(B, A, R, N_i, N_t) replay products H_ki Hs_k of (B, A, R, N_i, N_k)
    relay->relay channels and (B, A, N_k, N_t) snapshots, written as the
    sum over the contracted index j of the outer products of column j of
    H_ki and row j of Hs_k, added in ascending j: the order of evaluation
    whose bits the calibrated thresholds depend on.  It mirrors the order
    of ``channel.product`` on purpose, so an exact-bit comparison with it
    pins that order and no more; :func:`labelled_replay_products` is the
    independent check of the formula."""
    total = H_ki[..., :, 0, None] * snapshots[:, :, None, None, 0, :]
    for j in range(1, H_ki.shape[-1]):
        total = total + H_ki[..., :, j, None] * snapshots[:, :, None, None, j, :]
    return total


def labelled_replay_products(H_ki, snapshots):
    """:func:`replay_products` as one labelled einsum, an independent check
    of the formula that does not pin its bits."""
    return np.einsum("xkrab,xkbc->xkrac", H_ki, snapshots)


def reception_sinrs(H_rx, H_ki, snapshots, phi, p_tx, p_rel, sigma2, config,
                    replay=replay_products):
    """(B, R) reception SINRs of (B, R, N_i, N_t) source channels H_i against
    (B, A, R, N_i, N_k) relay->relay channels H_ki replaying (B, A, N_k, N_t)
    snapshots Hs_k: (p_tx/N_t) trace(H_i H_i^H) over the sum of the
    ``phi``-weighted (p_rel/N_k) trace(H_ki Hs_k Hs_k^H H_ki^H) plus N_i
    sigma2, with (B,) ``p_tx``, ``p_rel`` and ``sigma2``.  The replay
    products H_ki Hs_k come from ``replay``; each trace is a labelled
    einsum."""
    prod = replay(H_ki, snapshots)
    gamma_S = (p_tx / config.N_t)[:, None] * np.einsum(
        "xrab,xrab->xr", H_rx, H_rx.conj()).real
    powers = (p_rel / config.N_k)[:, None, None] * np.einsum(
        "xkrab,xkrab->xkr", prod, prod.conj()).real
    return gamma_S / ((phi * powers).sum(axis=-2) + config.N_i * sigma2[:, None])
