import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysec.channel import gram
from relaysec.errors import NumericError
from relaysec.rates import (clamped_logdet_rate, clamped_logdet_rate_stack,
                            logdet_identity_plus, logdet_identity_plus_stack,
                            relay_terms, replay_covariance, secrecy_rate,
                            sinr_matrix, stored_signal_factor)

import reference
from conftest import cn_matrix, random_psd
from reference import eav_interference_sum, eav_sinr_matrix, user_sinr_matrix
from views import rate


def eig_logdet(S, base=2.0):
    """Eigenvalue-sum oracle for logdet(I + S) on Hermitian S."""
    return float(np.sum(np.log(1.0 + np.linalg.eigvalsh(S))) / np.log(base))


def test_user_rate_zero_matrix():
    assert rate(np.zeros((2, 2))) == 0.0


def test_user_rate_identity():
    assert rate(np.eye(2)) == pytest.approx(2.0)


def test_user_rate_eigen_oracle(rng):
    for _ in range(50):
        S = random_psd(rng, int(rng.integers(1, 5)))
        assert rate(S) == pytest.approx(eig_logdet(S), rel=1e-9)


def test_rate_in_nats(rng):
    S = random_psd(rng, 3)
    assert rate(S, base=np.e) == pytest.approx(eig_logdet(S, np.e), rel=1e-9)


def test_eav_rate_scalar():
    assert rate(np.array([[3.0]])) == pytest.approx(2.0)
    assert rate(np.zeros((1, 1))) == 0.0


def test_clamp_flags_negative_logdet():
    value, clamped = clamped_logdet_rate(np.array([[-0.5]]))
    assert value == 0.0 and clamped
    value, clamped = clamped_logdet_rate(np.zeros((2, 2)))
    assert value == 0.0 and not clamped


def test_clamped_stack_matches_scalar(rng):
    stack = np.stack([random_psd(rng, 2) for _ in range(6)])
    stack_vals, clamped = clamped_logdet_rate_stack(stack)
    assert not clamped.any()
    for S, v in zip(stack, stack_vals):
        assert clamped_logdet_rate(S)[0] == pytest.approx(v, rel=1e-12)


def test_non_finite_raises():
    with pytest.raises(NumericError):
        rate(np.array([[np.inf]]))
    with pytest.raises(NumericError):
        logdet_identity_plus(np.array([[np.nan]]))


def test_metric_logdet_rejects_nonpositive():
    with pytest.raises(NumericError):
        logdet_identity_plus(np.array([[-2.0]]))


def test_metric_logdet_rejects_nonpositive_real_part():
    # det(I + G) is purely imaginary here, so the real reading is undefined
    G = np.array([[-1.0 + 2.0j, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericError):
        logdet_identity_plus(G)


def test_logdet_stack_neginf_mode():
    from relaysec.rates import logdet_identity_plus_stack
    stack = np.stack([np.eye(2), np.diag([-3.0, 0.0])])
    out = logdet_identity_plus_stack(stack, 2.0)
    assert out[0] == pytest.approx(2.0)
    assert out[1] == -np.inf


def test_logdet_stack_matches_scalar(rng):
    stack = np.stack([random_psd(rng, 3) for _ in range(5)])
    vals = logdet_identity_plus_stack(stack)
    for S, v in zip(stack, vals):
        assert logdet_identity_plus(S) == pytest.approx(float(v), rel=1e-12)


def test_stored_signal_factor(rng):
    snap = cn_matrix(rng, 2, 6)
    F = stored_signal_factor(snap, 3.0, 6)
    np.testing.assert_allclose(F, np.eye(2) + 0.5 * snap @ snap.conj().T,
                               atol=1e-14)


def test_kernels_match_reference_compositions(rng):
    # the batched kernels against the per-matrix loop forms, with batch axes
    A, U, N, S, n, N_t = 3, 2, 2, 4, 2, 6
    P_relay, P_tx, N_k = 1.3, 2.1, 2
    snaps = np.stack([cn_matrix(rng, n, N_t) for _ in range(A)])
    H_u = np.stack([[cn_matrix(rng, n, N_k) for _ in range(U)] for _ in range(A)])
    H_ke = np.stack([[cn_matrix(rng, n, N_k) for _ in range(N)] for _ in range(A)])
    H_e = np.stack([cn_matrix(rng, n, N_t) for _ in range(N)])
    factors = stored_signal_factor(snaps, P_tx, N_t)
    for snap, F in zip(snaps, factors):
        np.testing.assert_allclose(F, reference.stored_signal_factor(snap, P_tx, N_t),
                                   rtol=1e-12)
    users = relay_terms(gram(H_u), factors[:, None], P_relay, N_k).sum(axis=0)
    for u in range(U):
        np.testing.assert_allclose(users[u], user_sinr_matrix(
            list(H_u[:, u]), list(snaps), P_relay, P_tx, N_k, N_t), rtol=1e-12)
    Delta = relay_terms(gram(H_ke).sum(axis=1), factors, P_relay, N_k).sum(axis=0)
    np.testing.assert_allclose(Delta, eav_interference_sum(
        list(map(list, H_ke)), list(snaps), P_tx, P_relay, N_t, N_k), rtol=1e-12)
    Deltas = np.stack([s * Delta for s in range(S)])
    gammas = sinr_matrix(gram(H_e), Deltas[:, None], P_tx, N_t)
    assert gammas.shape == (S, N, n, n)
    for s in range(S):
        for e in range(N):
            np.testing.assert_allclose(gammas[s, e], reference.eav_sinr_from_interference(
                H_e[e], Deltas[s], P_tx, N_t), rtol=1e-10, atol=1e-14)
    user_rates = rng.uniform(0, 5, (S, U))
    eav_rates = rng.uniform(0, 5, (S, N))
    batched = secrecy_rate(user_rates, eav_rates)
    assert batched.shape == (S,)
    for s in range(S):
        assert batched[s] == pytest.approx(
            reference.secrecy_rate(user_rates[s], eav_rates[s]), rel=1e-12)


@pytest.mark.parametrize("channels,deltas,per_lane_power,N", [
    ((4, 3, 2, 6), (4, 1), True, 6),
    ((4, 6, 2, 6), (4, 6), False, 1),
    ((4, 3, 5, 2, 2), (4, 1, 5), True, 2),
], ids=["eavesdropper-grams", "receive-candidates", "iri-interferers"])
def test_sinr_matrix_broadcasts_like_its_callers(rng, channels, deltas,
                                                 per_lane_power, N):
    # the kernel at each caller's shapes, against the per-matrix loop form:
    # N eavesdropper Grams against one Delta per lane through an inserted
    # axis, per-candidate Deltas at P = N = 1, and (B, A, R) interferer Grams
    # against (B, 1, R) source signals, with per-lane powers
    n = channels[-2]
    H = np.stack([cn_matrix(rng, n, channels[-1])
                  for _ in range(math.prod(channels[:-2]))]).reshape(channels)
    Delta = np.stack([random_psd(rng, n)
                      for _ in range(math.prod(deltas))]).reshape(deltas + (n, n))
    P = 1
    if per_lane_power:
        P = rng.uniform(0.5, 3.0, channels[0])
        P = P.reshape((-1,) + (1,) * (len(channels) - 1))
    got = sinr_matrix(gram(H), Delta, P, N)
    lead = channels[:-2]
    assert got.shape == lead + (n, n)
    Deltas = np.broadcast_to(Delta, lead + (n, n))
    powers = np.broadcast_to(P, lead + (1, 1))[..., 0, 0]
    for index in np.ndindex(lead):
        np.testing.assert_allclose(got[index], reference.eav_sinr_from_interference(
            H[index], Deltas[index], powers[index], N), rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("channels,grams", [
    ((4, 6, 3, 2, 2), (4, 6, 1)),
    ((4, 6, 3, 2, 2), (4, 1, 3)),
], ids=["jam-metric", "receive-metric"])
def test_replay_covariance_broadcasts_like_its_callers(rng, channels, grams):
    # the kernel at each caller's shapes, against the per-matrix loop form:
    # (B, Q, M) relay->user channels each replaying its relay's snapshot, and
    # (B, Q, K) channels from the K jammers to each candidate Q, each
    # replaying its jammer's snapshot
    H = np.stack([cn_matrix(rng, *channels[-2:])
                  for _ in range(math.prod(channels[:-2]))]).reshape(channels)
    S = np.stack([gram(cn_matrix(rng, channels[-1], 6))
                  for _ in range(math.prod(grams))]).reshape(grams + channels[-1:] * 2)
    got = replay_covariance(H, S)
    lead = channels[:-3]
    assert got.shape == lead + channels[-2:-1] * 2
    Ss = np.broadcast_to(S, channels[:-2] + S.shape[-2:])
    for index in np.ndindex(lead):
        np.testing.assert_allclose(got[index], reference.replay_covariance(
            H[index], Ss[index]), rtol=1e-12, atol=1e-13)


def test_user_sinr_matrix_zero_snapshots(rng):
    # zero stored snapshots reduce the inner factor to the identity
    chans = [cn_matrix(rng, 2, 2) for _ in range(3)]
    snaps = [np.zeros((2, 6))] * 3
    got = user_sinr_matrix(chans, snaps, P_relay=1.5, P_tx=2.0, N_k=2, N_t=6)
    expected = sum(0.75 * (H @ H.conj().T) for H in chans)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_user_sinr_matrix_identity_case():
    got = user_sinr_matrix([np.eye(1)], [np.eye(1)], P_relay=1.0, P_tx=1.0,
                           N_k=1, N_t=1)
    np.testing.assert_allclose(got, 2.0 * np.eye(1), atol=1e-14)


def test_user_sinr_matrix_naive_loop_oracle(rng):
    chans = [cn_matrix(rng, 2, 2) for _ in range(3)]
    snaps = [cn_matrix(rng, 2, 6) for _ in range(3)]
    P_relay, P_tx, N_k, N_t = 1.3, 2.1, 2, 6
    got = user_sinr_matrix(chans, snaps, P_relay, P_tx, N_k, N_t)
    expected = np.zeros((2, 2), dtype=complex)
    for H, s in zip(chans, snaps):
        inner = np.eye(2) + (P_tx / N_t) * (s @ s.conj().T)
        expected += (P_relay / N_k) * (H @ H.conj().T) @ inner
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_user_sinr_matrix_input_validation(rng):
    with pytest.raises(ValueError):
        user_sinr_matrix([cn_matrix(rng, 2, 2)], [], 1.0, 1.0, 2, 6)
    with pytest.raises(ValueError):
        user_sinr_matrix([], [], 1.0, 1.0, 2, 6)


def test_eav_sinr_matrix_no_jamming(rng):
    H_e = cn_matrix(rng, 2, 6)
    got = eav_sinr_matrix(H_e, [], [], P_tx=3.0, P_relay=1.0, N_t=6, N_k=2, N=2)
    np.testing.assert_allclose(got, 0.5 * H_e @ H_e.conj().T, atol=1e-12)


def test_eav_sinr_matrix_zero_channel(rng):
    got = eav_sinr_matrix(np.zeros((2, 6)), [], [], 1.0, 1.0, 6, 2, 2)
    np.testing.assert_allclose(got, np.zeros((2, 2)), atol=1e-14)


def test_eav_sinr_matrix_naive_loop_oracle(rng):
    N, K = 2, 3
    H_e = cn_matrix(rng, 2, 6)
    chans = [[cn_matrix(rng, 2, 2) for _ in range(N)] for _ in range(K)]
    snaps = [cn_matrix(rng, 2, 6) for _ in range(K)]
    P_tx, P_relay, N_t, N_k = 2.0, 1.1, 6, 2
    got = eav_sinr_matrix(H_e, chans, snaps, P_tx, P_relay, N_t, N_k, N)
    delta = np.zeros((2, 2), dtype=complex)
    for per_eav, s in zip(chans, snaps):
        inner = np.eye(2) + (P_tx / N_t) * (s @ s.conj().T)
        for H_ke in per_eav:
            delta += (P_relay / N_k) * (H_ke @ H_ke.conj().T) @ inner
    expected = np.linalg.solve(np.eye(2) + delta,
                               (P_tx / N_t) * (H_e @ H_e.conj().T))
    np.testing.assert_allclose(got, expected, atol=1e-11)


def test_eav_sinr_matrix_checks_eav_count(rng):
    chans = [[cn_matrix(rng, 2, 2)]]
    snaps = [cn_matrix(rng, 2, 6)]
    with pytest.raises(ValueError):
        eav_sinr_matrix(cn_matrix(rng, 2, 6), chans, snaps, 1.0, 1.0, 6, 2, N=2)


def test_eav_rate_decreases_with_jamming(rng):
    H_e = cn_matrix(rng, 2, 6)
    chans = [[cn_matrix(rng, 2, 2) for _ in range(2)]]
    snaps = [cn_matrix(rng, 2, 6)]
    delta = eav_interference_sum(chans, snaps, 2.0, 1.0, 6, 2)
    s = 2.0 / 6 * (H_e @ H_e.conj().T)
    weak = rate(np.linalg.solve(np.eye(2) + delta, s))
    strong = rate(np.linalg.solve(np.eye(2) + 2.0 * delta, s))
    assert strong < weak


_secrecy_cases = [
    ([2.0], [1.0], 1.0),
    ([1.0], [1.0], 0.0),
    ([3.0, 1.0], [2.0, 2.0], 2.0),
]


@pytest.mark.parametrize("user,eav,expected", _secrecy_cases)
def test_secrecy_rate_values(user, eav, expected):
    assert secrecy_rate(user, eav) == pytest.approx(expected)


def test_secrecy_rate_rejects_empty():
    with pytest.raises(ValueError):
        secrecy_rate([], [1.0])
    with pytest.raises(ValueError):
        secrecy_rate([1.0], [])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 50), min_size=1, max_size=4),
       st.lists(st.floats(0, 50), min_size=1, max_size=4),
       st.floats(0.01, 5.0))
def test_secrecy_rate_bounded_increment(user, eav, c):
    base = secrecy_rate(user, eav)
    bumped = secrecy_rate([u + c for u in user], eav)
    assert bumped >= base
    assert bumped - base <= len(user) * len(eav) * c + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 10), min_size=1, max_size=4),
       st.lists(st.floats(0, 3), min_size=1, max_size=4))
def test_rate_loewner_monotone_on_diagonals(diag, bumps):
    # on diagonal fixtures the Loewner order is literal elementwise order
    n = min(len(diag), len(bumps))
    lo = np.diag(diag[:n])
    hi = np.diag([d + b for d, b in zip(diag[:n], bumps[:n])])
    assert rate(hi) >= rate(lo) - 1e-12


def test_rate_loewner_monotone_scalar():
    values = [rate(np.array([[g]])) for g in np.linspace(0, 8, 12)]
    assert all(b >= a for a, b in zip(values, values[1:]))
