"""The link powers of :mod:`relaysec.channel`, and the relays'
IRI-cancellation test and reception SINR of :mod:`relaysec.rates`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysec.channel import received_power, relayed_link_power

from conftest import cn_matrix
from views import pair_feasible, pair_sinr


def test_source_link_power_trivia():
    assert received_power(np.eye(2)) == pytest.approx(2.0)
    assert received_power(np.zeros((2, 2))) == 0.0


def test_relayed_link_power_silent_jammer():
    assert relayed_link_power(np.eye(2), np.zeros((2, 3))) == 0.0


def test_relayed_link_power_identity():
    assert relayed_link_power(np.eye(3), np.eye(3)) == pytest.approx(3.0)


def test_relayed_link_power_svd_oracle(rng):
    H_ab = cn_matrix(rng, 2, 2)
    H_st = cn_matrix(rng, 2, 2)
    expected = float(np.sum(np.linalg.svd(H_ab @ H_st, compute_uv=False) ** 2))
    assert relayed_link_power(H_ab, H_st) == pytest.approx(expected, rel=1e-10)


def test_relayed_link_power_unitary_invariance(rng):
    # only the Gram of the snapshot matters
    H_ab = cn_matrix(rng, 2, 2)
    H_st = cn_matrix(rng, 2, 6)
    U, _ = np.linalg.qr(cn_matrix(rng, 6, 6))
    base = relayed_link_power(H_ab, H_st)
    assert relayed_link_power(H_ab, H_st @ U) == pytest.approx(base, rel=1e-10)


def test_relayed_link_power_dimension_mismatch():
    with pytest.raises(ValueError):
        relayed_link_power(np.eye(2), np.zeros((3, 4)))


def test_link_powers_on_stacks_match_per_matrix(rng):
    # a relay's channels to 3 nodes, each replaying that relay's snapshot
    H = cn_matrix(rng, 5 * 3 * 2, 2).reshape(5, 3, 2, 2)
    snaps = cn_matrix(rng, 5 * 2, 6).reshape(5, 2, 6)
    relayed = [[relayed_link_power(H[q, e], snaps[q]) for e in range(3)]
               for q in range(5)]
    np.testing.assert_array_equal(relayed_link_power(H, snaps[:, None]), relayed)
    direct = [[received_power(H[q, e]) for e in range(3)] for q in range(5)]
    np.testing.assert_array_equal(received_power(H), direct)
    assert type(relayed_link_power(H[0, 0], snaps[0])) is float
    assert type(received_power(H[0, 0])) is float


def test_relayed_link_power_broadcast_snapshot_matches_per_pair(rng):
    # (B, A, R) relay->relay channels each replaying its sender's snapshot,
    # broadcast over the receivers, give each pair's own bits
    H = cn_matrix(rng, 4 * 3 * 2 * 2, 2).reshape(4, 3, 2, 2, 2)
    snaps = cn_matrix(rng, 4 * 3 * 2, 6).reshape(4, 3, 2, 6)
    per_pair = [[[relayed_link_power(H[b, a, r], snaps[b, a]) for r in range(2)]
                 for a in range(3)] for b in range(4)]
    assert np.array_equal(relayed_link_power(H, snaps[:, :, None]), per_pair)


def test_relayed_link_power_stack_dimension_mismatch(rng):
    H = cn_matrix(rng, 6, 2).reshape(3, 2, 2)
    with pytest.raises(ValueError, match="replay dimension mismatch"):
        relayed_link_power(H, np.zeros((3, 3, 6)))
    with pytest.raises(ValueError):
        relayed_link_power(H, np.zeros(2))


def test_iri_feasible_scalar_case():
    # single-antenna nodes: the test reduces to plain arithmetic
    h_i = np.array([[1.0 + 0j]])
    h_ki = np.array([[2.0 + 0j]])
    assert pair_feasible(h_i, h_ki, 1.0, 1.0, 1, 1, 1.0)
    # ratio is 4/2 = 2 >= gamma0
    assert not pair_feasible(h_i, h_ki, 1.0, 1.0, 1, 1, 2.5)


def test_iri_feasible_scalar_grid():
    for a in np.linspace(0.2, 3.0, 10):
        for b in np.linspace(0.2, 3.0, 10):
            h_i = np.array([[a + 0j]])
            h_ki = np.array([[b + 0j]])
            expected = (2.0 * b * b) / (3.0 * a * a + 1.0) >= 0.8
            got = pair_feasible(h_i, h_ki, 3.0, 2.0, 1, 1, 0.8)
            assert got == expected


def test_iri_feasible_zero_interference_is_infeasible(rng):
    H_i = cn_matrix(rng, 2, 6)
    assert not pair_feasible(H_i, np.zeros((2, 2)), 1.0, 1.0, 6, 2, 0.5)


def test_iri_feasible_matches_explicit_inverse(rng):
    # independent recomputation with an explicit inverse and cofactor det
    for _ in range(50):
        H_i = cn_matrix(rng, 2, 2)
        H_ki = cn_matrix(rng, 2, 2)
        P_tx, P_rel, gamma0 = 1.7, 2.3, 0.6
        A = (P_tx / 2) * (H_i @ H_i.conj().T) + np.eye(2)
        B = (P_rel / 2) * (H_ki @ H_ki.conj().T)
        inv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / (
            A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
        M = inv @ B
        det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
        expected = det.real >= gamma0
        assert pair_feasible(H_i, H_ki, P_tx, P_rel, 2, 2, gamma0) == expected


_sinr_relay_cases = [
    (10.0, 4.0, 1, 1, 1.0, 2.0),
    (10.0, 4.0, 0, 1, 1.0, 10.0),
    (0.0, 5.0, 1, 2, 1.0, 0.0),
]


@pytest.mark.parametrize("gs,gi,phi,ni,s2,expected", _sinr_relay_cases)
def test_sinr_relay_values(gs, gi, phi, ni, s2, expected):
    assert pair_sinr(gs, gi, phi, ni, s2) == pytest.approx(expected)


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1e6), st.floats(0, 1e6), st.integers(1, 4),
       st.floats(1e-3, 1e3))
def test_sinr_relay_cancellation_never_hurts(gs, gi, ni, s2):
    with_c = pair_sinr(gs, gi, 0, ni, s2)
    without = pair_sinr(gs, gi, 1, ni, s2)
    assert with_c >= without
    if gi == 0:
        assert with_c == without
