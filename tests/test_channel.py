import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysec.channel import (gen_network_realization, gram, product,
                              received_power, substream)
from relaysec.config import SystemConfig

from conftest import cn_matrix
from reference import solve_identity_plus
from test_golden import _runs_haswell_kernels


_gram_cases = [
    (np.eye(2), np.eye(2)),
    (np.zeros((2, 3)), np.zeros((2, 2))),
    (np.array([[1 + 1j, 0], [0, 2]]), np.diag([2.0, 4.0])),
]


@pytest.mark.parametrize("H,expected", _gram_cases)
def test_gram_analytic(H, expected):
    np.testing.assert_allclose(gram(H), expected, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_gram_hermitian_psd(rows, cols, seed):
    H = cn_matrix(np.random.default_rng(seed), rows, cols)
    G = gram(H)
    assert np.max(np.abs(G - G.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(G).min() >= -1e-10


def test_gram_rejects_vector():
    with pytest.raises(ValueError):
        gram(np.ones(3))


def cn_stack(rng, shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("a,b", [
    ((6, 3, 2, 2), (6, 1, 2, 2)),       # jam-metric sandwich, broadcast
    ((2, 1, 4, 3), (5, 3, 2)),          # leading axes broadcast both ways
    ((4, 2, 6), (4, 6, 2)),             # an N_t-wide Gram
    ((3, 1, 1), (3, 1, 1)),             # single antenna
    ((2, 0, 3, 2, 2), (2, 0, 1, 2, 2)),  # no transmitters
    ((0, 2, 2), (2, 2)),                # no lanes
    ((2, 3), (3, 4)),                   # plain matrices
], ids=str)
def test_product_matches_matmul(rng, a, b):
    A, B = cn_stack(rng, a), cn_stack(rng, b)
    got, want = product(A, B), A @ B
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("a,b", [((2, 3), (2, 3)), ((2, 0), (0, 2)), ((3,), (3, 1))])
def test_product_rejects_bad_shapes(a, b):
    with pytest.raises(ValueError):
        product(np.ones(a), np.ones(b))


def _product_digest() -> str:
    rng = np.random.default_rng(20260808)
    A, B = cn_stack(rng, (50, 6, 3, 2, 2)), cn_stack(rng, (50, 6, 1, 2, 2))
    H = cn_stack(rng, (50, 6, 2, 6))
    out = [product(A, B), product(H, H.conj().swapaxes(-1, -2))]
    return hashlib.sha256(b"".join(x.tobytes() for x in out)).hexdigest()


@pytest.mark.skipif(not _runs_haswell_kernels(),
                    reason="OpenBLAS's Haswell kernels need x86-64 with AVX2")
def test_product_bits_under_other_blas_kernels():
    # the kernel calls no BLAS, so another OpenBLAS kernel type gives its bits
    tests = Path(__file__).parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    result = subprocess.run(
        [sys.executable, "-c",
         "from test_channel import _product_digest; print(_product_digest())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [_product_digest()]


@pytest.mark.parametrize("H,expected", [
    (np.eye(2), 2.0),
    (np.zeros((3, 2)), 0.0),
    (np.array([[1 + 1j, 0], [0, 2]]), 6.0),
])
def test_received_power_analytic(H, expected):
    assert received_power(H) == pytest.approx(expected, abs=1e-15)


def test_received_power_equals_entry_magnitudes(rng):
    H = cn_matrix(rng, 4, 7)
    expected = float(np.sum(np.abs(H) ** 2))
    assert received_power(H) == pytest.approx(expected, rel=1e-12)


def test_received_power_stack_matches_per_matrix(rng):
    H = cn_matrix(rng, 3 * 4 * 2, 5).reshape(3, 4, 2, 5)
    expected = [[received_power(H[a, b]) for b in range(4)] for a in range(3)]
    np.testing.assert_array_equal(received_power(H), expected)
    assert type(received_power(H[0, 0])) is float


def test_received_power_of_gathered_rows_matches_gathered_powers(rng):
    # per-draw powers gathered at (rows, receivers) have the bits of the
    # powers of the gathered (B, R, N_i, N_t) channels; lanes share draws
    stack = cn_matrix(rng, 3 * 6 * 2, 6).reshape(3, 6, 2, 6)
    rows = np.array([0, 2, 2, 1, 0])[:, None]
    receivers = np.array([[0, 1, 2], [3, 4, 5], [0, 2, 5], [1, 3, 4], [2, 3, 4]])
    assert np.array_equal(received_power(stack)[rows, receivers],
                          received_power(stack[rows, receivers]))


def test_received_power_rejects_vector():
    with pytest.raises(ValueError):
        received_power(np.ones(3))


def test_solve_identity_plus_matches_inverse(rng):
    A = cn_matrix(rng, 3, 3)
    A = A @ A.conj().T
    B = cn_matrix(rng, 3, 2)
    expected = np.linalg.inv(np.eye(3) + A) @ B
    np.testing.assert_allclose(solve_identity_plus(A, B), expected, atol=1e-12)


def test_realization_shapes_default_scenario():
    config = SystemConfig(sinr_threshold=1.0)
    real = gen_network_realization(config, 0, [substream(config.seed, 0, 0, 0)])
    assert real.su_stack.shape == (1, config.Q, 2, 6)
    assert real.se_stack.shape == (1, 3, 2, 6)
    assert real.rr_stack.shape == (1, config.Q * (config.Q - 1), 2, 2)
    assert real.ru_stack.shape == (1, config.Q, 3, 2, 2)
    assert real.re_stack.shape == (1, config.Q, 3, 2, 2)
    assert real.rows.tolist() == [0]


def test_realization_deterministic():
    config = SystemConfig(sinr_threshold=1.0)
    r1 = gen_network_realization(config, 3, [substream(9, 0, 1, 3)])
    r2 = gen_network_realization(config, 3, [substream(9, 0, 1, 3)])
    np.testing.assert_array_equal(r1.su_stack, r2.su_stack)
    np.testing.assert_array_equal(r1.rr_stack, r2.rr_stack)
    np.testing.assert_array_equal(r1.ru_stack, r2.ru_stack)


def test_realization_small_poll_offdiagonal_pairs():
    config = SystemConfig(Q=2, T=1, K=1, sinr_threshold=1.0)
    real = gen_network_realization(config, 0, [substream(1, 0, 0, 0)])
    assert real.rr_stack.shape[1] == 2
    ids = np.arange(2)
    block = real.rr_block(ids[None, :, None], ids[None, None])[0]
    # relay 1 -> 2 is row 0 and relay 2 -> 1 row 1
    np.testing.assert_array_equal(block[0, 1], real.rr_stack[0, 0])
    np.testing.assert_array_equal(block[1, 0], real.rr_stack[0, 1])


def test_realization_immutable():
    config = SystemConfig(Q=2, T=1, K=1, sinr_threshold=1.0)
    real = gen_network_realization(config, 0, [substream(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        real.su_stack[0, 0, 0, 0] = 0
    with pytest.raises(ValueError):
        real.ru_stack[0, 0, 0, 0, 0] = 0
    # lanes picked from a realization (views of its draws) are read-only too
    lanes = gen_network_realization(config, 0,
                                    [substream(1, 0, t, 0) for t in range(2)])
    view = lanes.index_lanes([1, 0, 1])
    for stack in (view.su_stack, view.se_stack, view.rr_stack,
                  view.re_stack, view.ru_stack):
        with pytest.raises(ValueError):
            stack[(0,) * stack.ndim] = 0


def test_realization_views_consistent_with_stacks():
    # the pair-block gather must follow the carve order: ascending (k, i),
    # k != i
    config = SystemConfig(sinr_threshold=1.0)
    real = gen_network_realization(config, 0, [substream(5, 0, 0, 0)])
    pairs = [(k, i) for k in range(1, config.Q + 1)
             for i in range(1, config.Q + 1) if k != i]
    assert real.rr_stack.shape[1] == len(pairs)
    ids = np.arange(config.Q)
    block = real.rr_block(ids[None, :, None], ids[None, None])[0]
    for row, (k, i) in enumerate(pairs):
        np.testing.assert_array_equal(block[k - 1, i - 1], real.rr_stack[0, row])


def test_realization_entry_statistics():
    # the batched draw must still give CN(0, 1) entries within 3 standard errors
    config = SystemConfig(sinr_threshold=1.0)
    entries = []
    for slot in range(300):
        real = gen_network_realization(config, slot, [substream(3, 0, 0, slot)])
        entries.append(real.su_stack.ravel())
        entries.append(real.rr_stack.ravel())
        entries.append(real.ru_stack.ravel())
        entries.append(real.re_stack.ravel())
        entries.append(real.se_stack.ravel())
    x = np.concatenate(entries)
    n = x.size
    assert n > 1e5
    assert abs(x.mean()) < 3.0 / np.sqrt(2 * n)        # complex mean, var 1/2 per part
    assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 3.0 / np.sqrt(n)


@pytest.mark.parametrize("seed,key", [
    (0, ()), (20260808, (0, 3, 7)), (2**64 + 5, (1, 0, 2**32)),
    (-1, (2, 4, 2**62, 2**63 + 2**32 - 1, 199, 1)), (9, (2**32 - 1, 2**96))])
def test_substream_is_default_rng_of_the_key(seed, key):
    want = np.random.default_rng([seed & (2**64 - 1), *key]).standard_normal(5)
    assert np.array_equal(substream(seed, *key).standard_normal(5), want)


def test_substream_rejects_negative_key():
    with pytest.raises(ValueError):
        substream(1, 0, -1)


def test_substream_order_independence():
    a = substream(1, 0, 5, 3).standard_normal(4)
    substream(1, 0, 9, 9).standard_normal(100)
    b = substream(1, 0, 5, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
