"""Flat-fading MIMO channel generation and complex-matrix primitives.

Every random quantity in the simulator flows through :func:`substream`, which
derives an independent generator from ``(seed, *key)`` using numpy's
``SeedSequence``.  Trials and slots therefore consume disjoint streams that do
not depend on execution order, which is what makes parallel runs bit-exact.

Stream key layout (first element after the root seed):

* ``STREAM_CHANNEL``:     ``(seed, 0, trial, slot)`` - channel realizations
* ``STREAM_POLICY``:      ``(seed, 1, trial, slot)`` - random-policy draws
* ``STREAM_CALIBRATION``: ``(seed, 2, ...)``         - threshold pre-runs
* ``STREAM_INSTANCE``:    ``(seed, 3, ...)``         - synthetic test states
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STREAM_CHANNEL = 0
STREAM_POLICY = 1
STREAM_CALIBRATION = 2
STREAM_INSTANCE = 3

_SQRT_HALF = math.sqrt(0.5)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) path, order-insensitive."""
    return np.random.default_rng([int(seed) & (2**64 - 1), *map(int, key)])


def gen_channel(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a ``rows x cols`` matrix of i.i.d. CN(0, 1) entries.

    Real and imaginary parts are independent N(0, 1/2), so each entry has unit
    variance.  Consuming ``rng`` advances it deterministically.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"channel dimensions must be >= 1, got {rows}x{cols}")
    parts = rng.standard_normal((rows, cols, 2))
    return _SQRT_HALF * (parts[..., 0] + 1j * parts[..., 1])


def gram(H: np.ndarray) -> np.ndarray:
    """H @ H^H over the last two axes of a matrix or a (..., rows, cols)
    stack: Hermitian positive-semidefinite, shape (..., rows, rows)."""
    H = np.asarray(H)
    if H.ndim < 2:
        raise ValueError(f"expected a matrix or a matrix stack, got ndim={H.ndim}")
    return H @ H.conj().swapaxes(-1, -2)


def received_power(H: np.ndarray):
    """trace(H @ H^H), i.e. the sum of squared entry magnitudes: a float for
    a matrix, an array of shape (...) for a (..., rows, cols) stack."""
    H = np.asarray(H)
    if H.ndim < 2:
        raise ValueError(f"expected a matrix or a matrix stack, got ndim={H.ndim}")
    powers = (H.real**2 + H.imag**2).sum(axis=(-2, -1))
    return float(powers) if H.ndim == 2 else powers


@dataclass(frozen=True)
class NetworkRealization:
    """One slot's complete set of channel matrices, as read-only stacks.

    Relay id q is row ``q - 1`` of the relay-indexed stacks (``rr_row`` gives
    the row of a relay pair); eavesdroppers and users are positional.  A lane
    realization holds B slots of independent lanes: every stack gains a
    leading lane axis.
    """

    slot: int
    su_stack: np.ndarray      # (Q, N_i, N_t)
    se_stack: np.ndarray      # (N, N_e, N_t)
    rr_stack: np.ndarray      # (Q*(Q-1), N_i, N_k), ascending (k, i), k != i
    re_stack: np.ndarray      # (Q, N, N_e, N_k)
    ru_stack: np.ndarray      # (Q, M, N_r, N_k)
    Q: int

    def rr_row(self, k: int, i: int) -> int:
        """Row of ``rr_stack`` holding the relay k -> relay i channel."""
        if k == i:
            raise KeyError(f"no self channel for relay {k}")
        return (k - 1) * (self.Q - 1) + (i - 1) - (1 if i > k else 0)


def gen_network_realization(config, slot: int, rng) -> NetworkRealization:
    """Draw all channels for one slot (independent across slots: block fading).

    All entries come from a single batched i.i.d. CN(0, 1) draw, carved in a
    fixed documented order: source->relay for q = 1..Q, source->eavesdropper,
    relay->relay in ascending (k, i) with k != i, relay->eavesdropper
    (relay-major), then relay->user (relay-major).  Entries fill each matrix
    in row-major order, so the realization is a pure function of the rng
    state, hence of (seed, trial, slot).  ``rng`` is one generator, or a list
    of B generators for a lane realization whose lane b is what generator b
    alone would give.
    """
    lanes = isinstance(rng, list)
    rngs = rng if lanes else [rng]
    Q, M, N = config.Q, config.M, config.N
    N_t, N_r, N_e, N_i, N_k = (config.N_t, config.N_r, config.N_e,
                               config.N_i, config.N_k)
    shapes = (
        (Q, N_i, N_t),
        (N, N_e, N_t),
        (Q * (Q - 1), N_i, N_k),
        (Q, N, N_e, N_k),
        (Q, M, N_r, N_k),
    )
    sizes = [math.prod(s) for s in shapes]
    parts = np.stack([g.standard_normal((sum(sizes), 2)) for g in rngs])
    flat = _SQRT_HALF * parts.view(complex)[..., 0]    # real, imaginary pairs
    flat.flags.writeable = False
    blocks = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        block = flat[:, offset:offset + size].reshape((len(rngs),) + shape)
        blocks.append(block if lanes else block[0])
        offset += size
    su, se, rr, re, ru = blocks
    return NetworkRealization(
        slot=slot, su_stack=su, se_stack=se, rr_stack=rr, re_stack=re,
        ru_stack=ru, Q=Q)
