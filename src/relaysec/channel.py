"""Flat-fading MIMO channel generation, complex-matrix primitives and the
link powers.

Every random quantity in the simulator flows through :func:`substream`, which
derives an independent generator from ``(seed, *key)`` using numpy's
``SeedSequence``.  Trials and slots therefore consume disjoint streams that do
not depend on execution order, which is what makes parallel runs bit-exact.

Stream key layout (first element after the root seed):

* ``STREAM_CHANNEL``:     ``(seed, 0, trial, slot)`` - channel realizations
* ``STREAM_POLICY``:      ``(seed, 1, trial, slot)`` - random-policy draws
* ``STREAM_CALIBRATION``: ``(seed, 2, ...)``         - threshold pre-runs
* ``STREAM_INSTANCE``:    ``(seed, 3, ...)``         - synthetic test states

:class:`NetworkRealization` owns the layout of a slot's draws.  It has one
form, for B lanes (one for the one-lane views): lanes that share a draw
read it in place through a lane->draw row index.

:func:`product` is the simulator's one matrix-product kernel for tiny
matrices: a loop over the contracted axis, each step one ufunc over the
whole stack.  :func:`gram` and the replay product run on it.

The link powers are channel traces over matrices or stacks:
:func:`received_power` of a direct link, and :func:`relayed_link_power` of a
replayed buffered signal, the one place that forms the replay product
H_ab Hs.  A replay is built from the buffered channel snapshot of the
transmitting relay (the source-side channel it saw when the signal was
stored), never from the current slot's source channel.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

STREAM_CHANNEL = 0
STREAM_POLICY = 1
STREAM_CALIBRATION = 2
STREAM_INSTANCE = 3

_SQRT_HALF = math.sqrt(0.5)
# the stacks of a realization, in the order a draw carves them
_STACKS = ("su_stack", "se_stack", "rr_stack", "re_stack", "ru_stack")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) path.  The stream depends
    on the key's elements and their order, not on the order of calls.

    It is ``np.random.default_rng([seed mod 2**64, *key])``, with the list
    split here into the little-endian 32-bit words (at least one per
    element) that ``SeedSequence`` would read from it: a word array is
    what ``SeedSequence`` reads fastest, and the calibration lanes draw
    several streams every slot."""
    words = []
    for n in (int(seed) & (2**64 - 1), *map(int, key)):
        if n < 0:
            raise ValueError(f"stream key elements must be nonnegative, got {n}")
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(np.array(words, dtype=np.uint32))))


def product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over the last two axes of matrices or (..., n, m) and (..., m, p)
    stacks, broadcast over the leading axes: the simulator's one
    matrix-product kernel.

    It loops over the m contracted columns, each step one ufunc over the
    whole stack, so it pays numpy's fixed cost m times rather than once per
    matrix as ``np.matmul`` does on tiny matrices; it calls no BLAS, so its
    bits do not depend on the BLAS kernel type.  The stacks must be finite
    unless the caller sets ``np.errstate``.
    """
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim < 2 or B.ndim < 2:
        raise ValueError("expected matrices or matrix stacks")
    if A.shape[-1] != B.shape[-2] or A.shape[-1] == 0:
        raise ValueError(f"product needs a nonzero contracted width shared by "
                         f"both operands, got {A.shape} @ {B.shape}")
    C = A[..., :, 0, None] * B[..., None, 0, :]
    for j in range(1, A.shape[-1]):
        C += A[..., :, j, None] * B[..., None, j, :]
    return C


def gram(H: np.ndarray) -> np.ndarray:
    """H @ H^H over the last two axes of a matrix or a (..., rows, cols)
    stack: Hermitian positive-semidefinite, shape (..., rows, rows), by
    :func:`product`."""
    H = np.asarray(H)
    if H.ndim < 2:
        raise ValueError(f"expected a matrix or a matrix stack, got ndim={H.ndim}")
    return product(H, H.conj().swapaxes(-1, -2))


def received_power(H: np.ndarray):
    """trace(H @ H^H) as one einsum, the simulator's one link-power kernel: a
    float for a matrix, an array of shape (...) for a (..., rows, cols) stack."""
    H = np.asarray(H)
    if H.ndim < 2:
        raise ValueError(f"expected a matrix or a matrix stack, got ndim={H.ndim}")
    powers = np.einsum("...ab,...ab->...", H, H.conj()).real
    return float(powers) if H.ndim == 2 else powers


def relayed_link_power(H_ab: np.ndarray, H_stored: np.ndarray):
    """trace(H_ab Hs Hs^H H_ab^H) for a replayed buffered signal: the
    :func:`received_power` of the replay product H_ab Hs.

    ``H_stored`` is the snapshot the transmitting relay recorded at reception;
    its row count must match the transmit antenna count (columns of H_ab).
    Matrices give a float; (..., rows, cols) stacks, broadcast against each
    other, give an array over the leading axes, bit-equal to per-pair calls.
    """
    H_ab = np.asarray(H_ab)
    H_stored = np.asarray(H_stored)
    if H_ab.ndim < 2 or H_stored.ndim < 2:
        raise ValueError("expected matrices or matrix stacks")
    if H_ab.shape[-1] != H_stored.shape[-2]:
        raise ValueError(
            f"replay dimension mismatch: H_ab is {H_ab.shape}, snapshot is "
            f"{H_stored.shape}")
    return received_power(product(H_ab, H_stored))


@functools.lru_cache(maxsize=8)
def _rr_rows(Q: int) -> np.ndarray:
    """(Q, Q) row of ``rr_stack`` of each (sender, receiver) relay index
    pair, ascending (k, i) with k != i; a relay paired with itself gets
    row 0."""
    k, i = np.indices((Q, Q))
    rows = np.where(k == i, 0, k * (Q - 1) + i - (i > k))
    rows.flags.writeable = False     # shared by every caller
    return rows


@dataclass(frozen=True)
class NetworkRealization:
    """One slot's channel matrices for B lanes, as read-only stacks.

    The stacks hold the slot's D distinct draws, each with a leading draw
    axis, and ``rows`` holds the (B,) draw of each lane; lanes that share a
    channel stream share a draw.  Relay id q is row ``q - 1`` of a draw's
    relay-indexed stacks; eavesdroppers and users are positional.  Its
    views share the draws' stacks: ``index_lanes`` picks lanes by their
    rows, ``per_lane`` reads each lane's row of a stack, or of a
    channel-only product computed once on the draws, and ``rr_block``
    gathers relay->relay channels by relay index pairs.
    """

    slot: int
    su_stack: np.ndarray      # (D, Q, N_i, N_t)
    se_stack: np.ndarray      # (D, N, N_e, N_t)
    rr_stack: np.ndarray      # (D, Q*(Q-1), N_i, N_k), ascending (k, i), k != i
    re_stack: np.ndarray      # (D, Q, N, N_e, N_k)
    ru_stack: np.ndarray      # (D, Q, M, N_r, N_k)
    Q: int
    rows: np.ndarray          # (B,) draw of each lane
    # (function, stack name) -> (D, ...) product of the draws, shared by views
    products: dict = dataclasses.field(default_factory=dict, repr=False,
                                       compare=False)

    def rr_block(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Relay->relay channels of the lanes from ``senders`` to
        ``receivers``, relay index arrays that broadcast to (B, X, Y): shape
        (B, X, Y, N_i, N_k).  A relay paired with itself gets an arbitrary
        channel, zeros where Q = 1 and no relay pair exists."""
        pairs = _rr_rows(self.Q)[senders, receivers]
        if self.Q == 1:
            shape = (len(self.rows),) + pairs.shape[1:] + self.rr_stack.shape[2:]
            return np.zeros(shape, dtype=self.rr_stack.dtype)
        return self.per_lane("rr_stack", pairs)

    def per_lane(self, name: str, index=None, of=None) -> np.ndarray:
        """(B, ...) rows of the lanes of the stack ``name``, or of
        ``of(stack)``, a channel-only product along its draw axis that runs
        once per slot whichever view asks.  A (B, ...) index array ``index``
        then picks from the next axis of each lane's row."""
        draws = getattr(self, name)
        if of is not None:
            if (of, name) not in self.products:
                self.products[of, name] = of(draws)
            draws = self.products[of, name]
        if index is None:
            return draws[self.rows]
        return draws[self.rows.reshape((-1,) + (1,) * (np.ndim(index) - 1)), index]

    def index_lanes(self, index) -> NetworkRealization:
        """The view of lanes ``index`` (a slice, or a list of lanes that may
        repeat), on the same draws."""
        return dataclasses.replace(self, rows=self.rows[index])


def gen_network_realization(config, slot: int, rngs: list) -> NetworkRealization:
    """Draw all channels for one slot (independent across slots: block fading).

    All entries come from a single batched i.i.d. CN(0, 1) draw, carved in a
    fixed documented order: source->relay for q = 1..Q, source->eavesdropper,
    relay->relay in ascending (k, i) with k != i, relay->eavesdropper
    (relay-major), then relay->user (relay-major).  Entries fill each matrix
    in row-major order, so the realization is a pure function of the rng
    state, hence of (seed, trial, slot).  ``rngs`` is a list of B
    generators, and lane b is what generator b alone would give.
    """
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
    stacks, offset = {}, 0
    for name, shape, size in zip(_STACKS, shapes, sizes):
        stacks[name] = flat[:, offset:offset + size].reshape((len(rngs),) + shape)
        offset += size
    return NetworkRealization(slot=slot, Q=Q, rows=np.arange(len(rngs)), **stacks)
