"""Relay buffers: they store reception records and serve replay snapshots.

A record's class is decided once, at reception, by comparing the reception
SINR against the hybrid threshold (boundary counts as FORWARD).  Forward
records are consumed when delivered; jamming replays peek without removal by
default, since a stored low-quality signal can jam on multiple slots.

:class:`RelayBuffer` is one relay's FIFO, the executable statement of these
rules; the engine keeps every relay of every lane in one :class:`BufferBank`,
which applies the same rules to arrays.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

import numpy as np


class SignalClass(enum.Enum):
    FORWARD = "forward"
    JAM = "jam"


def classify_signal(sinr: float, threshold: float) -> SignalClass:
    """FORWARD if sinr >= threshold else JAM (boundary inclusive on FORWARD)."""
    if sinr < 0 or threshold < 0:
        raise ValueError("sinr and threshold must be nonnegative")
    return SignalClass.FORWARD if sinr >= threshold else SignalClass.JAM


@dataclass(frozen=True)
class BufferedSignal:
    snapshot: np.ndarray          # source->relay channel at reception
    sinr_at_reception: float
    slot: int
    signal_class: SignalClass


class RelayBuffer:
    """FIFO of reception records with bounded capacity.

    Slot indices must be strictly increasing along the queue; pushing beyond
    capacity evicts the oldest record and counts the eviction.
    """

    def __init__(self, relay_id: int, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.relay_id = relay_id
        self.capacity = capacity
        self._queue: list[BufferedSignal] = []
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def records(self) -> tuple:
        return tuple(self._queue)

    def push(self, record: BufferedSignal) -> None:
        if self._queue and record.slot <= self._queue[-1].slot:
            raise ValueError(
                f"out-of-order push: slot {record.slot} after slot "
                f"{self._queue[-1].slot}")
        self._queue.append(record)
        if len(self._queue) > self.capacity:
            self._queue.pop(0)
            self.evictions += 1

    def pop_forward(self) -> BufferedSignal | None:
        """Remove and return the oldest FORWARD record, or None."""
        for idx, record in enumerate(self._queue):
            if record.signal_class is SignalClass.FORWARD:
                return self._queue.pop(idx)
        return None

    def peek_forward(self) -> BufferedSignal | None:
        """The record pop_forward would return, without removing it."""
        for record in self._queue:
            if record.signal_class is SignalClass.FORWARD:
                return record
        return None

    def peek_jamming(self) -> BufferedSignal | None:
        """Oldest JAM record if any, else the oldest record of any class.

        Non-destructive: a jamming signal can be reused across slots.  Returns
        None when empty, in which case the relay stays silent.
        """
        for record in self._queue:
            if record.signal_class is SignalClass.JAM:
                return record
        return self._queue[0] if self._queue else None

    def remove(self, record: BufferedSignal) -> None:
        """Remove a specific record (consume-on-jam support)."""
        for idx, existing in enumerate(self._queue):
            if existing is record:
                self._queue.pop(idx)
                return
        raise ValueError("record not present in buffer")


# A cell's key when it holds no record (_FREE where a push looks for a cell
# to write), and the offset that ranks FORWARD records after every JAM record
# in peek_jamming.
_EMPTY, _FREE = np.iinfo(np.int64).max, np.iinfo(np.int64).min
_AFTER_JAM = 2**62


@dataclass(frozen=True)
class Records:
    """One record per (lane, relay) on (B, Q) stacks; ``found`` is False
    where a relay has none, and there the other arrays hold zeros."""

    found: np.ndarray       # (B, Q) bool
    snapshot: np.ndarray    # (B, Q, N_i, N_t)
    sinr: np.ndarray        # (B, Q)
    slot: np.ndarray        # (B, Q) int
    forward: np.ndarray     # (B, Q) bool

    def record(self, lane: int, relay: int) -> BufferedSignal:
        """The record of relay index ``relay`` in ``lane`` (it must exist)."""
        return BufferedSignal(
            snapshot=self.snapshot[lane, relay].copy(),
            sinr_at_reception=float(self.sinr[lane, relay]),
            slot=int(self.slot[lane, relay]),
            signal_class=(SignalClass.FORWARD if self.forward[lane, relay]
                          else SignalClass.JAM))


class BufferBank:
    """The buffers of Q relays in each of B lanes, as slot-keyed arrays.

    Each relay has ``capacity`` cells; a cell holds a record when ``valid``
    is set.  The caller pushes each relay's records in increasing
    slot order (the engine pushes a slot's records in that slot), so the
    oldest record is the valid cell with the smallest slot, and every
    :class:`RelayBuffer` operation is a masked argmin over the cell axis.
    Relays are indexed 0..Q-1.
    """

    def __init__(self, lanes: int, relays: int, capacity: int, snapshot_shape):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        cells = (lanes, relays, capacity)
        self.snapshot = np.zeros(cells + tuple(snapshot_shape), dtype=complex)
        self.sinr = np.zeros(cells)
        self.slot = np.zeros(cells, dtype=np.int64)
        self.forward = np.zeros(cells, dtype=bool)
        self.valid = np.zeros(cells, dtype=bool)
        self.evictions = np.zeros(cells[:2], dtype=np.int64)
        # flat index of each relay's first cell
        self._first = np.arange(lanes * relays).reshape(cells[:2]) * cells[2]

    def index_lanes(self, index: slice) -> BufferBank:
        """The buffers of the contiguous lane range ``index``, on views of
        these arrays."""
        bank = copy.copy(self)
        for name in ("snapshot", "sinr", "slot", "forward", "valid", "evictions"):
            setattr(bank, name, getattr(self, name)[index])
        bank._first = self._first[:len(bank.valid)]
        return bank

    def occupancy(self) -> np.ndarray:
        """(B, Q) record counts."""
        return self.valid.sum(axis=-1)

    def _flat(self, array: np.ndarray) -> np.ndarray:
        """A view of ``array`` with one axis over every cell."""
        return array.reshape((-1,) + array.shape[3:])

    def take(self, cell: np.ndarray, found: np.ndarray) -> Records:
        """Records in cell ``cell`` (B, Q) of each relay where ``found``."""
        at = self._first + cell
        return Records(
            found=found,
            snapshot=np.where(found[..., None, None], self._flat(self.snapshot)[at], 0),
            sinr=np.where(found, self._flat(self.sinr)[at], 0.0),
            slot=np.where(found, self._flat(self.slot)[at], 0),
            forward=found & self._flat(self.forward)[at])

    def peek_jamming(self) -> tuple:
        """(cell, found) of every relay: its oldest JAM record, else its
        oldest record; non-destructive."""
        key = np.where(self.valid, self.slot + self.forward * _AFTER_JAM, _EMPTY)
        return key.argmin(axis=-1), self.valid.any(axis=-1)

    def pop_forward(self, relays: np.ndarray) -> tuple:
        """Remove the oldest FORWARD record of every relay in the (B, Q) mask
        ``relays``; (cell, found)."""
        eligible = self.valid & self.forward & relays[..., None]
        cell = np.where(eligible, self.slot, _EMPTY).argmin(axis=-1)
        found = eligible.any(axis=-1)
        self.remove(found, cell)
        return cell, found

    def remove(self, relays: np.ndarray, cell: np.ndarray) -> None:
        """Drop record ``cell`` of every relay in the (B, Q) mask ``relays``."""
        self._flat(self.valid)[(self._first + cell)[relays]] = False

    def push(self, relays: np.ndarray, snapshot: np.ndarray, sinr: np.ndarray,
             slot, forward: np.ndarray) -> None:
        """Store a record in every relay of the (B, Q) mask ``relays``: the
        arrays hold one entry per record, in the mask's row-major order, and
        ``slot`` is one slot or such an array.  A relay at capacity
        overwrites its oldest record and counts the eviction."""
        first = self._first[relays]
        rows = first[:, None] + np.arange(self.capacity)   # every cell of each relay
        # a free cell, else the oldest record's
        at = first + np.where(self._flat(self.valid)[rows], self._flat(self.slot)[rows],
                              _FREE).argmin(axis=-1)
        self.evictions.reshape(-1)[first // self.capacity] += self._flat(self.valid)[at]
        self._flat(self.snapshot)[at] = snapshot
        self._flat(self.sinr)[at] = sinr
        self._flat(self.slot)[at] = slot
        self._flat(self.forward)[at] = forward
        self._flat(self.valid)[at] = True
