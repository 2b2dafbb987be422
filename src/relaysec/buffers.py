"""Per-relay buffer: stores reception records and serves replay snapshots.

A record's class is decided once, at reception, by comparing the reception
SINR against the hybrid threshold (boundary counts as FORWARD).  Forward
records are consumed when delivered; jamming replays peek without removal by
default, since a stored low-quality signal can jam on multiple slots.
"""

from __future__ import annotations

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

    @property
    def is_full(self) -> bool:
        return len(self._queue) >= self.capacity

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
