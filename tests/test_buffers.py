import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysec.buffers import (BufferBank, BufferedSignal, RelayBuffer,
                              SignalClass, classify_signal)

from views import bank_records


def record(slot, signal_class=SignalClass.FORWARD, sinr=1.0):
    return BufferedSignal(snapshot=np.zeros((1, 1)), sinr_at_reception=sinr,
                          slot=slot, signal_class=signal_class)


@pytest.mark.parametrize("sinr,threshold,expected", [
    (5.0, 3.0, SignalClass.FORWARD),
    (2.0, 3.0, SignalClass.JAM),
    (3.0, 3.0, SignalClass.FORWARD),   # boundary inclusive on FORWARD
])
def test_classify(sinr, threshold, expected):
    assert classify_signal(sinr, threshold) is expected


def test_classify_rejects_negative():
    with pytest.raises(ValueError):
        classify_signal(-1.0, 0.0)


def test_classify_degenerate_thresholds():
    assert classify_signal(0.0, 0.0) is SignalClass.FORWARD
    assert classify_signal(1e12, float("inf")) is SignalClass.JAM


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1e9), st.floats(0, 1e9), st.floats(0, 1e9))
def test_classify_monotone_in_threshold(sinr, t_low, t_high):
    lo, hi = min(t_low, t_high), max(t_low, t_high)
    if classify_signal(sinr, lo) is SignalClass.JAM:
        assert classify_signal(sinr, hi) is SignalClass.JAM


def test_push_and_eviction():
    buf = RelayBuffer(1, capacity=2)
    buf.push(record(0))
    assert len(buf) == 1
    buf.push(record(1))
    buf.push(record(2))
    assert len(buf) == 2
    assert buf.evictions == 1
    assert [r.slot for r in buf.records] == [1, 2]


def test_push_rejects_slot_reuse_and_reorder():
    buf = RelayBuffer(1, capacity=4)
    buf.push(record(3))
    with pytest.raises(ValueError):
        buf.push(record(3))
    with pytest.raises(ValueError):
        buf.push(record(1))


def test_capacity_validation():
    with pytest.raises(ValueError):
        RelayBuffer(1, capacity=0)


def test_pop_forward_skips_jam():
    buf = RelayBuffer(1, capacity=4)
    buf.push(record(0, SignalClass.JAM))
    buf.push(record(1, SignalClass.FORWARD))
    popped = buf.pop_forward()
    assert popped.slot == 1
    assert [r.slot for r in buf.records] == [0]


def test_pop_forward_all_jam_returns_none():
    buf = RelayBuffer(1, capacity=4)
    buf.push(record(0, SignalClass.JAM))
    assert buf.pop_forward() is None
    assert len(buf) == 1


def test_pop_forward_fifo():
    buf = RelayBuffer(1, capacity=4)
    buf.push(record(0, SignalClass.FORWARD))
    buf.push(record(1, SignalClass.FORWARD))
    assert buf.pop_forward().slot == 0
    assert buf.pop_forward().slot == 1


def test_peek_forward_is_nondestructive():
    buf = RelayBuffer(1, capacity=4)
    buf.push(record(0, SignalClass.JAM))
    buf.push(record(1, SignalClass.FORWARD))
    assert buf.peek_forward().slot == 1
    assert len(buf) == 2


def test_peek_jamming_prefers_jam_class():
    buf = RelayBuffer(1, capacity=4)
    buf.push(record(1, SignalClass.FORWARD))
    buf.push(record(2, SignalClass.JAM))
    assert buf.peek_jamming().slot == 2
    assert len(buf) == 2


def test_peek_jamming_falls_back_to_any_class():
    buf = RelayBuffer(1, capacity=4)
    buf.push(record(1, SignalClass.FORWARD))
    assert buf.peek_jamming().slot == 1


def test_peek_jamming_empty():
    assert RelayBuffer(1, capacity=4).peek_jamming() is None


def test_remove_specific_record():
    buf = RelayBuffer(1, capacity=4)
    buf.push(record(0, SignalClass.JAM))
    rec = buf.peek_jamming()
    buf.remove(rec)
    assert len(buf) == 0
    with pytest.raises(ValueError):
        buf.remove(rec)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["push", "pop", "peek"]),
                          st.booleans()), max_size=60),
       st.integers(1, 5))
def test_random_operation_sequences_hold_invariants(ops, capacity):
    buf = RelayBuffer(1, capacity=capacity)
    slot = 0
    for op, forward in ops:
        if op == "push":
            cls = SignalClass.FORWARD if forward else SignalClass.JAM
            buf.push(record(slot, cls))
            slot += 1
        elif op == "pop":
            buf.pop_forward()
        else:
            buf.peek_jamming()
        assert len(buf) <= capacity
        slots = [r.slot for r in buf.records]
        assert slots == sorted(slots)
        assert len(set(slots)) == len(slots)


_OPS = st.tuples(st.sampled_from(["push", "pop", "peek", "consume"]), st.booleans())
_LANES, _RELAYS = 3, 2


def _same(got, want):
    return (got.slot == want.slot and got.sinr_at_reception == want.sinr_at_reception
            and got.signal_class is want.signal_class
            and np.array_equal(got.snapshot, want.snapshot))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 8]),
       st.lists(st.lists(_OPS, min_size=_LANES * _RELAYS,
                         max_size=_LANES * _RELAYS), max_size=40))
def test_bank_matches_relay_buffers(capacity, steps):
    # every step gives each (lane, relay) buffer one op: push with eviction,
    # pop_forward, peek_jamming, or a consume-on-jam remove of the peeked
    # record; the bank and one RelayBuffer per buffer must agree on what
    # each op returns, on the records kept, in order, and on evictions
    bank = BufferBank(_LANES, _RELAYS, capacity, (1, 1))
    spec = [[RelayBuffer(q, capacity) for q in range(_RELAYS)] for _ in range(_LANES)]
    cells = [(b, q) for b in range(_LANES) for q in range(_RELAYS)]
    slot = np.zeros((_LANES, _RELAYS), dtype=int)
    for ops in steps:
        kind = np.array([k for k, _ in ops]).reshape(_LANES, _RELAYS)
        forward = np.array([f for _, f in ops]).reshape(_LANES, _RELAYS)

        cell, found = bank.peek_jamming()
        peeked = bank.take(cell, found)
        for b, q in cells:
            want = spec[b][q].peek_jamming()
            assert found[b, q] == (want is not None)
            if want is not None:
                assert _same(peeked.record(b, q), want)
                if kind[b, q] == "consume":
                    spec[b][q].remove(want)
        bank.remove(found & (kind == "consume"), cell)

        cell, found = bank.pop_forward(kind == "pop")
        popped = bank.take(cell, found)
        for b, q in cells:
            want = spec[b][q].pop_forward() if kind[b, q] == "pop" else None
            assert found[b, q] == (want is not None)
            if want is not None:
                assert _same(popped.record(b, q), want)

        push = kind == "push"
        snapshot = (slot + 1j * np.arange(_LANES * _RELAYS).reshape(slot.shape))
        sinr = slot + 0.5
        bank.push(push, snapshot[push][..., None, None], sinr[push], slot[push],
                  forward[push])
        for b, q in np.argwhere(push).tolist():
            spec[b][q].push(BufferedSignal(
                snapshot=np.full((1, 1), snapshot[b, q]),
                sinr_at_reception=float(sinr[b, q]), slot=int(slot[b, q]),
                signal_class=SignalClass.FORWARD if forward[b, q] else SignalClass.JAM))
        slot += push

        for b, q in cells:
            got, want = bank_records(bank, b, q), spec[b][q].records
            assert len(got) == len(want)
            assert all(_same(g, w) for g, w in zip(got, want))
            assert bank.evictions[b, q] == spec[b][q].evictions
