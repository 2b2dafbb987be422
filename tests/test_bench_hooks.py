"""The benchmark's tracer wraps simulator functions by name; installing and
removing its wrappers must keep working after a refactor."""

from pathlib import Path

import numpy as np

from relaysec import buffers, selection

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_every_hooked_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    originals = (np.einsum, selection.slot_rate_report,
                 selection.source_link_power, buffers.RelayBuffer.push,
                 dict(selection.POLICIES))
    with tracing.Tracer().active():
        pass
    assert originals == (np.einsum, selection.slot_rate_report,
                         selection.source_link_power, buffers.RelayBuffer.push,
                         selection.POLICIES)
