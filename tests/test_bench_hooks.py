"""The benchmark's tracer wraps simulator functions by name; installing and
removing its wrappers must keep working after a refactor."""

from pathlib import Path

import numpy as np
import pytest

from relaysec import buffers, rates, selection

from conftest import buffer_records, make_instance, small_config

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


def test_rate_report_reaches_patched_logdet(monkeypatch):
    # the tracer's rates.logdet figures read 0 if the engine binds the kernel
    # by name instead of looking it up on the rates module
    config = small_config()
    state, real = make_instance(config, seed=3)
    outcome, _ = selection.POLICIES["bf-rjfs"](state, real, config)
    calls = []
    kernel = rates.clamped_logdet_rate_stack

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(rates, "clamped_logdet_rate_stack", counted)
    selection.slot_rate_report(real, config, outcome.replays,
                               outcome.jamming_relays,
                               outcome.transmitting_relays)
    assert calls


@pytest.mark.parametrize("policy", ["max-ratio", "bf-rjfs", "conventional-bf"])
def test_policy_reaches_patched_link_powers(monkeypatch, policy):
    # the tracer's link_metrics figures read 0 if a policy's picks or the
    # serve's reception step compute link powers without looking them up on
    # the selection module: max-ratio's picks call both, bf-rjfs's call
    # neither, so its calls come from the serve, and conventional-bf's picks
    # key their per_lane products by the patched name
    config = small_config()
    state, real = make_instance(config, seed=3)
    assert any(buffer_records(state, q) for q in range(1, config.Q + 1))
    calls, patched = {}, {}
    for name in ("source_link_power", "relayed_link_power"):
        def counted(*args, _fn=getattr(selection, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(selection, name, counted)
        patched[name] = counted
    selection.POLICIES[policy](state, real, config)
    assert calls.get("source_link_power") and calls.get("relayed_link_power")
    if policy == "conventional-bf":
        source = patched["source_link_power"]
        assert {(source, "su_stack"), (source, "ru_stack")} <= real.products.keys()
