"""In-memory span tracer for one benchmark process.

Each public function is wrapped at the name its caller looks it up through
(``relaysec.sim.substream``, the ``POLICIES`` entries, ``RelayBuffer``
methods, ...), so the program itself carries no tracing code.  A span is
(name, start, end, parent span, trial); a layer's self time is its span time
minus the time covered by its child spans.  ``np.einsum``, ``np.linalg.det``
and ``np.linalg.solve`` calls are counted, not spanned, and charged to the
policy whose slot is running.  Layer figures and counts cover trial slots
only; calibration pre-runs are a stage of their own.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

import relaysec.buffers
import relaysec.rates
import relaysec.selection
import relaysec.sim
from relaysec.channel import STREAM_CHANNEL

BUFFER_OPS = ("push", "pop_forward", "peek_forward", "peek_jamming", "remove")
LOGDET_FUNCS = ("logdet_identity_plus", "logdet_identity_plus_stack",
                "clamped_logdet_rate", "clamped_logdet_rate_stack")
LINK_FUNCS = ("source_link_power", "relayed_link_power")
NO_TRIAL = -1
ROOT_SPAN = "sim.monte_carlo"   # opened by the benchmark around each sweep


@contextlib.contextmanager
def patched(target, name, wrap):
    """Replace ``target.name`` (or ``target[name]`` for a dict) by
    ``wrap(original)`` for the duration of the block."""
    is_dict = isinstance(target, dict)
    original = target[name] if is_dict else getattr(target, name)
    if is_dict:
        target[name] = wrap(original)
    else:
        setattr(target, name, wrap(original))
    try:
        yield
    finally:
        if is_dict:
            target[name] = original
        else:
            setattr(target, name, original)


@contextlib.contextmanager
def timed_calls(target, name, durations: list):
    """Append the wall time of every call of ``target.name`` to ``durations``."""
    def wrap(fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - t0)
        return timed
    with patched(target, name, wrap):
        yield


class Tracer:
    """Spans and counters of one traced pass; see :meth:`active`."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self.trial = array("l")
        self._stack: list = []
        self._trial = NO_TRIAL
        self._trials_seen = 0
        self.policy: str | None = None
        self.counts = Counter()     # exact event counts, see the wrappers
        self._jam_sets: set = set()
        self._in_step = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self._trial)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, outside any trial."""
        self._trial = NO_TRIAL
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def spanned(self, name: str):
        def wrap(fn):
            def traced(*args, **kwargs):
                idx = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
            return traced
        return wrap

    # -- wrappers with side counts ------------------------------------------

    def _substream(self, fn):
        traced = self.spanned("channel.substream")(fn)

        def wrapper(seed, *key):
            if len(key) == 3 and key[0] == STREAM_CHANNEL and key[2] == 0:
                self._trials_seen += 1          # slot 0 of a new trial
                self._trial = self._trials_seen
            return traced(seed, *key)
        return wrapper

    def _calibration(self, fn):
        traced = self.spanned("sim.calibration")(fn)

        def wrapper(*args, **kwargs):
            self._trial = NO_TRIAL
            return traced(*args, **kwargs)
        return wrapper

    def _step(self, policy: str, fn):
        traced = self.spanned(f"selection.step.{policy}")(fn)

        def wrapper(*args, **kwargs):
            if self._trial == NO_TRIAL:      # a calibration slot
                return traced(*args, **kwargs)
            self.policy = policy     # stays set through the slot's rate report
            self._jam_sets = set()
            self._in_step += 1
            try:
                outcome, state = traced(*args, **kwargs)
            finally:
                self._in_step -= 1
            self.counts["steps"] += 1
            self.counts[f"steps.{policy}"] += 1
            self.counts["oracle_jam_sets"] += len(self._jam_sets)
            buffers = state.buffers.values()
            self.counts["occupancy_sum"] += sum(len(b) for b in buffers)
            self.counts["occupancy_samples"] += len(buffers)
            return outcome, state
        return wrapper

    def _rate_report(self, fn):
        traced = self.spanned("selection.rate_report")(fn)

        def wrapper(realization, config, replays, jammers, transmitters):
            if self._in_step:    # the oracle scoring a candidate assignment
                self.counts["in_step_rate_reports"] += 1
                self._jam_sets.add(tuple(jammers))
            return traced(realization, config, replays, jammers, transmitters)
        return wrapper

    def _push(self, fn):
        def push(buf, record):
            if self._trial == NO_TRIAL:
                return fn(buf, record)
            before = buf.evictions
            fn(buf, record)
            self.counts["evictions"] += buf.evictions - before
            self.counts["pushes"] += 1
            if record.signal_class is relaysec.buffers.SignalClass.FORWARD:
                self.counts["forward_pushes"] += 1
        return push

    def _np_counted(self, fn):
        def counted(*args, **kwargs):
            if self._trial != NO_TRIAL:
                self.counts[f"np_calls.{self.policy}"] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper; restore the originals on exit."""
        sim, sel, rates = relaysec.sim, relaysec.selection, relaysec.rates
        with contextlib.ExitStack() as stack:
            enter = stack.enter_context
            enter(patched(sim, "substream", self._substream))
            enter(patched(sim, "gen_network_realization",
                          self.spanned("channel.realization")))
            enter(patched(sim, "calibrate_threshold", self._calibration))
            for module in (sim, sel):   # sim per slot, the oracle per assignment
                enter(patched(module, "slot_rate_report", self._rate_report))
            for policy in list(sel.POLICIES):
                enter(patched(sel.POLICIES, policy,
                              lambda fn, p=policy: self._step(p, fn)))
            for name in LOGDET_FUNCS:
                enter(patched(rates, name, self.spanned("rates.logdet")))
            for name in LINK_FUNCS:
                enter(patched(sel, name, self.spanned("link_metrics")))
            for name in BUFFER_OPS:
                enter(patched(relaysec.buffers.RelayBuffer, name,
                              self.spanned("buffers.op")))
            enter(patched(relaysec.buffers.RelayBuffer, "push", self._push))
            enter(patched(np, "einsum", self._np_counted))
            enter(patched(np.linalg, "det", self._np_counted))
            enter(patched(np.linalg, "solve", self._np_counted))
            yield self

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name over trial spans: calls, total and self seconds;
        seconds of self time in spans other than the root; seconds per trial."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int_)
        nid = np.frombuffer(self.name_id, dtype=np.int_)
        trial = np.frombuffer(self.trial, dtype=np.int_)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        n = len(self.names)
        in_trial = trial != NO_TRIAL
        calls = np.bincount(nid[in_trial], minlength=n)
        total = np.bincount(nid[in_trial], weights=dur[in_trial], minlength=n)
        self_sum = np.bincount(nid[in_trial], weights=self_t[in_trial], minlength=n)
        layers = {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                         "self_s": float(self_sum[i])}
                  for i, name in enumerate(self.names)}
        root = self._name_ids.get(ROOT_SPAN, -1)
        ids, inverse = np.unique(trial[in_trial], return_inverse=True)
        first = np.full(len(ids), np.inf)
        last = np.full(len(ids), -np.inf)
        np.minimum.at(first, inverse, start[in_trial])
        np.maximum.at(last, inverse, (start + dur)[in_trial])
        return {"layers": layers, "attributed_s": float(self_t[nid != root].sum()),
                "trial_s": last - first}
