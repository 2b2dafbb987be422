#!/usr/bin/env python3
"""Print sha256 digests over the float bits of every lockstep slot.

Each config runs all six policies at 9 cells (3 SNRs x 3 power splits) and
2 trials as the lanes of one lane set.  Each cell's threshold is first
calibrated by the sweep's own pre-run, of one policy per cell.  That lane
set's digest covers, slot by slot:

* every lane's roles;
* the reception SINRs;
* both selection metrics;
* the jamming covariance Delta;
* the slot rates.

It also covers the calibrated thresholds and the final diagnostic counters.

A mixed lane set never runs a policy's step on the whole set, so each
config also runs each policy alone, as a sweep of that policy does: one
lane set calibrates 3 of the cells (one per SNR, each at its own power
split) and one runs their trials.  That second line covers the selection
metrics of every pre-run slot and the thresholds, then the same per-slot
fields of the trials and their final counters.

Each line also counts the lanes' receive metrics that ran rather than
being a forced set.

Two checkouts compute the same bits when their lines match:

    PYTHONPATH=<checkout>/src python3 scripts/lockstep_digest.py [--roles]

The digests depend on the BLAS kernels numpy picks for the CPU, so compare
runs on one machine only.  With ``--roles`` a line hashes no float: only
each slot's roles, replay ``found`` masks and the buffers' stored
``forward`` classes (with the cells that hold a record).  Two checkouts whose
floats differ in their last bits make the same decisions when these lines
match.
"""

import argparse
import dataclasses
import hashlib
import sys

import numpy as np

from relaysec import selection
from relaysec.config import SystemConfig
from relaysec.sim import POLICY_ORDER, _calibrate_lanes, _lockstep

SLOTS = 10
TRIALS = (0, 1)
SNR_DB = (0.0, 10.0, 20.0)
ETAS = (0.5, 1.0, 1.5)
CONFIGS = {
    "default": SystemConfig(seed=11),
    "q7-t2-k3": SystemConfig(seed=12, Q=7, T=2, K=3),
    "iri-off": SystemConfig(seed=13, Q=5, T=2, K=2, iri_cancellation=False,
                            buffer_capacity=2),
    "noise-floor-nats": SystemConfig(seed=14, Q=7, T=2, K=2, gamma0=0.3,
                                     selection_noise_floor=True,
                                     consume_on_jam=True, rate_unit="nats"),
    "single-antenna": SystemConfig(seed=15, Q=5, T=2, K=2,
                                   worst_sinr_seeding=True).single_antenna(),
    "no-jammers": SystemConfig(seed=16, Q=4, T=2, K=0, N_e=1),
}


def feed(digest, *arrays) -> None:
    for a in arrays:
        if a is None:
            digest.update(b"none")
            continue
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())


def captured(select, metrics: list):
    """``select`` that appends each call's metric to ``metrics``."""
    def wrapper(*args, **kwargs):
        mask, metric = select(*args, **kwargs)
        metrics.append(metric)
        return mask, metric
    return wrapper


class Digest:
    """A sha256 over lane sets' slots, with the selection metrics that
    :func:`selection.select_receiving_relays` and
    :func:`selection.select_jamming_relays` return while it is open, or,
    with ``roles``, over the slots' decisions alone."""

    def __init__(self, roles: bool = False):
        self.roles = roles
        self.digest = hashlib.sha256()
        self.receive, self.jam = [], []
        self.ran = 0        # receive metrics that ran

    def __enter__(self):
        self.originals = (selection.select_receiving_relays,
                          selection.select_jamming_relays)
        selection.select_receiving_relays = captured(self.originals[0], self.receive)
        selection.select_jamming_relays = captured(self.originals[1], self.jam)
        return self

    def __exit__(self, *exc):
        (selection.select_receiving_relays,
         selection.select_jamming_relays) = self.originals

    def metrics(self, *before, after=()) -> None:
        """Feed ``before``, the metrics captured since the last call, then
        ``after``; only ``before`` with ``roles``."""
        self.ran += sum(len(metric) for metric in self.receive if metric is not None)
        if self.roles:
            feed(self.digest, *before)
        else:
            feed(self.digest, *before, *self.receive, *self.jam, *after)
        self.receive.clear()
        self.jam.clear()

    def each(self, outcome, state, rates) -> None:
        decisions = (outcome.receivers, outcome.transmitters, outcome.jammers,
                     outcome.replays.found)
        if self.roles:
            bank = state.buffers
            self.metrics(*decisions, bank.valid, bank.forward & bank.valid)
        else:
            self.metrics(*decisions, outcome.sinr, outcome.delta, after=rates)

    def trials(self, lanes) -> None:
        state = _lockstep(lanes, SLOTS, self.each)
        if not self.roles:
            feed(self.digest, *(getattr(state.diag, f.name)
                                for f in dataclasses.fields(state.diag)))

    def line(self, name: str) -> str:
        return f"{name} {self.digest.hexdigest()} receive_metrics_run={self.ran}"


def config_lines(name: str, config: SystemConfig, roles: bool) -> list:
    """The mixed-policy line and the one-policy line of one config."""
    cells = [config.replace(eta=eta).with_snr_db(snr)
             for snr in SNR_DB for eta in ETAS]
    # each cell's pre-run runs one policy, every policy in turn, so that
    # the 200-slot pre-runs stay few
    thresholds = _calibrate_lanes(
        [(POLICY_ORDER[i % len(POLICY_ORDER)], cell) for i, cell in enumerate(cells)])
    with Digest(roles) as mixed:
        mixed.metrics(after=[np.array(thresholds)])
        mixed.trials([(policy, cell.replace(sinr_threshold=threshold), trial)
                      for policy in POLICY_ORDER
                      for cell, threshold in zip(cells, thresholds)
                      for trial in TRIALS])
    own = cells[::len(ETAS) + 1]      # (0 dB, 0.5), (10 dB, 1), (20 dB, 1.5)
    with Digest(roles) as alone:
        for policy in POLICY_ORDER:
            thresholds = _calibrate_lanes([(policy, cell) for cell in own])
            alone.metrics(after=[np.array(thresholds)])
            alone.trials([(policy, cell.replace(sinr_threshold=threshold), trial)
                          for cell, threshold in zip(own, thresholds)
                          for trial in TRIALS])
    return [mixed.line(name), alone.line(f"{name}/one-policy")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--roles", action="store_true",
                        help="hash the roles, replay masks and stored classes "
                        "alone, no float")
    args = parser.parse_args()
    for name, config in CONFIGS.items():
        print("\n".join(config_lines(name, config, args.roles)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
