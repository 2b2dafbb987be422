#!/usr/bin/env python3
"""Print one sha256 per config over the float bits of every lockstep slot.

Each config runs all six policies at 9 cells (3 SNRs x 3 power splits) and
2 trials as the lanes of one lane set.  Each cell's threshold is first
calibrated by the sweep's own pre-run, of one policy per cell.  A config's
digest covers, slot by slot:

* every lane's roles;
* the reception SINRs;
* both selection metrics;
* the jamming covariance Delta;
* the slot rates.

It also covers the calibrated thresholds and the final diagnostic counters.
Each line also counts the lanes' receive metrics that ran rather than
being a forced set.

Two checkouts compute the same bits when their lines match:

    PYTHONPATH=<checkout>/src python3 scripts/lockstep_digest.py

The digests depend on the BLAS kernels numpy picks for the CPU, so compare
runs on one machine only.
"""

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


def config_digest(config: SystemConfig) -> tuple:
    """(sha256 hex digest, receive metrics that ran) of one config."""
    digest = hashlib.sha256()
    cells = [config.replace(eta=eta).with_snr_db(snr)
             for snr in SNR_DB for eta in ETAS]
    # each cell's pre-run runs one policy, every policy in turn, so that
    # the 200-slot pre-runs stay few
    thresholds = _calibrate_lanes(
        [(POLICY_ORDER[i % len(POLICY_ORDER)], cell) for i, cell in enumerate(cells)])
    feed(digest, np.array(thresholds))
    lanes = [(policy, cell.replace(sinr_threshold=threshold), trial)
             for policy in POLICY_ORDER
             for cell, threshold in zip(cells, thresholds)
             for trial in TRIALS]
    receive, jam = [], []
    ran = 0

    def each(outcome, state, rates):
        nonlocal ran
        ran += sum(len(metric) for metric in receive if metric is not None)
        feed(digest, outcome.receivers, outcome.transmitters, outcome.jammers,
             outcome.replays.found, outcome.sinr, outcome.delta, *receive,
             *jam, *rates)
        receive.clear()
        jam.clear()

    originals = selection.select_receiving_relays, selection.select_jamming_relays
    selection.select_receiving_relays = captured(originals[0], receive)
    selection.select_jamming_relays = captured(originals[1], jam)
    try:
        state = _lockstep(lanes, SLOTS, each)
    finally:
        selection.select_receiving_relays, selection.select_jamming_relays = originals
    feed(digest, *(getattr(state.diag, f.name)
                   for f in dataclasses.fields(state.diag)))
    return digest.hexdigest(), ran


def main() -> int:
    for name, config in CONFIGS.items():
        hexdigest, ran = config_digest(config)
        print(f"{name} {hexdigest} receive_metrics_run={ran}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
