#!/usr/bin/env python3
"""Print the engine's cost per lane-slot at several lane-set sizes, as JSON.

For each policy and each lane-set size it times two lane sets, best of
``--repeat`` calls after a warm-up call:

* ``trial``: one ``_trial_chunk`` of 20-slot trials at threshold 0.15 over
  five SNR cells (0-20 dB, eta 1), as many trials as the size needs (one
  cell alone at size 1);
* ``calibration``: one ``_calibrate_lanes`` set of 200-slot pre-runs, one
  lane per cell, the cells at the five SNRs in turn with distinct etas.

Each entry gives the µs per lane-slot and the Python calls per slot of the
lane set (cProfile ``total_calls`` of one further call, over its slots).
Call counts repeat from run to run; times do not.  ``--acceptance N`` also
times the two acceptance-size sweeps N times each: the snr regime
(``bf-rjfs`` and ``conventional-bf`` at 5 SNRs, eta 1) and the eta-20 dB
regime (``bf-rjfs`` at 7 etas, gamma0 0.3, IRI on and off), 2000 trials of
8 slots at 2 workers.

The script reads the package it is given, so one copy measures any
checkout:

    PYTHONPATH=<checkout>/src python3 scripts/lane_cost.py [--sizes 1,5]
"""

import argparse
import cProfile
import json
import pstats
import sys
import time

from relaysec import SweepSpec, SystemConfig, monte_carlo
from relaysec.sim import POLICY_ORDER, _calibrate_lanes, _trial_chunk

SEED = 20260808
SNR_DB = (0.0, 5.0, 10.0, 15.0, 20.0)
THRESHOLD = 0.15
TRIAL_SLOTS = 20
CALIBRATION_SLOTS = 200
SIZES = (1, 5, 20, 250)
ORACLE_SIZES = (1, 5, 50)


def trial_set(policy: str, lanes: int):
    """A thunk that runs ``lanes`` trial lanes of ``policy`` as one chunk."""
    base = SystemConfig(seed=SEED, sinr_threshold=THRESHOLD)
    snrs = SNR_DB[:min(lanes, len(SNR_DB))]
    if lanes % len(snrs):
        raise SystemExit(f"trial lane sets hold 1 or a multiple of "
                         f"{len(SNR_DB)} lanes, got {lanes}")
    cells = [(policy, base.with_snr_db(snr)) for snr in snrs]
    trials = range(lanes // len(snrs))
    return lambda: _trial_chunk(cells, trials, TRIAL_SLOTS)


def calibration_set(policy: str, lanes: int):
    """A thunk that calibrates ``lanes`` distinct cells of ``policy`` as one
    lane set."""
    base = SystemConfig(seed=SEED)
    cells = [(policy, base.replace(eta=0.5 + i / lanes)
              .with_snr_db(SNR_DB[i % len(SNR_DB)])) for i in range(lanes)]
    return lambda: _calibrate_lanes(cells)


def cost(run, lanes: int, slots: int, repeat: int) -> dict:
    run()       # warm-up: a process's first call reads more calls
    best = min(_timed(run) for _ in range(repeat))
    profile = cProfile.Profile()
    profile.runcall(run)
    calls = pstats.Stats(profile).total_calls
    return {"us_per_lane_slot": round(best / (lanes * slots) * 1e6, 2),
            "calls_per_slot": round(calls / slots, 2)}


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def acceptance_s(runs: int) -> dict:
    """Wall seconds of each acceptance-size regime, ``runs`` times each."""
    def sweep(policies, snrs, etas):
        return SweepSpec(policies=policies, snr_db_grid=snrs, eta_grid=etas,
                         trials=2000, slots_per_trial=8, workers=2)

    base = SystemConfig(seed=SEED, warmup_slots=2)
    regimes = {
        "snr": [(base, sweep(("bf-rjfs", "conventional-bf"), SNR_DB, (1.0,)))],
        "eta20db": [(base.replace(gamma0=0.3, iri_cancellation=iri),
                     sweep(("bf-rjfs",), (20.0,),
                           (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)))
                    for iri in (True, False)],
    }
    return {name: [round(_timed(lambda: [monte_carlo(*run) for run in sweeps]), 3)
                   for _ in range(runs)]
            for name, sweeps in regimes.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--policies", default=",".join(POLICY_ORDER))
    parser.add_argument("--sizes", help="comma-separated lane-set sizes of "
                        "every policy (default 1,5,20,250; the oracle 1,5,50)")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--acceptance", type=int, default=0, metavar="N",
                        help="also time each acceptance-size sweep N times")
    args = parser.parse_args()
    sizes = args.sizes and [int(size) for size in args.sizes.split(",")]
    table = {}
    for policy in args.policies.split(","):
        if policy not in POLICY_ORDER:
            raise SystemExit(f"unknown policy {policy!r}")
        table[policy] = {
            str(lanes): {
                "trial": cost(trial_set(policy, lanes), lanes, TRIAL_SLOTS,
                              args.repeat),
                "calibration": cost(calibration_set(policy, lanes), lanes,
                                    CALIBRATION_SLOTS, args.repeat)}
            for lanes in sizes or (ORACLE_SIZES if policy == "oracle" else SIZES)}
    out = {"lane_cost": table}
    if args.acceptance:
        out["acceptance_s"] = acceptance_s(args.acceptance)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
