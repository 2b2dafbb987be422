"""The benchmark's workloads: each is a list of (label, config, sweep) runs
of ``monte_carlo`` whose inputs are a pure function of the seed.

* ``protocol`` mirrors the four acceptance fixtures of
  ``tests/test_acceptance.py`` (39 cells of 8-slot trials with 2 warm-up slots
  and an auto-calibrated threshold) at reduced trials, through a 2-worker
  pool.  It is the run that dominates the test suite: a 200-slot calibration
  pre-run per cell, a new process pool per cell, and per-trial set-up every 8
  slots.  Its single-antenna and IRI-off cells take the 1x1 and
  no-feasibility-determinant paths through the same kernels.
* ``steady`` is the per-slot engine alone, in-process, with explicit
  thresholds near the calibrated median so that records of both classes are
  stored; calibration and the pool do no work here.  It runs each heuristic
  policy for long trials at 10 dB, so buffers fill to capacity and evict,
  and then the exhaustive oracle at Q=7, T=3, K=3, where 140 scored
  assignments share 35 distinct jam sets and the rate kernel dominates.  At
  the default Q=6 (T+K=Q) every assignment has its own jam set and a jam-set
  search could show no gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from relaysec import SweepSpec, SystemConfig

NAMES = ("protocol", "steady")

SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0)
ETA_GRID_10DB = (0.5, 0.75, 1.0, 1.25, 1.5)
ETA_GRID_20DB = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
HEURISTICS = ("bf-rjfs", "conventional-bf", "max-link", "max-ratio", "random")
# close to the calibrated median reception SINR at 10 dB, so records of
# both classes are stored
STEADY_THRESHOLD = 0.15

# (trials, slots per trial) for each kind of run; "quick" only checks plumbing
SIZES = {
    "full": {"protocol": (24, 8), "heuristics": (2, 150), "oracle": (1, 12)},
    "quick": {"protocol": (2, 8), "heuristics": (1, 12), "oracle": (1, 3)},
}


def sweep_cells(sweep: SweepSpec) -> int:
    return len(sweep.policies) * len(sweep.snr_db_grid) * len(sweep.eta_grid)


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple      # (label, SystemConfig, SweepSpec) per monte_carlo call
    workers: int     # worker count of the timed passes

    @property
    def trial_slots(self) -> int:
        """Slots simulated by one pass, calibration pre-runs excluded."""
        return sum(sweep_cells(s) * s.trials * s.slots_per_trial
                   for _, _, s in self.runs)


def build(name: str, seed: int, size: str = "full") -> Workload:
    quick = size == "quick"

    def sweep(kind, policies, snrs, etas, workers):
        trials, slots = SIZES[size][kind]
        if quick:   # one grid point per run keeps calibration short
            snrs, etas = snrs[:1], etas[:1]
        return SweepSpec(policies=policies, snr_db_grid=snrs, eta_grid=etas,
                         trials=trials, slots_per_trial=slots, workers=workers)

    if name == "protocol":
        base = SystemConfig(seed=seed, warmup_slots=2)
        runs = [
            ("snr", base, sweep("protocol", ("bf-rjfs", "conventional-bf"),
                                SNR_GRID, (1.0,), 2)),
            ("siso", base.single_antenna(),
             sweep("protocol", ("bf-rjfs",), SNR_GRID, (1.0,), 2)),
        ]
        for snr, etas in ((10.0, ETA_GRID_10DB), (20.0, ETA_GRID_20DB)):
            for iri in (True, False):
                cfg = base.replace(gamma0=0.3, iri_cancellation=iri)
                label = f"eta{snr:g}db-iri-{'on' if iri else 'off'}"
                runs.append((label, cfg, sweep("protocol", ("bf-rjfs",), (snr,), etas, 2)))
        return Workload(name, tuple(runs), workers=2)
    if name == "steady":
        heuristics = SystemConfig(seed=seed, sinr_threshold=STEADY_THRESHOLD,
                                  warmup_slots=5)
        oracle = SystemConfig(seed=seed, Q=7, T=3, K=3,
                              sinr_threshold=STEADY_THRESHOLD, warmup_slots=1)
        return Workload(name, (
            ("heuristics", heuristics, sweep("heuristics", HEURISTICS, (10.0,), (1.0,), 1)),
            ("oracle", oracle, sweep("oracle", ("oracle",), (10.0,), (1.0,), 1)),
        ), workers=1)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
