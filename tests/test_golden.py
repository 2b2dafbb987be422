"""Byte-for-byte pin of the CSV and manifest of a small fixed sweep.

The runs cover every policy, two SNR points, two power splits, the
auto-calibrated threshold, and each behaviour switch (IRI cancellation off,
single antenna, consume-on-jam, worst-SINR seeding, selection noise floor).
A relay pool larger than T + K keeps the receive-side metric unforced.

The files under ``tests/golden/`` are written by running this module as a
script (``PYTHONPATH=src python tests/test_golden.py``).  Rewriting them means
the simulator's numbers changed: say why in ``CHANGES.md``.
"""

import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from relaysec.config import SystemConfig
from relaysec.sim import POLICY_ORDER, SweepSpec, emit_results, monte_carlo

GOLDEN_DIR = Path(__file__).parent / "golden"

_BASE = SystemConfig(Q=5, T=2, K=2, gamma0=0.3, warmup_slots=1, seed=20261018)
_FIXED = _BASE.replace(sinr_threshold=0.3)


def _sweep(snrs, etas, trials, slots, policies=POLICY_ORDER):
    return SweepSpec(policies=policies, snr_db_grid=snrs, eta_grid=etas,
                     trials=trials, slots_per_trial=slots)


RUNS = {
    "auto": (_BASE.replace(sinr_threshold=None), _sweep((5.0, 15.0), (1.0,), 2, 5)),
    "grid": (_FIXED, _sweep((5.0, 15.0), (0.75, 1.25), 3, 8)),
    "default-scenario": (SystemConfig(sinr_threshold=0.3, warmup_slots=1),
                         _sweep((10.0,), (1.0,), 2, 6)),
    "iri-off": (_FIXED.replace(iri_cancellation=False), _sweep((10.0,), (1.0,), 2, 8)),
    "single-antenna": (_FIXED.single_antenna(), _sweep((10.0,), (1.0,), 2, 8)),
    # the switches below only reach the policies listed with them
    "consume-on-jam": (_FIXED.replace(consume_on_jam=True),
                       _sweep((10.0,), (1.0,), 2, 8, ("bf-rjfs", "random", "oracle"))),
    "worst-seeding": (_FIXED.replace(worst_sinr_seeding=True),
                      _sweep((10.0,), (1.0,), 2, 8, ("bf-rjfs",))),
    "noise-floor": (_FIXED.replace(selection_noise_floor=True),
                    _sweep((10.0,), (1.0,), 2, 8, ("bf-rjfs",))),
}


def write_run(name: str, directory: Path, workers: int = 1) -> Path:
    config, sweep = RUNS[name]
    out = directory / f"{name}.csv"
    emit_results(monte_carlo(config, dataclasses.replace(sweep, workers=workers)), out)
    return out


def assert_golden(out: Path) -> None:
    for suffix in ("", ".manifest"):
        got = Path(str(out) + suffix).read_bytes()
        want = (GOLDEN_DIR / (out.name + suffix)).read_bytes()
        assert got == want, f"{out.name}{suffix} differs from tests/golden"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_bytes(name, tmp_path):
    assert_golden(write_run(name, tmp_path))


def test_golden_bytes_pooled(tmp_path):
    """Calibration and trials through a 2-worker pool give the same bytes
    (the manifest does not record the worker count)."""
    assert_golden(write_run("auto", tmp_path, workers=2))


def _runs_haswell_kernels() -> bool:
    """Whether this CPU runs OpenBLAS's Haswell kernels (x86-64 with AVX2)."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


@pytest.mark.skipif(not _runs_haswell_kernels(),
                    reason="OpenBLAS's Haswell kernels need x86-64 with AVX2")
def test_golden_bytes_under_other_blas_kernels(tmp_path):
    """The golden runs give the golden bytes on another OpenBLAS kernel type
    than the CPU's own.  The bits of single slots may differ across kernel
    types; the printed digits must not.  OPENBLAS_CORETYPE picks the kernels
    only in an OpenBLAS built with DYNAMIC_ARCH: under any other BLAS, or
    on a CPU whose own kernel type is Haswell, the runs use the usual
    kernels and this test proves nothing beyond ``test_golden_bytes``."""
    tests = Path(__file__).parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    script = ("import sys; from pathlib import Path; "
              "from test_golden import RUNS, write_run; "
              "[write_run(name, Path(sys.argv[1])) for name in RUNS]")
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    for name in sorted(RUNS):
        assert_golden(tmp_path / f"{name}.csv")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for run in RUNS:
        print(write_run(run, GOLDEN_DIR))
