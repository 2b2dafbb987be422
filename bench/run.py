#!/usr/bin/env python3
"""relaysec benchmark: end-to-end and per-layer metrics of seeded sweeps.

Run from the root of a relaysec checkout; the program is imported from its
``src/`` directory and nowhere else:

    python3 bench/run.py --workload steady --seed 20260808 --seconds 45 --trace 0
    python3 bench/run.py --all [--size quick]   # every workload, both modes
    python3 bench/run.py --record               # rewrite bench/reference/

``--trace 0`` times whole passes over the workload with tracing off and
reports ``slots_per_s`` (trial slots per wall second, calibration pre-runs,
pool start-up and CSV emission included), ``setup_s`` (fresh interpreter to
the first cell, median of several) and ``peak_rss_mb`` (this process and its
workers).  ``--trace 1`` runs the workload once at its own worker count,
then twice untraced and twice traced in-process (and once at 2 workers if
its own count is 1), and reports the per-layer metrics and the stage table;
its passes must agree across worker counts.

Every pass is checked cell by cell: a cell fails when its sweep raised, when
a rate is not finite, when it differs from the run's first pass (other
worker counts included), or, at the default seed and full size, when it
differs byte for byte from ``bench/reference/<workload>.txt``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (in cells) and ``metrics``; the lines before it
list each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
SETUP_PROBES = 11
DEFAULT_SEED = 20260808   # the acceptance suite's seed
CHILD_TIMEOUT_S = 900


def _declared_metrics() -> dict:
    """{trace level: {metric name: unit}} as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {level: {m["name"]: m["unit"] for m in spec[key]}
            for level, key in ((0, "end_to_end"), (1, "per_layer"))}


# ---------------------------------------------------------------------------
# passes


@dataclasses.dataclass
class Pass:
    wall_s: float
    cells: list              # per cell: signature line, or None if it raised
    results: list            # CellResult of every cell that ran
    calibration_s: list      # per calibrated cell, when timed
    emit_s: float


def run_pass(workload, workers: int, out_dir: Path, tracer=None,
             time_calibration: bool = False) -> Pass:
    """Run every sweep of the workload once and read back what it wrote."""
    import relaysec.sim
    from relaysec import emit_results, monte_carlo
    from tracing import timed_calls
    from workloads import sweep_cells

    calibration: list = []
    span = tracer.span if tracer is not None else (lambda _: contextlib.nullcontext())
    emitted, emit_s = [], 0.0
    with contextlib.ExitStack() as stack:
        if time_calibration:
            stack.enter_context(timed_calls(relaysec.sim, "calibrate_threshold",
                                            calibration))
        t0 = time.perf_counter()
        for label, config, sweep in workload.runs:
            sweep = dataclasses.replace(sweep, workers=workers)
            path = out_dir / f"{label}.csv"
            try:
                with span("sim.monte_carlo"):
                    report = monte_carlo(config, sweep)
                t_emit = time.perf_counter()
                with span("sim.emit"):
                    emit_results(report, path)
                emit_s += time.perf_counter() - t_emit
            except Exception:       # a failed sweep fails its cells, not the run
                traceback.print_exc()
                emitted.append((label, None, sweep_cells(sweep)))
                continue
            emitted.append((label, path, report.cells))
        wall = time.perf_counter() - t0

    cells, results = [], []
    for label, path, report_cells in emitted:
        if path is None:
            cells.extend([None] * report_cells)
            continue
        rows = path.read_text().splitlines()[1:]
        thresholds = [line for line in Path(f"{path}.manifest").read_text().splitlines()
                      if line.startswith("threshold.")]
        for row, thr, cell in zip(rows, thresholds, report_cells):
            cells.append(f"{label}\t{row}\t{thr}\tsilent={cell.silent_transmitter_events}")
        results.extend(report_cells)
    return Pass(wall, cells, results, calibration, emit_s)


def _finite(line: str) -> bool:
    """Mean, std, ci95 (unless "na"), IRI fraction and threshold are finite."""
    try:
        _, row, thr, _ = line.split("\t")
        fields = row.split(",")
        values = [fields[3], fields[4], fields[8], thr.split(" = ")[1]]
        if fields[5] != "na":
            values.append(fields[5])
        return all(math.isfinite(float(v)) for v in values)
    except (ValueError, IndexError):   # not the CSV layout this check knows
        return False


def check(passes: list, reference: list | None) -> tuple[int, int]:
    """(cells attempted, cells failed) over all passes; see the module doc."""
    first = passes[0].cells
    attempted = failed = 0
    for n, p in enumerate(passes):
        for i, line in enumerate(p.cells):
            attempted += 1
            problem = None
            if line is None:
                problem = "raised"
            elif not _finite(line):
                problem = "non-finite output"
            elif line != first[i]:
                problem = "differs from the first pass"
            elif reference is not None and (i >= len(reference) or line != reference[i]):
                problem = "differs from the reference"
            if problem:
                failed += 1
                print(f"bench: pass {n} cell {i}: {problem}: {line}", file=sys.stderr)
    return attempted, failed


def _reference_path(name: str) -> Path:
    return REFERENCE / f"{name}.txt"


def load_reference(name: str) -> list:
    return [line for line in _reference_path(name).read_text().splitlines()
            if not line.startswith("#")]


# ---------------------------------------------------------------------------
# end-to-end run


def measure_setup(args) -> list:
    """Seconds from starting a fresh interpreter to the workload being built."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()   # CLOCK_MONOTONIC: shared with the child
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120)
        samples.append(float(out.stdout.split()[-1]) - t0)
    return samples


def end_to_end(args, workload, out_dir):
    setup = measure_setup(args)
    timed = []
    start = time.perf_counter()
    while len(timed) < 2 or time.perf_counter() - start < args.seconds:
        timed.append(run_pass(workload, workload.workers, out_dir))
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "slots_per_s": (statistics.median(workload.trial_slots / p.wall_s
                                          for p in timed), len(timed)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
    }
    return timed, metrics


# ---------------------------------------------------------------------------
# traced run


def _layer_rows(tracer, layers, policies) -> dict:
    """{layer: (calls, calls per slot, self us per slot, total us per slot)}
    over trial slots; a policy's step is per slot of that policy."""
    names = ["channel.substream", "channel.realization",
             *(f"selection.step.{p}" for p in policies),
             "selection.rate_report", "rates.logdet", "buffers.op", "link_metrics"]
    rows = {}
    for name in names:
        policy = name[len("selection.step."):] if name.startswith("selection.step.") else None
        slots = tracer.counts[f"steps.{policy}" if policy else "steps"]
        layer = layers.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        rows[name] = ((layer["calls"], layer["calls"] / slots,
                       1e6 * layer["self_s"] / slots, 1e6 * layer["total_s"] / slots)
                      if slots else (0, 0.0, 0.0, 0.0))
    return rows


def _traced_pass(workload, out_dir, policies):
    from tracing import Tracer
    tracer = Tracer()
    with tracer.active():
        p = run_pass(workload, 1, out_dir, tracer=tracer)
    summary = tracer.summary()
    c = tracer.counts
    slots = c["steps"]

    def ratio(a, b):
        return a / b if b else 0.0

    counts = {   # exact counts: they must repeat between traced passes
        **{f"selection.np_calls_per_slot.{q}": ratio(c[f"np_calls.{q}"], c[f"steps.{q}"])
           for q in policies},
        "selection.oracle_useful_frac": ratio(c["oracle_jam_sets"], c["in_step_rate_reports"]),
        "buffers.occupancy_mean": ratio(c["occupancy_sum"], c["occupancy_samples"]),
        "buffers.evictions_per_slot": ratio(c["evictions"], slots),
        "buffers.forward_frac": ratio(c["forward_pushes"], c["pushes"]),
        "sim.trial_samples": len(summary["trial_s"]),
        "trace.slots": slots,
    }
    trial_ms = list(1e3 * summary["trial_s"])
    timings = {
        "sim.trial_ms_p50": statistics.median(trial_ms),
        "sim.trial_ms_p99": (statistics.quantiles(trial_ms, n=100)[98]
                             if len(trial_ms) > 1 else trial_ms[0]),
        "sim.unattributed_frac": 1.0 - summary["attributed_s"] / p.wall_s,
    }
    return p, _layer_rows(tracer, summary["layers"], policies), counts, timings


def per_layer(args, workload, out_dir):
    """One pass at the workload's worker count, then untraced and traced
    in-process passes alternating, so that tracing overhead is not confounded
    with a drift in machine speed; a 1-worker workload also runs once at 2
    workers, so every traced run checks output across worker counts."""
    from relaysec.sim import POLICY_ORDER
    timed = run_pass(workload, workload.workers, out_dir, time_calibration=True)
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(run_pass(workload, 1, out_dir, time_calibration=True))
        traced.append(_traced_pass(workload, out_dir, POLICY_ORDER))
    passes = [timed, *untraced, *(t[0] for t in traced)]
    if workload.workers == 1:
        passes.append(run_pass(workload, 2, out_dir))

    (_, rows_a, counts_a, _), (_, rows_b, counts_b, _) = traced
    drift = [k for k in counts_a if counts_a[k] != counts_b[k]]
    drift += [k for k in rows_a if rows_a[k][0] != rows_b[k][0]]
    for name in drift:
        print(f"bench: count drift between traced passes: {name}", file=sys.stderr)

    rows = {k: tuple((a + b) / 2 for a, b in zip(rows_a[k], rows_b[k])) for k in rows_a}
    slots = counts_a["trace.slots"]
    n_trials = counts_a["sim.trial_samples"]
    n_cal = len(timed.calibration_s)
    cal = sum(timed.calibration_s)
    busy_inproc = statistics.mean(u.wall_s - sum(u.calibration_s) - u.emit_s
                                  for u in untraced)
    results = timed.results

    def us(name):
        return rows[name][2], int(rows[name][0])

    def mean_of(key):
        return statistics.mean(t[3][key] for t in traced)

    metrics = {
        "channel.substream_us": us("channel.substream"),
        "channel.realization_us": us("channel.realization"),
        **{f"selection.step_us.{p}": us(f"selection.step.{p}") for p in POLICY_ORDER},
        **{f"selection.np_calls_per_slot.{p}": (counts_a[f"selection.np_calls_per_slot.{p}"],
                                                int(rows[f"selection.step.{p}"][0]))
           for p in POLICY_ORDER},
        "selection.rate_report_us": us("selection.rate_report"),
        "selection.rate_reports_per_slot": (rows["selection.rate_report"][1], slots),
        "selection.oracle_useful_frac": (counts_a["selection.oracle_useful_frac"],
                                         int(rows["selection.rate_report"][0])),
        "rates.logdet_us": us("rates.logdet"),
        "rates.logdet_calls_per_slot": (rows["rates.logdet"][1], slots),
        "buffers.op_us": us("buffers.op"),
        "buffers.ops_per_slot": (rows["buffers.op"][1], slots),
        **{k: (counts_a[k], slots) for k in ("buffers.occupancy_mean",
                                             "buffers.evictions_per_slot",
                                             "buffers.forward_frac")},
        "link_metrics.us_per_slot": us("link_metrics"),
        "sim.calibration_s": (cal / n_cal if n_cal else 0.0, n_cal),
        "sim.calibration_frac": (cal / timed.wall_s, 1),
        # wall time at the workload's worker count that neither calibration,
        # emission nor the in-process trial work divided over the workers
        # explains; a 1-worker workload starts no pool
        "sim.pool_overhead_frac": ((timed.wall_s - cal - timed.emit_s
                                    - busy_inproc / workload.workers) / timed.wall_s
                                   if workload.workers > 1 else 0.0, 1),
        "sim.trial_ms_p50": (mean_of("sim.trial_ms_p50"), n_trials),
        "sim.trial_ms_p99": (mean_of("sim.trial_ms_p99"), n_trials),
        "sim.trial_samples": (n_trials, n_trials),
        "sim.clamp_events_per_slot": (sum(c.clamp_events for c in results)
                                      / workload.trial_slots, len(results)),
        "sim.silent_per_slot": (sum(c.silent_transmitter_events for c in results)
                                / workload.trial_slots, len(results)),
        "sim.iri_feasible_frac": (statistics.mean(c.iri_feasible_frac for c in results)
                                  if results else 0.0, len(results)),
        "sim.unattributed_frac": (mean_of("sim.unattributed_frac"), 2),
        "trace_overhead_frac": (sum(t[0].wall_s for t in traced)
                                / sum(u.wall_s for u in untraced) - 1.0, 2),
        "trace.count_drift": (len(drift), 2),
    }
    print_stage_table(args, workload, rows, metrics)
    return passes, metrics


def print_stage_table(args, workload, rows, metrics):
    print(f"stage table: workload {workload.name}, seed {args.seed}, "
          f"traced in-process, mean of 2 passes")
    print(f"  {'stage':32s} {'calls/slot':>11s} {'self us/slot':>13s} {'total us/slot':>14s}")
    for name, (_, per_slot, self_us, total_us) in rows.items():
        print(f"  {name:32s} {per_slot:11.2f} {self_us:13.1f} {total_us:14.1f}")
    print(f"  {'calibration per cell (s)':32s} {metrics['sim.calibration_s'][0]:11.3f}")
    print(f"  {'pool overhead (frac of wall)':32s} {metrics['sim.pool_overhead_frac'][0]:11.3f}")


# ---------------------------------------------------------------------------
# entry points


def run_one(args) -> int:
    from workloads import build
    workload = build(args.workload, args.seed, args.size)
    if args.setup_probe:
        print(time.perf_counter())
        return 0
    reference = (load_reference(workload.name)
                 if args.seed == DEFAULT_SEED and args.size == "full" else None)
    declared = _declared_metrics()[args.trace]
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        measure = per_layer if args.trace else end_to_end
        passes, metrics = measure(args, workload, Path(tmp))
    attempted, failed = check(passes, reference)

    # a count that differs between identical traced passes is nondeterminism
    correct = failed == 0 and not metrics.get("trace.count_drift", (0, 0))[0]
    if set(metrics) != set(declared):
        correct = False
        print(f"bench: metrics {sorted(set(metrics) ^ set(declared))} are not "
              f"both measured and declared in BENCHMARK.json", file=sys.stderr)
    out = {}
    for name, (value, samples) in metrics.items():
        unit = declared.get(name, "?")
        if not math.isfinite(value):
            correct = False
            print(f"bench: metric {name} is not finite", file=sys.stderr)
            value = 0.0
        print(f"metric {name:38s} {value:>14.6g} {unit:6s} samples={samples}")
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def record() -> int:
    from workloads import NAMES, build
    REFERENCE.mkdir(exist_ok=True)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    for name in NAMES:
        workload = build(name, DEFAULT_SEED)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            p = run_pass(workload, 1, Path(tmp))
        if None in p.cells:
            print(f"bench: workload {name} raised; reference not written", file=sys.stderr)
            return 1
        header = (f"# {name} at seed {DEFAULT_SEED}, one line per cell: run label, "
                  f"CSV row, threshold manifest line, silent transmitters\n")
        _reference_path(name).write_text(header + "\n".join(p.cells) + "\n")
        print(f"wrote {_reference_path(name)} ({len(p.cells)} cells)")
    return 0


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process, plus the
    machine it ran on; exit 1 unless every run is correct (which includes
    reporting exactly the metrics BENCHMARK.json declares)."""
    import numpy
    from workloads import NAMES
    print(f"cpu: {_cpu_model()}  nproc: {os.cpu_count()}  "
          f"python: {platform.python_version()}  numpy: {numpy.__version__}")
    ok = True
    for trace in (0, 1):
        for name in NAMES:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S)
            lines = out.stdout.splitlines()
            print(f"== {name} --trace {trace}: exit {out.returncode}")
            for line in lines[:-1]:
                print(f"   {line}")
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(out.stderr, file=sys.stderr)
                ok = False
                continue
            good = out.returncode == 0 and result["correct"]
            print(f"   correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"error_rate={result['failed'] / result['attempted']:.4f}"
                  f"{'' if good else '  <-- FAILED'}")
            if not good:
                print(out.stderr, file=sys.stderr)
            ok = ok and good
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=("protocol", "steady"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "quick"), default="full",
                        help="quick: tiny sweeps that only check the plumbing")
    parser.add_argument("--all", action="store_true",
                        help="run every workload in both modes and print every metric")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the default-seed reference outputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "relaysec" / "__init__.py").is_file():
        print(f"bench: no relaysec sources under {SRC}; run from a relaysec "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))   # the checkout's program, never an installed one
    if args.record:
        return record()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
