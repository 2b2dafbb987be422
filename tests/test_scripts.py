"""Smoke runs of the experiment scripts on a tiny sweep, and the package
names that the scripts and the benchmark import."""

import ast
import concurrent.futures
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import relaysec.rates
import relaysec.sim

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args, sweep=True):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if sweep:
        args = ("--trials", "1", "--slots", "2", "--workers", "1") + args
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300)


def data_rows(path):
    return len(path.read_text().splitlines()) - 1


def test_snr_sweep_script(tmp_path):
    out = tmp_path / "snr.csv"
    result = run_script("run_snr_sweep.py", "--out", str(out))
    assert result.returncode == 0, result.stderr
    # every policy at five SNRs
    assert data_rows(out) == 30
    assert (tmp_path / "snr.csv.manifest").exists()


def test_eta_sweep_script(tmp_path):
    result = run_script("run_eta_sweep.py", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for label in ("with_iri_cancel", "without_iri_cancel"):
        out = tmp_path / f"eta_sweep_{label}.csv"
        assert data_rows(out) == 7
        assert (tmp_path / f"eta_sweep_{label}.csv.manifest").exists()


def test_lockstep_digest_script_repeats_its_lines():
    # no digest is pinned: the bits depend on the BLAS kernels of the CPU.
    # The two runs start together, so they overlap
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(lambda _: run_script("lockstep_digest.py", sweep=False),
                             range(2)))
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) >= 5 and lines == runs[1].stdout.splitlines()
    assert any(not line.endswith("receive_metrics_run=0") for line in lines)


def test_lockstep_digest_roles_mode_ignores_float_bits(monkeypatch):
    # a last-bit change of every reception SINR moves the default line but
    # not the roles line, whose decisions it leaves as they were
    spec = importlib.util.spec_from_file_location(
        "lockstep_digest", ROOT / "scripts" / "lockstep_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    config = digest.CONFIGS["q7-t2-k3"]
    lanes = [(policy, config.replace(sinr_threshold=0.3).with_snr_db(10.0), 0)
             for policy in relaysec.sim.POLICY_ORDER]

    def lines():
        out = []
        for roles in (False, True):
            with digest.Digest(roles) as d:
                d.trials(lanes)
            out.append(d.line("x"))
        return out

    before = lines()
    reception_sinr = relaysec.rates.reception_sinr
    monkeypatch.setattr(relaysec.rates, "reception_sinr",
                        lambda *args: np.nextafter(reception_sinr(*args), np.inf))
    after = lines()
    assert before[0] != after[0] and before[1] == after[1]


def test_lane_cost_script_repeats_its_call_counts():
    # times vary from run to run and are not pinned; call counts do not
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(
            lambda _: run_script("lane_cost.py", "--sizes", "1", "--repeat", "1",
                                 sweep=False), range(2)))
    assert all(run.returncode == 0 for run in runs), runs[0].stderr
    tables = [json.loads(run.stdout)["lane_cost"] for run in runs]
    assert sorted(tables[0]) == sorted(relaysec.sim.POLICY_ORDER)
    entries = [[(policy, kind, cost) for policy, sizes in table.items()
                for kind, cost in sizes["1"].items()] for table in tables]
    assert len(entries[0]) == 2 * len(tables[0])
    calls = [[(policy, kind, cost["calls_per_slot"]) for policy, kind, cost in e]
             for e in entries]
    assert calls[0] == calls[1]
    assert all(cost["us_per_lane_slot"] > 0 and cost["calls_per_slot"] > 0
               for e in entries for _, _, cost in e)


@pytest.mark.parametrize("path", sorted((ROOT / "bench").glob("*.py"))
                         + sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_relaysec_imports_resolve(path):
    # some of these imports sit inside functions that no test runs, so a
    # name dropped from the package would otherwise go unnoticed
    imported = 0
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "relaysec":
                    importlib.import_module(alias.name)
                    imported += 1
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "relaysec"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}:{node.lineno}: {node.module} has no "
                    f"{alias.name}")
                imported += 1
    assert imported
