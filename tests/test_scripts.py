"""Smoke runs of the experiment scripts on a tiny sweep, and the package
names that the scripts and the benchmark import."""

import ast
import concurrent.futures
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

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
