import warnings

import pytest

from relaysec.cli import _parse_grid, main
from relaysec.errors import ConfigError

from conftest import inject_trial_error, needs_fork


def run_cli(tmp_path, *extra, name="out.csv"):
    out = tmp_path / name
    argv = ["--policy", "bf-rjfs", "--snr", "0,10", "--eta", "1.0",
            "--trials", "3", "--slots", "4", "--seed", "5",
            "--out", str(out)]
    config = tmp_path / "tiny.cfg"
    if not config.exists():
        config.write_text(
            "Q = 4\nT = 2\nK = 2\nN_t = 2\nM = 2\nN = 2\nwarmup_slots = 1\n")
    argv = ["--config", str(config)] + argv + list(extra)
    return main(argv), out


def test_cli_happy_path(tmp_path):
    code, out = run_cli(tmp_path)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("policy,snr_db,eta,")
    assert len(lines) == 3
    assert (tmp_path / "out.csv.manifest").exists()


def test_cli_rerun_byte_identical(tmp_path):
    _, out1 = run_cli(tmp_path, name="a.csv")
    _, out2 = run_cli(tmp_path, name="b.csv")
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_parallel_identical(tmp_path):
    _, out1 = run_cli(tmp_path, name="a.csv")
    _, out2 = run_cli(tmp_path, "--workers", "2", name="b.csv")
    assert out1.read_bytes() == out2.read_bytes()


@needs_fork
def test_cli_pooled_numeric_error(tmp_path, capsys, monkeypatch):
    inject_trial_error(monkeypatch)
    code, _ = run_cli(tmp_path, "--workers", "2")
    assert code == 3
    assert ("numeric error: policy 'bf-rjfs' trial 0 slot 0: injected"
            in capsys.readouterr().err)


@pytest.mark.parametrize("snr", ["-inf", "inf", "nan"])
def test_cli_non_finite_snr(tmp_path, capsys, snr):
    code, _ = run_cli(tmp_path, f"--snr={snr}")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "snr" in err


@pytest.mark.parametrize("snr", ["4000", "-4000", "-3100"])
def test_cli_snr_with_unrepresentable_noise(tmp_path, capsys, snr):
    code, out = run_cli(tmp_path, f"--snr={snr}")
    assert code == 2
    assert f"config error: SNR {float(snr)} dB" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["P = inf"])
def test_cli_infinite_power_or_noise_in_config(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    code = main(["--config", str(bad), "--policy", "random", "--snr", "10",
                 "--eta", "1.0", "--trials", "1", "--slots", "8",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("line,flag", [("eta = 0.2", "--eta"),
                                       ("sigma2 = 100", "--snr"),
                                       ("trials = 10", "--trials"),
                                       ("slots = 8", "--slots")],
                         ids=["eta", "sigma2", "trials", "slots"])
def test_cli_sweep_axis_in_config_rejected(tmp_path, capsys, line, flag):
    # --eta, --snr, --trials and --slots set these for the sweep; a file
    # value would be ignored
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    out = tmp_path / "x.csv"
    code = main(["--config", str(bad), "--policy", "random", "--snr", "10",
                 "--eta", "1.0", "--trials", "1", "--slots", "8",
                 "--out", str(out)])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_cli_repeated_grid_value(tmp_path, capsys):
    code, out = run_cli(tmp_path, "--snr", "10,10")
    assert code == 2
    assert "config error: snr grid repeats a value: 10,10" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,grid", [("--snr", "0:inf:5"), ("--snr", "-inf:0:5"),
                                       ("--snr", "0:1e300:1"),
                                       ("--eta", "0:2:1e-300")])
def test_cli_unbounded_range_refused(tmp_path, capsys, flag, grid):
    # a range with a non-finite bound or step, or too many points, is refused
    # before a point is built
    code, out = run_cli(tmp_path, f"{flag}={grid}")
    assert code == 2
    assert f"config error: cannot parse {flag} value" in capsys.readouterr().err
    assert not out.exists()


def test_cli_determinant_overflow_is_a_numeric_error(tmp_path, capsys):
    # the overflowing determinant is reported as a numeric error, without a
    # numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _ = run_cli(tmp_path, "--snr=1000")
    assert code == 3
    assert "numeric error: " in capsys.readouterr().err


def test_cli_calibration_numeric_error_names_the_cell(tmp_path, capsys):
    # the default scenario's oracle pre-run overflows at 790 dB; the error
    # names its policy, SNR, eta and slot, as a trial's error names its lane
    code = main(["--policy", "all", "--snr", "790", "--eta", "1.0",
                 "--trials", "2", "--slots", "8", "--out", str(tmp_path / "o.csv")])
    assert code == 3
    assert ("numeric error: policy 'oracle' calibration snr 790 eta 1 slot 1: "
            "non-finite determinant" in capsys.readouterr().err)


def test_cli_unknown_policy(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "--policy", "bogus")
    # the later --policy wins in argparse, so this exercises the error path
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("whatever = 3\n")
    code = main(["--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_cli_malformed_threshold_in_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sinr_threshold = abc\n")
    code = main(["--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_replay_antenna_mismatch_in_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("Q = 4\nT = 1\nK = 0\nN_r = 1\nN_i = 1\nN_k = 2\n"
                   "warmup_slots = 0\n")
    code = main(["--config", str(bad), "--policy", "max-ratio", "--snr", "10",
                 "--eta", "1.0", "--trials", "1", "--slots", "3",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "N_k == N_i" in capsys.readouterr().err


def test_cli_unwritable_output(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "Q = 4\nT = 2\nK = 2\nN_t = 2\nM = 2\nN = 2\nwarmup_slots = 1\n")
    code = main(["--config", str(config), "--policy", "bf-rjfs",
                 "--snr", "0", "--eta", "1.0", "--trials", "1",
                 "--slots", "2", "--seed", "1",
                 "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
    assert code == 4


def test_cli_flags_recorded_in_manifest(tmp_path):
    code, out = run_cli(tmp_path, "--no-iri-cancel", "--single-antenna",
                        name="flags.csv")
    assert code == 0
    manifest = (tmp_path / "flags.csv.manifest").read_text()
    assert "iri_cancellation = False" in manifest
    assert "N_t = 1" in manifest
    assert "N_i = 1" in manifest


def test_cli_worst_seeding_flag(tmp_path):
    code, out = run_cli(tmp_path, "--worst-sinr-seeding", name="w.csv")
    assert code == 0
    manifest = (tmp_path / "w.csv.manifest").read_text()
    assert "worst_sinr_seeding = True" in manifest


def test_parse_grid_range_and_list():
    assert _parse_grid("0:20:5", "snr") == (0.0, 5.0, 10.0, 15.0, 20.0)
    assert _parse_grid("0.5,1.0,1.5", "eta") == (0.5, 1.0, 1.5)
    assert _parse_grid("3", "snr") == (3.0,)


def test_parse_grid_rejects_garbage():
    with pytest.raises(ConfigError):
        _parse_grid("1:2", "snr")
    with pytest.raises(ConfigError):
        _parse_grid("5:1:1", "snr")
    with pytest.raises(ConfigError):
        _parse_grid("a,b", "eta")


def test_cli_warmup_longer_than_a_trial(tmp_path, capsys):
    # the check needs both the file's warmup_slots and the --slots value
    code, out = run_cli(tmp_path, "--slots", "1")
    assert code == 2
    assert "warmup_slots" in capsys.readouterr().err
    assert not out.exists()
