"""Command-line front end.

Exit codes: 0 success, 2 configuration error, 3 numeric error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys

from .config import SystemConfig, load_config
from .errors import ConfigError, NumericError
from .sim import POLICY_ORDER, SweepSpec, emit_results, monte_carlo


_MAX_GRID_POINTS = 10_000


def _parse_grid(text: str, name: str) -> tuple:
    """Accept 'a:b:step' (inclusive of b up to rounding; finite, with at most
    10000 points) or 'x,y,z'."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError("range needs exactly a:b:step")
            if not all(math.isfinite(p) for p in parts):
                raise ValueError("range bounds and step must be finite")
            a, b, step = parts
            if step <= 0 or b < a:
                raise ValueError("need b >= a and step > 0")
            count = (b + 1e-9 - a) / step + 1
            if not count <= _MAX_GRID_POINTS:
                raise ValueError(f"range has more than {_MAX_GRID_POINTS} points")
            return tuple(round(a + k * step, 12) for k in range(int(count) + 1)
                         if a + k * step <= b + 1e-9)
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse --{name} value {text!r}: {exc}") from exc


def _check_output(path: str) -> None:
    """Raise OSError unless ``path`` can be written as the CSV, in a
    directory that exists and is writable, so that no sweep runs only to
    fail on its output."""
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, "no such output directory", directory)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "output is a directory", path)
    if not os.access(directory, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, "output directory is not writable",
                              directory)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Secrecy-rate Monte Carlo sweeps for buffer-aided relay "
                    "networks with cooperative jamming.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--policy", default="all",
                        help="policy name or 'all' (%s)" % ", ".join(POLICY_ORDER))
    parser.add_argument("--snr", default="0:20:5",
                        help="SNR grid in dB: 'a:b:step' or comma list")
    parser.add_argument("--eta", default="0.5,0.75,1.0,1.25,1.5,1.75",
                        help="power-split grid: comma list in [0, 2]")
    parser.add_argument("--trials", type=int, default=2000,
                        help="Monte Carlo trials per cell (default: 2000)")
    parser.add_argument("--slots", type=int, default=50,
                        help="time slots per trial (default: 50)")
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed, unsigned 64-bit (default: config)")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--no-iri-cancel", action="store_true",
                        help="disable IRI cancellation at receiving relays")
    parser.add_argument("--single-antenna", action="store_true",
                        help="force one antenna at every node")
    parser.add_argument("--worst-sinr-seeding", action="store_true",
                        help="seed slot-0 jammers from the ranking bottom")
    parser.add_argument("--workers", type=int, default=1,
                        help="trial workers, at most one per CPU (results identical)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else SystemConfig()
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.no_iri_cancel:
            overrides["iri_cancellation"] = False
        if args.worst_sinr_seeding:
            overrides["worst_sinr_seeding"] = True
        if overrides:
            config = config.replace(**overrides)
        if args.single_antenna:
            config = config.single_antenna()

        if args.policy == "all":
            policies = POLICY_ORDER
        elif args.policy in POLICY_ORDER:
            policies = (args.policy,)
        else:
            raise ConfigError(
                f"unknown policy {args.policy!r}; choose from "
                f"{', '.join(POLICY_ORDER)} or 'all'")

        sweep = SweepSpec(
            policies=policies,
            snr_db_grid=_parse_grid(args.snr, "snr"),
            eta_grid=_parse_grid(args.eta, "eta"),
            trials=args.trials,
            slots_per_trial=args.slots,
            workers=args.workers)
        _check_output(args.out)
        report = monte_carlo(config, sweep)
        emit_results(report, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
