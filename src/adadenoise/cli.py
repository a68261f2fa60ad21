"""Command-line interface.

Three subcommands wrap the library one-to-one:

* ``simulate CONFIG``  -- run a Monte-Carlo grid, write its CSV.
* ``denoise INPUT -o PREFIX [--noise-sd SD]``  -- denoise one matrix file.
* ``theory --what ... --sigma ...``  -- tabulate closed-form curves.

Exit codes: 0 success, 1 runtime failure, 2 usage or parse failure.
Standard output carries data (theory) or the run summary (simulate);
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .csvio import read_matrix_csv, write_matrix_csv
from .estimator import baseline_estimate, denoise
from .shrinkage import debiased_sv, error_limit, inflated_sv, overlap_limit
from .sim import (ConfigError, check_output, load_config, parse_grid,
                  run_grid)

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _err(msg: str) -> None:
    print(f"adadenoise: {msg}", file=sys.stderr)


def _read(kind, path, read, malformed=""):
    """`read(path)`, or None after reporting why the `kind` file at `path`
    could not be read."""
    try:
        return read(path)
    except FileNotFoundError:
        _err(f"{kind} file not found: {path}")
    except OSError as exc:
        _err(f"cannot read {kind} file {path}: {exc.strerror}")
    except ValueError as exc:  # ConfigError included
        _err(f"{malformed}{exc}")
    return None


def cmd_simulate(args) -> int:
    config = _read("config", args.config, load_config)
    if config is None:
        return USAGE_ERROR

    shown = False

    def progress(done: int, total: int) -> None:
        nonlocal shown
        print(f"\rtrial {done}/{total}", end="", file=sys.stderr, flush=True)
        shown = True

    t0 = time.perf_counter()
    try:
        try:
            records = run_grid(config, progress=progress)
        finally:
            if shown:  # ends the progress line; no blank line without one
                print(file=sys.stderr)
    except OSError as exc:
        _err(f"cannot write results: {exc}")
        return RUNTIME_ERROR
    except Exception as exc:  # pipeline failure
        _err(f"simulation failed: {exc}")
        return RUNTIME_ERROR
    elapsed = time.perf_counter() - t0
    cells = len(records) // config.trials
    print(f"cells={cells} trials={len(records)} wall={elapsed:.2f}s "
          f"output={config.output}")
    return 0


def _write_meta(path, fields) -> None:
    with open(path, "w") as fh:
        for key, value in fields:
            if isinstance(value, (list, tuple, np.ndarray)):
                text = ",".join(f"{v:.10g}" for v in value)
            elif isinstance(value, float):
                text = f"{value:.10g}"
            else:
                text = str(value)
            fh.write(f"{key} = {text}\n")


def cmd_denoise(args) -> int:
    if args.noise_sd is not None and not (0 < args.noise_sd < math.inf):
        _err("--noise-sd must be positive and finite")
        return USAGE_ERROR

    y = _read("input", args.input, read_matrix_csv, "malformed input: ")
    if y is None:
        return USAGE_ERROR

    prefix = args.output_prefix
    xhat, xstar, meta_path = (f"{prefix}_xhat.csv", f"{prefix}_xstar.csv",
                              f"{prefix}_meta.txt")
    try:
        # before the work, so that an unwritable output fails at once
        for path in ((xhat, xstar, meta_path) if args.noise_sd is None
                     else (xhat, meta_path)):
            check_output(path)
        if args.noise_sd is None:
            res = denoise(y)
            meta = [("i_hat", res.i_hat), ("k_hat", res.k_hat),
                    ("y_bar", res.y_bar)]
        else:  # the baseline, at the known noise sd
            res = baseline_estimate(y, noise_sd=args.noise_sd)
            meta = [("noise_sd", args.noise_sd), ("k_hat", res.k_hat)]
        # the full spectrum is taken on first read of sigma0; read it
        # before any file is written, so a failure leaves no output behind
        meta += [("sigma0", res.sigma0), ("sigma_shrunk", res.sigma_shrunk)]
        write_matrix_csv(res.x_hat, xhat)
        if res.x_star is not None:
            write_matrix_csv(res.x_star, xstar)
        _write_meta(meta_path, meta)
    except OSError as exc:
        _err(f"cannot write outputs: {exc}")
        return RUNTIME_ERROR
    # LinAlgError is a ValueError, so it is caught first
    except np.linalg.LinAlgError as exc:
        _err(f"spectral decomposition failed: {exc}")
        return RUNTIME_ERROR
    except ValueError as exc:
        _err(f"denoising failed: {exc}")
        return RUNTIME_ERROR
    return 0


def cmd_theory(args) -> int:
    try:
        sigmas = parse_grid(args.sigma)
    except ConfigError as exc:
        _err(str(exc))
        return USAGE_ERROR
    if args.what in ("overlap", "error") and args.t is None:
        _err(f"--t is required with --what {args.what}")
        return USAGE_ERROR

    rows = []
    try:
        for sigma in sigmas:
            if args.what == "overlap":
                value = overlap_limit(sigma, args.t, args.gamma)
            elif args.what == "error":
                value = error_limit(sigma, args.t)
            elif args.what == "H":
                value = inflated_sv(sigma, args.gamma)
            else:  # Hinv
                value = debiased_sv(sigma, args.gamma)
            rows.append((sigma, value))
    except ValueError as exc:
        _err(str(exc))
        return USAGE_ERROR

    print(f"sigma,{args.what}")
    for sigma, value in rows:
        print(f"{sigma:.10g},{value:.10g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: an unknown flag such as --h must not be read as
    # --help, nor --noise as --noise-sd
    parser = argparse.ArgumentParser(
        prog="adadenoise", allow_abbrev=False,
        description="Noise-adaptive matrix denoising toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", allow_abbrev=False,
                           help="run a Monte-Carlo grid from a config file")
    p_sim.add_argument("config", help="path to a key = value config file")
    p_sim.set_defaults(func=cmd_simulate)

    p_den = sub.add_parser("denoise", allow_abbrev=False,
                           help="denoise a CSV matrix")
    p_den.add_argument("input", help="input matrix (headerless CSV)")
    p_den.add_argument("-o", "--output-prefix", required=True,
                       help="prefix for _xhat.csv/_xstar.csv/_meta.txt outputs")
    p_den.add_argument("--noise-sd", type=float, default=None,
                       help="known noise sd: run the PCA baseline at it")
    p_den.set_defaults(func=cmd_denoise)

    p_th = sub.add_parser("theory", allow_abbrev=False,
                          help="tabulate closed-form limit curves as CSV")
    p_th.add_argument("--what", choices=["overlap", "error", "H", "Hinv"],
                      required=True)
    p_th.add_argument("--gamma", type=float, default=1.0)
    p_th.add_argument("--t", type=float, default=None,
                      help="noise precision (overlap/error curves)")
    p_th.add_argument("--sigma", required=True,
                      help="grid: '2', '1,2,3' or 'start:stop:step'")
    p_th.set_defaults(func=cmd_theory)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
