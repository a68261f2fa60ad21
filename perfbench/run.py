"""Benchmark of the adadenoise package: four closed-loop workloads.

One workload (the last stdout line is the result):

    python3 perfbench/run.py --workload denoise_square --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, with a summary table; this also
rewrites BENCHMARK.json from the definitions below:

    python3 perfbench/run.py --all

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The timing metrics (latency, throughput, set-up) are put on a fixed host
speed by a reference kernel timed after every call; see reference.py.
Everything runs in this one process apart from the setup probes, which
re-run the import and the first call in fresh processes.  Scratch files
go to .perfbench/ at the root of the checkout; result files stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set in this process's own environment before numpy
# loads (numpy is imported only in load_package).  With two threads on the
# two shared cores the median of 800 x 800 denoise() calls moved several
# times more between runs than with one.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

RUN_SECONDS = 20
SETUP_PROBES = 2   # fresh processes per run, besides this one
SETUP_REFS = 3     # reference runs after each set-up; their median scales it

WORKLOADS = {
    "denoise_square": "denoise() on 800x800 mixture-noise matrices, rank 3: "
                      "the dense SVD and the KDE lookups split the time",
    "denoise_wide": "denoise() on 100x6400 Student-t (nu=3) matrices: heavy "
                    "tails stretch the KDE grid, the SVD share falls, gamma != 1",
    "mc_grid": "run_grid() on the five n=400 acceptance cells, one worker: "
               "five SVDs, signal and noise generation and all trial metrics",
    "cli_denoise": "in-process cli denoise of a 400x400 CSV: CSV parsing and "
                   "17-digit writing dominate, denoise() is a fifth",
}

# (name, unit, better, bound).  failed_frac is printed with these but is
# not listed: it is 0 at a correct commit, and the failures already go
# into the result line's "failed" and "attempted".
END_TO_END = (
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("err_adaptive", "ratio", "lower", 0.10),
    ("overlap_adaptive", "ratio", "higher", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

SHARED_MACHINE = ("shared machine: other tenants may load it; nothing was "
                  "pinned, tuned or isolated; BLAS held to one thread "
                  "through this process's environment; timing metrics are "
                  "scaled to the reference kernel's nominal speed")


def benchmark_spec() -> dict:
    from layers import PER_LAYER, TRACE_METRICS
    per_layer = [(n, u, b) for n, u, b, *_ in PER_LAYER] + list(TRACE_METRICS)
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer],
    }


def load_package() -> float:
    """Import numpy and the package from this checkout's src/.

    Returns the seconds the imports took.  Exits with status 2 when the
    checkout holds no package source, so that a stray installed copy is
    never measured in its place.
    """
    package = SRC / "adadenoise"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no package source at {package}", file=sys.stderr)
        raise SystemExit(2)
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import adadenoise
    elapsed = time.perf_counter() - t0
    if Path(adadenoise.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported {adadenoise.__file__}, not {package}",
              file=sys.stderr)
        raise SystemExit(2)
    return elapsed


def _blas() -> dict:
    """BLAS library and its thread count as the loaded library reports it."""
    import ctypes

    import numpy as np
    info = {"library": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["shared_object"] = Path(path).name
                return info
    return info


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "blas": _blas(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "loadavg_start": list(os.getloadavg()),
        "note": SHARED_MACHINE,
    }


def tail(latencies) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With 10 samples or fewer
    no percentile qualifies and the maximum is returned with 0 beyond.
    """
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def setup_probes(args) -> tuple[list[dict], int]:
    """Import plus first call, each in a fresh process; (samples, failures).

    A sample holds ``setup_s`` at nominal speed and ``setup_wall_s``.
    """
    samples, failures = [], 0
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--setup-probe"]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=150)
            sample = json.loads(proc.stdout.splitlines()[-1])
            samples.append({k: float(sample[k])
                            for k in ("setup_s", "setup_wall_s")})
        except (subprocess.TimeoutExpired, IndexError, KeyError, ValueError) as exc:
            print(f"perfbench: setup probe failed: {exc!r}", file=sys.stderr)
            failures += 1
    return samples, failures


def scaled(phase, timer) -> list[float]:
    """The phase's call latencies (s) at the reference's nominal speed."""
    return [t * timer.scale(r) for t, r in zip(phase.latencies, phase.refs)]


def run_workload(args) -> int:
    import_s = load_package()
    from layers import HOOKS, PER_LAYER, TRACE_METRICS, per_layer_metrics
    from reference import Timer
    from spans import Tracer, installed, layer_totals
    from workloads import WORKLOADS as CLASSES, report

    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = CLASSES[args.workload](args.seed, workdir,
                                    1 if args.setup_probe else None)
        t0 = time.perf_counter()
        wl.warm()
        setup_wall_s = import_s + time.perf_counter() - t0
        timer = Timer(wl.reference)
        setup_s = setup_wall_s * timer.scale(
            statistics.median(timer() for _ in range(SETUP_REFS)))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0
        wl.warm()  # lazy set-up and caches settle before timing

        half = args.seconds / 2
        tracer = Tracer()
        first = wl.run_phase(half, timer)
        absent = []
        if args.trace:
            with installed(tracer, HOOKS) as absent:
                second = wl.run_phase(half, timer, tracer)
        else:
            second = wl.run_phase(half, timer)
        phases = (first, second)
        for phase in phases:
            wl.finish_phase(phase)
        bad = set(wl.final_checks())
        for key in first.outputs.keys() & second.outputs.keys():
            if first.outputs[key] != second.outputs[key]:
                report(f"{args.workload} input {key}: output differs between "
                       f"the {'untraced and traced' if args.trace else 'two'} "
                       "runs with the same seed")
                bad.add(key)
        for phase in phases:
            phase.fail_keys(bad)

        attempted = sum(len(p.ok) for p in phases)
        failed = sum(not ok for p in phases for ok in p.ok)
        extras = {"absent_hooks": absent,
                  "reference": vars(wl.reference),
                  "latencies_ms": [[1e3 * t for t in p.latencies] for p in phases],
                  "reference_ms": [[1e3 * r for r in p.refs] for p in phases]}
        if args.trace:
            calls = len(second.ok)
            values = per_layer_metrics(layer_totals(tracer.spans), calls)
            untraced = statistics.median(scaled(first, timer))
            values["trace.call_ms"] = 1e3 * second.busy_s / calls
            values["trace.overhead_frac"] = (
                statistics.median(scaled(second, timer)) - untraced) / untraced
            units = {n: u for n, u, *_ in PER_LAYER + TRACE_METRICS}
            better = {n: b for n, _u, b, *_ in PER_LAYER + TRACE_METRICS}
            extras["spans"] = [vars(s) for s in tracer.spans]
        else:
            probes, probe_failures = setup_probes(args)
            attempted += SETUP_PROBES
            failed += probe_failures
            setup = [setup_s] + [p["setup_s"] for p in probes]
            lat = scaled(first, timer) + scaled(second, timer)
            wall = first.latencies + second.latencies
            tail_value, tail_pct, beyond = tail(lat)
            err, overlap = wl.quality_means()
            values = {
                "latency_p50_ms": 1e3 * statistics.median(lat),
                "latency_tail_ms": 1e3 * tail_value,
                "throughput_per_s": len(lat) / sum(lat),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "err_adaptive": err,
                "overlap_adaptive": overlap,
                "setup_s": statistics.median(setup),
            }
            units = {n: u for n, u, _b, _bound in END_TO_END}
            better = {n: b for n, _u, b, _bound in END_TO_END}
            extras.update({
                "latency_samples": len(lat),
                "latency_tail_percentile": tail_pct,
                "latency_tail_samples_beyond": beyond,
                "setup_samples_s": setup,
                "setup_wall_samples_s": [setup_wall_s]
                + [p["setup_wall_s"] for p in probes],
                "wall_latency_p50_ms": 1e3 * statistics.median(wall),
                "wall_throughput_per_s": len(wall) / (first.busy_s + second.busy_s),
                "reference_p50_ms": 1e3 * statistics.median(
                    first.refs + second.refs),
                "failed_frac": failed / attempted,
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["loadavg_end"] = list(os.getloadavg())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in values.items()}}
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "result": result, **extras}, fh)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} blas={env['blas']} -- {SHARED_MACHINE}")
    for name, value in values.items():
        print(f"{name:28s} {value:14.6g} {units[name]:6s} ({better[name]} is better)")
    if not args.trace:
        print(f"{'failed_frac':28s} {extras['failed_frac']:14.6g} {'frac':6s} "
              "(lower is better)")
        print(f"# latency_tail_ms is p{extras['latency_tail_percentile']:.1f} of "
              f"{extras['latency_samples']} calls "
              f"({extras['latency_tail_samples_beyond']} beyond)")
        print(f"# timings at nominal speed: the reference kernel took "
              f"{extras['reference_p50_ms']:.4g} ms (median), nominal "
              f"{wl.reference.nominal_ms:g} ms; wall-clock latency_p50 "
              f"{extras['wall_latency_p50_ms']:.6g} ms, throughput "
              f"{extras['wall_throughput_per_s']:.6g} 1/s")
    print(f"# details: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def _last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_all(args) -> int:
    """Run every workload untraced then traced; print and record a summary."""
    from layers import PER_LAYER, TRACE_METRICS

    env = environment()
    spec = benchmark_spec()
    with open(ROOT / "BENCHMARK.json", "w") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")

    status = 0
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            sys.stderr.write(proc.stderr)
            result = _last_json(proc.stdout) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"perfbench: {name} trace={trace} failed "
                      f"(exit {proc.returncode})", file=sys.stderr)
                status = 1
            detail_path = OUT / "results" / f"{name}-seed{args.seed}-trace{trace}.json"
            detail = {}
            if detail_path.exists():
                with open(detail_path) as fh:
                    detail = json.load(fh)
                detail.pop("spans", None)
            summary.setdefault(name, {})[trace] = detail

    def value(name, trace, metric):
        try:
            return summary[name][trace]["result"]["metrics"][metric]["value"]
        except KeyError:
            return float("nan")

    names = list(WORKLOADS)
    print(f"# {SHARED_MACHINE}")
    print(f"{'end-to-end':28s} {'unit':6s} {'better':7s}"
          + "".join(f"{n:>16s}" for n in names))
    for metric, unit, better, _bound in END_TO_END:
        print(f"{metric:28s} {unit:6s} {better:7s}"
              + "".join(f"{value(n, 0, metric):16.5g}" for n in names))
    print(f"{'failed_frac':28s} {'frac':6s} {'lower':7s}"
          + "".join(f"{summary[n][0].get('failed_frac', float('nan')):16.5g}"
                    for n in names))
    print(f"{'  tail percentile':28s} {'%':6s} {'':7s}"
          + "".join(f"{summary[n][0].get('latency_tail_percentile', float('nan')):16.4g}"
                    for n in names))
    print(f"{'  latency samples':28s} {'count':6s} {'':7s}"
          + "".join(f"{summary[n][0].get('latency_samples', 0):16d}" for n in names))
    print()
    print(f"{'per-layer (share of call)':28s} {'unit':6s} {'better':7s}"
          + "".join(f"{n:>16s}" for n in names))
    for metric, unit, better, *_ in PER_LAYER + TRACE_METRICS:
        cells = []
        for n in names:
            v = value(n, 1, metric)
            if unit == "ms" and metric != "trace.call_ms":
                share = v / value(n, 1, "trace.call_ms")
                cells.append(f"{v:9.4g} {100 * share:4.0f}%")
            else:
                cells.append(f"{v:15.5g}")
        print(f"{metric:28s} {unit:6s} {better:7s}" + "".join(f"{c:>16s}" for c in cells))

    env["loadavg_end"] = list(os.getloadavg())
    path = OUT / "results" / f"all-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"environment": env, "seconds": args.seconds,
                   "summary": summary}, fh, indent=1)
    print(f"# details: {path.relative_to(ROOT)}; BENCHMARK.json rewritten")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        load_package()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
