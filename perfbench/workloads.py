"""The benchmark's four workloads and the checks on their outputs.

Inputs are generated here, from the workload seed and with numpy alone,
before timing starts; the package sees only the generated matrices (for
``cli_denoise``, CSV files written from them by numpy's formatter).  Each
call runs to completion before the next starts: a closed loop with one
client.  A call fails when it raises, returns non-finite output or fails
a check; a failure is counted and the run goes on.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import adadenoise as ad
import adadenoise.cli
from reference import Reference

RANK = 3
SIGMAS = (3.0, 2.4, 1.8)
MIXTURE_MU = 2.0
T_DOF = 3.0
GRID_N = 400
GRID_SIGMA1 = (0.2, 0.4, 2.0, 3.0, 4.0)
QUALITY_TRIALS = 4   # leading trials of each grid cell the quality averages


def _haar(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, RANK)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def mixture_noise(rng, m: int, n: int) -> np.ndarray:
    """Even mixture of N(-mu, 1) and N(+mu, 1)."""
    coins = rng.integers(0, 2, size=(m, n))
    return rng.standard_normal((m, n)) + MIXTURE_MU * (2.0 * coins - 1.0)


def student_t_noise(rng, m: int, n: int) -> np.ndarray:
    return rng.standard_t(T_DOF, size=(m, n))


@dataclass
class Planted:
    """One observation y = x + w with x = (mn)^{1/4} U diag(SIGMAS) V^T."""

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def scale(self) -> float:
        m, n = self.y.shape
        return (m * n) ** 0.25

    def signal(self) -> np.ndarray:
        return self.scale * (self.u * np.asarray(SIGMAS)) @ self.v.T


def planted_inputs(m: int, n: int, noise, seed: int, count: int) -> list[Planted]:
    out = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        u, v = _haar(rng, m), _haar(rng, n)
        x = (m * n) ** 0.25 * (u * np.asarray(SIGMAS)) @ v.T
        out.append(Planted(y=x + noise(rng, m, n), u=u, v=v))
    return out


def quality(p: Planted, x_hat: np.ndarray, u_top: np.ndarray):
    """(||x_hat - x||_op / (mn)^{1/4}, smallest cosine between spans)."""
    err = np.linalg.norm(x_hat - p.signal(), 2) / p.scale
    overlap = np.linalg.svd(u_top.T @ p.u, compute_uv=False)[-1]
    return float(err), float(overlap)


def shrunk_problems(sigma_shrunk, k_hat: int, shape) -> list[str]:
    s = np.asarray(sigma_shrunk, dtype=np.float64)
    problems = []
    if not 0 <= k_hat <= min(shape):
        problems.append(f"k_hat {k_hat} outside [0, {min(shape)}]")
    if np.any(np.diff(s) > 0):
        problems.append("sigma_shrunk is not descending")
    if np.any(s[max(k_hat, 0):] != 0):
        problems.append("sigma_shrunk is nonzero after k_hat")
    return problems


def result_problems(res, shape) -> list[str]:
    problems = shrunk_problems(res.sigma_shrunk, res.k_hat, shape)
    if res.x_hat.shape != shape:
        problems.append(f"x_hat has shape {res.x_hat.shape}, want {shape}")
    elif not np.all(np.isfinite(res.x_hat)):
        problems.append("x_hat has non-finite entries")
    return problems


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def report(what: str) -> None:
    print(f"perfbench: {what}", file=sys.stderr)


@dataclass
class Phase:
    """One timed phase: per-call latency (s), the reference kernel's time
    (s) right after the call, input key and pass flag."""

    latencies: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    busy_s: float = 0.0                          # time the calls took
    outputs: dict = field(default_factory=dict)  # key -> fingerprint

    def fail_keys(self, bad) -> None:
        self.ok = [ok and key not in bad for ok, key in zip(self.ok, self.keys)]


class Workload:
    """Interface the runner drives; see the subclasses."""

    root = ""
    reference: Reference   # timed after every call; see reference.py

    def warm(self) -> None:
        raise NotImplementedError

    def run_phase(self, seconds: float, timer, tracer=None) -> Phase:
        """Call the package for about `seconds`, timing `timer` (a
        reference.Timer) after every call."""
        raise NotImplementedError

    def finish_phase(self, phase: Phase) -> None:
        """Fingerprint outputs that only exist once the phase is over."""

    def final_checks(self) -> set:
        """Checks run once after every phase; returns the failing keys."""
        return set()

    def quality_means(self) -> tuple[float, float]:
        """Mean (err_adaptive, overlap_adaptive) over the quality inputs."""
        raise NotImplementedError


class Loop(Workload):
    """Calls the package once per input, cycling through a pool of inputs."""

    pool = 8

    def __init__(self, seed: int, workdir: Path, count: int | None = None):
        self.seed = seed
        self.workdir = workdir
        self.count = self.pool if count is None else count
        self.quality: dict[int, tuple[float, float]] = {}

    def warm(self) -> None:
        self.call(0)

    def run_phase(self, seconds: float, timer, tracer=None) -> Phase:
        phase = Phase()
        i = 0
        # Calls and references count; the once-per-input checks do not.
        while phase.busy_s + sum(phase.refs) < seconds or i < self.count:
            key = i % self.count
            i += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = self.call(key)
                else:
                    out = tracer.run(self.root, self.call, (key,), new_call=True)
                problems = []
            except Exception:  # noqa: BLE001 - count the failure, keep running
                out = None
                problems = ["raised:\n" + traceback.format_exc()]
            dt = time.perf_counter() - t0
            phase.busy_s += dt
            if not problems:
                problems, fingerprint = self.inspect(key, out)
                if fingerprint is not None:
                    seen = phase.outputs.setdefault(key, fingerprint)
                    if seen != fingerprint:
                        problems.append("output differs from an earlier call "
                                        "on the same input")
            out = None  # not alive during the next call: peak RSS is the call's
            for p in problems:
                report(f"{type(self).__name__} input {key}: {p}")
            phase.latencies.append(dt)
            phase.refs.append(timer())
            phase.keys.append(key)
            phase.ok.append(not problems)
        return phase

    def quality_means(self) -> tuple[float, float]:
        if not self.quality:
            return 0.0, 0.0
        errs, overlaps = zip(*self.quality.values())
        return float(np.mean(errs)), float(np.mean(overlaps))


class DenoiseLoop(Loop):
    """``denoise()`` on a pool of generated matrices."""

    root = "estimator.denoise"
    reference = Reference((("linalg", (256, 256, 400_000)),), 55.0)
    shape = (0, 0)
    noise = None

    def __init__(self, seed: int, workdir: Path, count: int | None = None):
        super().__init__(seed, workdir, count)
        m, n = self.shape
        self.inputs = planted_inputs(m, n, self.noise, seed, self.count)

    def call(self, key: int):
        return ad.denoise(self.inputs[key].y)

    def inspect(self, key: int, res):
        problems = result_problems(res, self.shape)
        if problems:
            return problems, None
        if key not in self.quality:
            self.quality[key] = quality(self.inputs[key], res.x_hat,
                                        res.u_hat[:, :RANK])
        return [], _digest(res.x_hat, res.sigma_shrunk, res.u_hat)


class DenoiseSquare(DenoiseLoop):
    shape = (800, 800)
    noise = staticmethod(mixture_noise)


class DenoiseWide(DenoiseLoop):
    reference = Reference((("linalg", (40, 2560, 200_000)),), 26.0)
    shape = (100, 6400)
    noise = staticmethod(student_t_noise)


def _read_csv(path: Path) -> np.ndarray:
    with open(path) as fh:
        return np.array([[float(t) for t in line.split(",")]
                         for line in fh if line.strip()])


def _read_meta(path: Path) -> dict[str, str]:
    meta = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
    return meta


OUTPUT_SUFFIXES = ("_xhat.csv", "_xstar.csv", "_meta.txt")


class CliDenoise(Loop):
    """In-process ``adadenoise.cli.main(["denoise", CSV, "-o", PREFIX])``."""

    root = "cli.main"
    reference = Reference((("csv", (120, 120)),
                           ("linalg", (160, 160, 50_000))), 30.0)
    pool = 6
    shape = (400, 400)

    def __init__(self, seed: int, workdir: Path, count: int | None = None):
        super().__init__(seed, workdir, count)
        self.inputs = planted_inputs(*self.shape, mixture_noise, seed, self.count)
        self.paths = []
        for k, p in enumerate(self.inputs):
            path = workdir / f"input{k}.csv"
            np.savetxt(path, p.y, fmt="%.17g", delimiter=",")
            self.paths.append(path)
        self.calls = 0
        self.latest: dict[int, int] = {}   # input key -> call that wrote it

    def prefix(self, call: int) -> str:
        return str(self.workdir / f"out{call}")

    def output(self, key: int, suffix: str) -> Path:
        return Path(self.prefix(self.latest.get(key, -1)) + suffix)

    def call(self, key: int) -> int:
        # A fresh prefix per call: ext4 flushes a file that is truncated and
        # rewritten when it is closed, which would time the disk, not the CLI.
        self.calls += 1
        return adadenoise.cli.main(["denoise", str(self.paths[key]),
                                    "-o", self.prefix(self.calls)])

    def inspect(self, key: int, rc):
        if key in self.latest:
            for suffix in OUTPUT_SUFFIXES:
                self.output(key, suffix).unlink(missing_ok=True)
        self.latest[key] = self.calls
        return ([] if rc == 0 else [f"exit code {rc}"]), None

    def finish_phase(self, phase: Phase) -> None:
        for key in set(phase.keys):
            h = hashlib.blake2b(digest_size=16)
            for suffix in OUTPUT_SUFFIXES:
                path = self.output(key, suffix)
                h.update(path.read_bytes() if path.exists() else b"missing")
            phase.outputs[key] = h.hexdigest()

    def final_checks(self) -> set:
        """The written x_hat must equal an in-process denoise() of the same
        matrix bit for bit (17 significant digits round-trip a double)."""
        bad = set()
        for key, p in enumerate(self.inputs):
            try:
                x_file = _read_csv(self.output(key, "_xhat.csv"))
                meta = _read_meta(self.output(key, "_meta.txt"))
                k_hat = int(meta["k_hat"])
                shrunk = [float(t) for t in meta["sigma_shrunk"].split(",")]
            except (OSError, KeyError, ValueError) as exc:
                report(f"cli_denoise input {key}: unreadable output: {exc}")
                bad.add(key)
                continue
            ref = ad.denoise(p.y)
            problems = shrunk_problems(shrunk, k_hat, self.shape)
            if x_file.shape != self.shape or not np.all(np.isfinite(x_file)):
                problems.append("written x_hat has the wrong shape or "
                                "non-finite entries")
            elif not np.array_equal(x_file, ref.x_hat):
                problems.append("written x_hat differs from in-process denoise()")
            if k_hat != ref.k_hat:
                problems.append(f"k_hat {k_hat} != in-process {ref.k_hat}")
            for problem in problems:
                report(f"cli_denoise input {key}: {problem}")
            if problems:
                bad.add(key)
                continue
            # The CLI writes no factors: the leading left singular vectors
            # of the written rank-k_hat x_hat span the estimated subspace.
            u_top = np.linalg.svd(x_file, full_matrices=False)[0][:, :RANK]
            self.quality[key] = quality(p, x_file, u_top)
        return bad


class McGrid(Workload):
    """``run_grid()`` on the acceptance cells, one worker, CSV in workdir.

    A workload call is one trial.  Per-trial latency comes from the
    progress callback ``run_grid`` makes after each trial; the callback
    also times the reference kernel, which is left out of the latencies.
    """

    root = "sim.grid"
    reference = Reference((("linalg", (200, 200, 100_000)),), 18.0)

    def __init__(self, seed: int, workdir: Path, count: int | None = None):
        self.seed = seed
        self.workdir = workdir
        self.trial_s = 0.3
        self.records = {}

    def config(self, sigma1_grid, trials: int):
        return ad.ExperimentConfig(
            ns=(GRID_N,), ranks=(1,), sigma1_grid=sigma1_grid,
            noise=ad.GaussianMixture(MIXTURE_MU), trials=trials,
            base_seed=self.seed, output=str(self.workdir / "grid.csv"),
            workers=1)

    def warm(self) -> None:
        t0 = time.perf_counter()
        ad.run_grid(self.config((3.0,), 1))
        self.trial_s = time.perf_counter() - t0

    def run_phase(self, seconds: float, timer, tracer=None) -> Phase:
        cells = len(GRID_SIGMA1)
        trials = max(QUALITY_TRIALS,
                     round(seconds / (cells * (self.trial_s + timer()))))
        config = self.config(GRID_SIGMA1, trials)
        stamps, resumes = [], []
        phase = Phase()

        def progress(done, total):
            stamps.append(time.perf_counter())
            phase.refs.append(timer())
            resumes.append(time.perf_counter())

        t0 = time.perf_counter()
        try:
            if tracer is None:
                records = ad.run_grid(config, progress=progress)
            else:
                records = tracer.run(self.root, ad.run_grid, (config,),
                                     {"progress": progress})
        except Exception:  # noqa: BLE001 - count the failure, keep running
            report("mc_grid: run_grid raised:\n" + traceback.format_exc())
            records = None
        end = time.perf_counter()
        # Wall time of run_grid, CSV writing included, references excluded.
        phase.busy_s = end - t0 - sum(b - a for a, b in zip(stamps, resumes))
        if records is None:  # the trial that raised counts as a call too
            stamps.append(end)
            phase.refs.append(timer())
        starts = [t0] + resumes[:len(stamps) - 1]
        phase.latencies = [s - b for s, b in zip(stamps, starts)]
        expected = [(s, t) for s in GRID_SIGMA1 for t in range(trials)]
        if records is None or len(records) != len(expected):
            if records is not None:
                report(f"mc_grid: {len(records)} records, want {len(expected)}")
            phase.keys, phase.ok = expected, [False] * len(expected)
            return phase
        with open(config.output) as fh:
            rows = sum(1 for _ in fh) - 1
        for rec in records:
            key = (rec.sigma1, rec.trial)
            problems = self.record_problems(rec)
            if rows != len(records):
                problems.append(f"CSV holds {rows} rows, want {len(records)}")
            for p in problems:
                report(f"mc_grid trial {key}: {p}")
            phase.keys.append(key)
            phase.ok.append(not problems)
            phase.outputs[key] = rec
            self.records.setdefault(key, rec)
        return phase

    @staticmethod
    def record_problems(rec) -> list[str]:
        problems = []
        if not 0 <= rec.k_hat <= min(rec.m, rec.n):
            problems.append(f"k_hat {rec.k_hat} outside [0, {min(rec.m, rec.n)}]")
        values = (rec.i_hat, rec.err_adaptive, rec.err_baseline, rec.err_star,
                  *rec.overlaps_adaptive, *rec.overlaps_baseline)
        if not all(np.isfinite(values)):
            problems.append("non-finite metric in the trial record")
        elif not all(0.0 <= o <= 1.0 + 1e-9
                     for o in rec.overlaps_adaptive + rec.overlaps_baseline):
            problems.append("overlap outside [0, 1]")
        return problems

    def quality_means(self) -> tuple[float, float]:
        recs = [self.records[(s, t)] for s in GRID_SIGMA1
                for t in range(QUALITY_TRIALS) if (s, t) in self.records]
        if not recs:
            return 0.0, 0.0
        return (float(np.mean([r.err_adaptive for r in recs])),
                float(np.mean([r.overlaps_adaptive[0] for r in recs])))


WORKLOADS = {
    "denoise_square": DenoiseSquare,
    "denoise_wide": DenoiseWide,
    "mc_grid": McGrid,
    "cli_denoise": CliDenoise,
}
