"""Monte-Carlo harness: signal generation, trials, grids, CSV output.

Reproducibility contract: every random quantity in a trial derives from
the trial seed through the splitmix64 finalizer with a per-role salt
('U', 'V', 'W'), so adding a new consumer never shifts existing streams,
and per-trial seeds derive from (base_seed, cell identity, trial index)
rather than enumeration order.  Re-running a config reproduces its CSV
byte for byte.

Only a process that runs a grid's trials is set up for them
(`_grid_setup`): BLAS at one thread, so that the records do not depend
on where a trial ran, and glibc keeping the heap the trials free
(`_keep_heap`), so that each trial reuses the pages of the one before
instead of faulting them in again; the heap settings last for the rest
of the process.  That is each pool worker, or `run_grid`'s own process
when it runs the trials itself; a pool's caller keeps its settings.

A grid that runs its trials in process runs two of each trial's three
dense decompositions on a helper thread, the one thread of a
standard-library `ThreadPoolExecutor`, started on first use: the PCA
baseline's, beside the trial's entrywise step, and that of X* - X for
`err_star`, beside the adaptive spectral step.  The decompositions'
time is LAPACK's, the entrywise step's numpy's (sort, binning, lookup),
and the two threads share the cores, or take turns on one.  A pool's
workers and its caller run none: the pool's processes fill the cores,
and the caller forks them, which must not happen beside a live thread.
"""

from __future__ import annotations

import ctypes
import dataclasses
import errno
import math
import os
import struct
import threading
from concurrent.futures import (Future, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)
from contextlib import closing, contextmanager
from dataclasses import dataclass, field

import numpy as np

from .estimator import adaptive_spectral, baseline_estimate, denoise_entrywise
from .linalg import op_norm, set_blas_threads, subspace_overlap
from .noise import Gaussian, GaussianMixture, NoiseModel

__all__ = [
    "mix64",
    "derive_seed",
    "haar_orthonormal",
    "SignalSpec",
    "make_signal",
    "TrialRecord",
    "run_trial",
    "SIGMA_RATIOS",
    "ExperimentConfig",
    "parse_grid",
    "load_config",
    "ConfigError",
    "run_grid",
    "write_records_csv",
]

_MASK = (1 << 64) - 1
# most points a start:stop:step spec may give: a grid of more never ends
_MAX_GRID_POINTS = 10**6

ROLE_U = 0x55  # left factor
ROLE_V = 0x56  # right factor
ROLE_W = 0x57  # noise matrix

SIGMA_RATIOS = (1.0, 0.8, 0.6)  # a cell's singular values over its top one


def mix64(z: int) -> int:
    """splitmix64 finalizer; a documented, platform-independent 64-bit mix."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, role: int) -> int:
    """Sub-seed for one named consumer of a trial seed."""
    return mix64((seed & _MASK) ^ (role & _MASK))


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def haar_orthonormal(dim: int, k: int, seed: int) -> np.ndarray:
    """dim x k frame with Haar-uniform orthonormal columns.

    QR of an i.i.d. standard normal matrix, with each column of Q scaled
    by the sign of the matching diagonal entry of R; without the sign
    fix the distribution would depend on the QR routine's conventions.
    """
    if not (1 <= k <= dim):
        raise ValueError("need 1 <= k <= dim")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, k))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@dataclass(frozen=True)
class SignalSpec:
    """Shape and scaled spectrum of the planted signal."""

    m: int
    n: int
    r: int
    sigmas: tuple[float, ...]

    def __post_init__(self):
        if min(self.m, self.n) < 2:
            raise ValueError("need m, n >= 2")
        if not (1 <= self.r <= min(self.m, self.n)):
            raise ValueError("need 1 <= r <= min(m, n)")
        if len(self.sigmas) != self.r:
            raise ValueError("need exactly r singular values")
        if not all(0 < s < math.inf for s in self.sigmas):
            raise ValueError("singular values must be positive and finite")
        if any(a < b for a, b in zip(self.sigmas, self.sigmas[1:])):
            raise ValueError("singular values must be descending")


def make_signal(spec: SignalSpec, seed: int):
    """Random low-rank signal (m n)^{1/4} * U diag(sigmas) V^T.

    U and V are independent Haar frames drawn from sub-seeds of `seed`.
    Returns (x, u, v).
    """
    u, v, left = _signal_factors(spec, seed)
    return left @ v.T, u, v


def _signal_factors(spec: SignalSpec, seed: int):
    """(u, v, left) of `make_signal`, whose signal is ``left @ v.T``."""
    u = haar_orthonormal(spec.m, spec.r, derive_seed(seed, ROLE_U))
    v = haar_orthonormal(spec.n, spec.r, derive_seed(seed, ROLE_V))
    scale = (spec.m * spec.n) ** 0.25
    return u, v, scale * (u * np.asarray(spec.sigmas))


@dataclass(frozen=True)
class TrialRecord:
    """Metrics of one Monte-Carlo trial, ready for CSV emission."""

    n: int
    m: int
    r: int
    sigma1: float
    trial: int
    seed: int
    i_hat: float
    k_hat: int
    overlaps_adaptive: tuple[float, ...]
    overlaps_baseline: tuple[float, ...]
    err_adaptive: float
    err_baseline: float
    err_star: float


def run_trial(spec: SignalSpec, model: NoiseModel, seed: int) -> TrialRecord:
    """One observation Y = X + W, both estimators, all metrics.

    The baseline gets the model's true noise standard deviation.
    Overlaps are recorded for every leading block 1..r using the
    singular-vector factors regardless of how many values survived
    thresholding: both estimators are asked for r factors.  Both
    estimates and the signal have low rank, so their errors are taken
    from the factors (`_low_rank_op_norm`); only X* - X is decomposed at
    full size (`_star_error`).  Y is formed as X with W added in place.

    The adaptive estimate is `denoise`'s two steps, run apart: the
    entrywise step, then the spectral step on X* (`adaptive_spectral`).
    Two calls go to this thread's helper, where it has one (a grid run in
    its own process, `_grid_process`): the baseline, handed over before
    the entrywise step, and X* - X, handed over between the two steps so
    that it runs beside the spectral step.
    X* - X is formed in Y's place: the helper, a one-thread executor,
    runs its calls in order, so Y is overwritten only once the baseline
    has read it, and X* is only read.  Both calls are waited for before
    either result is read or the trial raises, whatever raised: the
    executor lives for the whole grid, and a trial must leave no call
    running on.  Without a helper each call runs as it is handed over.
    The record is the same either way.
    """
    u, v, left = _signal_factors(spec, seed)
    w = model.sample(spec.m, spec.n, derive_seed(seed, ROLE_W))
    y = left @ v.T
    y += w  # x + w is w + x bit for bit
    del w

    noise_sd = float(np.sqrt(model.variance()))
    submit = getattr(_HELPER, "submit", _run_now)
    pending = [submit(baseline_estimate, y, noise_sd=noise_sd,
                      factors=spec.r)]
    try:
        x_star, i_hat, y_bar = denoise_entrywise(y)
        pending.append(submit(_star_error, x_star, left, v, out=y))
        res = adaptive_spectral(x_star, i_hat, y_bar, spec.r)
    finally:
        wait(pending)
    base, star = (call.result() for call in pending)

    scale = (spec.m * spec.n) ** 0.25
    ov_a = tuple(subspace_overlap(res.u_hat[:, :i], u[:, :i])
                 for i in range(1, spec.r + 1))
    ov_b = tuple(subspace_overlap(base.u_hat[:, :i], u[:, :i])
                 for i in range(1, spec.r + 1))
    sigmas = np.asarray(spec.sigmas)
    err_a, err_b = (_low_rank_op_norm(
        np.hstack([est.u_hat[:, :est.k_hat], u]),
        np.concatenate([est.sigma_shrunk[:est.k_hat], -sigmas]),
        np.hstack([est.v_hat[:, :est.k_hat], v])) for est in (res, base))
    return TrialRecord(n=spec.n, m=spec.m, r=spec.r, sigma1=spec.sigmas[0],
                       trial=-1, seed=seed, i_hat=res.i_hat, k_hat=res.k_hat,
                       overlaps_adaptive=ov_a, overlaps_baseline=ov_b,
                       err_adaptive=err_a, err_baseline=err_b,
                       err_star=star / scale)


def _star_error(x_star: np.ndarray, left: np.ndarray, v: np.ndarray, *,
                out: np.ndarray) -> float:
    """Operator norm of X* - X, where X = ``left @ v.T`` is formed in
    `out`'s place and X* - X after it; `x_star` is only read."""
    np.matmul(left, v.T, out=out)
    return op_norm(np.subtract(x_star, out, out=out))


def _low_rank_op_norm(left: np.ndarray, values: np.ndarray,
                      right: np.ndarray) -> float:
    """Operator norm of ``left @ diag(values) @ right.T``.

    With the QRs left = Q1 R1 and right = Q2 R2 the matrix is
    Q1 (R1 diag(values) R2^T) Q2^T, so its norm is that of the small core
    between the Qs, which are never formed.
    """
    r1 = np.linalg.qr(left, mode="r")
    r2 = np.linalg.qr(right, mode="r")
    return float(np.linalg.svd((r1 * values) @ r2.T, compute_uv=False)[0])


class ConfigError(ValueError):
    """Raised for malformed experiment config files."""


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Grid definition for :func:`run_grid`.

    The defaults here are the config file's: `load_config` passes only
    the keys a file sets, and a field without a default is a required key.
    """

    ns: tuple[int, ...]
    ranks: tuple[int, ...] = (1,)
    sigma1_grid: tuple[float, ...]
    noise: NoiseModel = field(default_factory=GaussianMixture)
    trials: int
    base_seed: int = 0
    gamma: float = 1.0
    output: str
    workers: int = 1

    def __post_init__(self):
        if not self.ns or any(n < 2 for n in self.ns):
            raise ConfigError("n must list integers >= 2")
        top = len(SIGMA_RATIOS)
        if not self.ranks or any(not 1 <= r <= top for r in self.ranks):
            raise ConfigError(f"rank must list integers >= 1 and <= {top}")
        for key, values in (("n", self.ns), ("rank", self.ranks)):
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} must not repeat a value")
        if not self.sigma1_grid or not all(0 < s < math.inf
                                           for s in self.sigma1_grid):
            raise ConfigError("sigma1 grid must be positive and finite")
        if any(b <= a for a, b in zip(self.sigma1_grid, self.sigma1_grid[1:])):
            raise ConfigError("sigma1 grid must be strictly increasing")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not (0 < self.gamma < math.inf):
            raise ConfigError("gamma must be positive and finite")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.output:
            raise ConfigError("output must name a file")
        # `SignalSpec` checks each cell's shape as it is built, so a bad
        # grid fails here rather than inside run_grid
        try:
            for _ in self.cells():
                pass
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def cells(self):
        """Deterministic cell enumeration: n outer, rank middle, sigma inner."""
        for n in self.ns:
            m = round(self.gamma * n)
            for r in self.ranks:
                for sigma1 in self.sigma1_grid:
                    sigmas = tuple(sigma1 * x for x in SIGMA_RATIOS[:r])
                    yield SignalSpec(m=m, n=n, r=r, sigmas=sigmas)

    def trial_seed(self, spec: SignalSpec, trial: int) -> int:
        s = self.base_seed & _MASK
        for v in (spec.n, spec.m, spec.r, _float_bits(spec.sigmas[0]), trial):
            s = mix64(s ^ (v & _MASK))
        return s


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse '2.0', '1,2,3' or 'start:stop:step' (stop inclusive, at most
    `_MAX_GRID_POINTS` points) into finite values."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad grid spec {text!r}: want start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"bad grid spec {text!r}") from None
        # an overflow makes the count inf, which fails here, not in `round`
        if not (math.isfinite(start) and math.isfinite(stop)
                and 0 < step < math.inf and start <= stop
                and (stop - start) / step + 1 <= _MAX_GRID_POINTS):
            raise ConfigError(f"bad grid spec {text!r}")
        count = int(round((stop - start) / step)) + 1
        return tuple(round(start + i * step, 12) for i in range(count)
                     if start + i * step <= stop + 1e-9)
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"bad grid spec {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"bad grid spec {text!r}")
    return values


def _list(parse):
    """Parser of a comma list of what `parse` reads."""
    return lambda text: tuple(parse(tok) for tok in text.split(","))


_NOISE_KINDS = {"mixture": GaussianMixture, "gaussian": Gaussian}


def _noise(text: str) -> NoiseModel:
    """Parse `KIND [PARAM]`: the model of that kind, with PARAM as its
    one constructor argument when given."""
    kind, *param = text.split() or [""]
    if kind not in _NOISE_KINDS or len(param) > 1:
        raise ValueError(f"want 'KIND [PARAM]' with KIND one of "
                         f"{', '.join(_NOISE_KINDS)}, not {text!r}")
    return _NOISE_KINDS[kind](*map(float, param))


# config key -> (the `ExperimentConfig` field its value sets, parser)
_SCHEMA = {
    "n": ("ns", _list(int)),
    "rank": ("ranks", _list(int)),
    "sigma1": ("sigma1_grid", parse_grid),
    "noise": ("noise", _noise),
    "trials": ("trials", int),
    "base_seed": ("base_seed", int),
    "gamma": ("gamma", float),
    "output": ("output", str),
    "workers": ("workers", int),
}
_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def load_config(path) -> ExperimentConfig:
    """Read a flat `key = value` config file.

    The file is UTF-8 whatever the locale; a leading byte-order mark is
    ignored.  Blank lines and '#' comments are ignored; unknown keys are
    errors.  Only the keys present are passed on: a key left out keeps
    its field's default, and `ExperimentConfig`'s fields without one are
    required.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file: {exc}") from None
    settings = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        name, parse = _SCHEMA[key]
        if name in settings:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            settings[name] = parse(value)
        except ValueError as exc:  # ConfigError included
            raise ConfigError(f"{path}: key {key!r}: {exc}") from None

    for key, (name, _) in _SCHEMA.items():
        if (name not in settings
                and _FIELDS[name].default is dataclasses.MISSING
                and _FIELDS[name].default_factory is dataclasses.MISSING):
            raise ConfigError(f"{path}: missing required key {key!r}")
    try:
        return ExperimentConfig(**settings)
    except ValueError as exc:  # ConfigError included: name the file
        raise ConfigError(f"{path}: {exc}") from None


def _trial_task(args):
    spec, model, seed, trial = args
    return dataclasses.replace(run_trial(spec, model, seed), trial=trial)


# this thread's helper: `submit` is a one-thread executor's while
# `_grid_process` gives this thread one, and unset otherwise
_HELPER = threading.local()


def _run_now(fn, *args, **kwargs) -> Future:
    """Run the call on this thread: `submit` for a thread with no
    helper.  Returns the call's finished `Future`; an interrupt is not
    kept in it but raised at once, as nothing else runs."""
    future = Future()
    try:
        future.set_result(fn(*args, **kwargs))
    except Exception as exc:  # the caller re-raises it
        future.set_exception(exc)
    return future


def _libc():
    """The symbols this process has loaded, the C library's among them,
    or None where `ctypes` cannot open them."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):  # no handle for the running program
        return None


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h


def _keep_heap() -> None:
    """Have glibc keep freed heap for this process's later allocations:
    it returns no free top of the heap under 1 GiB to the system, and
    serves every allocation under 32 MiB (its 64-bit maximum for the
    setting) from the heap rather than from a mapping of its own.  A
    grid's trials then reuse the pages the trial before freed; by
    default glibc trims the heap after a trial, or maps a large array
    afresh, and each trial faults its pages in again.

    The settings last for the rest of the process: glibc has no getter
    for either, and setting one switches off its dynamic thresholds for
    good, so nothing could be restored.  Does nothing off glibc, where
    `mallopt` does not resolve."""
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
    for param, value in ((_M_TRIM_THRESHOLD, 1 << 30),
                         (_M_MMAP_THRESHOLD, 1 << 25)):
        if mallopt(param, value) != 1:
            raise RuntimeError(f"mallopt({param}, {value}) failed")


def _grid_setup() -> int:
    """Set this process up to run a grid's trials, and return its old
    BLAS thread count: glibc's heap kept for reuse (`_keep_heap`) for the
    rest of the process, and BLAS at one thread, so that a record does
    not depend on the calling shell's thread count or on `workers`.  A
    pool worker's initializer, kept for the worker's life."""
    _keep_heap()
    return set_blas_threads(1)


@contextmanager
def _grid_process():
    """Run a grid's trials in this process: `_grid_setup`, and this
    thread's helper (`_HELPER`), a one-thread executor that takes each
    trial's baseline and X* - X decomposition (`run_trial`) and runs them
    one at a time, in the order they were handed over; its thread starts
    with the first call.  The executor drops each call's function and
    arguments once it has settled the call's future, so a trial's m x n
    arrays do not stay alive on the helper into the next trial.  On exit,
    however the block ends, the executor finishes every call handed to it
    and joins its thread, and the BLAS thread count is restored."""
    threads = _grid_setup()
    try:
        with ThreadPoolExecutor(1, "adadenoise-helper") as pool:
            _HELPER.submit = pool.submit
            yield
    finally:
        vars(_HELPER).pop("submit", None)
        set_blas_threads(threads)


_CHUNKSIZE = 4  # trials per pool task


def run_grid(config: ExperimentConfig, progress=None) -> list[TrialRecord]:
    """Run the full cells x trials cross product and write the CSV.

    Trials are pure functions of (cell, trial seed), so they may run in
    any order or in parallel; records are emitted in deterministic
    (cell, trial) order either way.  An output path that cannot be
    written raises `OSError` before the first trial.

    Only the processes that run the trials are set up for them
    (`_grid_setup`: one BLAS thread, glibc's heap kept for reuse): each
    pool worker, for its life, or this process, under `_grid_process`,
    when it runs the trials itself; a pool's caller keeps its settings.
    The heap settings outlast the grid: the process keeps up to 1 GiB of
    freed heap, and takes arrays under 32 MiB from the heap.  Trials run
    in this process hand their baseline and X* - X decomposition to a
    one-thread executor, started with the first trial, where they run
    beside the entrywise and the adaptive spectral step.
    """
    check_output(config.output)
    tasks = [(spec, config.noise, config.trial_seed(spec, trial), trial)
             for spec in config.cells() for trial in range(config.trials)]

    workers = min(config.workers, math.ceil(len(tasks) / _CHUNKSIZE))
    parallel = workers > 1  # one chunk: a pool would only add pickling
    with (ProcessPoolExecutor(max_workers=workers, initializer=_grid_setup)
          if parallel else _grid_process()) as pool:
        mapped = (pool.map(_trial_task, tasks, chunksize=_CHUNKSIZE)
                  if parallel else (_trial_task(task) for task in tasks))
        # closed however the loop ends: a pool's map then cancels the
        # trials it queued, which the pool's exit would otherwise wait for
        with closing(mapped):
            records = []
            for i, rec in enumerate(mapped, 1):
                records.append(rec)
                if progress is not None:
                    progress(i, len(tasks))

    write_records_csv(records, config.output)
    return records


def check_output(path) -> None:
    """Raise `OSError` naming `path` when a file could not be written
    there; the file is neither created nor truncated."""
    # as given: `abspath` would turn 'new/.' into 'new', in directory '.'
    directory = os.path.dirname(path) or os.curdir
    if os.path.isdir(path) or not os.path.basename(path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else directory,
                       os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def write_records_csv(records, path) -> None:
    """Emit a list of records with the stable column schema.

    One overlap column per rank up to the records' largest (none without
    records), left empty in rows of a smaller rank.
    """
    max_rank = max((rec.r for rec in records), default=0)
    ov_a_cols = [f"ov_a_{i}" for i in range(1, max_rank + 1)]
    ov_b_cols = [f"ov_b_{i}" for i in range(1, max_rank + 1)]
    header = (["n", "m", "r", "sigma1", "trial", "seed", "i_hat", "k_hat"]
              + ov_a_cols + ov_b_cols
              + ["err_a", "err_b", "err_star"])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for rec in records:
            ov_a = [_fmt(v) for v in rec.overlaps_adaptive]
            ov_a += [""] * (max_rank - len(ov_a))
            ov_b = [_fmt(v) for v in rec.overlaps_baseline]
            ov_b += [""] * (max_rank - len(ov_b))
            row = ([str(rec.n), str(rec.m), str(rec.r), _fmt(rec.sigma1),
                    str(rec.trial), str(rec.seed), _fmt(rec.i_hat),
                    str(rec.k_hat)]
                   + ov_a + ov_b
                   + [_fmt(rec.err_adaptive), _fmt(rec.err_baseline),
                      _fmt(rec.err_star)])
            fh.write(",".join(row) + "\n")
