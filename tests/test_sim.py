import dataclasses
import importlib.util
import math
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adadenoise import linalg, sim
from adadenoise import (ExperimentConfig, Gaussian, GaussianMixture,
                        SignalSpec, baseline_estimate, denoise,
                        haar_orthonormal, load_config, make_signal, op_norm,
                        run_grid, run_trial)
from adadenoise.sim import (ROLE_U, ROLE_V, ROLE_W, ConfigError, derive_seed,
                            mix64, parse_grid, write_records_csv)

from conftest import package_env, traced_peak_arrays

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
NOISE_KINDS = ("key 'noise': want 'KIND [PARAM]' with KIND one of "
               + ", ".join(sim._NOISE_KINDS))


class LoggedMixture(GaussianMixture):
    """Mixture noise whose every draw appends a line to the file `log`
    and takes at least 10 ms, so that a test counts the trials a pool
    worker ran; it pickles, so a worker can take it."""

    def __init__(self, log):
        super().__init__()
        self.log = str(log)

    def sample(self, m, n, seed):
        with open(self.log, "a") as fh:
            fh.write("draw\n")
        time.sleep(0.01)
        return super().sample(m, n, seed)


# the name every grid helper thread's name starts with
HELPER = "adadenoise-helper"


def helper_threads():
    """The grid helper threads alive in this process."""
    return [t for t in threading.enumerate() if t.name.startswith(HELPER)]


class InlineExecutor:
    """Stand-in for `sim.ThreadPoolExecutor` that runs each call on the
    calling thread as it is handed over (`sim._run_now`): a grid's trials
    then run as a pool worker's do, with no helper thread."""

    def __init__(self, *args):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, fn, *args, **kwargs):
        return sim._run_now(fn, *args, **kwargs)


def trials_alone(config, noise=None):
    """The records of `config`'s grid, from trials run one at a time
    outside any grid, on `noise` in place of the config's if given."""
    return [dataclasses.replace(run_trial(spec, noise or config.noise,
                                          config.trial_seed(spec, trial)),
                                trial=trial)
            for spec in config.cells() for trial in range(config.trials)]


class HelperLoggedMixture(GaussianMixture):
    """Mixture noise whose every draw appends to the file `log` the id of
    the process drawing and the number of grid helper threads alive in
    it; it pickles, so that a pool worker can take it."""

    def __init__(self, log):
        super().__init__()
        self.log = str(log)

    def sample(self, m, n, seed):
        with open(self.log, "a") as fh:
            fh.write(f"{os.getpid()} {len(helper_threads())}\n")
        return super().sample(m, n, seed)


# minor faults per trial after a process's first, read by
# `test_trials_after_the_first_reuse_their_pages` on a square 200 x 200,
# a tall 600 x 200 and a square 400 x 400 cell in turn: argv is the CSV
# path and `workers`; prints one line `m n faults` per cell.  In process,
# the grids run with their helper thread, and the script checks that
# they did
FAULTS_SCRIPT = """\
import resource, statistics, sys, threading
from adadenoise import ExperimentConfig, run_grid

out, workers = sys.argv[1], int(sys.argv[2])


def grid(n, gamma, trials, sigma1_grid, progress=None):
    run_grid(ExperimentConfig(ns=(n,), gamma=gamma, sigma1_grid=sigma1_grid,
                              trials=trials, base_seed=9, output=out,
                              workers=workers), progress)


def faults(who):
    return resource.getrusage(who).ru_minflt


for m, n in ((200, 200), (600, 200), (400, 400)):
    if workers == 1:
        counts, helpers = [], set()

        def progress(done, total):
            counts.append(faults(resource.RUSAGE_SELF))
            helpers.add(sum(t.name.startswith("adadenoise-helper")
                            for t in threading.enumerate()))

        grid(n, m / n, 6, (3.0,), progress)
        assert helpers == {1}, f"helper threads seen: {helpers}"
        taken = statistics.median(b - a for a, b in zip(counts, counts[1:]))
    else:
        runs = []
        for trials in (2, 6):
            before = faults(resource.RUSAGE_CHILDREN)
            grid(n, m / n, trials, (1.0, 2.0, 3.0))
            runs.append(faults(resource.RUSAGE_CHILDREN) - before)
        taken = (runs[1] - runs[0]) / (3 * 4)
    print(m, n, taken)
"""


class TestSeeds:
    def test_mix64_is_deterministic_and_spreads(self):
        assert mix64(0) == mix64(0)
        outs = {mix64(i) for i in range(1000)}
        assert len(outs) == 1000
        assert all(0 <= v < 2 ** 64 for v in outs)

    def test_roles_give_disjoint_streams(self):
        seed = 123456789
        subs = {derive_seed(seed, role) for role in (ROLE_U, ROLE_V, ROLE_W)}
        assert len(subs) == 3

    def test_trial_seed_depends_on_cell_identity(self):
        config = ExperimentConfig(ns=(60, 80), ranks=(1,),
                                  sigma1_grid=(1.0, 2.0), trials=2,
                                  output="x.csv")
        specs = list(config.cells())
        seeds = {config.trial_seed(spec, t) for spec in specs
                 for t in range(2)}
        assert len(seeds) == len(specs) * 2
        # stable: unaffected by extending the grid elsewhere
        wider = ExperimentConfig(ns=(60, 80, 100), ranks=(1,),
                                 sigma1_grid=(1.0, 2.0, 3.0), trials=5,
                                 output="x.csv")
        assert wider.trial_seed(specs[0], 1) == config.trial_seed(specs[0], 1)


class TestHaar:
    def test_one_by_one_is_sign(self):
        for seed in range(20):
            q = haar_orthonormal(1, 1, seed)
            assert q.shape == (1, 1)
            assert abs(q[0, 0]) == pytest.approx(1.0, abs=1e-15)

    def test_columns_orthonormal(self):
        for seed in (0, 7, 991):
            q = haar_orthonormal(50, 3, seed)
            resid = np.linalg.norm(q.T @ q - np.eye(3), 2)
            assert resid <= 1e-10

    def test_first_coordinate_moment(self):
        """On the sphere in R^3 the squared first coordinate averages 1/3."""
        total = 0.0
        n_seeds = 30000
        for seed in range(n_seeds):
            total += haar_orthonormal(3, 1, seed)[0, 0] ** 2
        assert 0.32 <= total / n_seeds <= 0.35

    def test_validation(self):
        with pytest.raises(ValueError):
            haar_orthonormal(3, 4, seed=0)


class TestMakeSignal:
    def test_operator_norm_is_sigma1(self):
        spec = SignalSpec(m=4, n=4, r=1, sigmas=(2.0,))
        x, u, v = make_signal(spec, seed=11)
        assert op_norm(x) / (16) ** 0.25 == pytest.approx(2.0, abs=1e-8)

    def test_spectrum_matches(self):
        spec = SignalSpec(m=30, n=20, r=3, sigmas=(3.0, 2.0, 0.5))
        x, u, v = make_signal(spec, seed=12)
        scale = (30 * 20) ** 0.25
        s = np.linalg.svd(x, compute_uv=False)[:3] / scale
        np.testing.assert_allclose(s, [3.0, 2.0, 0.5], atol=1e-10)

    def test_determinism_and_factor_independence(self):
        spec = SignalSpec(m=12, n=12, r=2, sigmas=(2.0, 1.0))
        x1, u1, v1 = make_signal(spec, seed=13)
        x2, u2, v2 = make_signal(spec, seed=13)
        assert np.array_equal(x1, x2)
        assert not np.allclose(u1, v1)  # distinct role sub-seeds

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SignalSpec(m=10, n=10, r=2, sigmas=(1.0, 2.0))  # ascending
        with pytest.raises(ValueError):
            SignalSpec(m=10, n=10, r=0, sigmas=())
        with pytest.raises(ValueError, match="need exactly r singular"):
            SignalSpec(m=10, n=10, r=2, sigmas=(2.0,))
        with pytest.raises(ValueError, match="must be positive and finite"):
            SignalSpec(m=10, n=10, r=2, sigmas=(2.0, 0.0))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                SignalSpec(m=10, n=10, r=1, sigmas=(bad,))


class TestRunTrial:
    SPEC = SignalSpec(m=60, n=60, r=1, sigmas=(3.0,))
    MODEL = GaussianMixture(2.0)

    def test_determinism(self):
        a = run_trial(self.SPEC, self.MODEL, seed=99)
        b = run_trial(self.SPEC, self.MODEL, seed=99)
        assert a == b
        assert a.overlaps_adaptive == b.overlaps_adaptive
        assert a.err_adaptive == b.err_adaptive

    def test_record_ranges(self):
        rec = run_trial(self.SPEC, self.MODEL, seed=5)
        assert 0.0 <= rec.overlaps_adaptive[0] <= 1.0 + 1e-10
        assert 0.0 <= rec.overlaps_baseline[0] <= 1.0 + 1e-10
        assert rec.err_adaptive >= 0 and rec.err_baseline >= 0
        assert rec.err_star >= 0
        assert rec.i_hat > 0

    def test_vanishing_signal_below_threshold(self):
        spec = SignalSpec(m=60, n=60, r=1, sigmas=(1e-8,))
        rec = run_trial(spec, self.MODEL, seed=6)
        assert rec.k_hat == 0
        assert rec.err_adaptive == pytest.approx(1e-8, rel=1e-6)

    def test_rank_three_overlap_blocks(self):
        spec = SignalSpec(m=80, n=80, r=3, sigmas=(4.0, 3.2, 2.4))
        rec = run_trial(spec, self.MODEL, seed=7)
        assert len(rec.overlaps_adaptive) == 3
        assert len(rec.overlaps_baseline) == 3

    def test_rank_five_below_threshold_factors(self):
        """Ranks above the default three factors and spikes below the
        threshold still get every overlap block: the trial asks both
        estimators for r factors."""
        spec = SignalSpec(m=80, n=80, r=5, sigmas=(4.0, 3.5, 3.0, 0.5, 0.2))
        rec = run_trial(spec, self.MODEL, seed=8)
        assert rec.k_hat < spec.r
        for overlaps in (rec.overlaps_adaptive, rec.overlaps_baseline):
            assert len(overlaps) == 5
            assert all(0.0 <= ov <= 1.0 + 1e-10 for ov in overlaps)
        assert rec.err_adaptive > 0 and rec.err_baseline > 0

    @pytest.mark.parametrize("spec, seed, k_hat", [
        (SignalSpec(m=60, n=60, r=1, sigmas=(3.0,)), 5, 1),
        (SignalSpec(m=90, n=150, r=3, sigmas=(4.0, 3.2, 2.4)), 7, 3),
        (SignalSpec(m=60, n=60, r=1, sigmas=(1e-8,)), 6, 0)])
    def test_errors_match_dense_norms(self, spec, seed, k_hat):
        """The low-rank err_adaptive and err_baseline and the Gram-based
        err_star equal dense operator norms of the same differences."""
        rec = run_trial(spec, self.MODEL, seed)
        assert rec.k_hat == k_hat
        x, _, _ = make_signal(spec, seed)
        y = x + self.MODEL.sample(spec.m, spec.n, derive_seed(seed, ROLE_W))
        res = denoise(y)
        base = baseline_estimate(y, math.sqrt(self.MODEL.variance()))
        scale = (spec.m * spec.n) ** 0.25
        for got, est in ((rec.err_adaptive, res.x_hat),
                         (rec.err_baseline, base.x_hat),
                         (rec.err_star, res.x_star)):
            dense = np.linalg.norm(est - x, 2) / scale
            assert got == pytest.approx(dense, rel=1e-12)

    def test_allocation_budget(self):
        """One 400 x 400 trial holds at most about four m x n arrays (it
        reads 4.1): Y, which X is formed in, X*, and the unit-scale copy
        of Y with its Gram matrix while the baseline decomposes it."""
        spec = SignalSpec(m=400, n=400, r=1, sigmas=(3.0,))
        peak = traced_peak_arrays(lambda: run_trial(spec, self.MODEL, 9),
                                  (400, 400))
        assert peak <= 5.5

    def test_no_full_size_svd(self, monkeypatch):
        """The only SVDs a trial takes are of its small cores: at most
        k_hat + r on a side."""
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        spec = SignalSpec(m=80, n=80, r=3, sigmas=(4.0, 3.2, 2.4))
        rec = run_trial(spec, self.MODEL, seed=7)
        assert shapes
        assert max(max(shape) for shape in shapes) <= rec.k_hat + spec.r


class TestMarchenkoPasturEdge:
    def test_pure_noise_top_value_at_bulk_edge(self):
        """Scaled by the noise sd, the top value of a pure-noise matrix
        sits at the bulk edge 2 for square shapes."""
        model = GaussianMixture(2.0)
        sd = math.sqrt(model.variance())
        scale = (400 * 400) ** 0.25
        tops = []
        for seed in range(20):
            w = model.sample(400, 400, seed=3000 + seed)
            tops.append(np.linalg.svd(w, compute_uv=False)[0] / (scale * sd))
        assert 1.94 <= float(np.mean(tops)) <= 2.06


class TestConfig:
    def test_parse_grid_forms(self):
        assert parse_grid("2.0") == (2.0,)
        assert parse_grid("1,2,3") == (1.0, 2.0, 3.0)
        grid = parse_grid("0.2:4.0:0.2")
        assert len(grid) == 20
        assert grid[0] == 0.2 and grid[-1] == 4.0
        # the last three are a range of infinitely many points, which
        # `round` cannot take, one too many to list, and one past the cap
        for bad in ("1:2", "1:inf:1", "1:nan:1", "nan:2:1", "1:2:inf",
                    "nan", "inf", "1,nan", "1,-inf",
                    "1:1e308:1e-308", "0:1e300:1", "0:1000000:1"):
            with pytest.raises(ConfigError):
                parse_grid(bad)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")),
                             ids=lambda path: path.name)
    def test_shipped_config_loads(self, path):
        """Every config in `configs/` loads: a key dropped from the
        schema cannot leave a shipped file unloadable."""
        config = load_config(path)
        assert list(config.cells())

    def test_paper_grid_enumerates_6000_trials(self):
        config = load_config(CONFIG_DIR / "paper_sec5.cfg")
        cells = list(config.cells())
        assert len(cells) * config.trials == 6000
        assert config.noise.variance() == 5.0

    def test_rank_three_cells_use_ratio_rules(self):
        config = load_config(CONFIG_DIR / "paper_sec5.cfg")
        r3 = [c for c in config.cells() if c.r == 3]
        example = r3[0]
        s1 = example.sigmas[0]
        assert example.sigmas == (s1, 0.8 * s1, 0.6 * s1)

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = 60\nsigma1 = 1.0\ntrials = 1\noutput = o.csv\n"
                       "bogus_key = 3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(bad)

    @pytest.mark.parametrize("line, word", [
        ("sigma1 = 3:1:1", "bad grid spec '3:1:1'"),
        ("sigma1 = 1\nnoise = mixture -1", "key 'noise'"),
        ("sigma1 = 1\ngamma = inf", "gamma must be positive"),
        # no kind, an unknown kind and a second parameter list the kinds
        ("sigma1 = 1\nnoise =", NOISE_KINDS),
        ("sigma1 = 1\nnoise = student 3", NOISE_KINDS),
        ("sigma1 = 1\nnoise = mixture 1 2", NOISE_KINDS)],
        ids=["grid", "setting", "gamma", "no_kind", "unknown_kind",
             "two_parameters"])
    def test_value_errors_name_the_file(self, tmp_path, line, word):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"n = 60\ntrials = 1\noutput = o.csv\n{line}\n")
        with pytest.raises(ConfigError) as info:
            load_config(bad)
        assert str(info.value).startswith(f"{bad}: ")
        assert word in str(info.value)

    @pytest.mark.parametrize("value, noise", [
        ("mixture", GaussianMixture(2.0)),
        ("mixture 1.5", GaussianMixture(1.5)),
        ("gaussian", Gaussian(1.0)), ("gaussian 4", Gaussian(4.0))])
    def test_noise_is_a_kind_and_its_parameter(self, tmp_path, value, noise):
        """`noise = KIND [PARAM]` builds that kind's model with PARAM as
        its one argument, or with the model's default without it."""
        path = tmp_path / "noise.cfg"
        path.write_text("n = 60\nsigma1 = 1\ntrials = 1\noutput = o.csv\n"
                        f"noise = {value}\n")
        assert load_config(path).noise == noise

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")),
                             ids=lambda path: path.name)
    def test_loaded_config_equals_itself(self, path):
        """Two loads of one file give equal configs with equal hashes:
        the noise model compares by kind and parameter."""
        first, second = load_config(path), load_config(path)
        assert first == second and hash(first) == hash(second)

    @pytest.mark.parametrize("key", sim._SCHEMA)
    def test_malformed_value_names_the_file_and_key(self, tmp_path, key):
        """Each config key rejects a malformed value (an empty `output`,
        'x' for every other key) with a message that starts with the
        file and names the key."""
        keys = {"n": "60", "sigma1": "1", "trials": "1", "output": "o.csv",
                key: "" if key == "output" else "x"}
        bad = tmp_path / "bad.cfg"
        bad.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        with pytest.raises(ConfigError) as info:
            load_config(bad)
        message = str(info.value)
        assert message.startswith(f"{bad}: ")
        assert re.search(rf"\b{key}\b", message.removeprefix(f"{bad}: "))

    def test_missing_required_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = 60\ntrials = 1\noutput = o.csv\n")
        with pytest.raises(ConfigError, match="sigma1"):
            load_config(bad)

    def test_duplicate_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = 60\nn = 80\nsigma1 = 1\ntrials = 1\noutput = o.csv\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(bad)

    @pytest.mark.parametrize("over", [
        dict(eps=math.nan), dict(eps=0.0), dict(h=-1.0), dict(h_prime=0.0),
        dict(delta=-0.5), dict(gamma=0.01), dict(delta=math.nan),
        dict(delta=math.inf), dict(h=math.inf), dict(h_prime=math.inf),
        dict(gamma=math.inf), dict(gamma=math.nan),
        dict(sigma1_grid=(math.inf,)), dict(sigma1_grid=(math.nan,)),
        dict(ranks=(4,))])
    def test_invalid_cell_settings_rejected(self, over):
        """Cell shapes are checked when the config is built, not when
        the grid runs.  The denoiser has no settings: eps and delta are
        constants and the bandwidths follow the input's shape, so
        `ExperimentConfig` takes none of them."""
        (key, _), = over.items()
        base = dict(ns=(60,), ranks=(1,), sigma1_grid=(1.0,), trials=1,
                    output="o.csv")
        error = (TypeError if key in ("eps", "delta", "h", "h_prime")
                 else ConfigError)
        with pytest.raises(error):
            ExperimentConfig(**{**base, **over})

    @pytest.mark.parametrize("over, message", [
        (dict(ns=(60, 1)), "n must list integers >= 2"),
        (dict(ranks=(0,)), "rank must list integers >= 1"),
        (dict(sigma1_grid=(2.0, 1.0)),
         "sigma1 grid must be strictly increasing"),
        (dict(ranks=(1, 4)), "rank must list integers >= 1 and <= 3"),
        (dict(ns=(60, 80, 60)), "n must not repeat a value"),
        (dict(ranks=(1, 1)), "rank must not repeat a value"),
        (dict(trials=0), "trials must be >= 1"),
        (dict(workers=0), "workers must be >= 1")])
    def test_invalid_grid_names_the_rule(self, over, message):
        base = dict(ns=(60,), ranks=(1,), sigma1_grid=(1.0,), trials=1,
                    output="o.csv")
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(**{**base, **over})

    def test_utf8_comment_loads_in_any_locale(self, tmp_path):
        """The config is decoded as UTF-8 whatever the locale: a comment
        holding a sigma (U+03C3) loads under the C locale with Python's
        UTF-8 mode off."""
        path = tmp_path / "u.cfg"
        path.write_bytes("# grid of \u03c3 values\nn = 60\nsigma1 = 1,2\n"
                         "trials = 1\noutput = o.csv\n".encode("utf-8"))
        code = ("import sys; from adadenoise import load_config; "
                "print(load_config(sys.argv[1]).sigma1_grid)")
        res = subprocess.run(
            [sys.executable, "-c", code, str(path)], capture_output=True,
            text=True, env={**package_env(), "PYTHONUTF8": "0", "LC_ALL": "C"})
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "(1.0, 2.0)"

    def test_byte_order_mark_is_ignored(self, tmp_path):
        """A leading UTF-8 byte-order mark, which spreadsheet exports
        write, is not read as part of the first key."""
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + b"n = 60\nsigma1 = 1.0\n"
                         b"trials = 1\noutput = o.csv\n")
        assert load_config(path).ns == (60,)

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# heading\n\nn = 60  # inline\nsigma1 = 1.0\n"
                       "trials = 1\noutput = o.csv\n")
        config = load_config(cfg)
        assert config.ns == (60,)


class TestRunGrid:
    def small_config(self, tmp_path, **over):
        defaults = dict(ns=(24,), ranks=(1,), sigma1_grid=(2.5,),
                        trials=3, base_seed=77,
                        output=str(tmp_path / "out.csv"))
        defaults.update(over)
        return ExperimentConfig(**defaults)

    def test_single_cell_row_count(self, tmp_path):
        config = self.small_config(tmp_path)
        records = run_grid(config)
        assert len(records) == 3
        lines = Path(config.output).read_text().splitlines()
        assert len(lines) == 4  # header + trials
        header = lines[0].split(",")
        assert header == ["n", "m", "r", "sigma1", "trial", "seed", "i_hat",
                          "k_hat", "ov_a_1", "ov_b_1", "err_a", "err_b",
                          "err_star"]
        assert all(len(line.split(",")) == len(header) for line in lines[1:])

    def test_rerun_is_byte_identical(self, tmp_path):
        config = self.small_config(tmp_path)
        run_grid(config)
        first = Path(config.output).read_bytes()
        run_grid(config)
        assert Path(config.output).read_bytes() == first

    def test_records_are_trials_at_every_shape(self, tmp_path):
        """A grid over cells of different shapes: each record equals a
        trial run at that shape with the record's seed."""
        config = self.small_config(tmp_path, ns=(60, 80), trials=2)
        records = run_grid(config)
        specs = [spec for spec in config.cells() for _ in range(2)]
        assert [rec.n for rec in records] == [60, 60, 80, 80]
        for spec, rec in zip(specs, records):
            trial = run_trial(spec, config.noise, rec.seed)
            assert dataclasses.replace(trial, trial=rec.trial) == rec

    def test_trial_order_and_indices(self, tmp_path):
        config = self.small_config(tmp_path, sigma1_grid=(1.0, 2.0), trials=2)
        records = run_grid(config)
        assert [r.trial for r in records] == [0, 1, 0, 1]
        assert [r.sigma1 for r in records] == [1.0, 1.0, 2.0, 2.0]

    def test_parallel_matches_serial(self, tmp_path):
        # 5 trials: two chunks, so the pool starts
        serial = self.small_config(tmp_path, trials=5,
                                   output=str(tmp_path / "s.csv"))
        parallel = self.small_config(tmp_path, trials=5, workers=2,
                                     output=str(tmp_path / "p.csv"))
        run_grid(serial)
        run_grid(parallel)
        assert (Path(serial.output).read_bytes()
                == Path(parallel.output).read_bytes())

    def test_records_do_not_depend_on_blas_threads(self, tmp_path):
        """Records (all bits) and the CSV are the same for one and two
        OpenBLAS threads in the calling environment and for one and two
        workers (5 trials, two chunks, so the pool starts).  At n = 400
        threaded BLAS splits its sums, so without the hold the records
        differ in the last bits."""
        code = ("import sys\n"
                "from adadenoise import ExperimentConfig, run_grid\n"
                "config = ExperimentConfig(ns=(int(sys.argv[3]),), "
                "ranks=(1,), sigma1_grid=(3.0,), trials=5, base_seed=5, "
                "gamma=float(sys.argv[4]), output=sys.argv[1], "
                "workers=int(sys.argv[2]))\n"
                "for rec in run_grid(config):\n"
                "    print(repr(rec))\n")
        # a square cell, and a tall one (150 x 90), whose Gram step works
        # on the transpose
        for n, gamma in (("400", "1.0"), ("90", repr(5 / 3))):
            runs = set()
            for threads in ("1", "2"):
                for workers in ("1", "2"):
                    out = tmp_path / f"{n}_{threads}_{workers}.csv"
                    res = subprocess.run(
                        [sys.executable, "-c", code, str(out), workers, n,
                         gamma],
                        capture_output=True, text=True, check=True,
                        timeout=300, env={**package_env(),
                                          "OPENBLAS_NUM_THREADS": threads})
                    runs.add((res.stdout, out.read_bytes()))
            assert len(runs) == 1

    @pytest.mark.parametrize("noise, workers", [
        (GaussianMixture(2.0), 1), (Gaussian(4.0), 1),
        (GaussianMixture(2.0), 2), (Gaussian(4.0), 2)],
        ids=["mixture", "gaussian", "mixture-pool", "gaussian-pool"])
    def test_grid_records_equal_trials_run_alone(self, tmp_path, noise,
                                                 workers):
        """A grid's records (every bit, trial indices included) and CSV
        bytes (columns up to the largest rank) equal those of trials run
        one at a time outside any grid, on a tall, a wide and a square
        cell, in this process or in a pool."""
        for n, gamma in ((90, 5 / 3), (150, 0.6), (60, 1.0)):
            config = self.small_config(tmp_path, ns=(n,), gamma=gamma,
                                       ranks=(1, 2), sigma1_grid=(1.0, 3.0),
                                       trials=2, noise=noise, workers=workers)
            records = run_grid(config)
            alone = trials_alone(config)
            assert {(rec.m, rec.n) for rec in alone} == {(round(gamma * n),
                                                          n)}
            assert repr(records) == repr(alone)
            write_records_csv(alone, tmp_path / "alone.csv")
            assert (Path(config.output).read_bytes()
                    == (tmp_path / "alone.csv").read_bytes())

    @pytest.mark.parametrize("helper, bound", [(True, 6.5), (False, 4.5)],
                             ids=["helper", "no-helper"])
    def test_second_trial_live_peak(self, tmp_path, monkeypatch, helper,
                                    bound):
        """Everything live in a grid's second 400 x 400 trial, on both
        threads, peaks at about 4.1 m x n arrays without a helper thread,
        as in a pool worker (run here in process through
        `InlineExecutor`): Y, X* and the unit-scale copy and Gram matrix
        of one spectral step.  With the helper, X* - X is decomposed there
        beside the adaptive spectral step, so the copy and Gram matrix of
        a second decomposition come on top (6.09-6.11 arrays in 8 of 8
        runs).  Traced from before the grid starts, so nothing kept from
        the first trial escapes the count; an untraced grid first takes
        imports out of it."""
        if not helper:
            monkeypatch.setattr(sim, "ThreadPoolExecutor", InlineExecutor)
        peaks, helpers = [], set()

        def progress(done, total):
            helpers.add(len(helper_threads()))
            if done == 1:
                tracemalloc.reset_peak()
            else:
                peaks.append(tracemalloc.get_traced_memory()[1])

        config = self.small_config(tmp_path, ns=(400,), sigma1_grid=(3.0,),
                                   trials=2)
        run_grid(config)
        tracemalloc.start()
        try:
            run_grid(config, progress=progress)
        finally:
            tracemalloc.stop()
        assert helpers == {int(helper)}
        assert peaks[0] / (8 * 400 * 400) <= bound

    def test_helper_keeps_no_trial_alive(self, tmp_path, monkeypatch):
        """Once a 400 x 400 grid trial has returned, as `progress` is
        called, the traced live memory is the same with the helper thread
        as without it (`InlineExecutor`): the helper drops each call's
        arguments (Y, X*) as the call ends, so they do not live on into
        the next trial.  Traced from before the grid starts; an untraced
        grid first takes imports out of the count."""
        live = {}
        for helper in (False, True):
            with monkeypatch.context() as patch:
                if not helper:
                    patch.setattr(sim, "ThreadPoolExecutor", InlineExecutor)
                config = self.small_config(tmp_path, ns=(400,),
                                           sigma1_grid=(3.0,), trials=2)
                run_grid(config)
                readings = live[helper] = []
                tracemalloc.start()
                try:
                    run_grid(config, progress=lambda done, total:
                             readings.append(tracemalloc.get_traced_memory()[0]
                                             / (8 * 400 * 400)))
                finally:
                    tracemalloc.stop()
        assert all(abs(a - b) < 0.1
                   for a, b in zip(live[False], live[True]))

    @pytest.mark.skipif(
        importlib.util.find_spec("resource") is None
        or platform.libc_ver()[0] != "glibc",
        reason="reads minor faults through `resource`, on glibc's heap")
    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pool"])
    def test_trials_after_the_first_reuse_their_pages(self, tmp_path,
                                                      workers):
        """A 200 x 200, a 600 x 200 and a 400 x 400 trial after a
        process's first each take fewer minor faults than the pages of
        one of its m x n arrays: glibc would otherwise trim the freed top
        of its heap after each trial, or map and unmap a large array
        afresh, and the trial would fault its pages in again.  In the
        grid's own process, the median over trials 2-6 of one cell; in a
        pool of 2 workers, the faults of its reaped workers per trial
        that a run of 6 trials per cell takes beyond one of 2 (3 cells,
        so that both runs start both workers).  The grids run in a fresh
        process, whose heap starts clean."""
        res = subprocess.run(
            [sys.executable, "-c", FAULTS_SCRIPT, str(tmp_path / "out.csv"),
             str(workers)],
            capture_output=True, text=True, check=True, timeout=300,
            env={**package_env(), "OPENBLAS_NUM_THREADS": "1"})
        cells = [line.split() for line in res.stdout.splitlines()]
        assert [(int(m), int(n)) for m, n, _ in cells] == [
            (200, 200), (600, 200), (400, 400)]
        over = [(m, n, faults) for m, n, faults in cells if float(faults)
                >= math.ceil(8 * int(m) * int(n)
                             / os.sysconf("SC_PAGE_SIZE"))]
        assert over == []

    def test_pool_starts_no_worker_without_a_chunk(self, tmp_path,
                                                   monkeypatch):
        """The pool starts at most one worker per chunk of trials, and
        none for a grid of one chunk: at `workers = 4` a 3-trial grid runs
        in process and a 5-trial grid starts two workers.  Both give the
        records of `workers = 1`."""
        started = []
        pool = sim.ProcessPoolExecutor

        def recording(**kwargs):
            started.append(kwargs["max_workers"])
            return pool(**kwargs)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", recording)
        for trials, pools in ((3, []), (5, [2])):
            serial = run_grid(self.small_config(
                tmp_path, trials=trials, output=str(tmp_path / "s.csv")))
            parallel = run_grid(self.small_config(
                tmp_path, trials=trials, output=str(tmp_path / "p.csv"),
                workers=4))
            assert started == pools
            assert repr(parallel) == repr(serial)

    def test_error_in_the_loop_cancels_queued_trials(self, tmp_path):
        """An error in the grid's own loop, here `progress` raising on the
        first record, cancels the trials a pool has queued: of 80 trials
        in 20 chunks only the chunks already handed to the 2 workers run,
        not all 80 that the pool's exit would wait for."""
        log = tmp_path / "draws.log"
        config = self.small_config(tmp_path, sigma1_grid=(1.0, 2.0),
                                   trials=40, workers=2,
                                   noise=LoggedMixture(log))

        def progress(done, total):
            raise RuntimeError("progress failed")

        with pytest.raises(RuntimeError, match="progress failed"):
            run_grid(config, progress=progress)
        assert len(log.read_text().splitlines()) <= 40

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pool"])
    def test_helper_leaves_records_and_csv_unchanged(self, tmp_path,
                                                     workers):
        """A grid that runs its trials in its own process hands each
        trial's baseline to a helper thread, which starts with the first
        trial's first call, after that trial's noise draw; in a pool's
        workers and in the pool's caller none starts.  The records (every
        bit) and the CSV bytes are those of trials run alone, with no
        helper, on a tall, a wide and a square cell (8 trials in 2
        chunks, so the pool starts)."""
        helper = int(workers == 1)
        for n, gamma in ((90, 5 / 3), (150, 0.6), (60, 1.0)):
            log = tmp_path / f"{n}.log"
            config = self.small_config(
                tmp_path, ns=(n,), gamma=gamma, ranks=(1, 2),
                sigma1_grid=(1.0, 3.0), trials=2,
                noise=HelperLoggedMixture(log), workers=workers)
            seen = []
            records = run_grid(config, progress=lambda done, total:
                               seen.append(len(helper_threads())))
            draws = [line.split() for line in log.read_text().splitlines()]
            assert len(draws) == len(records) == 8
            # the caller, then where each trial ran: the first draw comes
            # before the helper's first call
            assert seen == [helper] * 8
            assert [int(count) for _, count in draws] == [0] + [helper] * 7
            assert ({int(pid) != os.getpid() for pid, _ in draws}
                    == {workers == 2})
            assert helper_threads() == []
            alone = trials_alone(config, GaussianMixture())
            assert repr(records) == repr(alone)
            write_records_csv(alone, tmp_path / "alone.csv")
            assert (Path(config.output).read_bytes()
                    == (tmp_path / "alone.csv").read_bytes())

    def test_helper_records_hold_under_frequent_switches(self, tmp_path):
        """The two threads share Y and X*, each read-only while both run,
        and hand the results over through futures: with the interpreter
        switching threads every microsecond, 24 trials give the records
        they give run alone, with no helper."""
        config = self.small_config(tmp_path, ns=(40,), ranks=(1, 2),
                                   sigma1_grid=(1.0, 3.0), trials=6)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            records = run_grid(config)
        finally:
            sys.setswitchinterval(interval)
        assert repr(records) == repr(trials_alone(config))
        assert helper_threads() == []

    @pytest.mark.parametrize("fails",
                             ["baseline", "entrywise", "star", "spectral"])
    def test_trial_error_waits_for_the_helper(self, tmp_path, monkeypatch,
                                              fails):
        """With a helper thread, an error in any of a trial's four calls
        (the baseline and X* - X on the helper, the entrywise and the
        spectral step on the calling thread) is the one `run_grid` raises,
        and the trial raises it only once every call it handed to the
        helper has returned: the baseline reads Y, X* - X is formed in Y's
        place, and the next trial forms its own Y.  The helper's calls take
        0.2 s each, so a trial that did not wait would raise first.  No
        helper thread outlives the grid."""
        events = []

        def watched(name, call, delay):
            def run(*args, **kwargs):
                thread = threading.current_thread().name
                events.append((name, "helper" if thread.startswith(HELPER)
                               else thread))
                if name == fails:
                    raise RuntimeError(f"{name} failed")
                time.sleep(delay)
                result = call(*args, **kwargs)
                events.append((f"{name} done", None))
                return result
            return run

        for name, attr, delay in (("baseline", "baseline_estimate", 0.2),
                                  ("entrywise", "denoise_entrywise", 0),
                                  ("star", "_star_error", 0.2),
                                  ("spectral", "adaptive_spectral", 0)):
            monkeypatch.setattr(sim, attr,
                                watched(name, getattr(sim, attr), delay))
        trial = sim.run_trial

        def watched_trial(*args):
            try:
                return trial(*args)
            except RuntimeError:
                events.append(("raised", None))
                raise

        monkeypatch.setattr(sim, "run_trial", watched_trial)
        with pytest.raises(RuntimeError, match=f"{fails} failed"):
            run_grid(self.small_config(tmp_path, trials=2))
        helper, caller = "helper", threading.main_thread().name
        started = {(name, thread) for name, thread in events if thread}
        assert started == ({("baseline", helper), ("entrywise", caller)}
                           if fails == "entrywise" else
                           {("baseline", helper), ("entrywise", caller),
                            ("star", helper), ("spectral", caller)})
        names = [name for name, _ in events]
        assert names.count("raised") == 1 and names[-1] == "raised"
        assert all(f"{name} done" in names for name, thread in started
                   if thread == helper and name != fails)
        assert helper_threads() == []

    @pytest.mark.parametrize("where", ["progress", "entrywise"])
    def test_interrupt_ends_the_grid_cleanly(self, tmp_path, monkeypatch,
                                             where):
        """A `KeyboardInterrupt`, from `progress` at trial 2 or from the
        first trial's entrywise step, raised while the helper thread runs,
        ends an in-process grid: `run_grid` raises it, no helper thread is
        left and the BLAS thread count is restored."""
        helpers = []

        def interrupt(*args):
            helpers.append(len(helper_threads()))
            raise KeyboardInterrupt

        def progress(done, total):
            if where == "progress" and done == 2:
                interrupt()

        if where == "entrywise":
            monkeypatch.setattr(sim, "denoise_entrywise", interrupt)
        outer = linalg.set_blas_threads(2)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_grid(self.small_config(tmp_path, trials=4), progress)
            assert helpers == [1] and helper_threads() == []
            # None where numpy's BLAS exports no OpenBLAS thread controls
            assert linalg.set_blas_threads(None) == (outer and 2)
        finally:
            linalg.set_blas_threads(outer)

    @pytest.mark.parametrize("slow", ["star", "spectral"])
    def test_records_do_not_depend_on_the_interleaving(self, tmp_path,
                                                       monkeypatch, slow):
        """X* - X runs on the helper beside the adaptive spectral step on
        the calling thread, and both read X*.  With either side held back
        by 50 ms, so that the other finishes first in every trial, the
        records (every bit) and the CSV bytes equal those of trials run
        alone, with no helper, on a tall, a wide and a square cell."""
        order = []

        def recorded(name, call):
            def run(*args, **kwargs):
                if name == slow:
                    time.sleep(0.05)
                result = call(*args, **kwargs)
                order.append(name)
                return result
            return run

        for n, gamma in ((90, 5 / 3), (150, 0.6), (60, 1.0)):
            config = self.small_config(tmp_path, ns=(n,), gamma=gamma,
                                       ranks=(1, 2), sigma1_grid=(1.0, 3.0),
                                       trials=2)
            alone = trials_alone(config)
            write_records_csv(alone, tmp_path / "alone.csv")
            with monkeypatch.context() as patch:
                for name, attr in (("star", "_star_error"),
                                   ("spectral", "adaptive_spectral")):
                    patch.setattr(sim, attr,
                                  recorded(name, getattr(sim, attr)))
                assert repr(run_grid(config)) == repr(alone)
            assert (Path(config.output).read_bytes()
                    == (tmp_path / "alone.csv").read_bytes())
        fast = "star" if slow == "spectral" else "spectral"
        assert order == [fast, slow] * 24

    def test_blas_held_at_one_thread_and_restored(self, tmp_path):
        outer = linalg.set_blas_threads(2)
        if outer is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread controls")
        try:
            before = linalg.set_blas_threads(None)
            during = []
            run_grid(self.small_config(tmp_path, trials=2),
                     progress=lambda done, total: during.append(
                         linalg.set_blas_threads(None)))
            assert during == [1, 1]
            assert linalg.set_blas_threads(None) == before
        finally:
            linalg.set_blas_threads(outer)

    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    def test_grid_process_setup(self, fail):
        """The setup this process runs a grid's trials under: BLAS at one
        thread, the thread count restored after it, also when the block
        raises.  A call handed over in the block runs on the one helper
        thread, which is joined when the block ends."""
        outer = linalg.set_blas_threads(2)
        # None where numpy's BLAS exports no OpenBLAS thread controls
        inside, after = (None, None) if outer is None else (1, 2)
        try:
            with pytest.raises(RuntimeError) if fail else nullcontext():
                with sim._grid_process():
                    assert linalg.set_blas_threads(None) == inside
                    ran = sim._HELPER.submit(
                        threading.current_thread).result(timeout=60)
                    assert ran.name.startswith(HELPER)
                    assert len(helper_threads()) == 1
                    if fail:
                        raise RuntimeError("inside")
            assert linalg.set_blas_threads(None) == after
            assert helper_threads() == []
            assert not hasattr(sim._HELPER, "submit")
        finally:
            linalg.set_blas_threads(outer)

    def test_heap_settings(self, monkeypatch):
        """Each entry to the grid setup sets glibc's trim threshold to
        1 GiB and its mmap threshold to 32 MiB; a setting `mallopt`
        refuses raises, before BLAS is touched."""
        calls, took = [], [1]

        def mallopt(param, value):
            calls.append((param, value))
            return took[0]

        monkeypatch.setattr(sim, "_libc",
                            lambda: SimpleNamespace(mallopt=mallopt))
        for _ in range(2):
            with sim._grid_process():
                pass
        assert calls == [(-1, 1 << 30), (-3, 1 << 25)] * 2
        took[0] = 0
        outer = linalg.set_blas_threads(2)
        try:
            with pytest.raises(RuntimeError, match="mallopt"):
                with sim._grid_process():
                    pass
            # None where numpy's BLAS exports no OpenBLAS thread controls
            assert linalg.set_blas_threads(None) == (outer and 2)
        finally:
            linalg.set_blas_threads(outer)

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pool"])
    def test_records_do_not_depend_on_the_heap_settings(
            self, tmp_path, monkeypatch, workers):
        """Off glibc, where the C library has no `mallopt`, the grid setup
        leaves the heap as it is, and a grid gives the records and CSV
        bytes it gives with glibc's settings applied, in this process or
        in a pool (whose forked workers take the patched handle)."""
        config = self.small_config(tmp_path, ns=(60,), ranks=(1, 2),
                                   sigma1_grid=(1.0, 3.0), trials=4,
                                   workers=workers)
        applied = run_grid(config)
        csv = Path(config.output).read_bytes()
        monkeypatch.setattr(sim, "_libc", lambda: SimpleNamespace())
        assert repr(run_grid(config)) == repr(applied)
        assert Path(config.output).read_bytes() == csv

    def test_only_an_in_process_grid_asks_for_a_helper(self, tmp_path,
                                                       monkeypatch):
        """A grid that runs its trials itself has a helper thread; a
        pool's caller has none, and no helper to start one, when it
        builds the pool: it forks the workers, and forking beside a live
        helper thread hung them in a probe."""
        built, helpers = [], []
        pool = sim.ProcessPoolExecutor

        def recording(**kwargs):
            built.append((len(helper_threads()),
                          hasattr(sim._HELPER, "submit")))
            return pool(**kwargs)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", recording)
        for trials, workers in ((3, 4), (5, 4), (5, 1)):
            run_grid(self.small_config(tmp_path, trials=trials,
                                       workers=workers),
                     progress=lambda done, total: helpers.append(
                         len(helper_threads())))
        assert built == [(0, False)]
        assert helpers == [1] * 3 + [0] * 5 + [1] * 5

    def test_a_pool_leaves_its_caller_alone(self, tmp_path, monkeypatch):
        """A pool grid sets up only its workers: the caller makes no glibc
        heap setting and keeps its BLAS thread count while the trials run
        (its forked workers take the patched C library handle, each with
        its own copy of the record).  The records and the CSV bytes equal
        those of the grid run in process, which makes both settings."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(sim, "_libc",
                            lambda: SimpleNamespace(mallopt=mallopt))
        pool = sim.ProcessPoolExecutor
        monkeypatch.setattr(sim, "ProcessPoolExecutor", lambda **kwargs: pool(
            mp_context=multiprocessing.get_context("fork"), **kwargs))
        outer = linalg.set_blas_threads(2)
        try:
            runs = []
            for workers in (2, 1):
                config = self.small_config(
                    tmp_path, ns=(60,), ranks=(1, 2), sigma1_grid=(1.0, 3.0),
                    trials=3, workers=workers,
                    output=str(tmp_path / f"{workers}.csv"))
                threads = []
                records = run_grid(config, progress=lambda done, total:
                                   threads.append(
                                       linalg.set_blas_threads(None)))
                runs.append((repr(records), Path(config.output).read_bytes()))
                if workers == 2:
                    # None where numpy's BLAS exports no OpenBLAS controls
                    assert calls == [] and threads == [outer and 2] * 12
            assert calls == [(-1, 1 << 30), (-3, 1 << 25)]
            assert runs[0] == runs[1]
        finally:
            linalg.set_blas_threads(outer)

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_pool_worker_pins_blas(self, monkeypatch, method):
        """A pool worker starts at the BLAS thread count of its caller
        (forked, with the caller at 2 threads) or of the environment (its
        own OpenBLAS loaded, with 2 threads asked for); its initializer,
        the grid setup, pins that to one thread."""
        outer = linalg.set_blas_threads(2)
        if outer is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread controls")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        try:
            with ProcessPoolExecutor(
                    1, mp_context=multiprocessing.get_context(method),
                    initializer=sim._grid_setup) as pool:
                assert pool.submit(
                    linalg.set_blas_threads, None).result() == 1
        finally:
            linalg.set_blas_threads(outer)

    def test_no_records_write_the_header(self, tmp_path):
        write_records_csv([], tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == (
            "n,m,r,sigma1,trial,seed,i_hat,k_hat,err_a,err_b,err_star\n")

    def test_mixed_ranks_pad_overlap_columns(self, tmp_path):
        config = self.small_config(tmp_path, ns=(20,), ranks=(1, 2),
                                   sigma1_grid=(3.0,), trials=1)
        run_grid(config)
        lines = Path(config.output).read_text().splitlines()
        header = lines[0].split(",")
        assert "ov_a_2" in header and "ov_b_2" in header
        rank1_row = lines[1].split(",")
        assert rank1_row[header.index("ov_a_2")] == ""
        rank2_row = lines[2].split(",")
        assert rank2_row[header.index("ov_a_2")] != ""

    def test_ten_significant_digits(self, tmp_path):
        config = self.small_config(tmp_path, trials=1)
        records = run_grid(config)
        line = Path(config.output).read_text().splitlines()[1]
        i_hat_text = line.split(",")[6]
        assert float(i_hat_text) == pytest.approx(records[0].i_hat,
                                                  rel=1e-9)

    def test_unwritable_output_raises(self, tmp_path, monkeypatch):
        """The output path is checked before the first trial runs, and the
        file is not created."""
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sim, "run_trial", no_trial)
        for output, error in (("nodir/o.csv", FileNotFoundError),
                              (".", IsADirectoryError),
                              ("o.csv", PermissionError)):
            if error is PermissionError:  # a read-only directory, even for root
                monkeypatch.setattr(sim.os, "access", lambda path, mode: False)
            config = self.small_config(tmp_path,
                                       output=str(tmp_path / output))
            with pytest.raises(error, match=re.escape(str(tmp_path / output))):
                run_grid(config)
            assert not (tmp_path / "o.csv").exists()
