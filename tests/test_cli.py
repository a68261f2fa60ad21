import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adadenoise import (GaussianMixture, baseline_estimate, denoise,
                        overlap_limit, read_matrix_csv, write_matrix_csv)

from adadenoise import cli
from adadenoise.cli import main

from conftest import fail_lapack, package_env, row_format_csv

REPO = Path(__file__).resolve().parents[1]
SMOKE_CFG = REPO / "configs" / "smoke.cfg"


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "adadenoise.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=package_env())


@pytest.fixture()
def noisy_matrix(tmp_path):
    rng = np.random.default_rng(50)
    u = rng.standard_normal((40, 1))
    u /= np.linalg.norm(u)
    v = rng.standard_normal((30, 1))
    v /= np.linalg.norm(v)
    y = (40 * 30) ** 0.25 * 3.0 * (u @ v.T) + GaussianMixture(2.0).sample(
        40, 30, seed=51)
    path = tmp_path / "y.csv"
    write_matrix_csv(y, path)
    return path, y


def assert_simulate_usage_error(tmp_path, lines, *words):
    """`simulate` on the base config plus `lines` exits 2 before any
    trial runs, with the config path and each of `words` in its message."""
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 24\nsigma1 = 1.0\ntrials = 1\n"
                   f"output = o.csv\n{lines}\n")
    res = run_cli("simulate", str(bad), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    for word in ("bad.cfg", *words):
        assert word in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o.csv").exists()


def no_trial(*args):
    raise AssertionError("a trial ran")


class TestSimulate:
    def test_smoke_run(self, tmp_path):
        res = run_cli("simulate", str(SMOKE_CFG), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "trials=2" in res.stdout and "output=smoke_results.csv" in res.stdout
        out = tmp_path / "smoke_results.csv"
        assert out.exists()
        assert len(out.read_text().splitlines()) == 3

    def test_missing_config_is_usage_error(self, tmp_path):
        res = run_cli("simulate", str(tmp_path / "nope.cfg"))
        assert res.returncode == 2
        assert "not found" in res.stderr

    @pytest.mark.parametrize("spec", ["1:1e308:1e-308", "0:1e300:1"],
                             ids=["infinite", "huge"])
    def test_unbounded_sigma1_range_is_usage_error(self, tmp_path, spec):
        """A range whose point count is infinite or past the cap is a
        config error, not an overflow traceback or a hang."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"n = 24\nsigma1 = {spec}\ntrials = 1\n"
                       "output = o.csv\n")
        res = run_cli("simulate", str(bad), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert f"bad grid spec '{spec}'" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_key_named(self, tmp_path):
        """An unknown key, a key of an earlier version among them, exits
        2 with the key and its line named, and runs no trial.  The ratios
        of a cell's singular values to its top one are a constant,
        `sim.SIGMA_RATIOS`, so a `sigma_ratios` line is one such key, even
        one that spells out that constant."""
        bad = tmp_path / "bad.cfg"
        for line in ("frobnicate = yes", "kde_mode = binned",
                     "kde_bins = 4096", "h = 0.3", "h_prime = 0.3",
                     "noise_mu = 2.0", "noise_variance = 1.0",
                     "sigma_ratios = 1.0,0.8,0.6"):
            bad.write_text("n = 24\nsigma1 = 1.0\ntrials = 1\n"
                           f"output = o.csv\n{line}\n")
            res = run_cli("simulate", str(bad), cwd=tmp_path)
            assert res.returncode == 2
            key = line.split()[0]
            assert f"bad.cfg:5: unknown config key {key!r}" in res.stderr
            assert "trial " not in res.stderr
            assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("line, key", [
        ("eps = 0", "eps"),
        ("delta = -0.5", "delta"), ("delta = nan", "delta"),
        ("delta = inf", "delta"),
        ("h = -1", "h"), ("h = inf", "h"),
        ("h_prime = 0", "h_prime"), ("h_prime = inf", "h_prime")])
    def test_invalid_denoiser_setting_is_usage_error(self, tmp_path, line,
                                                     key):
        # the denoiser has no settings: a key of an earlier version is an
        # unknown key, named with its line
        assert_simulate_usage_error(tmp_path, line,
                                    f"bad.cfg:5: unknown config key {key!r}")

    @pytest.mark.parametrize("grid, key", [
        ("n = 20, 20\nrank = 1", "n"), ("n = 20\nrank = 1, 1", "rank"),
        ("n = 20, 30\nrank = 1, 3, 1", "rank")], ids=["n", "rank", "ranks"])
    def test_repeated_grid_value_is_usage_error(self, tmp_path, monkeypatch,
                                                capsys, grid, key):
        """A value listed twice under `n` or `rank` would run the same
        trials twice and write their rows twice, which a per-cell mean
        would count as more trials: it is a config error that names the
        key, and no trial runs."""
        monkeypatch.setattr("adadenoise.sim.run_trial", no_trial)
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{grid}\nsigma1 = 1.0\ntrials = 1\noutput = o.csv\n")
        assert main(["simulate", str(bad)]) == 2
        assert (f"{bad}: {key} must not repeat a value"
                in capsys.readouterr().err)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("lines, key", [
        ("noise = mixture -1", "key 'noise'"),
        ("noise = mixture nan", "key 'noise'"),
        ("noise = gaussian -1", "key 'noise'"),
        ("gamma = inf", "gamma")])
    def test_invalid_config_value_is_usage_error(self, tmp_path, lines, key):
        assert_simulate_usage_error(tmp_path, lines, key)

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_config_is_usage_error(self, tmp_path, kind):
        path = tmp_path
        if kind == "binary":
            path = tmp_path / "bin.cfg"
            path.write_bytes(b"\xff\xfe\x00n = 24\n")
        res = run_cli("simulate", str(path), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert str(path) in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("output", ["missing_dir/o.csv", "old.csv/o.csv",
                                        ".", "new_dir/"])
    def test_unusable_output_fails_before_any_trial(self, tmp_path, output):
        old = tmp_path / "old.csv"
        old.write_text("old results\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"n = 24\nsigma1 = 1.0\ntrials = 1\noutput = {output}\n")
        res = run_cli("simulate", str(cfg), cwd=tmp_path)
        assert res.returncode == 1, res.stderr
        assert "cannot write results" in res.stderr
        assert output in res.stderr
        assert "trial " not in res.stderr
        assert "Traceback" not in res.stderr
        assert old.read_text() == "old results\n"

    def test_empty_output_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n = 24\nsigma1 = 1.0\ntrials = 1\noutput =\n")
        res = run_cli("simulate", str(cfg), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert f"{cfg}: output must name a file" in res.stderr
        assert "trial " not in res.stderr

    def test_failed_grid_leaves_results_file(self, tmp_path, monkeypatch,
                                             capsys):
        """The output is not opened before the trials have run."""
        def fail(*args):
            raise ValueError("trial failed")

        monkeypatch.setattr("adadenoise.sim.run_trial", fail)
        out = tmp_path / "o.csv"
        out.write_text("old results\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"n = 24\nsigma1 = 1.0\ntrials = 1\noutput = {out}\n")
        assert main(["simulate", str(cfg)]) == 1
        assert "trial failed" in capsys.readouterr().err
        assert out.read_text() == "old results\n"

    def test_error_before_any_trial_has_no_blank_line(self, tmp_path,
                                                      monkeypatch, capsys):
        """The newline that ends the progress line is printed only after
        one; an error before any trial is the first line of stderr."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n = 24\nsigma1 = 1.0\ntrials = 1\n"
                       "output = missing_dir/o.csv\n")
        res = run_cli("simulate", str(cfg), cwd=tmp_path)
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("adadenoise: cannot write results")

        def fail(*args):
            raise ValueError("trial failed")

        monkeypatch.setattr("adadenoise.sim.run_trial", fail)
        cfg.write_text(f"n = 24\nsigma1 = 1.0\ntrials = 1\n"
                       f"output = {tmp_path / 'o.csv'}\n")
        assert main(["simulate", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            "adadenoise: simulation failed: trial failed")

    def test_rerun_byte_identical(self, tmp_path):
        run_cli("simulate", str(SMOKE_CFG), cwd=tmp_path)
        first = (tmp_path / "smoke_results.csv").read_bytes()
        run_cli("simulate", str(SMOKE_CFG), cwd=tmp_path)
        assert (tmp_path / "smoke_results.csv").read_bytes() == first


class TestDenoise:
    def test_adaptive_round_trip(self, tmp_path, noisy_matrix):
        path, y = noisy_matrix
        prefix = tmp_path / "out"
        res = run_cli("denoise", str(path), "-o", str(prefix))
        assert res.returncode == 0, res.stderr
        xhat = read_matrix_csv(f"{prefix}_xhat.csv")
        xstar = read_matrix_csv(f"{prefix}_xstar.csv")
        assert xhat.shape == y.shape and xstar.shape == y.shape
        meta = Path(f"{prefix}_meta.txt").read_text()
        for key in ("i_hat", "k_hat", "y_bar", "sigma0", "sigma_shrunk"):
            assert key in meta

    def test_matches_library_bytes(self, tmp_path, noisy_matrix):
        """CLI output files equal a direct library call, byte for byte."""
        path, y = noisy_matrix
        prefix = tmp_path / "cli"
        run_cli("denoise", str(path), "-o", str(prefix))
        res = denoise(y)
        direct = tmp_path / "direct.csv"
        write_matrix_csv(res.x_hat, direct)
        assert direct.read_bytes() == Path(f"{prefix}_xhat.csv").read_bytes()

    @pytest.mark.parametrize("mode", ["adaptive", "baseline"])
    def test_csv_bytes_are_the_row_format(self, tmp_path, noisy_matrix, mode):
        """Each CSV either mode writes holds the bytes of one ``%.17g`` row
        format per row of the library's result."""
        path, y = noisy_matrix
        prefix = tmp_path / mode
        if mode == "adaptive":
            extra, res = [], denoise(y)
            expected = {"xhat": res.x_hat, "xstar": res.x_star}
        else:
            extra = ["--noise-sd", "2.2360679775"]
            expected = {"xhat": baseline_estimate(y, 2.2360679775).x_hat}
        run = run_cli("denoise", str(path), "-o", str(prefix), *extra)
        assert run.returncode == 0, run.stderr
        assert sorted(tmp_path.glob(f"{mode}_*.csv")) == sorted(
            Path(f"{prefix}_{name}.csv") for name in expected)
        for name, matrix in expected.items():
            written = Path(f"{prefix}_{name}.csv").read_bytes()
            assert written == row_format_csv(matrix)

    def test_baseline_mode(self, tmp_path, noisy_matrix):
        """A known noise sd runs the PCA baseline at it."""
        path, y = noisy_matrix
        prefix = tmp_path / "bl"
        res = run_cli("denoise", str(path), "-o", str(prefix),
                      "--noise-sd", "2.2360679775")
        assert res.returncode == 0, res.stderr
        lib = baseline_estimate(y, noise_sd=2.2360679775)
        xhat = read_matrix_csv(f"{prefix}_xhat.csv")
        np.testing.assert_array_equal(xhat, lib.x_hat)

    @pytest.mark.parametrize("flag, word", [
        ("--eps=0", "eps"), ("--delta=-1", "delta"),
        ("--delta=nan", "delta"), ("--delta=inf", "delta"),
        ("--noise-sd=-1", "noise-sd"), ("--noise-sd=inf", "noise-sd"),
        ("--h=-1", "unrecognized arguments"),
        ("--h=inf", "unrecognized arguments")])
    def test_invalid_setting_is_usage_error(self, tmp_path, noisy_matrix,
                                            flag, word):
        # a flag of a removed setting is an unknown flag; a noise sd that
        # is not positive and finite is refused before the input is read
        path, _ = noisy_matrix
        prefix = tmp_path / "x"
        res = run_cli("denoise", str(path), "-o", str(prefix), *flag.split())
        assert res.returncode == 2, res.stderr
        assert word in res.stderr
        # the message names the flag that was given
        assert flag.split()[-1].split("=")[0] in res.stderr
        assert not Path(f"{prefix}_meta.txt").exists()

    @pytest.mark.parametrize("flag, value", [("--kde-bins", "4096"),
                                             ("--gamma", "1"),
                                             ("--mode", "star"),
                                             ("--mode", "baseline"),
                                             ("--mode", "adaptive"),
                                             ("--h", "0.3"),
                                             ("--h-prime", "0.3"),
                                             ("--noise", "1"),
                                             ("--del", "0.1")])
    def test_deleted_option_is_usage_error(self, tmp_path, noisy_matrix,
                                           flag, value):
        """The grid size is fixed, the aspect ratio is the input's m/n,
        the adaptive pipeline writes X*, a known noise sd alone picks the
        baseline, the bandwidths follow the input's shape and eps and
        delta are constants: none is an option.  No
        prefix of a flag is read as that flag: `--h` is not `--help`
        and `--noise` not `--noise-sd`."""
        path, _ = noisy_matrix
        prefix = tmp_path / "x"
        res = run_cli("denoise", str(path), "-o", str(prefix), flag, value)
        assert res.returncode == 2, res.stderr
        assert flag in res.stderr
        assert not Path(f"{prefix}_meta.txt").exists()

    def test_unreadable_input_is_usage_error(self, tmp_path):
        res = run_cli("denoise", str(tmp_path), "-o", str(tmp_path / "x"))
        assert res.returncode == 2, res.stderr
        assert str(tmp_path) in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("mode", [
        [], ["--noise-sd", "1"]],
        ids=["adaptive", "baseline"])
    def test_unwritable_output_is_runtime_error(self, tmp_path, noisy_matrix,
                                                mode):
        path, _ = noisy_matrix
        prefix = tmp_path / "missing_dir" / "p"
        res = run_cli("denoise", str(path), "-o", str(prefix), *mode)
        assert res.returncode == 1, res.stderr
        assert "cannot write outputs" in res.stderr
        assert str(prefix) in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("mode", [
        [], ["--noise-sd", "1"]],
        ids=["adaptive", "baseline"])
    @pytest.mark.parametrize("blocked", ["dir", "meta"])
    def test_unwritable_output_fails_before_denoising(
            self, tmp_path, noisy_matrix, monkeypatch, capsys, mode, blocked):
        """Each output path is checked once the input is read and before
        the input is denoised: with the prefix's directory missing, or
        only the meta file's path taken by a directory, neither estimator
        runs and no file is written."""
        def no_estimate(*args, **kwargs):
            raise AssertionError("the input was denoised")

        monkeypatch.setattr(cli, "denoise", no_estimate)
        monkeypatch.setattr(cli, "baseline_estimate", no_estimate)
        path, _ = noisy_matrix
        out = tmp_path / "out"
        out.mkdir()
        if blocked == "meta":
            (out / "p_meta.txt").mkdir()
        prefix = out / "p" if blocked == "meta" else out / "missing" / "p"
        assert main(["denoise", str(path), "-o", str(prefix), *mode]) == 1
        err = capsys.readouterr().err
        assert "cannot write outputs" in err and str(prefix) in err
        assert [p.name for p in out.iterdir()] == (
            ["p_meta.txt"] if blocked == "meta" else [])

    def test_decomposition_failure_is_runtime_error(self, tmp_path,
                                                    noisy_matrix,
                                                    monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("adadenoise.estimator.gram_svd", fail)
        path, _ = noisy_matrix
        code = main(["denoise", str(path), "-o", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "spectral decomposition failed" in err
        assert "Eigenvalues did not converge" in err

    @pytest.mark.parametrize("mode", [
        [], ["--noise-sd", "1"]],
        ids=["adaptive", "baseline"])
    def test_spectrum_failure_leaves_no_output(self, tmp_path, noisy_matrix,
                                               monkeypatch, capsys, mode):
        """The full spectrum (`sigma0`, for the meta file) is taken after
        the estimate; its failure still comes before any file is
        written."""
        fail_lapack(monkeypatch, "dsterf")
        path, _ = noisy_matrix
        out = tmp_path / "out"
        out.mkdir()
        code = main(["denoise", str(path), "-o", str(out / "x"), *mode])
        assert code == 1
        err = capsys.readouterr().err
        assert "spectral decomposition failed" in err and "dsterf" in err
        assert not any(out.iterdir())

    def test_overflowing_input_is_runtime_error(self, tmp_path, capsys):
        """A top singular value above the largest double fails, with the
        cause named, before any file is written."""
        path = tmp_path / "big.csv"
        write_matrix_csv(np.full((30, 40), 1e307), path)
        code = main(["denoise", str(path), "-o", str(tmp_path / "z"),
                     "--noise-sd", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "denoising failed" in err
        assert "exceeds the largest double" in err
        assert not Path(f"{tmp_path / 'z'}_meta.txt").exists()

    def test_input_whose_squares_overflow_is_denoised(self, tmp_path):
        """Entries whose squares overflow a double are denoised at unit
        scale into finite files."""
        y = 1e160 * np.random.default_rng(73).standard_normal((30, 40))
        path = tmp_path / "big.csv"
        write_matrix_csv(y, path)
        prefix = tmp_path / "x"
        code = main(["denoise", str(path), "-o", str(prefix),
                     "--noise-sd", "1"])
        assert code == 0
        x_hat = read_matrix_csv(f"{prefix}_xhat.csv")
        assert np.array_equal(
            x_hat, baseline_estimate(read_matrix_csv(path), 1.0).x_hat)
        assert "k_hat = 30\n" in Path(f"{prefix}_meta.txt").read_text()

    def test_input_whose_squares_underflow_is_denoised(self, tmp_path):
        """Nonzero entries whose squares underflow a double are denoised
        at unit scale into finite files, with the unit-scale k_hat."""
        y = np.random.default_rng(76).standard_normal((30, 40))
        path = tmp_path / "small.csv"
        write_matrix_csv(1e-170 * y, path)
        prefix = tmp_path / "x"
        code = main(["denoise", str(path), "-o", str(prefix),
                     "--noise-sd", "1e-170"])
        assert code == 0
        x_hat = read_matrix_csv(f"{prefix}_xhat.csv")
        assert np.array_equal(
            x_hat, baseline_estimate(read_matrix_csv(path), 1e-170).x_hat)
        k_hat = baseline_estimate(y, noise_sd=1.0).k_hat
        assert (f"k_hat = {k_hat}\n"
                in Path(f"{prefix}_meta.txt").read_text())

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,four\n")
        res = run_cli("denoise", str(bad), "-o", str(tmp_path / "x"))
        assert res.returncode == 2
        assert "malformed" in res.stderr

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_input_names_the_line(self, tmp_path, token):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1,2\n3,{token}\n")
        res = run_cli("denoise", str(bad), "-o", str(tmp_path / "x"))
        assert res.returncode == 2, res.stderr
        assert (f"malformed input: {bad}:2: non-finite entry '{token}'"
                in res.stderr)
        assert not (tmp_path / "x_meta.txt").exists()

    def test_non_utf8_input_is_usage_error(self, tmp_path):
        bad = tmp_path / "bin.csv"
        bad.write_bytes(b"\xff\xfe1,2\n")
        res = run_cli("denoise", str(bad), "-o", str(tmp_path / "x"))
        assert res.returncode == 2, res.stderr
        assert f"malformed input: {bad}: " in res.stderr
        assert "Traceback" not in res.stderr

    def test_missing_input(self, tmp_path):
        res = run_cli("denoise", str(tmp_path / "none.csv"), "-o",
                      str(tmp_path / "x"))
        assert res.returncode == 2


class TestTheory:
    def test_forward_map_value(self):
        res = run_cli("theory", "--what", "H", "--gamma", "1", "--sigma", "2")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "sigma,H"
        sigma, value = lines[1].split(",")
        assert float(sigma) == 2.0 and float(value) == pytest.approx(2.5)

    def test_overlap_matches_library(self):
        res = run_cli("theory", "--what", "overlap", "--gamma", "1",
                      "--t", "0.7256", "--sigma", "4")
        value = float(res.stdout.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(overlap_limit(4.0, 0.7256, 1.0),
                                      rel=1e-9)

    def test_error_linear_branch(self):
        res = run_cli("theory", "--what", "error", "--t", "0.7256",
                      "--sigma", "0.5")
        value = float(res.stdout.strip().splitlines()[1].split(",")[1])
        assert value == 0.5

    def test_sigma_grid_rows(self):
        res = run_cli("theory", "--what", "H", "--sigma", "1:3:0.5")
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 1 + 5

    def test_invalid_what_is_usage_error(self):
        res = run_cli("theory", "--what", "nonsense", "--sigma", "2")
        assert res.returncode == 2

    def test_overlap_requires_t(self):
        res = run_cli("theory", "--what", "overlap", "--sigma", "2")
        assert res.returncode == 2
        assert "--t" in res.stderr

    def test_inverse_below_edge_is_usage_error(self):
        res = run_cli("theory", "--what", "Hinv", "--sigma", "1.5")
        assert res.returncode == 2

    @pytest.mark.parametrize("args, message", [
        (["--what", "overlap", "--t", "1", "--sigma", "2", "--gamma", "0"],
         "aspect ratio must be positive and finite"),
        (["--what", "overlap", "--t", "1", "--sigma", "2", "--gamma", "-1"],
         "aspect ratio must be positive and finite"),
        (["--what", "overlap", "--t", "1", "--sigma", "2", "--gamma", "nan"],
         "aspect ratio must be positive and finite"),
        (["--what", "error", "--t", "1", "--sigma", "nan"],
         "bad grid spec 'nan'"),
        (["--what", "H", "--sigma", "nan"], "bad grid spec 'nan'"),
        (["--what", "Hinv", "--sigma", "inf"], "bad grid spec 'inf'"),
        (["--what", "H", "--sigma", "1,nan"], "bad grid spec '1,nan'"),
        (["--what", "H", "--sigma", "1:1e308:1e-308"],
         "bad grid spec '1:1e308:1e-308'"),
        (["--what", "H", "--sigma", "0:1e300:1"],
         "bad grid spec '0:1e300:1'"),
    ], ids=["gamma-zero", "gamma-negative", "gamma-nan", "sigma-nan",
            "H-sigma-nan", "Hinv-sigma-inf", "H-sigma-list-nan",
            "H-sigma-range-infinite", "H-sigma-range-huge"])
    def test_out_of_domain_input_is_usage_error(self, args, message):
        res = run_cli("theory", *args)
        assert res.returncode == 2, res.stdout
        assert message in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
