"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them live) and
then asserts every clause at its stated tolerance.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from adadenoise import (Gaussian, GaussianMixture, bulk_edge, debiased_sv,
                        denoise_entrywise, inflated_sv, kde_binned,
                        make_signal, op_norm, overlap_limit, shrink_known_sd,
                        SignalSpec)
from adadenoise.estimator import DELTA, EPS
from adadenoise.sim import ROLE_W, derive_seed

from conftest import (cell_mean, check_spectral_map_perturbation, kde_exact,
                      package_env, score_parts)

REPO = Path(__file__).resolve().parents[1]
MIXTURE_INFO = 0.7256


def report(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " — " + "; ".join(failures)
    print(f"\nACCEPTANCE {number} ({label}): {status}{detail}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_1_mixture_fisher_information():
    t0 = time.perf_counter()
    value = GaussianMixture(2.0).fisher_info()
    elapsed = time.perf_counter() - t0
    failures = []
    if abs(value - MIXTURE_INFO) > 5e-4:
        failures.append(f"fisher_info = {value:.6f}, want {MIXTURE_INFO} +- 5e-4")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(1, "mixture Fisher information", failures)


def test_criterion_2_mixture_variance():
    t0 = time.perf_counter()
    draws = GaussianMixture(2.0).sample(1000, 1000, seed=7)
    var = float(draws.var())
    elapsed = time.perf_counter() - t0
    failures = []
    if not 4.95 <= var <= 5.05:
        failures.append(f"sample variance {var:.4f} outside [4.95, 5.05]")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(2, "mixture variance", failures)


def test_criterion_3_information_estimate_adaptivity():
    t0 = time.perf_counter()
    model = GaussianMixture(2.0)
    vals = [denoise_entrywise(model.sample(400, 400, seed=s))[1]
            for s in range(20)]
    mean = float(np.mean(vals))
    elapsed = time.perf_counter() - t0
    failures = []
    if not 0.68 <= mean <= 0.78:
        failures.append(f"mean i_hat over 20 trials = {mean:.4f}, "
                        f"outside [0.68, 0.78]")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report(3, "information estimate adaptivity", failures)


def test_criterion_4_subspace_recovery_curve(mc_grid):
    failures = []
    baseline_failed = False
    for sigma1 in (2.0, 3.0, 4.0):
        records = mc_grid[sigma1]
        ov_a = cell_mean(records, "overlaps_adaptive", 0)
        ov_b = cell_mean(records, "overlaps_baseline", 0)
        lim_a = overlap_limit(sigma1, MIXTURE_INFO, 1.0)
        lim_b = overlap_limit(sigma1, 0.2, 1.0)
        if abs(ov_a - lim_a) > 0.08:
            failures.append(f"adaptive overlap at sigma1={sigma1}: "
                            f"|{ov_a:.4f} - {lim_a:.4f}| > 0.08")
        if abs(ov_b - lim_b) > 0.08:
            failures.append(f"baseline overlap at sigma1={sigma1}: "
                            f"|{ov_b:.4f} - {lim_b:.4f}| > 0.08")
            baseline_failed = True
        if not ov_a >= ov_b + 0.05:
            failures.append(f"adaptive {ov_a:.4f} does not beat baseline "
                            f"{ov_b:.4f} by 0.05 at sigma1={sigma1}")
    if mc_grid.build_seconds >= 600:
        failures.append(f"grid runtime {mc_grid.build_seconds:.0f}s >= 600s")
    if baseline_failed:
        failures.append(f"cause: {_baseline_theta((2.0, 3.0, 4.0))}")
    report(4, "subspace recovery curve", failures)


def _baseline_theta(sigmas):
    """The PCA baseline sees the spike at theta = sigma1 / sd(W); at the
    square aspect ratio it is detectable only above theta = 1, and near
    that threshold its overlap decays to the limit only slowly in n."""
    sd = math.sqrt(GaussianMixture(2.0).variance())
    thetas = ", ".join(f"{s / sd:.3f} at sigma1={s}" for s in sigmas)
    return (f"baseline theta = sigma1/sd(W) = {thetas}; detection threshold "
            f"theta = 1, and near it the finite-n overlap stays above the "
            f"n -> infinity limit")


def test_criterion_5_denoising_error_curve(mc_grid):
    failures = []
    floor_a = MIXTURE_INFO ** -0.5
    for sigma1 in (0.4, 2.0, 4.0):
        err_a = cell_mean(mc_grid[sigma1], "err_adaptive")
        lim_a = min(sigma1, floor_a)
        if abs(err_a - lim_a) > 0.12:
            failures.append(f"adaptive error at sigma1={sigma1}: "
                            f"|{err_a:.4f} - {lim_a:.4f}| > 0.12")
            # computed only on failure: a passing run costs nothing
            failures.append(f"cause: {_oracle_error(mc_grid[sigma1])}")
    err_b = cell_mean(mc_grid[4.0], "err_baseline")
    lim_b = min(4.0, math.sqrt(5.0))
    if abs(err_b - lim_b) > 0.12:
        failures.append(f"baseline error at sigma1=4.0: "
                        f"|{err_b:.4f} - {lim_b:.4f}| > 0.12")
    if mc_grid.build_seconds >= 600:
        failures.append(f"grid runtime {mc_grid.build_seconds:.0f}s >= 600s")
    report(5, "denoising error curve", failures)


def _oracle_error(records):
    """Mean error of the oracle pipeline (the true score, shrunk with the
    true Fisher information) on the same trials as `records`."""
    model = GaussianMixture(2.0)
    fisher = model.fisher_info()
    errs = []
    for rec in records:
        spec = SignalSpec(m=rec.m, n=rec.n, r=rec.r, sigmas=(rec.sigma1,))
        x, _, _ = make_signal(spec, rec.seed)
        y = x + model.sample(rec.m, rec.n, derive_seed(rec.seed, ROLE_W))
        scale = (rec.m * rec.n) ** 0.25
        u, s, vt = np.linalg.svd(model.score(y), full_matrices=False)
        shrunk, k = shrink_known_sd(s / scale / fisher, fisher ** -0.5,
                                    DELTA, rec.m / rec.n)
        x_hat = scale * (u[:, :k] * shrunk[:k]) @ vt[:k]
        errs.append(op_norm(x_hat - x) / scale)
    sigma1 = records[0].sigma1
    return (f"oracle-score error at sigma1={sigma1} on the same "
            f"{len(records)} trials = {np.mean(errs):.4f} (measured "
            f"{cell_mean(records, 'err_adaptive'):.4f}); the excess over "
            f"1/sqrt(I) comes from the entrywise nonlinearity and shrinks "
            f"with n")


def test_criterion_6_weak_recovery_threshold(mc_grid):
    failures = []
    below = cell_mean(mc_grid[0.2], "overlaps_adaptive", 0)
    above = cell_mean(mc_grid[2.0], "overlaps_adaptive", 0)
    if not below < 0.25:
        failures.append(f"sub-threshold overlap {below:.4f} >= 0.25")
    if not above > 0.5:
        failures.append(f"supra-threshold overlap {above:.4f} <= 0.5")
    report(6, "weak recovery threshold", failures)


def test_criterion_7_spiked_spectral_law():
    t0 = time.perf_counter()
    n = 400
    scale = (n * n) ** 0.25
    spec = SignalSpec(m=n, n=n, r=1, sigmas=(2.0,))
    spiked, pure = [], []
    for s in range(20):
        x, _, _ = make_signal(spec, seed=9000 + s)
        w = Gaussian(1.0).sample(n, n, derive_seed(9000 + s, ROLE_W))
        spiked.append(np.linalg.svd(x + w, compute_uv=False)[0] / scale)
        w2 = Gaussian(1.0).sample(n, n, derive_seed(9500 + s, ROLE_W))
        pure.append(np.linalg.svd(w2, compute_uv=False)[0] / scale)
    elapsed = time.perf_counter() - t0
    failures = []
    top_spiked = float(np.mean(spiked))
    top_pure = float(np.mean(pure))
    want_spiked = inflated_sv(2.0, 1.0)
    want_pure = bulk_edge(1.0)
    if abs(top_spiked - want_spiked) > 0.05:
        failures.append(f"spiked top value {top_spiked:.4f}, "
                        f"want {want_spiked} +- 0.05")
    if abs(top_pure - want_pure) > 0.06:
        failures.append(f"pure-noise top value {top_pure:.4f}, "
                        f"want {want_pure} +- 0.06")
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    report(7, "spiked spectral law", failures)


def _check_inverse_vs_bisection(failures, rng):
    for _ in range(1000):
        gamma = float(rng.choice([0.5, 1.0, 4.0]))
        edge = bulk_edge(gamma)
        y = float(rng.uniform(edge, 20.0))
        lo, hi = 1.0, y + 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if inflated_sv(mid, gamma) < y:
                lo = mid
            else:
                hi = mid
        if abs(debiased_sv(y, gamma) - 0.5 * (lo + hi)) > 1e-8:
            failures.append(f"closed-form inverse off at y={y:.4f}, "
                            f"gamma={gamma}")
            return


def _check_binned_vs_exact(failures):
    samples = GaussianMixture(2.0).sample(100, 100, seed=60).ravel()
    h = 1.2 * samples.size ** -0.2
    est = kde_binned(samples, h, samples.size ** (-1 / 7))
    exact = kde_exact(samples, est.grid, h)
    gap = float(np.max(np.abs(est.density - exact)))
    tol = 1e-3 * float(np.max(exact))
    if gap > tol:
        failures.append(f"binned vs exact KDE gap {gap:.2e} > {tol:.2e}")


def _check_gaussian_score_identity(failures):
    y = Gaussian(1.0).sample(400, 400, seed=0)
    scored = score_parts(y)
    i_hat = denoise_entrywise(y)[1]
    t = np.linspace(-3.0, 3.0, 241)
    fitted = scored.factor * scored.kde.evaluate(t, scored.psi) / i_hat
    dev = float(np.max(np.abs(fitted - t)))
    if dev >= 0.15:
        failures.append(f"score map max deviation {dev:.3f} >= 0.15 "
                        f"on |y| <= 3")
        failures.append(f"cause: {_exact_score_deviation(t, EPS)}")


def _exact_score_deviation(t, eps):
    """Closed-form deviation from the identity, on the points `t`, of the
    eps-regularized score of the exact unit Gaussian density."""
    dev = np.abs(Gaussian(1.0).score(t, eps) - t)
    worst = int(np.argmax(dev))
    return (f"the exact Gaussian density's score with eps={eps:g} already "
            f"deviates by {dev[worst]:.3f} at |y|={abs(t[worst]):.2f}, so "
            f"even the exact density misses the bound at this eps")


def _check_perturbation_inequality(failures, rng):
    fisher = MIXTURE_INFO
    root = math.sqrt(fisher)
    tau = root * bulk_edge(1.0)
    zeta = 6.0
    holder = (4.0 / fisher * zeta ** 0.75, 0.25)

    def f(s):
        return debiased_sv(s / root, 1.0) / root if s >= tau else 0.0

    held = 0
    for _ in range(100):
        q1, _ = np.linalg.qr(rng.standard_normal((9, 7)))
        q2, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        a = (q1 * [5.0, 4.0, 1.0, 0.8, 0.5, 0.3, 0.2]) @ q2.T
        e = rng.standard_normal((9, 7))
        e *= 0.45 / op_norm(e)
        res = check_spectral_map_perturbation(a, e, f, k=2, holder=holder,
                                              window=(tau, zeta), gap=1.0)
        if res.status == "fails":
            failures.append(f"perturbation bound violated: lhs={res.lhs:.4f} "
                            f"rhs={res.rhs:.4f}")
            return
        if res.status == "holds":
            held += 1
    if held < 100:
        failures.append(f"perturbation hypothesis met in only {held}/100 "
                        f"instances")


def _check_weyl(failures, rng):
    for _ in range(100):
        a = rng.standard_normal((8, 6))
        e = 0.5 * rng.standard_normal((8, 6))
        sa = np.linalg.svd(a, compute_uv=False)
        sae = np.linalg.svd(a + e, compute_uv=False)
        if np.max(np.abs(sae - sa)) > op_norm(e) + 1e-10:
            failures.append("Weyl inequality violated")
            return


def test_criterion_8_oracle_equivalences():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(61)
    _check_inverse_vs_bisection(failures, rng)
    _check_binned_vs_exact(failures)
    _check_gaussian_score_identity(failures)
    _check_perturbation_inequality(failures, rng)
    _check_weyl(failures, rng)
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(8, "oracle equivalences", failures)


def test_criterion_9_simulation_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = REPO / "configs" / "smoke.cfg"
    outputs = []
    for run in ("a", "b"):
        cwd = tmp_path / run
        cwd.mkdir()
        res = subprocess.run([sys.executable, "-m", "adadenoise.cli",
                              "simulate", str(cfg)],
                             capture_output=True, text=True, cwd=cwd,
                             env=package_env())
        assert res.returncode == 0, res.stderr
        outputs.append((cwd / "smoke_results.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    failures = []
    if outputs[0] != outputs[1]:
        failures.append("re-running the smoke config changed the CSV")
    if elapsed >= 20:
        failures.append(f"runtime {elapsed:.1f}s >= 20s")
    report(9, "simulation determinism", failures)
