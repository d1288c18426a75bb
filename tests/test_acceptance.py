"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each criterion is asserted at its stated tolerance and runtime budget.
"""

import time

import numpy as np

import saddle_raar as sr
from saddle_raar.experiments import cdp_case_run, cdp_case_suite, paired_success_cells
from saddle_raar.operators import split_lift
from saddle_raar.solvers import (
    ParameterSchedule,
    StoppingRule,
    drs_fixed_point_residuals,
    run,
)
from conftest import FejerStream

_cache = {}


def _timed(key, builder):
    if key not in _cache:
        t0 = time.perf_counter()
        value = builder()
        _cache[key] = (value, time.perf_counter() - t0)
    return _cache[key]


def _report(num, ok, description, detail, seconds, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} - {description}: {detail} [{seconds:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert seconds < budget, f"criterion {num} exceeded runtime budget: {seconds:.1f}s"


def test_criterion_01_reflection_multiplier_equivalence():
    t0 = time.perf_counter()
    E = sr.build_gaussian_ensemble(16, 48, seed=7)
    rng = np.random.default_rng(3)
    b = np.abs(E.apply_adjoint(rng.standard_normal(16) + 1j * rng.standard_normal(16)))
    worst = 0.0
    for beta in (0.6, 0.9):
        w = sr.random_lift(E.N, seed=42)
        state = sr.initial_state(E, b, "admm", w)
        for _ in range(50):
            w = sr.raar_step(E, b, w, beta)
            lam_prev = state.lam
            state = sr.admm_step(E, b, state, beta=beta)
            w_prime = state.y + lam_prev
            worst = max(worst, np.linalg.norm(w_prime - w) / np.linalg.norm(w))
    _report(
        1, worst <= 1e-10,
        "reflection iteration equals its multiplier form (n=16, N=48, beta 0.6/0.9, 50 steps)",
        f"max relative deviation {worst:.2e} (tol 1e-10)",
        time.perf_counter() - t0, 1.0,
    )


def test_criterion_02_alternating_projection_reduction():
    t0 = time.perf_counter()
    E = sr.build_gaussian_ensemble(16, 48, seed=7)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    b = np.abs(E.apply_adjoint(x0))
    a = E.materialize_adjoint()
    p = a @ a.conj().T
    w = E.apply_adjoint(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    w_ap = w.copy()
    worst = 0.0
    for _ in range(100):
        w = sr.raar_step(E, b, w, 0.5)
        w_ap = p @ (b * w_ap / np.abs(w_ap))
        worst = max(worst, np.linalg.norm(w - w_ap) / np.linalg.norm(w_ap))
    _report(
        2, worst <= 1e-12,
        "half-relaxation run from the measurement range equals alternating projections (100 steps)",
        f"max relative deviation {worst:.2e} (tol 1e-12)",
        time.perf_counter() - t0, 1.0,
    )


def test_criterion_03_fixed_point_certificate():
    t0 = time.perf_counter()
    E = sr.build_gaussian_ensemble(16, 64, seed=1)
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    z_star = E.apply_adjoint(x0)
    b = np.abs(z_star)
    ok = True
    detail = []
    for beta in np.linspace(0.05, 0.95, 19):
        cert = sr.certify_fixed_point(E, b, z_star, float(beta))
        ok &= cert.certified
        ok &= np.max(np.abs(cert.c - b)) <= 1e-10 * np.max(b)
        ok &= cert.beta_max >= 1.0 - 1e-12
    detail.append("noiseless solution certified for all beta with c=b and beta_max=1")

    result = run(E, b, "raar", ParameterSchedule.constant(0.9), sr.random_lift(E.N, seed=3), 3000,
                 StoppingRule(residual_tol=1e-12, deriv_tol=0.0))
    cert = sr.certify_fixed_point(E, b, result.state.w, 0.9)
    tol = 1e-8 * np.linalg.norm(b)
    ok &= cert.phase_residual <= tol and cert.magnitude_ok
    detail.append(f"converged beta=0.9 run: phase residual {cert.phase_residual:.2e} (tol {tol:.2e})")
    _report(3, bool(ok), "fixed-point certificate", "; ".join(detail),
            time.perf_counter() - t0, 5.0)


def test_criterion_04_spectral_gap_bounds_tangent_curvature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    x0 = np.exp(2j * np.pi * rng.random((8, 8))).reshape(-1)
    worst_gap = 0.0
    worst_slack = np.inf
    ok = True
    for seed in range(20):
        E = sr.build_cdp_ensemble((8, 8), seed=seed)
        gap = sr.spectral_gap(E, x0, grid=(8, 8))
        z_star = E.apply_adjoint(x0)
        cert = sr.certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star))
        ok &= gap.lambda2 < 1.0
        ok &= cert.hessian_min_eig >= 1.0 - gap.lambda2 - 1e-8
        worst_gap = max(worst_gap, gap.lambda2)
        worst_slack = min(worst_slack, cert.hessian_min_eig - (1.0 - gap.lambda2))
    _report(
        4, bool(ok),
        "spectral gap below one bounds the tangent Hessian (20 mask seeds, 8x8)",
        f"max lambda2 {worst_gap:.6f}; min slack above 1-lambda2: {worst_slack:.2e}",
        time.perf_counter() - t0, 30.0,
    )


def test_criterion_05_dual_gradient_finite_differences():
    t0 = time.perf_counter()
    E = sr.build_gaussian_ensemble(16, 48, seed=7)
    rng = np.random.default_rng(2)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        beta = 0.05 + 0.9 * rng.random()
        b = 0.5 + rng.random(E.N)
        z = sr.project_torus(rng.standard_normal(E.N) + 1j * rng.standard_normal(E.N), b)
        lam = 0.3 * (rng.standard_normal(E.N) + 1j * rng.standard_normal(E.N))
        g = sr.dual_gradient(E, z, lam, beta)
        d = rng.standard_normal(E.N) + 1j * rng.standard_normal(E.N)
        d /= np.linalg.norm(d)
        fd = (sr.objective(E, z, lam + h * d, beta) - sr.objective(E, z, lam - h * d, beta)) / (2 * h)
        expected = float(np.real(np.vdot(g, d)))
        worst = max(worst, abs(fd - expected) / max(abs(expected), 1e-12))
    _report(
        5, worst <= 1e-6,
        "dual gradient matches central finite differences (20 random points)",
        f"max relative deviation {worst:.2e} (tol 1e-6)",
        time.perf_counter() - t0, 1.0,
    )


def test_criterion_06_gaussian_success_rates():
    t0 = time.perf_counter()
    sweep, _ = _timed("sweep", lambda: paired_success_cells(
        n=100, ratio=4.0, beta=0.9, trials=40, seed=0))
    raar = sweep.cell("raar", 4.0, 0.9)
    drs = sweep.cell("drs", 4.0, 1.0 / 9.0)
    ok = raar.success_rate >= 0.60 and drs.success_rate >= 0.50
    _report(
        6, bool(ok),
        "Gaussian success rates at ratio 4 (40 trials)",
        f"relaxation 0.9: {raar.success_rate:.2f} (>= 0.60); paired penalty 1/9: {drs.success_rate:.2f} (>= 0.50)",
        time.perf_counter() - t0, 300.0,
    )


def _case_a():
    return cdp_case_suite("a", grid=(32, 32), seed=0)


def test_criterion_07_cdp_noiseless_all_paths_recover():
    t0 = time.perf_counter()
    suite, build_s = _timed("case_a", _case_a)
    x0 = suite.instance.phantom.values
    ok = True
    worst_res = worst_err = 0.0
    for p in suite.paths:
        ok &= p.final_residual <= 1e-6
        ok &= sr.aligned_error(p.x_final, x0) <= 1e-6
        ok &= p.tail_t_ratio_positive
        worst_res = max(worst_res, p.final_residual)
        worst_err = max(worst_err, p.aligned_error)
    _report(
        7, bool(ok),
        "noiseless 32x32 phantom: all five relaxation paths reach the solution",
        f"max residual {worst_res:.2e}, max aligned error {worst_err:.2e} (tol 1e-6); basin indicator positive over final 100",
        (time.perf_counter() - t0) + build_s, 300.0,
    )


def test_criterion_08_cdp_noisy_paths_agree():
    t0 = time.perf_counter()
    suite, build_s = _timed("case_c", lambda: cdp_case_suite("c", grid=(32, 32), seed=0))
    noise = suite.instance.noise
    b_norm = np.linalg.norm(suite.instance.b)
    ok = 0.171 <= noise.realized_level <= 0.189
    worst_d = max(p.final_deriv_norm for p in suite.paths)
    ok &= worst_d <= 1e-6 * b_norm
    min_corr = suite.pairwise_min_correlation()
    ok &= min_corr >= 0.99
    _report(
        8, bool(ok),
        "noisy 32x32 phantom: dual gradient settles and reconstructions agree",
        f"noise level {noise.realized_level:.4f} (0.18+-0.009); max dual gradient {worst_d:.2e} "
        f"(tol {1e-6 * b_norm:.2e}); min pairwise correlation {min_corr:.4f} (>= 0.99)",
        (time.perf_counter() - t0) + build_s, 300.0,
    )


def test_criterion_09_fejer_contraction_along_case_a():
    t0 = time.perf_counter()
    suite, _ = _timed("case_a", _case_a)
    inst = suite.instance
    E, b = inst.ensemble, inst.b
    z_star = E.apply_adjoint(inst.phantom.values)
    stream = FejerStream(E, b, z_star, np.zeros_like(z_star))  # holds two lifts, not the run's 601
    snap = []

    def observe(k, w):
        stream.on_iterate(k, w)
        if k == 300:
            snap.append(sr.reconstruct(E, *split_lift(w, b)))

    path = cdp_case_run(inst, 0.95, on_iterate=observe, on_record=stream.on_record)
    mon = stream.monitor()
    # the streamed lifts are the iterates themselves: the one at the hold (k = 300) gives the path's snapshot
    assert len(mon["distance"]) == 601
    assert snap[0].tobytes() == path.x_snapshot.tobytes()
    nonpos = np.where(mon["margin"] <= 0)[0]
    k0 = int(nonpos[-1]) + 2 if nonpos.size else 1
    ok = k0 < len(mon["distance"]) - 100
    window_d = mon["distance"][k0 - 1:]
    max_increase = float(np.max(np.diff(window_d)))
    ok &= max_increase <= 1e-8
    r_max = float(np.max(mon["ratio"][k0 - 1:]))
    ok &= r_max < 1.0
    bound = window_d[0] ** 2 / (1.0 - max(r_max, 0.0))
    t_sum = float(np.sum(mon["T"][k0 - 1:]))
    ok &= t_sum <= bound
    _report(
        9, bool(ok),
        "contraction along the positive-margin window of a noiseless run",
        f"window starts at step {k0}; max distance increase {max_increase:.2e} (tol 1e-8); "
        f"sum T {t_sum:.3e} <= bound {bound:.3e}",
        time.perf_counter() - t0, 60.0,
    )


def test_criterion_10_splitting_fixed_point_conditions():
    t0 = time.perf_counter()
    E = sr.build_gaussian_ensemble(16, 64, seed=1)
    rng = np.random.default_rng(5)
    b = np.abs(E.apply_adjoint(rng.standard_normal(16) + 1j * rng.standard_normal(16)))
    w0 = sr.random_lift(E.N, seed=0)
    result = run(E, b, "drs", ParameterSchedule.constant(0.25), w0, 6000,
                 StoppingRule(residual_tol=1e-13, deriv_tol=1e-12))
    resids = drs_fixed_point_residuals(E, b, result.state, 0.25)
    tol = 1e-8 * np.linalg.norm(b)
    ok = all(v <= tol for v in resids)
    _report(
        10, bool(ok),
        "splitting fixed-point conditions after a converged penalty-1/4 run",
        f"residuals (range dual, complement primal, torus gap) = "
        f"({resids[0]:.2e}, {resids[1]:.2e}, {resids[2]:.2e}), tol {tol:.2e}",
        time.perf_counter() - t0, 5.0,
    )
