import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from saddle_raar import (
    CodedDiffractionEnsemble,
    DimensionError,
    InvalidDataError,
    MeasurementEnsemble,
    aligned_error,
    beta_prime,
    build_cdp_ensemble,
    build_gaussian_ensemble,
    certify_cross_section_minimizer,
    certify_drs_cross_section,
    certify_fixed_point,
    correlation,
    criticality_vector,
    diagnostics,
    dual_gradient,
    global_phase,
    objective,
    project_torus,
    random_lift,
    spectral_gap,
)
from saddle_raar.analysis import _householder, _reflect, _tangent_form, beta_max_from_threshold
from saddle_raar.solvers import ParameterSchedule, StoppingRule, run
from conftest import (
    CountingEnsemble,
    assemble_complement_form,
    contraction_margin,
    convergence_functional,
    dense_spectral_gap,
    dual_gradient_norm,
    inequality_ratio,
    optimal_dual,
    random_complex,
    tangent_basis,
)


def _random_torus_pair(E, rng, b=None):
    if b is None:
        b = 0.5 + rng.random(E.N)
    z = project_torus(random_complex(rng, E.N), b)
    lam = 0.3 * random_complex(rng, E.N)
    return b, z, lam


class TestObjective:
    def test_zero_at_noiseless_solution(self, dense_wide):
        E, x0, _ = dense_wide
        z_star = E.apply_adjoint(x0)
        assert abs(objective(E, z_star, np.zeros_like(z_star), 0.8)) <= 1e-14

    def test_nonnegative_at_zero_dual(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(0)
        for _ in range(5):
            _, z, _ = _random_torus_pair(E, rng)
            val = objective(E, z, np.zeros_like(z), 0.6)
            qz = E.project_complement(z)
            assert val >= 0.0
            assert val == pytest.approx(0.3 * np.linalg.norm(qz) ** 2, rel=1e-12)

    def test_global_phase_invariance(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(1)
        _, z, lam = _random_torus_pair(E, rng)
        base = objective(E, z, lam, 0.7)
        for _ in range(10):
            alpha = np.exp(2j * np.pi * rng.random())
            val = objective(E, alpha * z, alpha * lam, 0.7)
            assert val == pytest.approx(base, rel=1e-12)


class TestDualGradient:
    def test_finite_differences(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(20):
            beta = 0.05 + 0.9 * rng.random()
            _, z, lam = _random_torus_pair(E, rng)
            g = dual_gradient(E, z, lam, beta)
            d = random_complex(rng, E.N)
            d /= np.linalg.norm(d)
            fwd = objective(E, z, lam + h * d, beta)
            bwd = objective(E, z, lam - h * d, beta)
            fd = (fwd - bwd) / (2.0 * h)
            expected = float(np.real(np.vdot(g, d)))
            assert fd == pytest.approx(expected, rel=1e-6, abs=1e-10)

    def test_norm_formula_at_zero_dual(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(3)
        _, z, _ = _random_torus_pair(E, rng)
        lam0 = np.zeros_like(z)
        beta = 0.65
        expected = beta * np.linalg.norm(E.project_complement(z))
        assert dual_gradient_norm(E, z, lam0, beta) == pytest.approx(expected, rel=1e-12)
        assert dual_gradient_norm(E, z, lam0, beta) == pytest.approx(
            np.linalg.norm(dual_gradient(E, z, lam0, beta)), rel=1e-12
        )

    def test_zero_at_noiseless_solution(self, dense_wide):
        E, x0, _ = dense_wide
        z_star = E.apply_adjoint(x0)
        assert dual_gradient_norm(E, z_star, np.zeros_like(z_star), 0.8) <= 1e-14


class TestOptimalDual:
    def test_range_vector_maps_to_zero(self, dense_small):
        E, x0, _ = dense_small
        z = E.apply_adjoint(x0)
        assert np.linalg.norm(optimal_dual(E, z, 0.7)) <= 1e-12 * np.linalg.norm(z)

    def test_gradient_vanishes_at_maximizer(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(4)
        _, z, _ = _random_torus_pair(E, rng)
        lam = optimal_dual(E, z, 0.8)
        assert np.linalg.norm(dual_gradient(E, z, lam, 0.8)) <= 1e-12 * np.linalg.norm(z)

    def test_half_beta_case(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(5)
        _, z, _ = _random_torus_pair(E, rng)
        assert np.allclose(optimal_dual(E, z, 0.5), -E.project_complement(z), atol=1e-14)

    def test_unit_beta_signaled(self, dense_small):
        E, _, _ = dense_small
        with pytest.raises(ValueError):
            optimal_dual(E, np.ones(E.N, complex), 1.0)


class TestCriticalityVector:
    def test_zero_at_noiseless_solution(self, dense_wide):
        E, x0, _ = dense_wide
        z_star = E.apply_adjoint(x0)
        q = criticality_vector(E, z_star, np.zeros_like(z_star))
        assert np.max(np.abs(q)) <= 1e-13

    def test_real_at_stagnated_limit(self):
        # a tight ratio makes alternating projections stagnate at a
        # non-global critical point, where the quotient is real but nonzero
        E = build_gaussian_ensemble(16, 32, seed=0)
        rng = np.random.default_rng(7)
        x0 = random_complex(rng, 16)
        b = np.abs(E.apply_adjoint(x0))
        w0 = random_lift(E.N, seed=1)
        result = run(
            E, b, "raar", ParameterSchedule.constant(0.5), w0, 20000,
            StoppingRule(residual_tol=0.0, deriv_tol=1e-13),
        )
        w = result.state.w
        z = project_torus(w, b)
        q0 = criticality_vector(E, z, np.zeros_like(z))
        assert np.linalg.norm(q0.imag) <= 1e-8 * max(1.0, np.linalg.norm(q0))

    def test_dual_scaling_identity(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(8)
        _, z, _ = _random_torus_pair(E, rng)
        beta = 0.75
        lam_star = optimal_dual(E, z, beta)
        q_at_dual = criticality_vector(E, z, lam_star)
        q0 = criticality_vector(E, z, np.zeros_like(z))
        assert np.allclose(q_at_dual, (1.0 + beta_prime(beta)) * q0, rtol=1e-12, atol=1e-14)


class TestFixedPointCertificate:
    def test_noiseless_solution_all_beta(self, dense_wide):
        E, x0, b = dense_wide
        z_star = E.apply_adjoint(x0)
        for beta in np.linspace(0.05, 0.95, 10):
            cert = certify_fixed_point(E, b, z_star, float(beta))
            assert cert.certified
            assert np.max(np.abs(cert.c - b)) <= 1e-10 * np.max(b)
            assert cert.beta_max >= 1.0 - 1e-12

    def test_converged_run_certifies(self, dense_wide):
        E, _, b = dense_wide
        w0 = random_lift(E.N, seed=3)
        result = run(
            E, b, "raar", ParameterSchedule.constant(0.9), w0, 3000,
            StoppingRule(residual_tol=1e-12, deriv_tol=0.0),
        )
        cert = certify_fixed_point(E, b, result.state.w, 0.9)
        assert cert.phase_residual <= 1e-8 * np.linalg.norm(b)
        assert cert.certified

    def test_threshold_arithmetic(self):
        assert beta_max_from_threshold(0.25) == pytest.approx(0.8)
        assert beta_max_from_threshold(0.0) == 1.0
        assert beta_max_from_threshold(-3.0) == 1.0

    def test_first_order_consistency_where_certified(self):
        # where the certificate passes, the zero-dual criticality vector is real
        E = build_gaussian_ensemble(16, 32, seed=2)
        rng = np.random.default_rng(9)
        b = np.abs(E.apply_adjoint(random_complex(rng, 16)))
        w0 = random_lift(E.N, seed=5)
        result = run(
            E, b, "raar", ParameterSchedule.constant(0.55), w0, 30000,
            StoppingRule(residual_tol=0.0, deriv_tol=1e-12),
        )
        w = result.state.w
        cert = certify_fixed_point(E, b, w, 0.55, tol=1e-7)
        assert cert.certified
        z = project_torus(w, b)
        q0 = criticality_vector(E, z, np.zeros_like(z))
        assert np.linalg.norm(q0.imag) <= 1e-8 * max(1.0, np.linalg.norm(q0))


class _TinyPair(MeasurementEnsemble):
    """n=1, N=2 ensemble with adjoint column (1, 1)/sqrt(2)."""

    kind = "tiny"

    def __init__(self):
        self.n, self.N = 1, 2
        self._a = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)

    def apply_adjoint(self, x, out=None):
        return np.matmul(self._a, self._check_object(x), out=out)

    def apply(self, w):
        return self._a.conj().T @ self._check_measurement(w)


class TestCrossSectionCertificate:
    def test_hand_computed_two_dim_case(self):
        E = _TinyPair()
        z = np.array([1.0 + 0.0j, 1.0 + 0.0j])
        cert = certify_cross_section_minimizer(E, z, np.zeros_like(z))
        # tangent space is the span of (1, -1)/sqrt(2); the complement form
        # there is exactly 1, and the zero-dual quotient vanishes
        assert cert.hessian_min_eig == pytest.approx(1.0, abs=1e-12)
        assert cert.first_order_defect <= 1e-14
        assert cert.rho == pytest.approx(0.0, abs=1e-14)
        assert cert.strict

    def test_zero_dual_multiplier_near_zero(self, cdp_8x8):
        E, x0, _ = cdp_8x8
        z_star = E.apply_adjoint(x0)
        cert = certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star))
        assert abs(cert.rho) <= 1e-12
        assert cert.first_order_defect <= 1e-10

    def test_hessian_symmetry_and_eig_residual(self, cdp_8x8):
        E, x0, _ = cdp_8x8
        z_star = E.apply_adjoint(x0)
        u = z_star / np.abs(z_star)
        kperp = assemble_complement_form(E, u)
        assert np.linalg.norm(kperp - kperp.T) <= 1e-12 * np.linalg.norm(kperp)
        cert = certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star))
        assert cert.eig_residual <= 1e-8

    def test_gap_bound(self, cdp_8x8):
        E, x0, _ = cdp_8x8
        gap = spectral_gap(E, x0, grid=(8, 8))
        z_star = E.apply_adjoint(x0)
        cert = certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star))
        assert gap.lambda2 < 1.0
        assert cert.hessian_min_eig >= 1.0 - gap.lambda2 - 1e-8

    def test_scale_relation(self, dense_small):
        # quadratic-form identity relating the dual-shifted and zero-dual
        # tangent Hessians: (1-beta) <xi, (K - diag Re q(z, l*)) xi>
        # = <xi, (K - diag Re q0) xi> - beta <xi, K xi> on the tangent space
        E, _, _ = dense_small
        rng = np.random.default_rng(10)
        b, z, _ = _random_torus_pair(E, rng)
        beta = 0.72
        lam_star = optimal_dual(E, z, beta)
        q_dual = np.real(criticality_vector(E, z, lam_star))
        q0 = np.real(criticality_vector(E, z, np.zeros_like(z)))
        u = z / np.abs(z)
        basis = tangent_basis(b)
        for _ in range(10):
            xi = basis @ rng.standard_normal(basis.shape[1])
            k_xi = np.linalg.norm(E.project_complement(u * xi)) ** 2
            lhs = (1.0 - beta) * (k_xi - np.dot(xi, q_dual * xi))
            rhs = (k_xi - np.dot(xi, q0 * xi)) - beta * k_xi
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_noiseless_beta_bounds_are_full(self, cdp_8x8):
        E, x0, _ = cdp_8x8
        z_star = E.apply_adjoint(x0)
        cert = certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star), beta=0.9)
        assert cert.beta_bound == pytest.approx(1.0, abs=1e-9)
        assert cert.beta_ok

    def test_drs_curvature_at_solution(self, dense_wide):
        E, x0, b = dense_wide
        z_star = E.apply_adjoint(x0)
        cert = certify_drs_cross_section(E, b, z_star, rho=0.25)
        assert cert.converged
        assert cert.hessian_min_eig >= -1e-10



def _dense_oracle_forms(E, z):
    """Range projector, and the phase-conjugated complement form on the support of ``z``, from ``A*``."""
    a = E.materialize_adjoint()
    p = a @ a.conj().T
    s = np.abs(z) > 0
    u = z[s] / np.abs(z[s])
    k = np.real(np.conj(u)[:, None] * (np.eye(E.N) - p)[np.ix_(s, s)] * u[None, :])
    return p, 0.5 * (k + k.T)


def _on_null_space(m, b):
    basis = scipy.linalg.null_space(b[None, :])
    r = basis.T @ m @ basis
    return 0.5 * (r + r.T)


def _cross_section_oracle(E, z, lam):
    """Certificate values written out from the definitions on the support
    of ``z``: explicit null-space basis, full eigen-solve, both
    generalized solves."""
    p, kperp = _dense_oracle_forms(E, z)
    s = np.abs(z) > 0
    b = np.abs(z[s])
    q = np.real((z - lam - p @ (z - lam))[s] / z[s])
    q0 = np.real((z - p @ z)[s] / z[s])
    min_eig = scipy.linalg.eigh(_on_null_space(kperp - np.diag(q), b), eigvals_only=True)[0]
    g2 = _on_null_space(kperp, b)
    saddle = scipy.linalg.eigh(_on_null_space(kperp - np.diag(q0), b), g2, eigvals_only=True)[0]
    nu = scipy.linalg.eigh(_on_null_space(np.diag(q0), b), g2, eigvals_only=True)[-1]
    return min_eig, min(max(saddle, 0.0), 1.0), min(max(1.0 - 2.0 * nu, 0.0), 1.0)


class TestDenseCertificateOracle:
    def test_implicit_restriction_matches_basis_products(self):
        # the dense branch restricts K_perp = I - F F^T through the reflected
        # factor, and diag(d) in closed form, into the lower triangle of one form
        rng = np.random.default_rng(4)
        for n, sign, tail in ((7, 1.0, 1.0), (30, -1.0, 1.0), (64, 1.0, 1.0), (9, 1.0, 1e-9)):
            b = tail * (rng.random(n) + 0.1)
            b[0] = sign  # both reflector signs; b nearly on e_0 would cancel with the wrong one
            f = rng.standard_normal((n, 6)) / np.sqrt(n)
            d = rng.standard_normal(n)
            basis = tangent_basis(b)
            assert np.linalg.norm(basis.T @ basis - np.eye(n - 1)) <= 1e-13
            assert np.linalg.norm(basis.T @ b) <= 1e-13 * np.linalg.norm(b)
            v, c = _householder(b)
            hf = _reflect(f, v, c)[1:]
            assert np.linalg.norm(hf - basis.T @ f) <= 1e-12 * np.linalg.norm(f)
            for scale in (0.0, 1.0, 0.37):
                ref = basis.T @ (scale * (np.eye(n) - f @ f.T) - np.diag(d)) @ basis
                form = _tangent_form(hf, v, c, d, scale)
                assert form.flags.f_contiguous and form.shape == (n - 1, n - 1)
                assert np.linalg.norm(np.tril(form) - np.tril(ref)) <= 1e-12 * np.linalg.norm(ref)

    def _check(self, E, z, lam):
        # the bounds come with a beta, and do not depend on which
        min_eig, saddle, contraction = _cross_section_oracle(E, z, lam)
        cert = certify_cross_section_minimizer(E, z, lam, beta=0.5)
        assert cert.method == "dense"
        assert cert.hessian_min_eig == pytest.approx(min_eig, abs=1e-12)
        assert cert.eig_residual <= 1e-10
        assert cert.beta_bound_saddle == pytest.approx(saddle, abs=1e-10)
        assert cert.beta_bound_contraction == pytest.approx(contraction, abs=1e-10)
        return saddle, contraction

    def test_cross_section_at_solution(self, cdp_8x8):
        E, x0, _ = cdp_8x8
        z_star = E.apply_adjoint(x0)
        self._check(E, z_star, np.zeros_like(z_star))

    def test_cross_section_at_interior_point(self, cdp_8x8):
        # a perturbed torus point with its optimal dual: both beta bounds
        # lie strictly inside (0, 1), so no clamp hides a wrong eigenvalue
        E, x0, b = cdp_8x8
        z_star = E.apply_adjoint(x0)
        noise = random_complex(np.random.default_rng(8), E.N)
        z = project_torus(z_star + 0.02 * np.mean(b) * noise, b)
        saddle, contraction = self._check(E, z, optimal_dual(E, z, 0.8))
        assert 0.05 < contraction < saddle < 0.95

    def test_cross_section_on_a_partial_support(self, cdp_8x8):
        # coordinates where z vanishes carry no phase: every form restricts
        # to the support, where the oracle's quotients are defined
        E, x0, b = cdp_8x8
        z_star = E.apply_adjoint(x0)
        noise = random_complex(np.random.default_rng(8), E.N)
        z = project_torus(z_star + 0.02 * np.mean(b) * noise, b)
        z[[0, 5, 64]] = 0.0
        saddle, _ = self._check(E, z, optimal_dual(E, z, 0.8))
        assert 0.1 < saddle < 0.9  # nu_max, which both bounds read, is not clamped

    def test_one_subset_solve_per_pencil(self, cdp_8x8, dense_wide, monkeypatch):
        calls = []
        eigh = scipy.linalg.eigh

        def counting_eigh(a, b=None, **kwargs):
            calls.append((b is not None, kwargs.get("subset_by_index")))
            return eigh(a, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        materialized = []
        for E, _, _ in (cdp_8x8, dense_wide):
            inner = type(E).materialize_adjoint
            monkeypatch.setattr(type(E), "materialize_adjoint", lambda self, f=inner: materialized.append(1) or f(self))
        E, x0, _ = cdp_8x8
        z_star = E.apply_adjoint(x0)
        certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star))
        assert calls == [(False, [0, 0])]  # no beta, no pencil
        assert len(materialized) == 1
        calls.clear()
        certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star), beta=0.9)
        assert calls == [(False, [0, 0]), (True, [E.N - 2, E.N - 2])]
        assert len(materialized) == 2
        calls.clear()
        E, x0, b = dense_wide
        certify_drs_cross_section(E, b, E.apply_adjoint(x0), rho=0.25)
        assert calls == [(False, [0, 0])]
        assert len(materialized) == 3

    def test_dense_certificate_memory_is_a_few_forms(self, cdp_8x8):
        # the forms are built from the N x 2n phase factor: one certificate
        # holds a few (N-1)^2 forms at once, not the N x N products of each;
        # with a beta, the pencil's two forms beside the reflected factor once the tangent form is dropped
        E, x0, _ = cdp_8x8
        z_star = E.apply_adjoint(x0)
        certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star), beta=0.9)  # scipy loaded before tracing
        tracemalloc.start()
        try:
            # with a beta, so that the pencil's forms are measured too
            certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star), beta=0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        form, factor = (E.N - 1) ** 2 * 8, (E.N - 1) * 2 * E.n * 8
        # 1.07x measured (4.80 MiB at 8x8); the tangent form kept alive beside the pencil's two reads 1.5x
        assert peak <= 1.15 * (factor + 2 * form)

    def test_bare_dense_certificate_solves_its_form_alone(self, cdp_8x8):
        # without a beta: one (N-1)^2 form, built in place from the reflected (N-1) x 2n factor
        # and solved in place once the factor is dropped; no copy of the form and no N x N product
        E, x0, _ = cdp_8x8
        z_star = E.apply_adjoint(x0)
        certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star))  # scipy loaded before tracing
        tracemalloc.start()
        try:
            certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        form = (E.N - 1) ** 2 * 8
        # 1.28x measured: the factor beside the form while it is built (1.25x at 8x8), then the form and
        # LAPACK's workspace; a factor kept alive through the solve reads 1.40x
        assert peak <= 1.34 * form

    def test_dense_residual_matches_the_assembled_form(self, cdp_8x8, dense_wide, monkeypatch):
        # eig_residual is taken through the operator, not from the form the solve overwrites:
        # at the eigenvector eigh returns, perturbed so that the residual is not roundoff, it
        # matches ||h y - lambda y|| with h assembled from A* on an explicit basis
        eigh = scipy.linalg.eigh
        rng = np.random.default_rng(12)
        solved = []

        def perturbed_eigh(a, b=None, **kwargs):
            vals, vecs = eigh(a, b, **kwargs)
            step = rng.standard_normal(vecs.shape)
            vecs = vecs + 1e-3 * step / np.linalg.norm(step, axis=0)
            solved.append((vals[0], vecs[:, 0] / np.linalg.norm(vecs[:, 0])))
            return vals, vecs / np.linalg.norm(vecs, axis=0)

        monkeypatch.setattr(scipy.linalg, "eigh", perturbed_eigh)
        E, x0, b = cdp_8x8
        z = project_torus(E.apply_adjoint(x0) + 0.02 * np.mean(b) * random_complex(np.random.default_rng(8), E.N), b)
        z[[0, 5, 64]] = 0.0  # a partial support
        lam = optimal_dual(E, z, 0.8)
        s = np.abs(z) > 0
        Ew, xw, bw = dense_wide
        zw = Ew.apply_adjoint(xw)
        rho = 0.25
        cases = [(lambda: certify_cross_section_minimizer(E, z, lam), z,
                  _dense_oracle_forms(E, z)[1] - np.diag(np.real(criticality_vector(E, z, lam))[s])),
                 (lambda: certify_drs_cross_section(Ew, bw, zw, rho), zw,
                  rho * _dense_oracle_forms(Ew, zw)[1] - np.diag(bw / np.abs(zw) - 1.0))]
        for certify, z_, h in cases:
            solved.clear()
            cert = certify()
            (val, y), = solved
            basis = tangent_basis(np.abs(z_[np.abs(z_) > 0]))
            oracle = np.linalg.norm(basis.T @ h @ basis @ y - val * y)
            assert oracle > 1e-6
            assert abs(cert.eig_residual - oracle) <= 1e-12

    def test_repeated_dense_certificates_are_bitwise_equal(self, cdp_8x8, dense_wide):
        E, x0, _ = cdp_8x8
        z_star = E.apply_adjoint(x0)
        noise = random_complex(np.random.default_rng(8), E.N)
        z = project_torus(z_star + 0.02 * np.mean(np.abs(z_star)) * noise, np.abs(z_star))
        lam = optimal_dual(E, z, 0.8)
        first, second = (certify_cross_section_minimizer(E, z, lam, beta=0.5) for _ in range(2))
        assert repr(first.summary()) == repr(second.summary())
        assert np.array_equal(first.q, second.q)
        # without a beta no pencil is solved: the curvature fields are the beta call's bits
        bare, again = (certify_cross_section_minimizer(E, z, lam) for _ in range(2))
        assert repr(bare.summary()) == repr(again.summary())
        assert np.array_equal(bare.q, again.q)
        assert np.array_equal(bare.q, first.q)
        curvature = ("rho", "first_order_defect", "hessian_min_eig", "eig_residual", "strict", "method")
        assert repr([getattr(bare, k) for k in curvature]) == repr([getattr(first, k) for k in curvature])
        assert (bare.beta_bound_saddle, bare.beta_bound_contraction, bare.beta_bound, bare.beta_ok) == (None,) * 4
        E, x0, b = dense_wide
        first, second = (certify_drs_cross_section(E, b, E.apply_adjoint(x0), rho=0.25) for _ in range(2))
        assert repr(first.summary()) == repr(second.summary())
        E, x0, _ = cdp_8x8
        first, second = (spectral_gap(E, x0, grid=(8, 8)) for _ in range(2))
        assert first.method == "dense"
        assert repr(first) == repr(second)

    def test_eig_residual_sees_a_perturbed_eigenvector(self, cdp_8x8, dense_wide, monkeypatch):
        # a residual forced to 0, or taken from a vector other than the one
        # eigh returned, would stay at roundoff here
        eigh = scipy.linalg.eigh
        rng = np.random.default_rng(6)

        def perturbed_eigh(a, b=None, **kwargs):
            out = eigh(a, b, **kwargs)
            if kwargs.get("eigvals_only"):
                return out
            vals, vecs = out
            step = rng.standard_normal(vecs.shape)
            vecs = vecs + 1e-3 * step / np.linalg.norm(step, axis=0)
            return vals, vecs / np.linalg.norm(vecs, axis=0)

        monkeypatch.setattr(scipy.linalg, "eigh", perturbed_eigh)
        E, x0, _ = cdp_8x8
        z_star = E.apply_adjoint(x0)
        assert certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star)).eig_residual > 1e-6
        E, x0, b = dense_wide
        assert certify_drs_cross_section(E, b, E.apply_adjoint(x0), rho=0.25).eig_residual > 1e-6

    def test_drs_cross_section(self, dense_wide):
        E, x0, b = dense_wide
        rng = np.random.default_rng(9)
        rho = 0.25
        for z in (E.apply_adjoint(x0), project_torus(random_complex(rng, E.N), b)):
            p, _ = _dense_oracle_forms(E, z)
            u = z / np.abs(z)
            k = np.real(np.conj(u)[:, None] * p * u[None, :])
            h = (rho + 1.0) * np.eye(E.N) - np.diag(b / np.abs(z)) - rho * 0.5 * (k + k.T)
            min_eig = scipy.linalg.eigh(_on_null_space(h, np.abs(z)), eigvals_only=True)[0]
            cert = certify_drs_cross_section(E, b, z, rho=rho)
            assert cert.hessian_min_eig == pytest.approx(min_eig, abs=1e-12)
            assert cert.eig_residual <= 1e-10


class TestSpectralGap:
    def test_top_singular_pair(self, cdp_8x8):
        E, x0, b = cdp_8x8
        gap = spectral_gap(E, x0, grid=(8, 8))
        assert gap.sigma_top == pytest.approx(1.0, abs=1e-10)
        # right vector built from i*x0 realizes the top value
        w0 = E.apply_adjoint(x0)
        u0 = w0 / np.abs(w0)
        image = np.imag(np.conj(u0) * E.apply_adjoint(1j * x0)) / np.linalg.norm(x0)
        assert np.linalg.norm(image) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(image, b / np.linalg.norm(b), atol=1e-10)

    @pytest.mark.parametrize("case", ["cdp_8x8", "three_masks", "rank_one", "all_ones_masks", "dense_wide"])
    def test_dense_gap_matches_the_full_svd(self, case, request):
        # F F^T b = b: the reflected factor's tangent Gram holds every squared singular value but the top one
        E, x0, grid = _gap_case(case, request)
        sigma_top, lambda2 = dense_spectral_gap(E, x0)
        gap = spectral_gap(E, x0, grid=grid)
        assert (gap.method, gap.converged) == ("dense", True)
        assert abs(gap.lambda2 - lambda2) <= 1e-14
        assert abs(gap.sigma_top - 1.0) <= 1e-14 and abs(sigma_top - 1.0) <= 1e-14

    def test_dense_gap_holds_the_adjoint_and_one_factor(self, cdp_8x8):
        # the phase factor is formed in A*'s materialized array, written once into its own buffer and
        # reflected there: no copy of A* or of the N x 2n factor beyond those two
        E, x0, _ = cdp_8x8
        spectral_gap(E, x0, grid=(8, 8))  # the first call's imports before tracing
        tracemalloc.start()
        try:
            spectral_gap(E, x0, grid=(8, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        factor = E.N * 2 * E.n * 8
        # 2.31x measured, inside the CDP materialize_adjoint (its lift and that lift's copy); a copy per step of
        # the factor's build read 3.03x
        assert peak <= 2.6 * factor

    def test_below_one_across_mask_seeds(self):
        rng = np.random.default_rng(11)
        x0 = np.exp(2j * np.pi * rng.random((8, 8))).reshape(-1)
        for seed in range(5):
            E = build_cdp_ensemble((8, 8), seed=seed)
            gap = spectral_gap(E, x0, grid=(8, 8))
            assert gap.lambda2 < 1.0 - 1e-6
            assert gap.hypothesis_met

    def test_deterministic_masks_flagged(self):
        masks = np.ones((2, 8, 8), dtype=complex)
        E = CodedDiffractionEnsemble((8, 8), masks)
        x0 = np.abs(np.random.default_rng(0).standard_normal((8, 8))).reshape(-1)
        gap = spectral_gap(E, x0, grid=(8, 8))
        assert not gap.hypothesis_met
        assert np.isfinite(gap.lambda2)

    def test_rank_one_object_flagged(self):
        rng = np.random.default_rng(12)
        u = random_complex(rng, 8)
        v = random_complex(rng, 8)
        E = build_cdp_ensemble((8, 8), seed=1)
        gap = spectral_gap(E, np.outer(u, v).reshape(-1), grid=(8, 8))
        assert not gap.hypothesis_met
        assert gap.notes == "object rank < 2"
        assert np.isfinite(gap.lambda2)


class TestConvergenceFunctional:
    def test_zero_at_reference(self, dense_wide):
        E, x0, _ = dense_wide
        z_star = E.apply_adjoint(x0)
        lam_star = np.zeros_like(z_star)
        assert convergence_functional(E, z_star, lam_star, z_star, lam_star, 0.8) <= 1e-28

    def test_ratio_one_at_zero_dual(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(12)
        _, z, _ = _random_torus_pair(E, rng)
        assert inequality_ratio(E, z, np.zeros_like(z), 0.7) == pytest.approx(1.0, abs=1e-14)

    def test_ratio_marker_at_solution(self, dense_wide):
        E, x0, _ = dense_wide
        z_star = E.apply_adjoint(x0)
        assert inequality_ratio(E, z_star, np.zeros_like(z_star), 0.7) == float("inf")

    def test_ratio_matches_self_referenced_functional(self, dense_small):
        E, _, _ = dense_small
        rng = np.random.default_rng(13)
        for _ in range(10):
            _, z, lam = _random_torus_pair(E, rng)
            beta = 0.1 + 0.8 * rng.random()
            zero = np.zeros_like(z)
            denom = convergence_functional(E, z, lam, zero, zero, beta)
            expected = 1.0 + 2.0 * float(np.real(np.vdot(z, lam))) / denom
            assert inequality_ratio(E, z, lam, beta) == pytest.approx(expected, rel=1e-12)

    def test_margin_zero_at_reference(self, dense_wide):
        E, x0, _ = dense_wide
        z_star = E.apply_adjoint(x0)
        lam_star = np.zeros_like(z_star)
        assert abs(contraction_margin(E, z_star, lam_star, z_star, lam_star, 0.8)) <= 1e-26

    def test_margin_positive_near_saddle(self, dense_wide):
        # Monte-Carlo probe around the noiseless saddle: small-radius
        # perturbations keep the contraction margin positive
        E, x0, b = dense_wide
        w_star = E.apply_adjoint(x0)
        z_star = project_torus(w_star, b)
        lam_star = w_star - z_star
        rng = np.random.default_rng(0)
        scale = 1e-3 * np.linalg.norm(w_star)
        hits = 0
        for _ in range(1000):
            d = rng.standard_normal(E.N) + 1j * rng.standard_normal(E.N)
            w = w_star + d * (scale / np.linalg.norm(d))
            z = project_torus(w, b)
            hits += contraction_margin(E, z, w - z, z_star, lam_star, 0.7) > 0
        assert hits / 1000 == 1.0


class TestAlignmentmetrics:
    def test_phase_rotation_has_zero_error(self):
        rng = np.random.default_rng(14)
        x0 = random_complex(rng, 20)
        assert aligned_error(1j * x0, x0) <= 1e-14

    def test_zero_vector_has_unit_error(self):
        x0 = np.ones(5, dtype=complex)
        assert aligned_error(np.zeros(5, complex), x0) == pytest.approx(1.0)

    def test_orthogonal_perturbation(self):
        rng = np.random.default_rng(15)
        x0 = random_complex(rng, 30)
        e = random_complex(rng, 30)
        e -= x0 * (np.vdot(x0, e) / np.vdot(x0, x0))
        err = aligned_error(x0 + e, x0)
        assert err == pytest.approx(np.linalg.norm(e) / np.linalg.norm(x0), rel=1e-10)

    def test_global_phase_minimizes(self):
        rng = np.random.default_rng(16)
        w = random_complex(rng, 10)
        w_ref = random_complex(rng, 10)
        alpha = global_phase(w, w_ref)
        best = np.linalg.norm(w - alpha * w_ref)
        for t in np.linspace(0, 2 * np.pi, 17):
            assert best <= np.linalg.norm(w - np.exp(1j * t) * w_ref) + 1e-12

    def test_correlation_bounds(self):
        rng = np.random.default_rng(17)
        x = random_complex(rng, 8)
        assert correlation(x, 1j * x) == pytest.approx(1.0)
        assert correlation(x, np.zeros(8, complex)) == 0.0


class TestDiagnostics:
    def test_record_fields(self, dense_small):
        E, _, b = dense_small
        rng = np.random.default_rng(18)
        _, z, lam = _random_torus_pair(E, rng, b=b)
        rec = diagnostics(E, b, z, lam, 0.8, k=3)
        assert rec.k == 3
        assert np.isfinite(rec.objective)
        assert rec.residual >= 0
        row = rec.csv_row()
        assert len(row) == len(rec.csv_header) == 7

    def test_drs_record_uses_splitting_metrics(self, dense_small):
        E, _, b = dense_small
        rng = np.random.default_rng(19)
        _, z, lam = _random_torus_pair(E, rng, b=b)
        rec = diagnostics(E, b, z, lam, 0.25, k=1, algo="drs")
        mu = lam / 0.25
        expected = np.hypot(
            np.linalg.norm(E.project_complement(z)),
            np.linalg.norm(E.project_range(mu)),
        )
        assert rec.deriv_norm == pytest.approx(expected, rel=1e-12)


def _gap_case(case, request):
    """``(E, x0, grid)`` of a named spectral-gap case."""
    def phase_object(grid):
        return np.exp(2j * np.pi * np.random.default_rng(11).random(grid)).reshape(-1)

    grid = {"cdp_20x12": (20, 12), "dense_wide": (4, 4)}.get(case, (8, 8))
    if case in ("cdp_8x8", "dense_wide"):
        E, x0, _ = request.getfixturevalue(case)
    elif case == "rank_one":  # as test_rank_one_object_flagged
        rng = np.random.default_rng(12)
        u, v = random_complex(rng, 8), random_complex(rng, 8)
        E, x0 = build_cdp_ensemble(grid, seed=1), np.outer(u, v).reshape(-1)
    elif case == "all_ones_masks":  # as test_deterministic_masks_flagged
        E = CodedDiffractionEnsemble(grid, np.ones((2, *grid), dtype=complex))
        x0 = np.abs(np.random.default_rng(0).standard_normal(grid)).reshape(-1)
    else:
        E, x0 = build_cdp_ensemble(grid, seed=3, n_masks=3 if case == "three_masks" else 2), phase_object(grid)
    return E, x0, grid


class TestMatrixFreePaths:
    def test_lanczos_certificate_matches_dense(self, cdp_8x8, monkeypatch):
        E, x0, b = cdp_8x8
        z_star = E.apply_adjoint(x0)
        z = project_torus(random_complex(np.random.default_rng(31), E.N), b)
        cases = [lambda: certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star)),
                 lambda: certify_cross_section_minimizer(E, z, optimal_dual(E, z, 0.9)),
                 lambda: certify_drs_cross_section(E, b, z_star, rho=0.25),
                 lambda: certify_drs_cross_section(E, b, z, rho=0.25)]
        dense = [case() for case in cases]
        import saddle_raar.analysis as analysis_mod

        monkeypatch.setattr(analysis_mod, "DENSE_CAP", 64)
        for case, ref in zip(cases, dense):
            free = case()
            assert (ref.method, free.method) == ("dense", "lanczos")
            assert free.converged
            assert free.hessian_min_eig == pytest.approx(ref.hessian_min_eig, abs=1e-8)
            assert free.beta_bound is None
            # the Lanczos start is seeded: a repeated call gives the same bits
            again = case()
            assert (again.hessian_min_eig, again.eig_residual) == (free.hessian_min_eig, free.eig_residual)
            np.testing.assert_array_equal(again.q, free.q)

    @pytest.mark.parametrize("case", ["cdp_8x8", "three_masks", "rank_one", "all_ones_masks", "cdp_20x12"])
    def test_iterative_spectral_gap_matches_dense(self, case, request, monkeypatch):
        # above the cap the gap is the tangent solve at the solution: mu = 1 - lambda2^2
        E, x0, grid = _gap_case(case, request)
        dense = spectral_gap(E, x0, grid=grid)
        import saddle_raar.analysis as analysis_mod

        monkeypatch.setattr(analysis_mod, "DENSE_CAP", 64)
        free = spectral_gap(E, x0, grid=grid)
        assert (dense.method, free.method) == ("dense", "lanczos")
        assert free.converged
        assert free.lambda2 == pytest.approx(dense.lambda2, abs=1e-8)
        assert free.sigma_top == pytest.approx(1.0, abs=1e-8)
        assert (free.hypothesis_met, free.notes) == (dense.hypothesis_met, dense.notes)
        # the start is seeded: a repeat gives the same bits, another seed the same gap
        assert spectral_gap(E, x0, grid=grid) == free
        assert spectral_gap(E, x0, grid=grid, seed=7).lambda2 == pytest.approx(free.lambda2, abs=1e-12)

    @pytest.mark.parametrize("partial", [[], [0.5]])
    def test_unconverged_solves_are_reported_not_raised(self, cdp_8x8, monkeypatch, partial):
        import scipy.sparse.linalg

        import saddle_raar.analysis as analysis_mod

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.array(partial),
                                                          np.zeros((0, len(partial))))

        E, x0, b = cdp_8x8
        z_star = E.apply_adjoint(x0)
        monkeypatch.setattr(analysis_mod, "DENSE_CAP", 64)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        for cert in (certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star)),
                     certify_drs_cross_section(E, b, z_star, rho=0.25)):
            assert (cert.method, cert.converged, cert.strict) == ("lanczos", False, False)
            # a partial eigenvalue is kept, even a positive one, but certifies nothing
            np.testing.assert_array_equal(cert.hessian_min_eig, partial[0] if partial else np.nan)
            assert np.isnan(cert.eig_residual)
        gap = spectral_gap(E, x0, grid=(8, 8))
        assert (gap.method, gap.converged) == ("lanczos", False)
        assert np.isnan(gap.lambda2) and np.isnan(gap.sigma_top)


def test_certificate_summaries_hold_every_scalar_field(dense_wide):
    # a summary is its dataclass's fields minus the arrays, each value as stored
    E, x0, b = dense_wide
    z_star = E.apply_adjoint(x0)
    fixed = certify_fixed_point(E, b, z_star, 0.9)
    saddles = [certify_cross_section_minimizer(E, z_star, np.zeros_like(z_star), beta=0.9),
               certify_drs_cross_section(E, b, z_star, rho=0.25)]
    cases = [(fixed, {"c", "magnitude_margin"}, {"beta_interval"})]
    cases += [(cert, {"q"}, set()) for cert in saddles]
    for cert, arrays, extra in cases:
        summary = cert.summary()
        names = {f.name for f in dataclasses.fields(cert)}
        assert set(summary) == (names - arrays) | extra, type(cert).__name__
        for name in names - arrays:
            assert summary[name] is getattr(cert, name), name
            assert not isinstance(summary[name], np.ndarray), name
    assert fixed.summary()["beta_interval"] == [0.0, fixed.beta_max]


def test_zero_dual_quotient_matches_assembled_form(dense_small):
    # Re(q(z, 0)) equals b^{-1} * (K_perp b) with the assembled tangent form,
    # at any torus point (not only critical ones)
    E, _, _ = dense_small
    rng = np.random.default_rng(23)
    b = 0.5 + rng.random(E.N)
    z = project_torus(random_complex(rng, E.N), b)
    u = z / np.abs(z)
    q0 = criticality_vector(E, z, np.zeros_like(z))
    kperp_b = assemble_complement_form(E, u) @ b
    assert np.allclose(np.real(q0), kperp_b / b, atol=1e-12)


def test_converged_dual_split_matches_maximizer(dense_wide):
    # at a fixed point, the iterate's torus/dual split satisfies the dual
    # optimality lam = -beta' Q z, tying the run decomposition to the
    # analytic maximizer
    E, _, b = dense_wide
    from saddle_raar.solvers import ParameterSchedule, StoppingRule, run
    from saddle_raar import random_lift

    beta = 0.9
    w0 = random_lift(E.N, seed=3)
    result = run(E, b, "raar", ParameterSchedule.constant(beta), w0, 3000,
                 StoppingRule(residual_tol=1e-12, deriv_tol=0.0))
    w = result.state.w
    z = project_torus(w, b)
    lam = w - z
    lam_star = optimal_dual(E, z, beta)
    assert np.linalg.norm(lam - lam_star) <= 1e-9 * np.linalg.norm(b)


def _negative_first(v):
    v = v.copy()
    v[0] = -v[0]
    return v


def _nan_first(v):
    v = v.astype(complex)
    v[0] = np.nan
    return v


def _tiny_first(v):
    v = v.astype(complex)
    v[0] = 1e-320
    return v


_MALFORMED_CERTIFICATE = {
    "drs_tiny_z": (lambda E, b, z: certify_drs_cross_section(E, b, _tiny_first(z), 0.25), InvalidDataError),
    "drs_zero_rho": (lambda E, b, z: certify_drs_cross_section(E, b, z, 0.0), ValueError),
    "drs_negative_rho": (lambda E, b, z: certify_drs_cross_section(E, b, z, -1.0), ValueError),
    "drs_inf_rho": (lambda E, b, z: certify_drs_cross_section(E, b, z, np.inf), ValueError),
    "drs_nan_rho": (lambda E, b, z: certify_drs_cross_section(E, b, z, np.nan), ValueError),
    "drs_negative_b": (lambda E, b, z: certify_drs_cross_section(E, _negative_first(b), z, 0.25), InvalidDataError),
    "drs_short_b": (lambda E, b, z: certify_drs_cross_section(E, b[:-1], z, 0.25), InvalidDataError),
    "fixed_point_negative_b": (lambda E, b, z: certify_fixed_point(E, _negative_first(b), z, 0.9), InvalidDataError),
    "fixed_point_short_w": (lambda E, b, z: certify_fixed_point(E, b, z[:-1], 0.9), InvalidDataError),
    "cross_section_nan_z": (lambda E, b, z: certify_cross_section_minimizer(E, _nan_first(z), np.zeros_like(z)),
                            InvalidDataError),
    "cross_section_negative_beta": (lambda E, b, z: certify_cross_section_minimizer(E, z, np.zeros_like(z), -1.0),
                                    ValueError),
    "cross_section_nan_beta": (lambda E, b, z: certify_cross_section_minimizer(E, z, np.zeros_like(z), np.nan),
                               ValueError),
    "cross_section_beta_above_one": (lambda E, b, z: certify_cross_section_minimizer(E, z, np.zeros_like(z), 5.0),
                                     ValueError),
}


@pytest.mark.parametrize("case", list(_MALFORMED_CERTIFICATE))
def test_malformed_certificate_input_is_rejected_before_any_operator_call(dense_small, case):
    certify, error = _MALFORMED_CERTIFICATE[case]
    E0, x0, b = dense_small
    z = E0.apply_adjoint(x0)
    E = CountingEnsemble(E0)
    with pytest.raises(error):
        certify(E, b, z)
    assert (E.applies, E.adjoints) == (0, 0)


def test_tiny_iterate_entry_is_a_named_error():
    # a subnormal entry is finite, but its curvature quotient is not: both certificates
    # name the iterate, with no overflow warning on the way (pytest makes one an error)
    E = build_gaussian_ensemble(8, 32, seed=0)
    w = E.apply_adjoint(random_complex(np.random.default_rng(0), 8))
    b, z = np.abs(w), _tiny_first(w)
    for certify in (lambda: certify_drs_cross_section(E, b, z, 0.25),
                    lambda: certify_cross_section_minimizer(E, z, np.zeros_like(z)),
                    lambda: certify_cross_section_minimizer(E, z, np.zeros_like(z), beta=0.9)):
        with pytest.raises(InvalidDataError, match="iterate"):
            certify()


def test_subnormal_iterate_entry_reports_zero_criticality():
    # unit_phase takes a subnormal entry for a zero one, and so does the quotient: no overflow
    E = build_gaussian_ensemble(8, 32, seed=0)
    rng = np.random.default_rng(0)
    z, lam = E.apply_adjoint(random_complex(rng, 8)), random_complex(rng, 32)
    z[3] = 1e-320
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = criticality_vector(E, z, lam)
    normal = np.arange(E.N) != 3
    assert q[3] == 0 and np.isfinite(q).all()
    assert q[normal].tobytes() == (E.project_complement(z - lam)[normal] / z[normal]).tobytes()


def test_tiny_normal_iterate_entry_is_a_named_error():
    # a normal entry can still overflow its quotient: b / |z| for drs, Q(z - lam) / z for raar
    E = build_gaussian_ensemble(8, 32, seed=0)
    z = 100 * E.apply_adjoint(random_complex(np.random.default_rng(0), 8))
    z[3] = 1e-307
    for certify in (lambda: certify_drs_cross_section(E, np.abs(z) + 50, z, 0.25),
                    lambda: certify_cross_section_minimizer(E, z, np.zeros_like(z))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDataError, match="iterate"):
                certify()


def test_empty_cross_section_is_rejected_before_any_operator_call():
    # a one-entry support, or N = 1, leaves a tangent subspace of dimension 0
    E = CountingEnsemble(build_gaussian_ensemble(4, 12, seed=1))
    z = np.zeros(E.N, dtype=complex)
    z[:1] = 1 + 1j
    with pytest.raises(ValueError, match="cross section is empty"):
        certify_cross_section_minimizer(E, z, np.zeros_like(z))
    E1 = CountingEnsemble(build_gaussian_ensemble(1, 1, seed=1))
    with pytest.raises(ValueError, match="N >= 2"):
        certify_drs_cross_section(E1, np.ones(1), np.ones(1, dtype=complex), 0.25)
    assert (E.applies, E.adjoints, E1.applies, E1.adjoints) == (0, 0, 0, 0)


def test_singular_pencil_leaves_the_beta_bounds_unset():
    # at N = n the range is everything, so K_perp = 0 and the pencil's second form is singular
    E = build_gaussian_ensemble(4, 4, seed=1)
    rng = np.random.default_rng(0)
    z = E.apply_adjoint(random_complex(rng, 4))
    cert = certify_cross_section_minimizer(E, z, np.zeros_like(z), beta=0.5)
    assert cert.method == "dense" and cert.converged
    assert abs(cert.hessian_min_eig) <= 1e-12
    assert (cert.beta_bound_saddle, cert.beta_bound_contraction, cert.beta_bound, cert.beta_ok) == (None,) * 4


def test_spectral_gap_rejects_a_zero_object():
    E = build_cdp_ensemble((2, 2), seed=0)
    with pytest.raises(ValueError, match="zero measurement magnitudes"):
        spectral_gap(E, np.zeros(4, dtype=complex), grid=(2, 2))


def test_spectral_gap_rejects_a_grid_of_the_wrong_size(cdp_8x8):
    E0, x0, _ = cdp_8x8
    E = CountingEnsemble(E0)
    with pytest.raises(DimensionError, match="has 16 entries, the object 64"):
        spectral_gap(E, x0, grid=(4, 4))
    with pytest.raises(DimensionError, match="length 16, expected 64"):
        spectral_gap(E, x0[:16], grid=(4, 4))
    assert (E.applies, E.adjoints) == (0, 0)
