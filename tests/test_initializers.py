import numpy as np
import pytest

from saddle_raar import (
    InvalidDataError,
    build_cdp_ensemble,
    build_gaussian_ensemble,
    build_rpp,
    null_vector,
    random_lift,
)
from saddle_raar.solvers import ParameterSchedule, StoppingRule, initial_state, raar_step, run


class TestNullVector:
    def test_unit_norm_and_determinism(self, dense_small):
        E, _, b = dense_small
        r1 = null_vector(E, b, seed=5)
        r2 = null_vector(E, b, seed=5)
        assert np.isclose(np.linalg.norm(r1.x), 1.0, atol=1e-12)
        assert np.array_equal(r1.x, r2.x)

    def test_dense_eigendecomposition_oracle(self):
        E = build_gaussian_ensemble(2, 8, seed=5)
        a = E.materialize_adjoint()
        b = np.full(8, 1e-3)
        b[3] = 10.0
        result = null_vector(E, b, weak_fraction=7 / 8, seed=0)
        # oracle: bottom eigenvector of A diag(1_I) A* over the weak set
        idx = np.argsort(b)[:7]
        mask = np.zeros(8)
        mask[idx] = 1.0
        m = a.conj().T @ np.diag(mask) @ a
        vecs = np.linalg.eigh(m)[1]
        assert abs(np.vdot(vecs[:, 0], result.x)) >= 1.0 - 1e-10
        # with the weak set covering everything but the strong entry, the
        # minimizer is that entry's measurement column (isometry completion)
        col = a[3].conj()
        assert abs(np.vdot(col / np.linalg.norm(col), result.x)) >= 1.0 - 1e-8

    def test_convergence_flag_honest(self, dense_small):
        E, _, b = dense_small
        result = null_vector(E, b, seed=1, power_iters=500)
        if result.converged:
            assert result.residual <= 1e-8
        starved = null_vector(E, b, seed=1, power_iters=1)
        assert starved.iterations == 1

    def test_beats_random_on_cdp_phantom(self):
        phantom = build_rpp((32, 32), seed=1)
        x0 = phantom.values
        E = build_cdp_ensemble((32, 32), seed=2)
        b = np.abs(E.apply_adjoint(x0))
        rng = np.random.default_rng(99)
        nx0 = np.linalg.norm(x0)
        null_corr, rand_corr = [], []
        for s in range(10):
            nv = null_vector(E, b, weak_fraction=0.5, seed=s)
            null_corr.append(abs(np.vdot(nv.x, x0)) / nx0)
            r = rng.standard_normal(E.n) + 1j * rng.standard_normal(E.n)
            rand_corr.append(abs(np.vdot(r / np.linalg.norm(r), x0)) / nx0)
        assert np.mean(null_corr) > np.mean(rand_corr)

    def test_invalid_data(self, dense_small):
        E, _, _ = dense_small
        with pytest.raises(InvalidDataError):
            null_vector(E, np.zeros(E.N))
        with pytest.raises(InvalidDataError):
            null_vector(E, np.ones(E.N - 1))

    def test_spec_validation(self, dense_small):
        E, _, b = dense_small
        with pytest.raises(ValueError):
            null_vector(E, b, weak_fraction=0.0)
        with pytest.raises(ValueError):
            null_vector(E, b, power_iters=0)


class TestMakeInitialState:
    def test_on_torus_input_gives_zero_dual(self, dense_wide):
        E, x0, b = dense_wide
        w0 = E.apply_adjoint(x0)
        raar0, admm0 = initial_state(E, b, "raar", w0), initial_state(E, b, "admm", w0)
        assert np.linalg.norm(admm0.lam) <= 1e-12 * np.linalg.norm(b)
        assert np.allclose(raar0.w, admm0.lift)

    def test_raw_lift_reproduces_reflection_run(self, dense_small):
        E, _, b = dense_small
        w0 = random_lift(E.N, seed=21)
        admm0 = initial_state(E, b, "admm", w0)
        ws = []
        run(
            E, b, "admm", ParameterSchedule.constant(0.85), admm0, 25,
            StoppingRule(fixed_budget=True), on_iterate=lambda k, w: ws.append(w),
        )
        w = w0.copy()
        for k in range(1, 26):
            w = raar_step(E, b, w, 0.85)
            assert np.linalg.norm(ws[k] - w) <= 1e-10 * np.linalg.norm(w)

    def test_zero_input_rejected(self, dense_small):
        E, _, b = dense_small
        with pytest.raises(InvalidDataError):
            initial_state(E, b, "raar", np.zeros(E.N, dtype=complex))

    def test_random_lift_deterministic(self):
        assert np.array_equal(random_lift(32, 7), random_lift(32, 7))
        assert not np.array_equal(random_lift(32, 7), random_lift(32, 8))
