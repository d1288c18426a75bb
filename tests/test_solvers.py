import numpy as np
import pytest

from saddle_raar import (
    AdmmState,
    DrsState,
    InvalidDataError,
    MeasurementEnsemble,
    ParameterSchedule,
    RaarState,
    StoppingRule,
    admm_step,
    beta_from_rho,
    beta_prime,
    build_gaussian_ensemble,
    diagnostics,
    drs_step,
    initial_state,
    project_torus,
    raar_step,
    random_lift,
    reconstruct,
    rho_from_beta,
    run,
)
from saddle_raar.analysis import aligned_error, contraction_margin, convergence_functional, fejer_monitor
from saddle_raar.solvers import drs_fixed_point_residuals
from conftest import random_complex


class TestRaarStep:
    def test_noiseless_solution_is_fixed(self, dense_wide):
        E, x0, b = dense_wide
        w_star = E.apply_adjoint(x0)
        for beta in (0.3, 0.5, 0.9, 1.0):
            out = raar_step(E, b, w_star, beta)
            assert np.linalg.norm(out - w_star) <= 1e-12 * np.linalg.norm(w_star)

    def test_ap_reduction_at_half(self, dense_small):
        # independent alternating-projection oracle on dense matrices
        E, x0, b = dense_small
        a = E.materialize_adjoint()
        p = a @ a.conj().T
        rng = np.random.default_rng(2)
        w = E.apply_adjoint(random_complex(rng, E.n))
        w_ap = w.copy()
        for _ in range(100):
            w = raar_step(E, b, w, 0.5)
            w_ap = p @ (b * w_ap / np.abs(w_ap))
            assert np.linalg.norm(w - w_ap) <= 1e-12 * np.linalg.norm(w_ap)

    def test_unit_beta_matches_reflector_composition(self, dense_small):
        # independent oracle: averaged composition of the two reflectors
        E, _, b = dense_small
        a = E.materialize_adjoint()
        p = a @ a.conj().T
        eye = np.eye(E.N)
        r_range = 2.0 * p - eye
        rng = np.random.default_rng(6)
        for _ in range(5):
            w = random_complex(rng, E.N)
            r_torus = 2.0 * (b * w / np.abs(w)) - w
            oracle = 0.5 * (r_range @ r_torus + w)
            out = raar_step(E, b, w, 1.0)
            assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_global_phase_equivariance(self, dense_small):
        E, _, b = dense_small
        rng = np.random.default_rng(12)
        w = random_complex(rng, E.N)
        for _ in range(10):
            alpha = np.exp(2j * np.pi * rng.random())
            lhs = raar_step(E, b, alpha * w, 0.8)
            rhs = alpha * raar_step(E, b, w, 0.8)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_beta_range(self, dense_small):
        E, _, b = dense_small
        with pytest.raises(ValueError):
            raar_step(E, b, np.ones(E.N, dtype=complex), 1.5)


class TestAdmmEquivalence:
    @pytest.mark.parametrize("beta", [0.6, 0.9])
    def test_matches_raar_sequence(self, dense_small, beta):
        E, _, b = dense_small
        w = random_lift(E.N, seed=42)
        state = initial_state(E, b, "admm", w)
        worst = 0.0
        for _ in range(50):
            w = raar_step(E, b, w, beta)
            lam_prev = state.lam
            state = admm_step(E, b, state, beta=beta)
            w_prime = state.y + lam_prev
            worst = max(worst, np.linalg.norm(w_prime - w) / np.linalg.norm(w))
            assert np.linalg.norm(state.lift - w) <= 1e-10 * np.linalg.norm(w)
        assert worst <= 1e-10

    def test_fixed_at_solution(self, dense_wide):
        E, x0, b = dense_wide
        z_star = E.apply_adjoint(x0)
        state = AdmmState(y=z_star, z=z_star, lam=np.zeros_like(z_star))
        new = admm_step(E, b, state, 0.7)
        assert np.linalg.norm(new.z - z_star) <= 1e-12 * np.linalg.norm(z_star)
        assert np.linalg.norm(new.lam) <= 1e-12 * np.linalg.norm(z_star)

    def test_dual_shares_phase_with_primal(self, dense_small):
        # the multiplier keeps z + lam on z's phase ray: lam * conj(z)/|z| real
        E, _, b = dense_small
        state = initial_state(E, b, "admm", random_lift(E.N, seed=9))
        for _ in range(30):
            state = admm_step(E, b, state, beta=0.8)
            ratio = state.lam * np.conj(state.z) / np.abs(state.z)
            assert np.linalg.norm(ratio.imag) <= 1e-10 * max(np.linalg.norm(state.lam), 1e-30)

    def test_run_loop_equivalence_from_raw_lift(self, dense_small):
        E, _, b = dense_small
        w0 = random_lift(E.N, seed=17)
        raar0, admm0 = initial_state(E, b, "raar", w0), initial_state(E, b, "admm", w0)
        sched = ParameterSchedule.constant(0.75)
        stop = StoppingRule(fixed_budget=True)
        ws_r, ws_a = [], []
        run(E, b, "raar", sched, raar0, 40, stop, on_iterate=lambda k, w: ws_r.append(w))
        run(E, b, "admm", sched, admm0, 40, stop, on_iterate=lambda k, w: ws_a.append(w))
        assert len(ws_r) == len(ws_a) == 41
        for wr, wa in zip(ws_r, ws_a):
            assert np.linalg.norm(wr - wa) <= 1e-10 * np.linalg.norm(wr)


class TestDrs:
    def test_fixed_at_solution(self, dense_wide):
        E, x0, b = dense_wide
        z_star = E.apply_adjoint(x0)
        state = initial_state(E, b, "drs", z_star, 0.5)
        new = drs_step(E, b, state)
        assert np.linalg.norm(new.z - z_star) <= 1e-12 * np.linalg.norm(z_star)
        assert np.linalg.norm(new.lam) <= 1e-12 * np.linalg.norm(z_star)

    def test_converged_fixed_point_conditions(self, dense_wide):
        E, x0, b = dense_wide
        w0 = random_lift(E.N, seed=0)
        state = initial_state(E, b, "drs", w0, 0.25)
        result = run(
            E, b, "drs", ParameterSchedule.constant(0.25), state, 6000,
            StoppingRule(residual_tol=1e-13, deriv_tol=1e-12),
        )
        tol = 1e-8 * np.linalg.norm(b)
        assert all(v <= tol for v in drs_fixed_point_residuals(E, b, result.state))

    def test_penalty_sensitivity(self, dense_wide):
        E, _, b = dense_wide
        w0 = random_lift(E.N, seed=1)
        s1 = initial_state(E, b, "drs", w0, 1.0)
        s2 = initial_state(E, b, "drs", w0, 0.5)
        for _ in range(5):
            s1 = drs_step(E, b, s1)
            s2 = drs_step(E, b, s2)
        assert np.linalg.norm(s1.z - s2.z) > 1e-8 * np.linalg.norm(b)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            DrsState(y=np.zeros(2, complex), z=np.zeros(2, complex), lam=np.zeros(2, complex), rho=-1.0)


class TestParameterMaps:
    def test_pairings(self):
        assert beta_from_rho(1.0) == 0.5
        assert rho_from_beta(2.0 / 3.0) == pytest.approx(0.5)
        assert beta_prime(2.0 / 3.0) == pytest.approx(2.0)

    def test_round_trip(self):
        for k in range(1, 11):
            beta = k / (k + 1.0)
            assert beta_from_rho(rho_from_beta(beta)) == pytest.approx(beta, rel=1e-14)

    def test_unit_beta_signaled(self):
        with pytest.raises(ValueError):
            rho_from_beta(1.0)
        with pytest.raises(ValueError):
            beta_from_rho(0.0)


class TestSchedule:
    def test_constant_extension(self):
        s = ParameterSchedule.constant(0.9)
        assert s.value_at(1) == 0.9
        assert s.value_at(1000) == 0.9

    def test_hold_then_decay_midpoint(self):
        s = ParameterSchedule(((1, 0.95), (300, 0.95), (600, 0.5)))
        assert s.value_at(450) == pytest.approx(0.725)
        assert s.value_at(1) == 0.95
        assert s.value_at(300) == 0.95
        assert s.value_at(600) == 0.5
        assert s.value_at(900) == 0.5

    def test_breakpoint_order(self):
        with pytest.raises(ValueError):
            ParameterSchedule(((10, 0.9), (5, 0.8)))

    def test_out_of_range_param_rejected(self, dense_small):
        E, _, b = dense_small
        w0 = random_lift(E.N, seed=4)
        raar0, admm0 = initial_state(E, b, "raar", w0), initial_state(E, b, "admm", w0)
        with pytest.raises(ValueError):
            run(E, b, "admm", ParameterSchedule.constant(1.0), admm0, 2)
        with pytest.raises(ValueError):
            run(E, b, "raar", ParameterSchedule.constant(1.2), raar0, 2)
        drs0 = initial_state(E, b, "drs", w0, 0.25)
        with pytest.raises(ValueError):
            run(E, b, "drs", ParameterSchedule(((1, 0.25), (2, 0.0))), drs0, 5)


class TestRunLoop:
    def test_zero_budget_gives_initial_record(self, dense_small):
        E, _, b = dense_small
        raar0 = initial_state(E, b, "raar", random_lift(E.N, seed=2))
        result = run(E, b, "raar", ParameterSchedule.constant(0.9), raar0, 0)
        assert len(result.records) == 1
        assert result.records[0].k == 0

    def test_record_stride_and_final(self, dense_small):
        E, _, b = dense_small
        raar0 = initial_state(E, b, "raar", random_lift(E.N, seed=2))
        result = run(
            E, b, "raar", ParameterSchedule.constant(0.9), raar0, 25,
            StoppingRule(fixed_budget=True), record_every=10,
        )
        assert [r.k for r in result.records] == [0, 10, 20, 25]

    def test_stopping_on_residual(self, dense_wide):
        E, _, b = dense_wide
        raar0 = initial_state(E, b, "raar", random_lift(E.N, seed=0))
        result = run(
            E, b, "raar", ParameterSchedule.constant(0.9), raar0, 3000,
            StoppingRule(residual_tol=1e-10, deriv_tol=0.0),
        )
        assert result.stop_reason == "residual"
        assert result.final_record.residual <= 1e-10

    def test_unknown_algo(self, dense_small):
        E, _, b = dense_small
        raar0 = initial_state(E, b, "raar", random_lift(E.N, seed=2))
        with pytest.raises(ValueError):
            run(E, b, "nope", ParameterSchedule.constant(0.9), raar0, 1)


class TestFixedPointConditions:
    def test_split_conditions_after_convergence(self, dense_wide):
        # range part: P((b - |w|) u) ~ 0; complement part matches the
        # penalty-scaled magnitude defect
        E, _, b = dense_wide
        beta = 0.9
        raar0 = initial_state(E, b, "raar", random_lift(E.N, seed=3))
        result = run(
            E, b, "raar", ParameterSchedule.constant(beta), raar0, 3000,
            StoppingRule(residual_tol=1e-12, deriv_tol=0.0),
        )
        w = result.state.w
        u = w / np.abs(w)
        tol = 1e-8 * np.linalg.norm(b)
        range_defect = E.project_range((b - np.abs(w)) * u)
        assert np.linalg.norm(range_defect) <= tol
        comp = E.project_complement(b * u) - (b - np.abs(w)) * u / beta_prime(beta)
        assert np.linalg.norm(comp) <= tol

    def test_reconstruction_at_solution(self, dense_wide):
        E, x0, b = dense_wide
        z_star = E.apply_adjoint(x0)
        x = reconstruct(E, z_star, np.zeros_like(z_star))
        assert aligned_error(x, x0) <= 1e-12


class TestFejerContraction:
    def test_monotone_distances_and_partial_sum_bound(self, dense_wide):
        E, x0, b = dense_wide
        beta = 0.9
        z_star = E.apply_adjoint(x0)
        lam_star = np.zeros_like(z_star)
        raar0 = initial_state(E, b, "raar", random_lift(E.N, seed=0))
        ws = []
        run(
            E, b, "raar", ParameterSchedule.constant(beta), raar0, 400,
            StoppingRule(fixed_budget=True), on_iterate=lambda k, w: ws.append(w),
        )
        mon = fejer_monitor(E, b, ws, [beta] * len(ws), z_star, lam_star)
        margins = mon["margin"]
        nonpos = np.where(margins <= 0)[0]
        k0 = int(nonpos[-1]) + 2 if nonpos.size else 1
        assert k0 < len(ws) - 50, "no positive-margin window formed"
        window_d = mon["distance"][k0 - 1:]
        assert np.max(np.diff(window_d)) <= 1e-8
        r_max = float(np.max(mon["ratio"][k0 - 1:]))
        bound = window_d[0] ** 2 / (1.0 - max(r_max, 0.0))
        assert np.sum(mon["T"][k0 - 1:]) <= bound

    def test_monitor_evaluates_the_functional_once_per_step(self, dense_wide):
        # T and the margin share one evaluation: two complement projections and one A per step
        E0, x0, b = dense_wide
        z_star = E0.apply_adjoint(x0)
        lam_star = np.zeros_like(z_star)
        raar0 = initial_state(E0, b, "raar", random_lift(E0.N, seed=0))
        ws = []
        run(E0, b, "raar", ParameterSchedule.constant(0.9), raar0, 20, StoppingRule(fixed_budget=True),
            on_iterate=lambda k, w: ws.append(w))
        betas = [0.9 - 0.01 * k for k in range(len(ws))]
        E = CountingEnsemble(E0)
        mon = fejer_monitor(E, b, ws, betas, z_star, lam_star)
        assert (E.applies, E.adjoints) == (3 * 20, 2 * 20)
        for k in range(1, len(ws)):
            z = project_torus(ws[k - 1], b)
            lam = ws[k - 1] - z
            assert mon["T"][k - 1] == convergence_functional(E, z, lam, z_star, lam_star, betas[k])
            assert mon["margin"][k - 1] == contraction_margin(E, z, lam, z_star, lam_star, betas[k])


def test_run_rejects_mismatched_state(dense_small):
    E, _, b = dense_small
    w0 = random_lift(E.N, seed=4)
    raar0, admm0 = initial_state(E, b, "raar", w0), initial_state(E, b, "admm", w0)
    with pytest.raises(TypeError):
        run(E, b, "admm", ParameterSchedule.constant(0.9), raar0, 2)
    with pytest.raises(TypeError):
        run(E, b, "drs", ParameterSchedule.constant(0.5), admm0, 2)


def test_equivalence_on_diffraction_ensemble():
    # the reflection/multiplier identity is ensemble-agnostic
    from saddle_raar import build_cdp_ensemble

    E = build_cdp_ensemble((4, 4), seed=6)
    rng = np.random.default_rng(0)
    x0 = random_complex(rng, E.n)
    b = np.abs(E.apply_adjoint(x0))
    w = random_lift(E.N, seed=1)
    state = initial_state(E, b, "admm", w)
    for _ in range(30):
        w = raar_step(E, b, w, 0.8)
        lam_prev = state.lam
        state = admm_step(E, b, state, beta=0.8)
        assert np.linalg.norm((state.y + lam_prev) - w) <= 1e-10 * np.linalg.norm(w)


def test_run_with_zero_magnitudes_stays_finite(dense_small):
    # Poisson counting data can contain exact zeros; iterates and
    # diagnostics must stay finite through the zero-phase convention
    E, x0, b = dense_small
    b = b.copy()
    b[[0, 5, 11]] = 0.0
    raar0 = initial_state(E, b, "raar", random_lift(E.N, seed=2))
    result = run(E, b, "raar", ParameterSchedule.constant(0.8), raar0, 50,
                 StoppingRule(fixed_budget=True))
    assert np.all(np.isfinite(result.state.w))
    assert np.isfinite(result.final_record.objective)
    assert np.isfinite(result.final_record.deriv_norm)


# ---------------------------------------------------------------------------
# One projection per iteration: operator counts, non-finite stop, records
# ---------------------------------------------------------------------------


ALGOS = ["raar", "admm", "drs"]
_PARAM = {"raar": 0.9, "admm": 0.9, "drs": 0.25}
_LIFT = {"raar": "w", "admm": "lift", "drs": "z"}  # the vector run keeps per iterate


class CountingEnsemble(MeasurementEnsemble):
    """Delegates to an ensemble and counts ``apply``/``apply_adjoint`` calls.

    With ``nan_on_apply = j`` the j-th ``apply`` call returns NaNs.
    """

    def __init__(self, inner, nan_on_apply=None):
        self.inner, self.n, self.N = inner, inner.n, inner.N
        self.applies = self.adjoints = 0
        self.nan_on_apply = nan_on_apply

    def apply(self, w):
        self.applies += 1
        out = self.inner.apply(w)
        return out * np.nan if self.applies == self.nan_on_apply else out

    def apply_adjoint(self, x):
        self.adjoints += 1
        return self.inner.apply_adjoint(x)


def _initial_state(algo, E, b, seed, rho=0.25):
    return initial_state(E, b, algo, random_lift(E.N, seed=seed), rho)


def _public_steps(algo, E, b, state, param, n):
    """``(lift, z, lambda)`` of ``state`` and of ``n`` public steps from it."""
    out = []
    for k in range(n + 1):
        if k:
            if algo == "raar":
                state = RaarState(w=raar_step(E, b, state.w, param))
            elif algo == "admm":
                state = admm_step(E, b, state, beta=param)
            else:
                state = drs_step(E, b, state, rho=param)
        if algo == "raar":
            z = project_torus(state.w, b)
            out.append((state.w, z, state.w - z))
        else:
            out.append((getattr(state, _LIFT[algo]), state.z, state.lam))
    return out


def _direct_record(E, b, z, lam, param, algo):
    """Residual, derivative norm, objective and basin ratio written out from their definitions."""
    qz, ql = E.project_complement(z), E.project_complement(lam)
    a_lam = np.linalg.norm(E.apply(lam))
    residual = np.linalg.norm(qz) / np.linalg.norm(b)
    if algo == "drs":
        rho = param
        beta = 1.0 / (1.0 + rho)
        deriv = np.hypot(np.linalg.norm(qz), a_lam / rho)
        obj = 0.5 * np.linalg.norm(np.abs(z) - b) ** 2
        obj += 0.5 * rho * (np.linalg.norm(qz + ql / rho) ** 2 - np.linalg.norm(lam / rho) ** 2)
    else:
        beta = param
        deriv = np.hypot(np.linalg.norm(E.project_complement((1.0 - beta) * lam + beta * z)), a_lam)
        obj = 0.5 * beta * np.linalg.norm(E.project_complement(z - lam)) ** 2 - 0.5 * np.linalg.norm(lam) ** 2
    denom = beta * np.linalg.norm(qz) ** 2 + (1.0 - beta) * np.linalg.norm(ql) ** 2 + a_lam**2
    return residual, deriv, obj, 1.0 + 2.0 * np.real(np.vdot(z, lam)) / denom


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize(
    "stop, record_every",
    [(StoppingRule(fixed_budget=True), 1), (StoppingRule(fixed_budget=True), 10),
     (StoppingRule(residual_tol=1e-10, deriv_tol=1e-10), 7)],
)
def test_run_costs_one_projection_per_iteration(dense_wide, algo, stop, record_every):
    E0, _, b = dense_wide
    E = CountingEnsemble(E0)
    init = _initial_state(algo, E0, b, seed=5)
    result = run(E, b, algo, ParameterSchedule.constant(_PARAM[algo]), init, 400, stop,
                 record_every=record_every)
    k = result.final_record.k
    if stop.fixed_budget:
        # one projection starts the run, one per step, one for the final record
        assert k == 400 and (E.applies, E.adjoints) == (402, 402)
    else:
        # one projection starts the run and one per step; step k + 1 gave the stopping record
        assert result.stop_reason in ("residual", "deriv_norm") and k < 400
        assert (E.applies, E.adjoints) == (k + 2, k + 2)


@pytest.mark.parametrize("algo", ALGOS)
def test_run_iterates_are_the_public_steps(cdp_8x8, algo):
    E, _, b = cdp_8x8
    init = _initial_state(algo, E, b, seed=4)
    seen = []
    run(E, b, algo, ParameterSchedule.constant(_PARAM[algo]), init, 60,
        StoppingRule(fixed_budget=True), on_iterate=lambda k, w: seen.append((k, w)))
    expected = _public_steps(algo, E, b, init, _PARAM[algo], 60)
    assert [k for k, _w in seen] == list(range(61))
    for (_k, w), (lift, _z, _lam) in zip(seen, expected):
        np.testing.assert_array_equal(w, lift)


@pytest.mark.parametrize(
    "stop", [StoppingRule(fixed_budget=True), StoppingRule(residual_tol=1e-10, deriv_tol=1e-10)]
)
def test_raar_run_projects_onto_the_torus_once_per_iteration(monkeypatch, dense_wide, stop):
    # the record's [w]_Z is handed to the next raar_step instead of recomputed
    import saddle_raar.solvers as solvers

    E, _, b = dense_wide
    counts = {"torus": 0, "steps": 0}
    torus, step = solvers.project_torus, solvers.raar_step

    def counted_torus(w, b):
        counts["torus"] += 1
        return torus(w, b)

    def counted_step(*args):
        counts["steps"] += 1
        return step(*args)

    monkeypatch.setattr(solvers, "project_torus", counted_torus)
    monkeypatch.setattr(solvers, "raar_step", counted_step)
    result = run(E, b, "raar", ParameterSchedule.constant(0.9), _initial_state("raar", E, b, seed=5),
                 400, stop)
    # one for the start and one per step, also for the step a stopping rule drops
    assert counts["steps"] == result.final_record.k + (0 if stop.fixed_budget else 1)
    assert counts["torus"] == counts["steps"] + 1


def test_raar_step_with_given_torus_point_is_the_same_step(cdp_8x8):
    E, _, b = cdp_8x8
    w = random_lift(E.N, seed=6)
    np.testing.assert_array_equal(raar_step(E, b, w, 0.8, project_torus(w, b)), raar_step(E, b, w, 0.8))


def test_public_steps_cost_one_projection(dense_small):
    E0, _, b = dense_small
    for algo in ALGOS:
        E = CountingEnsemble(E0)
        state = _initial_state(algo, E0, b, seed=3)
        if algo == "raar":
            raar_step(E, b, state.w, 0.9)
        elif algo == "admm":
            admm_step(E, b, state, beta=0.9)
        else:
            drs_step(E, b, state)
        assert (E.applies, E.adjoints) == (1, 1), algo


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("record_every", [1, 10])
def test_nonfinite_iterate_stops_and_keeps_trace(dense_small, algo, record_every):
    # apply call 1 starts the run and call j + 1 is step j's projection, so
    # step 4 goes non-finite; iterate 3's record would need that projection
    E0, _, b = dense_small
    E = CountingEnsemble(E0, nan_on_apply=5)
    init = _initial_state(algo, E0, b, seed=2)
    ws = []
    result = run(E, b, algo, ParameterSchedule.constant(_PARAM[algo]), init, 50,
                 StoppingRule(fixed_budget=True), record_every=record_every,
                 on_iterate=lambda k, w: ws.append(w))
    assert result.stop_reason == "nonfinite"
    assert [r.k for r in result.records] == ([0, 1, 2] if record_every == 1 else [0])
    assert all(np.isfinite([r.residual, r.deriv_norm, r.t_ratio, r.objective]).all() for r in result.records)
    assert len(ws) == 4
    assert all(np.isfinite(w).all() for w in ws)
    np.testing.assert_array_equal(ws[-1], _public_steps(algo, E0, b, init, _PARAM[algo], 3)[-1][0])


@pytest.mark.parametrize("algo", ALGOS)
def test_nonfinite_magnitudes_stop_after_the_last_finite_record(dense_small, algo):
    # step 4 sees a NaN magnitude after its projection: iterate 3 keeps its record
    E0, _, b0 = dense_small
    b = b0.copy()

    class SpoilsMagnitudes(CountingEnsemble):
        def apply(self, w):
            if self.applies == 4:
                b[0] = np.nan
            return super().apply(w)

    init = _initial_state(algo, E0, b0, seed=2)
    with np.errstate(invalid="ignore"):
        result = run(SpoilsMagnitudes(E0), b, algo, ParameterSchedule.constant(_PARAM[algo]), init, 50,
                     StoppingRule(residual_tol=0.0, deriv_tol=0.0))
    assert result.stop_reason == "nonfinite"
    assert [r.k for r in result.records] == [0, 1, 2, 3]
    assert all(np.isfinite([r.residual, r.deriv_norm, r.t_ratio]).all() for r in result.records)
    expected = _public_steps(algo, E0, b0, init, _PARAM[algo], 3)[-1][0]
    np.testing.assert_array_equal(getattr(result.state, _LIFT[algo]), expected)


def test_nonfinite_initial_state_rejected(dense_small):
    E, _, b = dense_small
    for algo in ALGOS:
        init = _initial_state(algo, E, b, seed=2)
        vec = "w" if algo == "raar" else "lam"
        setattr(init, vec, getattr(init, vec).copy())
        getattr(init, vec)[0] = np.inf
        with pytest.raises(ValueError):
            run(E, b, algo, ParameterSchedule.constant(_PARAM[algo]), init, 5)


def test_initial_state_is_each_forms_start(dense_small):
    # the starts callers used to build by hand, from one lift
    E, _, b = dense_small
    w0 = random_lift(E.N, seed=8)
    raar0 = initial_state(E, b, "raar", w0)
    admm0 = initial_state(E, b, "admm", w0)
    drs0 = initial_state(E, b, "drs", w0, 0.25)
    assert (type(raar0), type(admm0), type(drs0)) == (RaarState, AdmmState, DrsState)
    z1 = project_torus(w0, b)
    expected = [(raar0.w, w0), (admm0.y, z1), (admm0.z, z1), (admm0.lam, w0 - z1),
                (drs0.y, w0), (drs0.z, w0), (drs0.lam, np.zeros_like(w0))]
    for got, want in expected:
        np.testing.assert_array_equal(got, want)
    assert drs0.rho == 0.25


def test_initial_state_rejects_bad_starts(dense_small):
    E, _, b = dense_small
    w0 = random_lift(E.N, seed=8)
    with pytest.raises(InvalidDataError):
        initial_state(E, b, "admm", w0[:-1])
    with pytest.raises(ValueError):
        initial_state(E, b, "drs", w0)  # a splitting start needs its penalty
    with pytest.raises(ValueError):
        initial_state(E, b, "nope", w0)


@pytest.mark.parametrize("algo", ALGOS)
def test_run_returns_the_pair_of_its_final_state(dense_wide, algo):
    from saddle_raar.solvers import _FORMS

    E, _, b = dense_wide
    init = _initial_state(algo, E, b, seed=2)
    schedule = ParameterSchedule.constant(_PARAM[algo])
    results = [
        run(E, b, algo, schedule, init, 30, StoppingRule(fixed_budget=True)),
        run(E, b, algo, schedule, init, 3000, StoppingRule(residual_tol=1e-8, deriv_tol=0.0)),
        run(CountingEnsemble(E, nan_on_apply=5), b, algo, schedule, init, 50, StoppingRule(fixed_budget=True)),
    ]
    assert [r.stop_reason for r in results] == ["max_iters", "residual", "nonfinite"]
    for result in results:
        z, lam = _FORMS[algo].pair(result.state, b)
        np.testing.assert_array_equal(result.z, z)
        np.testing.assert_array_equal(result.lam, lam)


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("ensemble", ["dense_wide", "cdp_8x8"])
def test_run_records_match_direct_formulas(request, algo, ensemble):
    E, _, b = request.getfixturevalue(ensemble)
    param = _PARAM[algo]
    init = _initial_state(algo, E, b, seed=11)
    steps = 150
    result = run(E, b, algo, ParameterSchedule.constant(param), init, steps,
                 StoppingRule(fixed_budget=True))
    pairs = [(z, lam) for _lift, z, lam in _public_steps(algo, E, b, init, param, steps)]
    assert len(result.records) == len(pairs) == steps + 1

    def close(a, ref, rel):
        return abs(a - ref) <= rel * abs(ref)

    checked = 0
    for rec, (z, lam) in zip(result.records, pairs):
        assert np.sign(rec.t_ratio) == np.sign(diagnostics(E, b, z, lam, param, rec.k, algo=algo).t_ratio), rec.k
        residual, deriv, obj, t_ratio = _direct_record(E, b, z, lam, param, algo)
        if residual >= 1e-4:
            assert close(rec.t_ratio, t_ratio, 1e-6), rec.k
        if residual < 1e-6:
            continue
        checked += 1
        assert close(rec.residual, residual, 1e-9), rec.k
        assert close(rec.deriv_norm, deriv, 1e-9), rec.k
        assert close(rec.objective, obj, 1e-9), rec.k
    assert checked >= 20


@pytest.mark.parametrize("algo", ALGOS)
def test_carried_projections_stay_on_the_range(monkeypatch, algo):
    # criterion 10's instance and stopping rule; raar/admm at the paired beta
    import saddle_raar.solvers as solvers

    E = build_gaussian_ensemble(16, 64, seed=1)
    rng = np.random.default_rng(5)
    b = np.abs(E.apply_adjoint(rng.standard_normal(16) + 1j * rng.standard_normal(16)))
    w0 = random_lift(E.N, seed=0)
    param = 0.25 if algo == "drs" else beta_from_rho(0.25)
    init = initial_state(E, b, algo, w0, 0.25)
    seen = []
    record = solvers.diagnostics_from_projections

    def keep_last(b, b_norm, z, lam, pz, pl, *rest):
        seen[:] = [(z, lam, pz, pl)]
        return record(b, b_norm, z, lam, pz, pl, *rest)

    monkeypatch.setattr(solvers, "diagnostics_from_projections", keep_last)
    scale = 1e-12 * np.linalg.norm(b)
    stopped = run(E, b, algo, ParameterSchedule.constant(param), init, 6000,
                  StoppingRule(residual_tol=1e-13, deriv_tol=1e-12))
    assert stopped.stop_reason in ("residual", "deriv_norm") and stopped.final_record.k >= 100
    z, lam, pz, pl = seen[0]
    assert np.linalg.norm(pz - E.project_range(z)) <= scale
    assert np.linalg.norm(pl - E.project_range(lam)) <= scale

    # a full budget records its final iterate from the carry as well
    full = run(E, b, algo, ParameterSchedule.constant(param), init, 150, StoppingRule(fixed_budget=True))
    assert full.stop_reason == "max_iters" and full.final_record.k == 150
    z, lam, pz, pl = seen[0]
    np.testing.assert_array_equal(z, full.z)
    np.testing.assert_array_equal(lam, full.lam)
    assert np.linalg.norm(pz - E.project_range(z)) <= scale
    assert np.linalg.norm(pl - E.project_range(lam)) <= scale
