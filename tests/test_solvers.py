import copy
import dataclasses
import math
import types

import numpy as np
import pytest

from saddle_raar import (
    AdmmState,
    DrsState,
    InvalidDataError,
    ParameterSchedule,
    RaarState,
    StoppingRule,
    admm_step,
    beta_from_rho,
    beta_prime,
    build_cdp_ensemble,
    build_gaussian_ensemble,
    diagnostics,
    drs_step,
    finish,
    initial_state,
    project_torus,
    raar_step,
    random_lift,
    reconstruct,
    rho_from_beta,
    run,
)
from saddle_raar.analysis import (
    _norm,
    _projected_row,
    aligned_error,
    certify_cross_section_minimizer,
    certify_drs_cross_section,
    certify_fixed_point,
    dual_gradient,
    fejer_monitor,
    objective,
)
import saddle_raar.operators as operators
from saddle_raar.artifacts import load_solver_state, save_solver_state
from saddle_raar.operators import split_lift
from saddle_raar.solvers import curvature, drs_fixed_point_residuals, fixed_point_check
from conftest import (CountingEnsemble, contraction_margin, convergence_functional, placed, random_complex, run_rows,
                      trace_row_work)


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
        sched = ParameterSchedule.constant(0.75)
        stop = StoppingRule(fixed_budget=True)
        ws_r, ws_a = [], []
        run(E, b, "raar", sched, w0, 40, stop, on_iterate=lambda k, w: ws_r.append(w.copy()))
        run(E, b, "admm", sched, w0, 40, stop, on_iterate=lambda k, w: ws_a.append(w.copy()))
        assert len(ws_r) == len(ws_a) == 41
        for wr, wa in zip(ws_r, ws_a):
            assert np.linalg.norm(wr - wa) <= 1e-10 * np.linalg.norm(wr)


class TestDrs:
    def test_fixed_at_solution(self, dense_wide):
        E, x0, b = dense_wide
        z_star = E.apply_adjoint(x0)
        state = initial_state(E, b, "drs", z_star)
        new = drs_step(E, b, state, 0.5)
        assert np.linalg.norm(new.z - z_star) <= 1e-12 * np.linalg.norm(z_star)
        assert np.linalg.norm(new.lam) <= 1e-12 * np.linalg.norm(z_star)

    def test_converged_fixed_point_conditions(self, dense_wide):
        E, x0, b = dense_wide
        w0 = random_lift(E.N, seed=0)
        result = run(
            E, b, "drs", ParameterSchedule.constant(0.25), w0, 6000,
            StoppingRule(residual_tol=1e-13, deriv_tol=1e-12),
        )
        tol = 1e-8 * np.linalg.norm(b)
        assert all(v <= tol for v in drs_fixed_point_residuals(E, b, result.state, 0.25))

    def test_penalty_sensitivity(self, dense_wide):
        E, _, b = dense_wide
        w0 = random_lift(E.N, seed=1)
        s1 = s2 = initial_state(E, b, "drs", w0)
        for _ in range(5):
            s1 = drs_step(E, b, s1, 1.0)
            s2 = drs_step(E, b, s2, 0.5)
        assert np.linalg.norm(s1.z - s2.z) > 1e-8 * np.linalg.norm(b)

    def test_rho_validation(self, dense_wide):
        E, _, b = dense_wide
        state = initial_state(E, b, "drs", random_lift(E.N, seed=1))
        for rho in (-1.0, 0.0, np.inf, np.nan):  # the range a state file's rho is checked against too
            with pytest.raises(ValueError, match=r"rho must lie in \(0, inf\)"):
                drs_step(E, b, state, rho)


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

    def test_rho_outside_its_range_is_rejected(self):
        # the drs step's range and message; inf once gave beta 0.0 and NaN gave NaN
        for rho in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"rho must lie in \(0, inf\), got"):
                beta_from_rho(rho)


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

    def test_coincident_breakpoints_jump(self):
        s = ParameterSchedule(((1, 0.9), (5, 0.9), (5, 0.5)))
        assert s.value_at(5) == 0.9
        assert s.value_at(6) == 0.5
        assert s.value_at(100) == 0.5

    def test_breakpoint_order(self):
        with pytest.raises(ValueError):
            ParameterSchedule(((10, 0.9), (5, 0.8)))

    def test_out_of_range_param_rejected(self, dense_small):
        E, _, b = dense_small
        w0 = random_lift(E.N, seed=4)
        with pytest.raises(ValueError):
            run(E, b, "admm", ParameterSchedule.constant(1.0), w0, 2)
        with pytest.raises(ValueError):
            run(E, b, "raar", ParameterSchedule.constant(1.2), w0, 2)
        with pytest.raises(ValueError):
            run(E, b, "drs", ParameterSchedule(((1, 0.25), (2, 0.0))), w0, 5)


class TestRunLoop:
    def test_zero_budget_gives_initial_record(self, dense_small):
        E, _, b = dense_small
        w0 = random_lift(E.N, seed=2)
        result, rows = run_rows(E, b, "raar", ParameterSchedule.constant(0.9), w0, 0)
        assert len(rows) == 1
        assert rows[0].k == 0 and result.final_record is rows[0]

    def test_record_stride_and_final(self, dense_small):
        E, _, b = dense_small
        w0 = random_lift(E.N, seed=2)
        result, rows = run_rows(
            E, b, "raar", ParameterSchedule.constant(0.9), w0, 25,
            StoppingRule(fixed_budget=True), record_every=10,
        )
        assert [r.k for r in rows] == [0, 10, 20, 25]
        assert result.final_record is rows[-1]

    def test_stopping_on_residual(self, dense_wide):
        E, _, b = dense_wide
        w0 = random_lift(E.N, seed=0)
        result = run(
            E, b, "raar", ParameterSchedule.constant(0.9), w0, 3000,
            StoppingRule(residual_tol=1e-10, deriv_tol=0.0),
        )
        assert result.stop_reason == "residual"
        assert result.final_record.residual <= 1e-10

    def test_unknown_algo(self, dense_small):
        E, _, b = dense_small
        w0 = random_lift(E.N, seed=2)
        with pytest.raises(ValueError):
            run(E, b, "nope", ParameterSchedule.constant(0.9), w0, 1)


class TestFixedPointConditions:
    def test_split_conditions_after_convergence(self, dense_wide):
        # range part: P((b - |w|) u) ~ 0; complement part matches the
        # penalty-scaled magnitude defect
        E, _, b = dense_wide
        beta = 0.9
        w0 = random_lift(E.N, seed=3)
        result = run(
            E, b, "raar", ParameterSchedule.constant(beta), w0, 3000,
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
        w0 = random_lift(E.N, seed=0)
        ws = []
        run(
            E, b, "raar", ParameterSchedule.constant(beta), w0, 400,
            StoppingRule(fixed_budget=True), on_iterate=lambda k, w: ws.append(w.copy()),
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
        w0 = random_lift(E0.N, seed=0)
        ws = []
        run(E0, b, "raar", ParameterSchedule.constant(0.9), w0, 20, StoppingRule(fixed_budget=True),
            on_iterate=lambda k, w: ws.append(w.copy()))
        betas = [0.9 - 0.01 * k for k in range(len(ws))]
        E = CountingEnsemble(E0)
        mon = fejer_monitor(E, b, ws, betas, z_star, lam_star)
        assert (E.applies, E.adjoints) == (3 * 20, 2 * 20)
        for k in range(1, len(ws)):
            z = project_torus(ws[k - 1], b)
            lam = ws[k - 1] - z
            assert mon["T"][k - 1] == convergence_functional(E, z, lam, z_star, lam_star, betas[k])
            assert mon["margin"][k - 1] == contraction_margin(E, z, lam, z_star, lam_star, betas[k])


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
    w0 = random_lift(E.N, seed=2)
    result = run(E, b, "raar", ParameterSchedule.constant(0.8), w0, 50,
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
     (StoppingRule(residual_tol=1e-10, deriv_tol=1e-10), 7),
     (StoppingRule(residual_tol=1e-10, deriv_tol=0.0), 400)],
)
def test_run_costs_one_projection_per_iteration(dense_wide, algo, stop, record_every):
    E0, _, b = dense_wide
    E = CountingEnsemble(E0)
    result = run(E, b, algo, ParameterSchedule.constant(_PARAM[algo]), random_lift(E.N, seed=5), 400, stop,
                 record_every=record_every)
    k = result.final_record.k
    if stop.fixed_budget:
        # one projection starts the run, one per step, one for the final record
        assert k == 400 and (E.applies, E.adjoints) == (402, 402)
    else:
        # one projection starts the run and one per step; step k + 1 gave the stopping record
        assert result.stop_reason in ("residual", "deriv_norm") and k < 400
        assert (E.applies, E.adjoints) == (k + 2, k + 2)


def _bits(result):
    """Everything of a run but its trace and wall clock, as bytes and reprs."""
    arrays = [v for v in vars(result.state).values() if isinstance(v, np.ndarray)] + [result.z, result.lam]
    return result.stop_reason, _row(result.final_record), [a.tobytes() for a in arrays]


def _row(rec):
    return rec.csv_row()[:-1]  # all but wall_ns


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("record_every", [1, 7, 400])
def test_stopped_run_is_stride_invariant(monkeypatch, dense_wide, algo, record_every):
    # rows not kept test the rule from the residual alone, yet the run
    # stops where, and as, a run that keeps every row does
    import saddle_raar.solvers as solvers

    E, _, b = dense_wide
    stop = StoppingRule(residual_tol=1e-10, deriv_tol=0.0)

    def go(every):
        w0 = random_lift(E.N, seed=5)
        return run_rows(E, b, algo, ParameterSchedule.constant(_PARAM[algo]), w0, 400, stop, record_every=every)

    full, full_rows = go(1)
    assert full.stop_reason == "residual" and full.final_record.k % 7 != 0
    ks = []
    record = solvers.diagnostics

    def counted_record(b, b_norm, z, lam, lam_sq, pz, pl, param, k, *rest):
        ks.append(k)
        return record(b, b_norm, z, lam, lam_sq, pz, pl, param, k, *rest)

    monkeypatch.setattr(solvers, "diagnostics", counted_record)
    strided, strided_rows = go(record_every)
    assert _bits(strided) == _bits(full)
    kept = [r for r in full_rows[:-1] if r.k % record_every == 0] + [full.final_record]
    assert [_row(r) for r in strided_rows] == [_row(r) for r in kept]
    assert ks == [r.k for r in strided_rows]  # a row is built only when it is kept
    if record_every == 400:
        assert ks == [0, full.final_record.k]  # the start's row and the stopping row


@pytest.mark.parametrize("algo", ALGOS)
def test_run_iterates_are_the_public_steps(cdp_8x8, algo):
    E, _, b = cdp_8x8
    w0 = random_lift(E.N, seed=4)
    seen = []
    run(E, b, algo, ParameterSchedule.constant(_PARAM[algo]), w0, 60,
        StoppingRule(fixed_budget=True), on_iterate=lambda k, w: seen.append((k, w.copy())))
    expected = _public_steps(algo, E, b, initial_state(E, b, algo, w0), _PARAM[algo], 60)
    assert [k for k, _w in seen] == list(range(61))
    for (_k, w), (lift, _z, _lam) in zip(seen, expected):
        np.testing.assert_array_equal(w, lift)


@pytest.mark.parametrize("algo", ALGOS)
def test_run_leaves_caller_arrays_alone_and_lends_its_own_lift(monkeypatch, cdp_8x8, algo):
    # run writes only into vectors it allocated; on_iterate sees raar's w and drs's z as
    # read-only views of the run's state, valid during the call, and admm's fresh z + lambda
    import saddle_raar.solvers as solvers

    E, _, b = cdp_8x8
    w0 = random_lift(E.N, seed=4)
    w0_bytes, b_bytes = w0.tobytes(), b.tobytes()
    expected = _public_steps(algo, E, b, initial_state(E, b, algo, w0), _PARAM[algo], 30)
    step = getattr(solvers, f"{algo}_step")
    made, seen = [], []  # the state of each step, as the step returned it, and the k of each call

    def spy(*args, **kwargs):
        made.append(step(*args, **kwargs))
        return made[-1]

    def check(k, w):
        seen.append(k)
        assert len(made) == k
        np.testing.assert_array_equal(w, expected[k][0])
        if algo == "admm":
            assert w.flags.writeable
            assert not any(np.shares_memory(w, v) for s in made[-1:] for v in vars(s).values())
            return
        own = w0 if k == 0 else made[-1] if algo == "raar" else made[-1].z  # the start lifts w0 itself
        assert np.shares_memory(w, own)
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0

    monkeypatch.setattr(solvers, f"{algo}_step", spy)
    result = run(E, b, algo, ParameterSchedule.constant(_PARAM[algo]), w0, 30,
                 StoppingRule(fixed_budget=True), on_iterate=check)
    assert w0.tobytes() == w0_bytes and b.tobytes() == b_bytes
    assert len(made) == 30 and seen == list(range(31))
    np.testing.assert_array_equal(getattr(result.state, _LIFT[algo]), expected[-1][0])
    np.testing.assert_array_equal(result.z, expected[-1][1])
    np.testing.assert_array_equal(result.lam, expected[-1][2])


@pytest.mark.parametrize(
    "stop", [StoppingRule(fixed_budget=True), StoppingRule(residual_tol=1e-10, deriv_tol=1e-10)]
)
def test_raar_run_projects_onto_the_torus_once_per_iteration(monkeypatch, dense_wide, stop):
    # the record's [w]_Z is handed to the next raar_step instead of recomputed
    import saddle_raar.solvers as solvers

    E, _, b = dense_wide
    counts = {"torus": 0, "steps": 0}
    torus, step = solvers.project_torus, solvers.raar_step

    def counted_torus(w, b, out=None):
        counts["torus"] += 1
        return torus(w, b, out=out)

    def counted_step(*args, **kwargs):
        counts["steps"] += 1
        return step(*args, **kwargs)

    for module in (solvers, operators):  # raar's pair projects in operators.split_lift
        monkeypatch.setattr(module, "project_torus", counted_torus)
    monkeypatch.setattr(solvers, "raar_step", counted_step)
    result = run(E, b, "raar", ParameterSchedule.constant(0.9), random_lift(E.N, seed=5), 400, stop)
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
        state = initial_state(E0, b, algo, random_lift(E0.N, seed=3))
        if algo == "raar":
            raar_step(E, b, state.w, 0.9)
        elif algo == "admm":
            admm_step(E, b, state, beta=0.9)
        else:
            drs_step(E, b, state, 0.25)
        assert (E.applies, E.adjoints) == (1, 1), algo


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("record_every", [1, 10])
def test_nonfinite_iterate_stops_and_keeps_trace(monkeypatch, dense_small, algo, record_every):
    # apply call 1 starts the run and call j + 1 is step j's projection, so
    # step 4 goes non-finite: through a NaN projection, one non-finite entry
    # of it, or one of its torus point.  Iterate 3's record needs that
    # projection, so only a spoilt torus point leaves it in the trace
    import saddle_raar.solvers as solvers

    E0, _, b = dense_small
    w0 = random_lift(E0.N, seed=2)
    schedule, budget = ParameterSchedule.constant(_PARAM[algo]), StoppingRule(fixed_budget=True)
    rows = {r.k: _row(r) for r in run_rows(E0, b, algo, schedule, w0, 50, budget)[1]}
    expected = _public_steps(algo, E0, b, initial_state(E0, b, algo, w0), _PARAM[algo], 3)[-1][0]
    torus = solvers.project_torus
    for site, bad in (("all of P", np.nan), ("P", np.inf), ("P", np.nan), ("z", np.inf), ("z", np.nan)):
        E = CountingEnsemble(E0, nan_on_apply=5 if site == "all of P" else None)

        def spoil(v, at, site=site, bad=bad, E=E):
            if at == site and E.applies == 5:
                v = v.copy()
                v[5] = bad
            return v

        monkeypatch.setattr(E, "project_range", lambda w, out=None, E=E: spoil(E.apply_adjoint(E.apply(w), out=out), "P"))
        for module in (solvers, operators):  # raar's pair projects in operators.split_lift
            monkeypatch.setattr(module, "project_torus", lambda w, b, out=None: spoil(torus(w, b, out=out), "z"))
        ws = []
        with np.errstate(invalid="ignore"):
            result, kept = run_rows(E, b, algo, schedule, w0, 50, budget, record_every=record_every,
                                    on_iterate=lambda k, w: ws.append(w.copy()))
        assert result.stop_reason == "nonfinite", site
        ks = [0, 1, 2] if record_every == 1 else [0]
        assert [r.k for r in kept] == (ks + [3] if site == "z" else ks), site
        assert result.final_record is kept[-1], site
        assert [_row(r) for r in kept] == [rows[r.k] for r in kept], site
        assert all(np.isfinite([r.residual, r.deriv_norm, r.t_ratio, r.objective]).all() for r in kept)
        assert len(ws) == 4
        assert all(np.isfinite(w).all() for w in ws)
        np.testing.assert_array_equal(ws[-1], expected)
        np.testing.assert_array_equal(getattr(result.state, _LIFT[algo]), expected)


@pytest.mark.parametrize("algo", ALGOS)
def test_a_nonfinite_entry_reaches_the_next_lambda(monkeypatch, dense_small, algo):
    # run sweeps only the next lambda for finiteness.  A step's non-finite
    # entry comes from its new point w (from the range projection: raar's
    # next lift, the point admm and drs project onto the torus), from its
    # incoming lambda (raar's w - z) or from its torus point z; each must
    # reach the next lambda, at its own entry and wherever z went non-finite
    import saddle_raar.solvers as solvers

    E, _, b = dense_small
    form, param, i = solvers._form(algo), _PARAM[algo], 5
    state = initial_state(E, b, algo, random_lift(E.N, seed=2))
    z, lam = form.pair(state, b)
    torus = solvers.project_torus

    class SpoilsProjection:
        def project_range(self, w, out=None):
            out = E.project_range(w, out=out)
            out[i] = bad
            return out

    def spoilt(v):
        v = v.copy()
        v[i] = bad
        return v

    for bad in (np.inf, np.nan):
        for site in ("w", "lam", "z"):
            start = state
            if site == "lam":
                lam_bad = spoilt(lam)
                start = RaarState(w=z + lam_bad) if algo == "raar" else type(state)(state.y, state.z, lam_bad)
            with monkeypatch.context() as m, np.errstate(invalid="ignore"):
                if site == "z":
                    for module in (solvers, operators):  # raar's pair projects in operators.split_lift
                        m.setattr(module, "project_torus", lambda w, b, out=None: spoilt(torus(w, b, out=out)))
                nxt = form.advance(SpoilsProjection() if site == "w" else E, b, start, param, z)
                next_z, next_lam = form.pair(nxt, b)
            assert not np.isfinite(next_lam[i]), (bad, site)
            assert not np.isfinite(next_lam[~np.isfinite(next_z)]).any(), (bad, site)


@pytest.mark.parametrize("algo", ALGOS)
def test_a_finite_lambda_that_overflows_the_dot_runs_on(monkeypatch, dense_small, algo):
    # entries near 1e160 overflow lambda^H lambda: the sweep then finds lambda finite, and the
    # run goes on exactly as with the sweep alone
    import saddle_raar.solvers as solvers

    E, _, b = dense_small
    w0 = 1e160 * random_lift(E.N, seed=2)
    args = (E, b, algo, ParameterSchedule.constant(_PARAM[algo]), w0, 50, StoppingRule(fixed_budget=True))
    with np.errstate(over="ignore", invalid="ignore"):  # the trace's norms overflow too
        lams = [lam for _, _, lam in _public_steps(algo, E, b, initial_state(E, b, algo, w0), _PARAM[algo], 50)]
        assert any(not math.isfinite(np.vdot(lam, lam).real) for lam in lams)
        assert all(np.isfinite(lam).all() for lam in lams)
        result, rows = run_rows(*args)
        monkeypatch.setattr(solvers, "math", types.SimpleNamespace(isfinite=lambda x: False))  # the sweep alone
        swept, swept_rows = run_rows(*args)
    assert result.stop_reason == "max_iters" and len(rows) == 51
    assert repr([_row(r) for r in rows]) == repr([_row(r) for r in swept_rows])
    assert repr(_bits(result)) == repr(_bits(swept))


@pytest.mark.parametrize("algo", ["raar", "drs"])
def test_run_does_not_hang_on_where_a_star_sits(algo):
    # A* re-seated off its cache line, at 16, 32 and 48 mod 64: every bit of the run is kept
    E = build_gaussian_ensemble(100, 400, seed=3)
    b = np.abs(E.apply_adjoint(random_complex(np.random.default_rng(4), 100)))
    args = (b, algo, ParameterSchedule.constant(_PARAM[algo]), random_lift(E.N, seed=5), 50,
            StoppingRule(fixed_budget=True))
    ref, ref_rows = run_rows(E, *args)
    size = E._adjoint.nbytes
    for offset in (16, 32, 48):
        moved = copy.copy(E)
        buf = np.empty(size + 64, dtype=np.uint8)
        start = (offset - buf.ctypes.data) % 64
        moved._adjoint = buf[start:start + size].view(np.complex128).reshape(E._adjoint.shape)
        moved._adjoint[...] = E._adjoint
        assert moved._adjoint.ctypes.data % 64 == offset
        out, rows = run_rows(moved, *args)
        assert [_row(r) for r in rows] == [_row(r) for r in ref_rows]
        assert _bits(out) == _bits(ref)


def test_alignment_changes_speed_not_bits():
    # at CDP 32x32 (N = 8192) numpy's SIMD loops peel differently at each offset of a
    # vector in a cache line; a step written into out vectors there, or a row, keeps every bit
    E = build_cdp_ensemble((32, 32), seed=0)
    rng = np.random.default_rng(7)
    b = np.abs(E.apply_adjoint(random_complex(rng, E.n)))
    y, z, lam, pz, pl = (random_complex(rng, E.N) for _ in range(5))
    z = project_torus(z, b)

    def bits(place, out):
        vectors = [place(v) for v in (b, y, z, lam, pz, pl)]
        pb, py, pz_, plam, ppz, ppl = vectors
        fresh = (lambda: place(np.zeros(E.N, dtype=complex))) if out else (lambda: None)
        got = [raar_step(E, pb, py, 0.9, pz_, out=(fresh(), fresh()) if out else None)]
        for step, cls, param in ((admm_step, AdmmState, 0.9), (drs_step, DrsState, 0.25)):
            state = step(E, pb, cls(py, pz_, plam), param, out=cls(fresh(), fresh(), fresh()) if out else None)
            got += [state.y, state.z, state.lam]
        work = (*(place(np.empty(E.N, dtype=complex)) for _ in range(4)), place(np.empty(E.N)))
        rows = [diagnostics(pb, float(np.linalg.norm(b)), pz_, plam, np.vdot(plam, plam).real, ppz, ppl, param, 3, 0,
                            algo, work)
                for algo, param in (("raar", 0.9), ("drs", 0.25))]
        assert all(v.tobytes() == w.tobytes() for v, w in zip(vectors, (b, y, z, lam, pz, pl)))  # inputs kept
        return [v.tobytes() for v in got], [repr(_row(r)) for r in rows]

    ref = bits(lambda v: v, out=False)
    for offset in (0, 16, 32, 48):
        for out in (False, True):
            assert bits(lambda v: placed(v, offset), out) == ref, (offset, out)


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

    w0 = random_lift(E0.N, seed=2)
    with np.errstate(invalid="ignore"):
        result, rows = run_rows(SpoilsMagnitudes(E0), b, algo, ParameterSchedule.constant(_PARAM[algo]), w0, 50,
                                StoppingRule(residual_tol=0.0, deriv_tol=0.0))
    assert result.stop_reason == "nonfinite"
    assert [r.k for r in rows] == [0, 1, 2, 3]
    assert all(np.isfinite([r.residual, r.deriv_norm, r.t_ratio]).all() for r in rows)
    expected = _public_steps(algo, E0, b0, initial_state(E0, b0, algo, w0), _PARAM[algo], 3)[-1][0]
    np.testing.assert_array_equal(getattr(result.state, _LIFT[algo]), expected)


def test_initial_state_is_each_forms_start(dense_small):
    # the starts callers used to build by hand, from one lift
    E, _, b = dense_small
    w0 = random_lift(E.N, seed=8)
    raar0 = initial_state(E, b, "raar", w0)
    admm0 = initial_state(E, b, "admm", w0)
    drs0 = initial_state(E, b, "drs", w0)
    assert (type(raar0), type(admm0), type(drs0)) == (RaarState, AdmmState, DrsState)
    z1 = project_torus(w0, b)
    expected = [(raar0.w, w0), (admm0.y, z1), (admm0.z, z1), (admm0.lam, w0 - z1),
                (drs0.y, w0), (drs0.z, w0), (drs0.lam, np.zeros_like(w0))]
    for got, want in expected:
        np.testing.assert_array_equal(got, want)


def test_initial_state_rejects_bad_starts(dense_small):
    E, _, b = dense_small
    w0 = random_lift(E.N, seed=8)
    with pytest.raises(InvalidDataError):
        initial_state(E, b, "admm", w0[:-1])
    with pytest.raises(ValueError):
        initial_state(E, b, "nope", w0)


@pytest.mark.parametrize("record_every", [0, -3])
def test_run_rejects_a_record_stride_below_one(dense_small, record_every):
    E0, _, b = dense_small
    E = CountingEnsemble(E0)
    with pytest.raises(ValueError):
        run(E, b, "raar", ParameterSchedule.constant(0.9), random_lift(E.N, seed=2), 5,
            record_every=record_every)
    assert (E.applies, E.adjoints) == (0, 0)


def _first_entry(value):
    return lambda v: np.concatenate([[value], v[1:]])


_MALFORMED = {  # name: (magnitudes, lift from valid ones, or None to keep them; max_iters; record_every; error)
    "negative_b": (lambda b: np.concatenate([-b[:1], b[1:]]), None, 5, 1, InvalidDataError),
    "zero_b": (np.zeros_like, None, 5, 1, InvalidDataError),
    "short_b": (lambda b: b[:-1], None, 5, 1, InvalidDataError),
    "nan_b": (_first_entry(np.nan), None, 5, 1, InvalidDataError),
    "short_w0": (None, lambda w: w[:-1], 5, 1, InvalidDataError),
    "zero_w0": (None, np.zeros_like, 5, 1, InvalidDataError),
    "nan_w0": (None, _first_entry(np.nan), 5, 1, InvalidDataError),
    "inf_w0": (None, _first_entry(np.inf), 5, 1, InvalidDataError),
    "negative_budget": (None, None, -1, 1, ValueError),
    "fractional_budget": (None, None, 5.0, 1, TypeError),
    "fractional_stride": (None, None, 5, 2.5, TypeError),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_is_rejected_before_any_operator_call(dense_small, case):
    spoil_b, spoil_w0, max_iters, record_every, error = _MALFORMED[case]
    E0, _, b = dense_small
    w0 = random_lift(E0.N, seed=2)
    bad_b = b if spoil_b is None else spoil_b(b)
    bad_w0 = w0 if spoil_w0 is None else spoil_w0(w0)
    for algo in ALGOS:
        E = CountingEnsemble(E0)
        with pytest.raises(error):
            run(E, bad_b, algo, ParameterSchedule.constant(_PARAM[algo]), bad_w0, max_iters,
                record_every=record_every)
        if error is InvalidDataError:  # a start's inputs: initial_state makes the same check
            with pytest.raises(error):
                initial_state(E, bad_b, algo, bad_w0)
        assert (E.applies, E.adjoints) == (0, 0), algo


@pytest.mark.parametrize("case", ["negative_b", "zero_b", "short_b", "nan_b", "nan_state"])
@pytest.mark.parametrize("algo", ALGOS)
def test_fixed_point_check_rejects_malformed_data_before_any_operator_call(dense_small, algo, case):
    # a saved state is outside input: every form's check validates b and the state it reads
    E0, _, b = dense_small
    state = initial_state(E0, b, algo, random_lift(E0.N, seed=2))
    if case == "nan_state":  # the last field, lambda, or raar's w
        last = dataclasses.fields(state)[-1].name
        state = dataclasses.replace(state, **{last: _first_entry(np.nan)(getattr(state, last))})
    else:
        b = _MALFORMED[case][0](b)
    E = CountingEnsemble(E0)
    with pytest.raises(InvalidDataError):
        fixed_point_check(E, b, algo, state, _PARAM[algo])
    assert (E.applies, E.adjoints) == (0, 0)


# Each form's step parameter range as its message words it, and values outside it: NaN, +-inf, 0, a
# negative value and one above the range (+inf for the penalty, 1 for the multiplier form).
_RANGE_MESSAGES = {"raar": "beta must lie in (0, 1]", "admm": "beta must lie in (0, 1)",
                   "drs": "rho must lie in (0, inf)"}
_OUTSIDE = {"raar": (math.nan, math.inf, -math.inf, 0.0, -0.5, 1.5),
            "admm": (math.nan, math.inf, -math.inf, 0.0, -0.5, 1.0),
            "drs": (math.nan, math.inf, -math.inf, 0.0, -0.5)}
# (name, form whose range applies, call given the ensemble, magnitudes, a lift and the parameter)
_PARAM_ENTRY_POINTS = [
    *((f"run[{algo}, max_iters={k}]", algo,
       lambda E, b, w0, v, algo=algo, k=k: run(E, b, algo, ParameterSchedule.constant(v), w0, k))
      for algo in ALGOS for k in (0, 5)),
    ("raar_step", "raar", lambda E, b, w0, v: raar_step(E, b, w0, v)),
    ("admm_step", "admm", lambda E, b, w0, v: admm_step(E, b, initial_state(E, b, "admm", w0), v)),
    ("drs_step", "drs", lambda E, b, w0, v: drs_step(E, b, initial_state(E, b, "drs", w0), v)),
    *((f"{check.__name__}[{algo}]", algo,
       lambda E, b, w0, v, algo=algo, check=check: check(E, b, algo, initial_state(E, b, algo, w0), v))
      for algo in ALGOS for check in (fixed_point_check, curvature)),
    ("beta_from_rho", "drs", lambda E, b, w0, v: beta_from_rho(v)),
    ("rho_from_beta", "admm", lambda E, b, w0, v: rho_from_beta(v)),
    ("beta_prime", "admm", lambda E, b, w0, v: beta_prime(v)),
    ("objective", "raar", lambda E, b, w0, v: objective(E, *split_lift(w0, b), v)),
    ("dual_gradient", "raar", lambda E, b, w0, v: dual_gradient(E, *split_lift(w0, b), v)),
    ("certify_fixed_point", "admm", lambda E, b, w0, v: certify_fixed_point(E, b, w0, v)),
    ("certify_cross_section_minimizer", "raar",
     lambda E, b, w0, v: certify_cross_section_minimizer(E, *split_lift(w0, b), beta=v)),
    ("certify_drs_cross_section", "drs", lambda E, b, w0, v: certify_drs_cross_section(E, b, w0, v)),
]


@pytest.mark.parametrize("name, algo, call", _PARAM_ENTRY_POINTS, ids=[e[0] for e in _PARAM_ENTRY_POINTS])
def test_a_step_parameter_outside_its_range_is_rejected_before_any_operator_call(dense_small, name, algo, call):
    E0, _, b = dense_small
    w0 = random_lift(E0.N, seed=2)
    for value in _OUTSIDE[algo]:
        E = CountingEnsemble(E0)
        with pytest.raises(ValueError) as info:
            call(E, b, w0, value)
        assert str(info.value) == f"{_RANGE_MESSAGES[algo]}, got {value}", name
        assert (E.applies, E.adjoints) == (0, 0), (name, value)


@pytest.mark.parametrize("breakpoints, named", [(((1, 0.9), (100, 1.5)), 1.5), (((1, 1.0), (10, 1e-300)), 0.0)])
def test_a_later_schedule_value_outside_its_range_is_rejected_before_any_operator_call(dense_small, breakpoints, named):
    # the first leaves the range at k = 19; both values of the second lie in (0, 1],
    # but value_at(10) = 1.0 + (1e-300 - 1.0) rounds to 0.0
    E0, _, b = dense_small
    E = CountingEnsemble(E0)
    with pytest.raises(ValueError) as info:
        run(E, b, "raar", ParameterSchedule(breakpoints), random_lift(E0.N, seed=2), 200)
    assert str(info.value) == f"{_RANGE_MESSAGES['raar']}, got {named}"
    assert (E.applies, E.adjoints) == (0, 0)


def _readout_by_hand(E, b, algo, result, param, tol):
    """``(x, saved state fields, pass flag, certificate)`` per form, as callers read a run out without ``finish``."""
    if algo == "raar":
        saved = {"w": result.state.w}
    else:
        saved = {"y": result.state.y, "z": result.state.z, "lam": result.state.lam}
    if algo == "drs":
        x = reconstruct(E, result.z, result.lam, param)
        resids = drs_fixed_point_residuals(E, b, result.state, param)
        passed = bool(max(resids) <= tol * np.linalg.norm(b))
        cert = {"fixed_point_residuals": {"range_dual": resids[0], "complement_primal": resids[1],
                                          "torus_gap": resids[2]}, "certified": passed}
        return x, saved, passed, cert
    w = result.state.w if algo == "raar" else result.state.lift
    z = result.z if algo == "raar" else project_torus(w, b)
    fixed = certify_fixed_point(E, b, w, min(param, 1.0 - 1e-12), tol)
    return reconstruct(E, z, w - z), saved, fixed.certified, fixed.summary()


@pytest.mark.parametrize("algo", ALGOS)
def test_finish_is_each_forms_readout(dense_wide, tmp_path, algo):
    E, _, b = dense_wide
    param = _PARAM[algo]
    w0 = random_lift(E.N, seed=2)
    schedule = ParameterSchedule.constant(param)
    stopped = run(E, b, algo, schedule, w0, 3000, StoppingRule(residual_tol=1e-8, deriv_tol=0.0))
    budget = run(E, b, algo, schedule, w0, 30, StoppingRule(fixed_budget=True))
    assert (stopped.stop_reason, budget.stop_reason) == ("residual", "max_iters")
    # each result passes its check at the looser tol and fails it at the default 1e-8
    for result, loose in ((stopped, 1e-6), (budget, 1e-2)):
        for tol, kwargs, passes in ((loose, {"tol": loose}, True), (1e-8, {}, False)):
            x, saved, passed, cert = _readout_by_hand(E, b, algo, result, param, tol)
            done = finish(E, b, algo, result, param, **kwargs)
            assert passed is passes and done.fixed_point_pass is passes
            assert done.certificate == cert
            # the state a state file keeps: every field of the final state, checked again as finish checks it
            save_solver_state(tmp_path / "state.json", E, b, result.state, algo, param, result.final_record.k)
            kept = load_solver_state(tmp_path / "state.json")["state"]
            assert [f.name for f in dataclasses.fields(kept)] == list(saved)
            for name, value in saved.items():
                np.testing.assert_array_equal(getattr(kept, name), value)
            assert fixed_point_check(E, b, algo, kept, param, **kwargs) == (passes, cert)
            if algo == "admm" and result is budget:  # by hand admm reads out from [lift]_Z, a roundoff apart
                assert np.linalg.norm(done.x - x) <= 1e-15 * np.linalg.norm(x)
            else:
                np.testing.assert_array_equal(done.x, x)


@pytest.mark.parametrize("algo", ALGOS)
def test_run_returns_the_pair_of_its_final_state(dense_wide, algo):
    from saddle_raar.solvers import _FORMS

    E, _, b = dense_wide
    w0 = random_lift(E.N, seed=2)
    schedule = ParameterSchedule.constant(_PARAM[algo])
    results = [
        run(E, b, algo, schedule, w0, 30, StoppingRule(fixed_budget=True)),
        run(E, b, algo, schedule, w0, 3000, StoppingRule(residual_tol=1e-8, deriv_tol=0.0)),
        run(CountingEnsemble(E, nan_on_apply=5), b, algo, schedule, w0, 50, StoppingRule(fixed_budget=True)),
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
    w0 = random_lift(E.N, seed=11)
    steps = 150
    _, rows = run_rows(E, b, algo, ParameterSchedule.constant(param), w0, steps,
                       StoppingRule(fixed_budget=True))
    start = initial_state(E, b, algo, w0)
    pairs = [(z, lam) for _lift, z, lam in _public_steps(algo, E, b, start, param, steps)]
    assert len(rows) == len(pairs) == steps + 1

    def close(a, ref, rel):
        return abs(a - ref) <= rel * abs(ref)

    checked = 0
    for rec, (z, lam) in zip(rows, pairs):
        assert np.sign(rec.t_ratio) == np.sign(_projected_row(E, b, z, lam, param, rec.k, algo=algo).t_ratio), rec.k
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


def _plain_row(b, b_norm, z, lam, pz, pl, param, algo, norm=_norm):
    """Residual, derivative norm and objective of a row in out-of-place expressions, one temporary each.

    The residual's norm is ``np.linalg.norm``; ``norm`` takes every other one.
    """
    zq, lq = z - pz, lam - pl
    zq_norm = float(np.linalg.norm(zq))
    if algo == "drs":
        rho = param
        deriv = float(np.hypot(zq_norm, float(norm(pl)) / rho))
        obj = 0.5 * float(norm(np.abs(z) - b) ** 2)
        obj += 0.5 * rho * float(norm(zq + lq / rho) ** 2 - norm(lam / rho) ** 2)
    else:
        beta = param
        deriv = float(np.hypot(norm((1.0 - beta) * lq + beta * zq), float(norm(pl))))
        obj = 0.5 * beta * float(norm(zq - lq) ** 2) - 0.5 * float(norm(lam)) ** 2
    return zq_norm / b_norm, deriv, obj


@pytest.mark.parametrize("ensemble", ["dense_wide", "cdp_8x8"])
@pytest.mark.parametrize("algo", ALGOS)
def test_row_in_reused_work_vectors_is_bitwise_fresh(request, algo, ensemble):
    E, _, b = request.getfixturevalue(ensemble)
    param = _PARAM[algo]
    b_norm = float(np.linalg.norm(b))
    steps = _public_steps(algo, E, b, initial_state(E, b, algo, random_lift(E.N, seed=6)), param, 9)
    work = trace_row_work(E.N)
    for v in work:
        v[:] = np.nan  # dirty: a row must not read what its work vectors held
    for k in (4, 9):  # two different rows back to back into the same vectors
        _lift, z, lam = steps[k]
        pz, pl, lam_sq = E.project_range(z), E.project_range(lam), np.vdot(lam, lam).real
        reused = diagnostics(b, b_norm, z, lam, lam_sq, pz, pl, param, k, 17, algo, work)
        fresh = diagnostics(b, b_norm, z, lam, lam_sq, pz, pl, param, k, 17, algo, trace_row_work(E.N))
        for name in ("k", "param", "residual", "deriv_norm", "t_ratio", "objective", "wall_ns"):
            assert np.array_equal(getattr(reused, name), getattr(fresh, name)), (k, name)
        plain = _plain_row(b, b_norm, z, lam, pz, pl, param, algo)
        assert np.array_equal((reused.residual, reused.deriv_norm, reused.objective), plain), k


@pytest.mark.parametrize("ensemble", ["dense_wide", "cdp_8x8"])
@pytest.mark.parametrize("algo", ALGOS)
def test_row_over_its_projections_is_bitwise_fresh(request, algo, ensemble):
    # run's aliasing: z - P z goes over P z and lambda - P lambda over P lambda
    E, _, b = request.getfixturevalue(ensemble)
    param = _PARAM[algo]
    b_norm = float(np.linalg.norm(b))
    held_b = b.tobytes()
    steps = _public_steps(algo, E, b, initial_state(E, b, algo, random_lift(E.N, seed=6)), param, 9)
    for k in (4, 9):
        _lift, z, lam = steps[k]
        held = z.tobytes(), lam.tobytes()
        pz, pl, lam_sq = E.project_range(z), E.project_range(lam), np.vdot(lam, lam).real
        fresh = diagnostics(b, b_norm, z, lam, lam_sq, pz, pl, param, k, 17, algo, trace_row_work(E.N))
        t, u, r = trace_row_work(E.N)[2:]
        for v in (t, u, r):
            v[:] = np.nan
        pz, pl = pz.copy(), pl.copy()
        aliased = diagnostics(b, b_norm, z, lam, lam_sq, pz, pl, param, k, 17, algo, (pz, pl, t, u, r))
        assert np.array(dataclasses.astuple(aliased)).tobytes() == np.array(dataclasses.astuple(fresh)).tobytes(), k
        assert (z.tobytes(), lam.tobytes()) == held and b.tobytes() == held_b, k


@pytest.mark.parametrize("algo", ALGOS)
def test_run_allocates_eleven_complex_vectors_and_one_real(monkeypatch, cdp_8x8, algo):
    # the loop's working set: states, pairs, projections and work vector, with the row writing over them
    import saddle_raar.analysis as analysis
    import saddle_raar.solvers as solvers

    E, _, b = cdp_8x8
    made, aligned_empty = [], operators._aligned_empty

    def counted(shape, dtype=np.complex128):
        v = aligned_empty(shape, dtype)
        if v.size == E.N:
            made.append(v.dtype)
        return v

    for module in (solvers, analysis, operators):  # every module a run's vectors could come from
        monkeypatch.setattr(module, "_aligned_empty", counted, raising=False)
    result, rows = run_rows(E, b, algo, ParameterSchedule.constant(_PARAM[algo]), random_lift(E.N, seed=2), 7,
                            record_every=3)
    assert result.stop_reason == "max_iters" and len(rows) == 4
    assert made.count(np.complex128) <= 11 and made.count(np.float64) <= 1 and len(made) <= 12, made


@pytest.mark.parametrize("ensemble", ["dense_wide", "cdp_8x8"])
@pytest.mark.parametrize("algo", ALGOS)
def test_row_norms_agree_with_linalg_norm(request, algo, ensemble):
    # the residual keeps np.linalg.norm's bits, which the stopping rule and
    # every success test read; the other norms are unit-stride dots
    E, _, b = request.getfixturevalue(ensemble)
    param = _PARAM[algo]
    beta = beta_from_rho(param) if algo == "drs" else param
    b_norm = float(np.linalg.norm(b))
    steps = _public_steps(algo, E, b, initial_state(E, b, algo, random_lift(E.N, seed=6)), param, 9)
    for k, (_lift, z, lam) in enumerate(steps):
        pz, pl, lam_sq = E.project_range(z), E.project_range(lam), np.vdot(lam, lam).real
        row = diagnostics(b, b_norm, z, lam, lam_sq, pz, pl, param, k, 17, algo, trace_row_work(E.N))
        assert (row.k, row.param, row.wall_ns) == (k, param, 17)
        assert row.residual.hex() == (np.linalg.norm(z - pz) / b_norm).hex(), k
        _, deriv, obj = _plain_row(b, b_norm, z, lam, pz, pl, param, algo, norm=np.linalg.norm)
        norms = [np.linalg.norm(v) for v in (z - pz, lam - pl, pl)]
        denom = beta * norms[0] ** 2 + (1.0 - beta) * norms[1] ** 2 + norms[2] ** 2
        t_ratio = 1.0 + 2.0 * np.real(np.vdot(z, lam)) / denom
        for name, ref in (("deriv_norm", deriv), ("objective", obj), ("t_ratio", t_ratio)):
            assert abs(getattr(row, name) - ref) <= 1e-12 * max(1.0, abs(ref)), (k, name)


@pytest.mark.parametrize("algo", ALGOS)
def test_carried_projections_stay_on_the_range(monkeypatch, algo):
    # criterion 10's instance and stopping rule; raar/admm at the paired beta
    import saddle_raar.solvers as solvers

    E = build_gaussian_ensemble(16, 64, seed=1)
    rng = np.random.default_rng(5)
    b = np.abs(E.apply_adjoint(rng.standard_normal(16) + 1j * rng.standard_normal(16)))
    w0 = random_lift(E.N, seed=0)
    param = 0.25 if algo == "drs" else beta_from_rho(0.25)
    seen = []
    record = solvers.diagnostics

    def keep_last(b, b_norm, z, lam, lam_sq, pz, pl, *rest):
        seen[:] = [(z, lam, pz.copy(), pl.copy())]  # the row writes over pz and pl
        return record(b, b_norm, z, lam, lam_sq, pz, pl, *rest)

    monkeypatch.setattr(solvers, "diagnostics", keep_last)
    scale = 1e-12 * np.linalg.norm(b)
    stopped = run(E, b, algo, ParameterSchedule.constant(param), w0, 6000,
                  StoppingRule(residual_tol=1e-13, deriv_tol=1e-12))
    assert stopped.stop_reason in ("residual", "deriv_norm") and stopped.final_record.k >= 100
    z, lam, pz, pl = seen[0]
    assert np.linalg.norm(pz - E.project_range(z)) <= scale
    assert np.linalg.norm(pl - E.project_range(lam)) <= scale

    # a full budget records its final iterate from the carry as well
    full = run(E, b, algo, ParameterSchedule.constant(param), w0, 150, StoppingRule(fixed_budget=True))
    assert full.stop_reason == "max_iters" and full.final_record.k == 150
    z, lam, pz, pl = seen[0]
    np.testing.assert_array_equal(z, full.z)
    np.testing.assert_array_equal(lam, full.lam)
    assert np.linalg.norm(pz - E.project_range(z)) <= scale
    assert np.linalg.norm(pl - E.project_range(lam)) <= scale
