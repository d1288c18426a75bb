"""Property tests of the operator invariants on both ensemble kinds.

Hypothesis draws the ensemble sizes, seeds, relaxation parameters and the
global phase; the vectors come from a numpy generator seeded by the drawn
seed, so every entry is nonzero and finite.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddle_raar import (
    AdmmState,
    DrsState,
    ParameterSchedule,
    StoppingRule,
    admm_step,
    build_cdp_ensemble,
    build_gaussian_ensemble,
    drs_step,
    project_torus,
    raar_step,
    rho_from_beta,
    run,
)
from saddle_raar.analysis import diagnostics, dual_gradient
from saddle_raar.operators import split_lift
from saddle_raar.solvers import _range_parts
from conftest import random_complex

# few, small, reproducible examples: the suite's wall time is a budget
PROPERTY_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)
TOL = 1e-12

seeds = st.integers(0, 2**32 - 1)
phases = st.floats(0.0, 2.0 * np.pi, allow_nan=False)


@st.composite
def gaussian_ensembles(draw):
    n = draw(st.integers(1, 6))
    return build_gaussian_ensemble(n, draw(st.integers(n, 4 * n)), seed=draw(seeds))


@st.composite
def cdp_ensembles(draw):
    grid = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    return build_cdp_ensemble(grid, seed=draw(seeds), n_masks=draw(st.integers(2, 3)))


ENSEMBLES = {"gaussian": gaussian_ensembles(), "cdp": cdp_ensembles()}
ensemble_kinds = pytest.mark.parametrize("kind", sorted(ENSEMBLES))


def _magnitudes(rng, N):
    # nonnegative data with some exact zeros, where the torus collapses
    b = rng.random(N)
    b[rng.random(N) < 0.2] = 0.0
    return b


def _close(a, b, scale):
    return np.linalg.norm(a - b) <= TOL * max(scale, 1.0)


@ensemble_kinds
@PROPERTY_SETTINGS
@given(data=st.data(), seed=seeds)
def test_isometry(kind, data, seed):
    E = data.draw(ENSEMBLES[kind])
    x = random_complex(np.random.default_rng(seed), E.n)
    assert _close(E.apply(E.apply_adjoint(x)), x, np.linalg.norm(x))


@ensemble_kinds
@PROPERTY_SETTINGS
@given(data=st.data(), seed=seeds)
def test_range_projection_idempotent_and_pythagoras(kind, data, seed):
    E = data.draw(ENSEMBLES[kind])
    w = random_complex(np.random.default_rng(seed), E.N)
    pw = E.project_range(w)
    norm2 = np.linalg.norm(w) ** 2
    assert _close(E.project_range(pw), pw, np.linalg.norm(w))
    total = np.linalg.norm(w - pw) ** 2 + np.linalg.norm(E.apply(w)) ** 2
    assert abs(total - norm2) <= TOL * norm2


@ensemble_kinds
@PROPERTY_SETTINGS
@given(data=st.data(), seed=seeds, theta=phases)
def test_torus_projection_phase_equivariance(kind, data, seed, theta):
    E = data.draw(ENSEMBLES[kind])
    rng = np.random.default_rng(seed)
    b = _magnitudes(rng, E.N)
    w = random_complex(rng, E.N)
    alpha = np.exp(1j * theta)
    assert _close(project_torus(alpha * w, b), alpha * project_torus(w, b), np.linalg.norm(b))


@ensemble_kinds
@PROPERTY_SETTINGS
@given(
    data=st.data(),
    seed=seeds,
    theta=phases,
    beta=st.floats(0.05, 0.95),
    rho=st.floats(0.05, 20.0),
)
def test_one_step_of_each_form_is_phase_equivariant(kind, data, seed, theta, beta, rho):
    E = data.draw(ENSEMBLES[kind])
    rng = np.random.default_rng(seed)
    b = _magnitudes(rng, E.N)
    y, z, lam = (random_complex(rng, E.N) for _ in range(3))
    z = project_torus(z, b)
    alpha = np.exp(1j * theta)
    scale = np.linalg.norm(b) + np.linalg.norm(lam) + np.linalg.norm(y)

    assert _close(raar_step(E, b, alpha * (z + lam), beta), alpha * raar_step(E, b, z + lam, beta), scale)

    one = admm_step(E, b, AdmmState(y=y, z=z, lam=lam), beta)
    rot = admm_step(E, b, AdmmState(y=alpha * y, z=alpha * z, lam=alpha * lam), beta)
    for got, ref in ((rot.y, one.y), (rot.z, one.z), (rot.lam, one.lam)):
        assert _close(got, alpha * ref, scale)

    one = drs_step(E, b, DrsState(y=y, z=z, lam=lam), rho)
    rot = drs_step(E, b, DrsState(y=alpha * y, z=alpha * z, lam=alpha * lam), rho)
    for got, ref in ((rot.y, one.y), (rot.z, one.z), (rot.lam, one.lam)):
        assert _close(got, alpha * ref, scale * (1.0 + rho))


@PROPERTY_SETTINGS
@given(seed=seeds, p_exp=st.floats(-12.0, 2.0), carry_exp=st.floats(-12.0, 2.0))
def test_exact_range_split_is_the_general_formula(seed, p_exp, carry_exp):
    # at rho = rho_prev = -1 the general split's negations and its division
    # by -2 are exact, so dropping them must change no bit
    rng = np.random.default_rng(seed)
    p = 10.0**p_exp * random_complex(rng, 64)
    carry = 10.0**carry_exp * random_complex(rng, 64)
    rho = rho_prev = -1.0
    rho_p = rho * p
    pz = (rho_p - carry) / (rho + rho_prev)
    pl = carry + rho_prev * pz
    for got, ref in zip(_range_parts(p, carry, rho_prev, rho), (pz, pl, pl - rho_p)):
        assert np.array_equal(got, ref)


def _dual_step_defect(E, z0, lam0, z1, lam1, beta):
    """``||(lam1 - lam0) - (g(z0, lam0) + z0 - z1)|| / ||lam1 - lam0||``, ``g`` the dual gradient."""
    step = lam1 - lam0
    return np.linalg.norm(step - (dual_gradient(E, z0, lam0, beta) + (z0 - z1))) / np.linalg.norm(step)


@ensemble_kinds
@PROPERTY_SETTINGS
@given(data=st.data(), seed=seeds, beta=st.floats(0.05, 0.95))
def test_the_dual_step_is_a_unit_ascent_step_plus_the_primal_displacement(kind, data, seed, beta):
    # lambda_{k+1} - lambda_k = g(z_k, lambda_k) + (z_k - z_{k+1}): admm's update in two lines,
    # and raar's through the split of each lift, which is admm's pair
    E = data.draw(ENSEMBLES[kind])
    rng = np.random.default_rng(seed)
    b = _magnitudes(rng, E.N)
    y, z, lam, w = (random_complex(rng, E.N) for _ in range(4))
    state = AdmmState(y=y, z=project_torus(z, b), lam=lam)
    nxt = admm_step(E, b, state, beta)
    assert _dual_step_defect(E, state.z, state.lam, nxt.z, nxt.lam, beta) <= 1e-12
    (z0, lam0), (z1, lam1) = split_lift(w, b), split_lift(raar_step(E, b, w, beta), b)
    assert _dual_step_defect(E, z0, lam0, z1, lam1, beta) <= 1e-12


@ensemble_kinds
@PROPERTY_SETTINGS
@given(data=st.data(), seed=seeds, rho=st.floats(0.05, 20.0))
def test_the_splitting_dual_step_is_a_scaled_ascent_step_plus_the_primal_displacement(kind, data, seed, rho):
    # drs_step's lambda_{k+1} - lambda_k = rho (z_{k+1} - y_{k+1}) with y_{k+1} = P z_k + P lambda_k / rho, so
    # lambda_{k+1} - lambda_k = rho g(z_k, lambda_k) + rho (z_{k+1} - z_k), where g = Q z - P lambda / rho is the
    # splitting Lagrangian's gradient in lambda at its range minimizer y; Q z and P lambda are orthogonal, so
    # ||g|| is a drs row's deriv_norm
    E = data.draw(ENSEMBLES[kind])
    rng = np.random.default_rng(seed)
    b = _magnitudes(rng, E.N)
    state = DrsState(*(random_complex(rng, E.N) for _ in range(3)))
    nxt = drs_step(E, b, state, rho)
    g = E.project_complement(state.z) - E.project_range(state.lam) / rho
    step = nxt.lam - state.lam
    assert np.linalg.norm(step - rho * (g + (nxt.z - state.z))) <= 1e-12 * np.linalg.norm(step)
    assert math.isclose(np.linalg.norm(g), diagnostics(E, b, state.z, state.lam, rho, 0, "drs").deriv_norm,
                        rel_tol=1e-12)


def _run_bits(result):
    """Every output of a run but its rows' wall times, as bytes."""
    rows = [dataclasses.astuple(dataclasses.replace(rec, wall_ns=0)) for rec in result.records]
    return (np.array(rows).tobytes(), result.stop_reason, result.z.tobytes(), result.lam.tobytes(),
            [v.tobytes() for v in vars(result.state).values()])


@pytest.mark.parametrize("algo", ["raar", "admm", "drs"])
@ensemble_kinds
@PROPERTY_SETTINGS
@given(data=st.data(), seed=seeds, beta=st.floats(0.05, 0.95), record_every=st.sampled_from([1, 3, 24]),
       stopped=st.booleans(), deriv_tol=st.sampled_from([0.0, 1e-10]))
def test_a_repeated_run_gives_the_same_bits(algo, kind, data, seed, beta, record_every, stopped, deriv_tol):
    # the run's vectors are reused in place, so nothing of one call may reach the next
    E = data.draw(ENSEMBLES[kind])
    rng = np.random.default_rng(seed)
    b = np.abs(E.apply_adjoint(random_complex(rng, E.n)))  # noiseless: the residual falls
    w0 = random_complex(rng, E.N)
    schedule = ParameterSchedule.constant(rho_from_beta(beta) if algo == "drs" else beta)
    stop = StoppingRule(fixed_budget=True)
    if stopped:  # a residual the run reaches by k = 12, taken from a row built as the stopped run builds it
        probe = run(E, b, algo, schedule, w0, 24, stop)
        stop = StoppingRule(residual_tol=probe.records[12].residual, deriv_tol=deriv_tol)
    first, again = (run(E, b, algo, schedule, w0, 24, stop, record_every) for _ in range(2))
    assert first.stop_reason in (("residual", "deriv_norm") if stopped else ("max_iters",))
    assert _run_bits(first) == _run_bits(again)
