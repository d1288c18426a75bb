"""Property tests of the operator invariants on both ensemble kinds.

Hypothesis draws the ensemble sizes, seeds, relaxation parameters and the
global phase; the vectors come from a numpy generator seeded by the drawn
seed, so every entry is nonzero and finite.  The module also holds the
repeat clause of the entry points (a repeated call gives the same bits)
and ``run``'s check of the whole parameter schedule.
"""

import dataclasses
import math
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddle_raar import (
    AdmmState,
    DrsState,
    MeasurementEnsemble,
    ParameterSchedule,
    StoppingRule,
    admm_step,
    build_cdp_ensemble,
    build_gaussian_ensemble,
    build_rpp,
    cdp_instance,
    drs_step,
    fixed_point_check,
    initial_state,
    null_vector,
    poisson_data,
    project_torus,
    raar_step,
    rho_from_beta,
    run,
)
from saddle_raar.analysis import _RANGES, dual_gradient
from saddle_raar.artifacts import load_solver_state, save_solver_state
from saddle_raar.operators import split_lift
from saddle_raar.solvers import _range_parts
from conftest import CountingEnsemble, dual_gradient_norm, random_complex, run_rows

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
    assert math.isclose(np.linalg.norm(g), dual_gradient_norm(E, state.z, state.lam, rho, "drs"), rel_tol=1e-12)


def _run_bits(run_and_rows):
    """Every output of a run but its rows' wall times, as bytes."""
    result, kept = run_and_rows
    rows = [dataclasses.astuple(dataclasses.replace(rec, wall_ns=0)) for rec in kept]
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
        probe = run_rows(E, b, algo, schedule, w0, 24, stop)[1]
        stop = StoppingRule(residual_tol=probe[12].residual, deriv_tol=deriv_tol)
    first, again = (run_rows(E, b, algo, schedule, w0, 24, stop, record_every) for _ in range(2))
    assert first[0].stop_reason in (("residual", "deriv_norm") if stopped else ("max_iters",))
    assert _run_bits(first) == _run_bits(again)


def _bits(value):
    """Arrays as bytes, scalars as ``repr``, an ensemble as its dense ``A*``, containers and dataclasses item by item."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, MeasurementEnsemble):
        return _bits(value.materialize_adjoint())
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _bits(vars(value))
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return repr(value)


_PARAMS = {"raar": 0.9, "admm": 0.9, "drs": 0.25}
# (name, call given the ensemble, magnitudes, a lift and a saved drs state file)
_REPEATED_ENTRY_POINTS = [
    *((f"initial_state[{algo}]", lambda E, b, w0, path, algo=algo: initial_state(E, b, algo, w0))
      for algo in _PARAMS),
    *((f"cdp_instance[{case}]", lambda E, b, w0, path, case=case: attrgetter("b", "w0")(
        cdp_instance(case, (16, 16), 1))) for case in "ac"),
    ("null_vector", lambda E, b, w0, path: null_vector(E, b, seed=3)),
    ("poisson_data", lambda E, b, w0, path: poisson_data(
        build_rpp((16, 16), seed=4), build_cdp_ensemble((16, 16), seed=5), 0.18, seed=3)),
    *((f"fixed_point_check[{algo}]", lambda E, b, w0, path, algo=algo: fixed_point_check(
        E, b, algo, initial_state(E, b, algo, w0), _PARAMS[algo])) for algo in _PARAMS),
    ("load_solver_state", lambda E, b, w0, path: load_solver_state(path)),
]


@pytest.mark.parametrize("name, call", _REPEATED_ENTRY_POINTS, ids=[e[0] for e in _REPEATED_ENTRY_POINTS])
def test_a_repeated_call_gives_the_same_bits(dense_small, tmp_path, name, call):
    E, _, b = dense_small
    w0 = random_complex(np.random.default_rng(2), E.N)
    path = tmp_path / "state.json"
    save_solver_state(path, E, b, initial_state(E, b, "drs", w0), "drs", 0.25, 0)
    assert _bits(call(E, b, w0, path)) == _bits(call(E, b, w0, path)), name


class _Reached(Exception):
    """The first operator call of a run whose schedule passed its checks."""


class _FirstApplyRaises(CountingEnsemble):
    """Counts calls as ``CountingEnsemble`` does; ``apply`` raises ``_Reached``, so no step runs."""

    def apply(self, w):
        self.applies += 1
        raise _Reached


# values in and at the edges of the three ranges, and past them
schedule_values = st.one_of(
    st.floats(0.0, 1.2),
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, math.nan, math.inf]),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(algo=st.sampled_from(sorted(_RANGES)), max_iters=st.integers(0, 60),
       points=st.lists(st.tuples(st.integers(-5, 60), schedule_values), min_size=1, max_size=4))
def test_run_checks_every_schedule_value_it_would_use_before_any_operator_call(algo, max_iters, points):
    # value_at rounds, so the scan is over every index the run would read, not over the breakpoint values
    schedule = ParameterSchedule(tuple(sorted(points, key=lambda p: p[0])))
    name, contract, ok = _RANGES[algo]
    bad = not all(ok(schedule.value_at(k)) for k in range(1, max(max_iters, 1) + 1))
    E = _FirstApplyRaises(build_gaussian_ensemble(2, 6, seed=1))
    rng = np.random.default_rng(0)
    b, w0 = np.abs(random_complex(rng, E.N)), random_complex(rng, E.N)
    with pytest.raises(ValueError if bad else _Reached) as info:
        run(E, b, algo, schedule, w0, max_iters)
    if bad:
        assert str(info.value).startswith(f"{name} must lie in {contract}, got ")
        assert (E.applies, E.adjoints) == (0, 0)
