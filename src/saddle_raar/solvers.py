"""Relaxed-reflection iteration, its multiplier form, and the splitting competitor.

Three equivalent views of the same phase-retrieval geometry:

* ``raar_step``: the one-parameter relaxed averaged alternating
  reflections update on a lifted iterate ``w``;
* ``admm_step``: the exactly equivalent alternating-direction triple
  update on ``(y, z, lambda)`` with unit dual step, exposing the
  primal/dual decomposition the diagnostics are written in;
* ``drs_step``: the penalty-parameter splitting method that minimizes
  ``|| |z| - b ||^2`` over the measurement range, used as a competitor.

A parameter schedule (piecewise-linear in the iteration index) drives
continuation runs; ``run`` is the shared loop with trace recording and
stopping rules.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .analysis import DiagnosticsRecord, diagnostics_from_projections
from .operators import InvalidDataError, MeasurementEnsemble, project_torus

__all__ = [
    "RaarState",
    "AdmmState",
    "DrsState",
    "ParameterSchedule",
    "StoppingRule",
    "RunResult",
    "raar_step",
    "admm_step",
    "drs_step",
    "initial_state",
    "run",
    "reconstruct",
    "drs_fixed_point_residuals",
    "beta_from_rho",
    "rho_from_beta",
]


def beta_from_rho(rho: float) -> float:
    """Relaxation parameter paired with a splitting penalty: ``1 / (rho + 1)``."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    return 1.0 / (rho + 1.0)


def rho_from_beta(beta: float) -> float:
    """Inverse pairing ``(1 - beta) / beta``; beta = 1 has no finite penalty."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1) for a finite penalty, got {beta}")
    return (1.0 - beta) / beta


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


@dataclass
class RaarState:
    """Lifted iterate of the relaxed-reflection recursion."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.complex128)


@dataclass
class AdmmState:
    """Triple ``(y, z, lambda)`` of the multiplier form; dual step fixed at 1.

    ``z`` lives on the magnitude torus; ``z + lambda`` is the lifted
    iterate of the equivalent relaxed-reflection recursion.
    """

    y: np.ndarray
    z: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.complex128)
        self.z = np.asarray(self.z, dtype=np.complex128)
        self.lam = np.asarray(self.lam, dtype=np.complex128)

    @property
    def lift(self) -> np.ndarray:
        """Lifted iterate ``z + lambda`` (equals the reflection iterate)."""
        return self.z + self.lam


@dataclass
class DrsState:
    """State of the splitting competitor with penalty ``rho > 0``."""

    y: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    rho: float

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.complex128)
        self.z = np.asarray(self.z, dtype=np.complex128)
        self.lam = np.asarray(self.lam, dtype=np.complex128)
        if self.rho is None or self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


def raar_step(E: MeasurementEnsemble, b, w, beta: float, t=None) -> np.ndarray:
    """One relaxed-reflection update.

    ``w -> beta w + (1 - 2 beta) [w]_Z + beta P(2 [w]_Z - w)`` where
    ``[w]_Z`` is the torus projection and ``P`` the range projection.
    At ``beta = 1/2`` this is alternating projections plus a halved
    complement term; at ``beta = 1`` the averaged reflector composition.
    A caller that already holds ``[w]_Z`` passes it as ``t``.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    w = np.asarray(w, dtype=np.complex128)
    t = project_torus(w, b) if t is None else t
    return beta * w + (1.0 - 2.0 * beta) * t + beta * E.project_range(2.0 * t - w)


def admm_step(E: MeasurementEnsemble, b, state: AdmmState, beta: float) -> AdmmState:
    """One triple update of the multiplier form (unit dual step).

    ``y <- (I - beta Q)(z - lambda)``; ``z <- [y + lambda]_Z``;
    ``lambda <- lambda + (y - z)``, with ``Q`` the complement projection.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    d = state.z - state.lam
    y = d - beta * (d - E.project_range(d))  # (I - beta Q) d
    z = project_torus(y + state.lam, b)
    lam = state.lam + (y - z)
    return AdmmState(y=y, z=z, lam=lam)


def drs_step(E: MeasurementEnsemble, b, state: DrsState, rho: float | None = None) -> DrsState:
    """One splitting update with penalty ``rho``.

    ``y <- P(z + lambda/rho)``; ``z <- ([w]_Z + rho w) / (1 + rho)`` with
    ``w = y - lambda/rho``; ``lambda <- lambda + rho (z - y)``.
    """
    rho = state.rho if rho is None else rho
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    mu = state.lam / rho
    y = E.project_range(state.z + mu)
    w = y - mu
    z = (project_torus(w, b) + rho * w) / (1.0 + rho)
    lam = state.lam + rho * (z - y)
    return DrsState(y=y, z=z, lam=lam, rho=rho)


def reconstruct(E: MeasurementEnsemble, z, lam, rho: float = -1.0) -> np.ndarray:
    """Object estimate ``A(z + lambda/rho)``; raar and admm keep ``rho = -1``, ``A(z - lambda)``."""
    return E.apply(np.asarray(z) + np.asarray(lam) / rho)


def drs_fixed_point_residuals(E: MeasurementEnsemble, b, state: DrsState):
    """The three splitting fixed-point defects ``(||P mu||, ||Q z||, ||z + rho mu - [z]_Z||)``."""
    mu = state.lam / state.rho
    p_mu = float(np.linalg.norm(E.project_range(mu)))
    q_z = float(np.linalg.norm(E.project_complement(state.z)))
    torus_gap = float(
        np.linalg.norm(state.z + state.rho * mu - project_torus(state.z, b))
    )
    return p_mu, q_z, torus_gap


# ---------------------------------------------------------------------------
# Parameter schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterSchedule:
    """Piecewise-linear parameter path over the (1-based) iteration index.

    Values interpolate linearly between breakpoints and extend as
    constants beyond the first/last breakpoint.
    """

    breakpoints: tuple

    def __post_init__(self):
        pts = tuple((int(k), float(v)) for k, v in self.breakpoints)
        if not pts:
            raise ValueError("schedule needs at least one breakpoint")
        ks = [k for k, _ in pts]
        if any(b < a for a, b in zip(ks, ks[1:])):
            raise ValueError("breakpoint indices must be nondecreasing")
        object.__setattr__(self, "breakpoints", pts)

    @classmethod
    def constant(cls, value: float) -> "ParameterSchedule":
        return cls(((1, value),))

    def value_at(self, k: int) -> float:
        pts = self.breakpoints
        if k <= pts[0][0]:
            return pts[0][1]
        for (k0, v0), (k1, v1) in zip(pts, pts[1:]):
            if k <= k1:
                if k1 == k0:
                    return v1
                frac = (k - k0) / (k1 - k0)
                return v0 + frac * (v1 - v0)
        return pts[-1][1]


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------


@dataclass
class StoppingRule:
    """Stop on small residual or small dual-gradient norm, unless fixed budget.

    The residual test is relative (``||Q z|| / ||b||``); the derivative
    test is absolute.  ``fixed_budget`` disables both, reproducing
    fixed-iteration experiment runs.
    """

    residual_tol: float = 1e-10
    deriv_tol: float = 1e-10
    fixed_budget: bool = False


@dataclass
class RunResult:
    """Trace, final state and stop reason of a run; ``z`` and ``lam`` are the state's pair."""

    records: list
    state: object
    stop_reason: str
    z: np.ndarray
    lam: np.ndarray

    @property
    def final_record(self) -> DiagnosticsRecord:
        return self.records[-1]


# ``run`` takes a record's ``P z`` and ``P lambda`` from the one range
# projection the next step makes, ``p = P(z + lambda/rho)``, and a carried
# ``P(lambda - rho_prev z)``, with ``rho`` the splitting penalty of the next
# step and ``rho_prev`` that of the step before.  raar and admm fit with
# ``rho = -1``: their step projects ``z - lambda``.  Every form keeps
# ``lambda_{k+1} - rho z_{k+1} = lambda_k - rho y_{k+1}`` with ``P y_{k+1} = p``
# (raar in its multiplier form, where this reads ``P w_{k+1} = P z_k``), so
# the next carry is ``P lambda - rho p``.  A carried roundoff error is halved
# at each step (by ``rho / (rho + rho_prev)`` in general), so none builds up.


def _range_parts(p, carry, rho_prev, rho):
    """``(P z, P lambda, next carry)`` of an iterate from ``p`` and ``carry``."""
    rho_p = rho * p
    pz = (rho_p - carry) / (rho + rho_prev)
    pl = carry + rho_prev * pz
    return pz, pl, pl - rho_p


def _raar_pair(state, b):
    z = project_torus(state.w, b)
    return z, state.w - z


def _state_pair(state, b):
    return state.z, state.lam


def _admm_start(w0, b, rho):
    z, lam = _raar_pair(RaarState(w=w0), b)  # the pair of the raar start
    return AdmmState(y=z, z=z, lam=lam)


class _Form(NamedTuple):
    state: type
    start: Callable  # (w0, b, rho of a drs start) -> the state lifted from w0
    pair: Callable  # (state, b) -> (z, lambda)
    lift: Callable  # state -> the kept iterate
    penalty: Callable  # step parameter -> rho of the step's projection
    advance: Callable  # (E, b, state, step parameter, z of the state's pair) -> next state


# An advance looks its public step up when called, so that a wrapper
# installed on a step sees every step of a run; raar hands its step the
# [w]_Z of the iterate's record.
_FORMS = {
    "raar": _Form(RaarState, lambda w0, b, rho: RaarState(w=w0), _raar_pair, attrgetter("w"),
                  lambda beta: -1.0,
                  lambda E, b, state, beta, z: RaarState(w=raar_step(E, b, state.w, beta, z))),
    "admm": _Form(AdmmState, _admm_start, _state_pair, attrgetter("lift"), lambda beta: -1.0,
                  lambda E, b, state, beta, z: admm_step(E, b, state, beta)),
    "drs": _Form(DrsState, lambda w0, b, rho: DrsState(y=w0, z=w0, lam=np.zeros_like(w0), rho=rho),
                 _state_pair, attrgetter("z"), lambda rho: rho,
                 lambda E, b, state, rho, z: drs_step(E, b, state, rho)),
}


def _form(algo: str) -> _Form:
    if algo not in _FORMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    return _FORMS[algo]


def initial_state(E: MeasurementEnsemble, b, algo: str, w0, param: float | None = None):
    """Starting state of ``algo`` lifted from ``w0`` (an object ``x`` gives ``w0 = A* x``).

    raar starts at ``w0``; admm at ``z1 = [w0]_Z``, ``lambda1 = w0 - z1``, which
    retraces the raar sequence from ``w0``; drs at ``y = z = w0``, ``lambda = 0``
    with penalty ``rho = param``, which raar and admm ignore.
    """
    form = _form(algo)
    w0 = np.asarray(w0, dtype=np.complex128)
    if w0.size != E.N:
        raise InvalidDataError(f"lift has length {w0.size}, expected {E.N}")
    if np.linalg.norm(w0) == 0:
        raise InvalidDataError("initial vector must be nonzero")
    return form.start(w0, np.asarray(b, dtype=np.float64), param)


class _StepView:
    """The ensemble as a step sees it, keeping the range projection the step makes."""

    def __init__(self, E: MeasurementEnsemble):
        self.E = E
        self.projection = None

    def project_range(self, w):
        self.projection = self.E.project_range(w)
        return self.projection


def _stop_reason(stop: StoppingRule, rec: DiagnosticsRecord):
    if stop.fixed_budget or rec.k == 0:
        return None
    if rec.residual <= stop.residual_tol:
        return "residual"
    if rec.deriv_norm <= stop.deriv_tol:
        return "deriv_norm"
    return None


def run(
    E: MeasurementEnsemble,
    b,
    algo: str,
    schedule: ParameterSchedule,
    init,
    max_iters: int,
    stop: StoppingRule | None = None,
    record_every: int = 1,
    on_iterate: Callable[[int, np.ndarray], None] | None = None,
) -> RunResult:
    """Drive one solver with a parameter schedule and record diagnostics.

    The schedule is evaluated at the 1-based iteration index before each
    step, and the iterates are those of the public step functions.  A
    record costs vector norms only: its ``P z`` and ``P lambda`` come from
    the range projection of the step after it, so each step costs one
    ``A`` and one ``A*`` whatever ``record_every`` and whether or not a
    stopping rule is set.  The start costs one more of each, and so does
    the final record of a run that reaches ``max_iters`` (it projects the
    vector the next step would); a stopping rule that fires at iterate
    ``k`` has made step ``k + 1`` for its record and drops that step's
    iterate.  A step rejects a schedule value outside its range.
    Diagnostics are recorded at ``k = 0``, every ``record_every`` steps,
    and at the final step; with a stopping rule they are evaluated every
    iteration so the rule can fire between records.  A non-finite iterate
    ends the run with ``stop_reason="nonfinite"``: the state is then the
    last finite iterate, and the trace ends with its record when the
    projection made at it is finite.  Whatever ends the run, the result
    holds the final state and its pair ``(z, lambda)``.  ``on_iterate(k,
    w)``, when given, is called with the lifted iterate ``w`` at ``k = 0``
    and after each accepted step, so a caller keeps only what it needs.
    """
    form = _form(algo)
    if not isinstance(init, form.state):
        raise TypeError(f"{algo} expects a {form.state.__name__} initial state, got {type(init).__name__}")
    b = np.asarray(b, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    stop = stop or StoppingRule()
    view = _StepView(E)
    t0 = time.perf_counter_ns()

    if not all(np.isfinite(v).all() for v in vars(init).values() if isinstance(v, np.ndarray)):
        raise ValueError(f"initial {algo} state contains non-finite entries")
    state = init
    z, lam = form.pair(state, b)
    param = schedule.value_at(1)
    rho = form.penalty(param)
    carry = E.project_range(lam - rho * z)
    records = []
    if on_iterate is not None:
        on_iterate(0, form.lift(state))

    def record(z, lam, pz, pl, param, k, reached):
        return diagnostics_from_projections(b, b_norm, z, lam, pz, pl, param, k, reached - t0, algo)

    reason = None
    k, reached = 0, t0

    while k < max_iters:
        next_param = schedule.value_at(k + 1)
        nxt = form.advance(view, b, state, next_param, z)
        rho_prev, rho = rho, form.penalty(next_param)
        pz, pl, carry = _range_parts(view.projection, carry, rho_prev, rho)
        next_z, next_lam = form.pair(nxt, b)
        if not (np.isfinite(next_z).all() and np.isfinite(next_lam).all()):
            reason = "nonfinite"
            if np.isfinite(pz).all():  # else the step's projection is spoilt too: no record
                records.append(record(z, lam, pz, pl, param, k, reached))
            break
        if k % record_every == 0 or not stop.fixed_budget:
            rec = record(z, lam, pz, pl, param, k, reached)
            reason = _stop_reason(stop, rec)
            if k % record_every == 0 or reason:
                records.append(rec)
            if reason:
                break
        state, z, lam, param, k = nxt, next_z, next_lam, next_param, k + 1
        reached = time.perf_counter_ns()
        if on_iterate is not None:
            on_iterate(k, form.lift(state))
    else:
        pz, pl, _ = _range_parts(E.project_range(z + lam / rho), carry, rho, rho)
        rec = record(z, lam, pz, pl, param, k, reached)
        reason = _stop_reason(stop, rec) or "max_iters"
        records.append(rec)

    return RunResult(records=records, state=state, stop_reason=reason, z=z, lam=lam)
