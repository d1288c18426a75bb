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
stopping rules; ``finish`` reads a finished run out by its form, and
``fixed_point_check`` and ``curvature`` a state of any form.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from numbers import Integral
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (DiagnosticsRecord, SaddleCertificate, _checked_param, _residual_parts, _trace_row,
                       certify_cross_section_minimizer, certify_drs_cross_section, certify_fixed_point)
from .operators import (InvalidDataError, MeasurementEnsemble, _aligned_empty, check_magnitudes, check_vector,
                        project_torus, split_lift)

__all__ = [
    "RaarState",
    "AdmmState",
    "DrsState",
    "ParameterSchedule",
    "StoppingRule",
    "RunResult",
    "Finish",
    "raar_step",
    "admm_step",
    "drs_step",
    "initial_state",
    "run",
    "finish",
    "fixed_point_check",
    "curvature",
    "reconstruct",
    "drs_fixed_point_residuals",
]


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
class _Triple:
    """Primal/dual triple ``(y, z, lambda)``."""

    y: np.ndarray
    z: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.complex128)
        self.z = np.asarray(self.z, dtype=np.complex128)
        self.lam = np.asarray(self.lam, dtype=np.complex128)


@dataclass
class AdmmState(_Triple):
    """Triple ``(y, z, lambda)`` of the multiplier form; dual step fixed at 1.

    ``z`` lives on the magnitude torus; ``z + lambda`` is the lifted
    iterate of the equivalent relaxed-reflection recursion.
    """

    @property
    def lift(self) -> np.ndarray:
        """Lifted iterate ``z + lambda`` (equals the reflection iterate)."""
        return self.z + self.lam


@dataclass
class DrsState(_Triple):
    """Triple ``(y, z, lambda)`` of the splitting competitor; its penalty comes with each step."""


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


# Each step is written once, for fresh vectors and for an ``out`` state alike: every
# operation names its destination, and ``None`` allocates.  The operands keep the order
# of the plain expression in the docstring, so ``out`` changes where the bits go, not
# what they are.  An ``out`` may share no memory with the step's inputs.


def raar_step(E: MeasurementEnsemble, b, w, beta: float, t=None, *, out=None) -> np.ndarray:
    """One relaxed-reflection update.

    ``w -> beta w + (1 - 2 beta) [w]_Z + beta P(2 [w]_Z - w)`` where
    ``[w]_Z`` is the torus projection and ``P`` the range projection.
    At ``beta = 1/2`` this is alternating projections plus a halved
    complement term; at ``beta = 1`` the averaged reflector composition.
    A caller that already holds ``[w]_Z`` passes it as ``t``.  With ``out``,
    a pair of N-vectors ``(lift, work)``, the new lift is written into
    ``lift`` and returned, and ``work`` takes the step's temporaries.
    """
    _checked_param("raar", beta)
    w = np.asarray(w, dtype=np.complex128)
    t = project_torus(w, b) if t is None else t
    new, work = (None, None) if out is None else out
    new = np.multiply(beta, w, out=new)
    work = np.multiply(1.0 - 2.0 * beta, t, out=work)
    np.add(new, work, out=new)
    x = np.subtract(np.multiply(2.0, t, out=work), w, out=work)
    return np.add(new, np.multiply(beta, E.project_range(x), out=work), out=new)


def admm_step(E: MeasurementEnsemble, b, state: AdmmState, beta: float, *, out: AdmmState | None = None) -> AdmmState:
    """One triple update of the multiplier form (unit dual step).

    ``y <- (I - beta Q)(z - lambda)``; ``z <- [y + lambda]_Z``;
    ``lambda <- lambda + (y - z)``, with ``Q`` the complement projection.
    With ``out`` the new triple is written into its vectors.
    """
    _checked_param("admm", beta)
    y, z, lam = (None, None, None) if out is None else (out.y, out.z, out.lam)
    d = np.subtract(state.z, state.lam, out=y)
    q = np.subtract(d, E.project_range(d), out=z)  # Q d
    y = np.subtract(d, np.multiply(beta, q, out=q), out=d)  # (I - beta Q) d
    z = project_torus(np.add(y, state.lam, out=q), b, out=q)
    r = np.subtract(y, z, out=lam)
    return AdmmState(y=y, z=z, lam=np.add(state.lam, r, out=r))


def drs_step(E: MeasurementEnsemble, b, state: DrsState, rho: float, *, out: DrsState | None = None) -> DrsState:
    """One splitting update with penalty ``rho``.

    ``y <- P(z + lambda/rho)``; ``z <- ([w]_Z + rho w) / (1 + rho)`` with
    ``w = y - lambda/rho``; ``lambda <- lambda + rho (z - y)``.
    With ``out`` the new triple is written into its vectors.
    """
    _checked_param("drs", rho)
    y, z, lam = (None, None, None) if out is None else (out.y, out.z, out.lam)
    mu = np.divide(state.lam, rho, out=lam)
    y = E.project_range(np.add(state.z, mu, out=z), out=y)
    w = np.subtract(y, mu, out=z)
    t = project_torus(w, b, out=mu)
    z = np.divide(np.add(t, np.multiply(rho, w, out=w), out=w), 1.0 + rho, out=w)
    r = np.multiply(rho, np.subtract(z, y, out=t), out=t)
    return DrsState(y=y, z=z, lam=np.add(state.lam, r, out=r))


def reconstruct(E: MeasurementEnsemble, z, lam, rho: float = -1.0) -> np.ndarray:
    """Object estimate ``A(z + lambda/rho)``; raar and admm keep ``rho = -1``, ``A(z - lambda)``."""
    return E.apply(np.asarray(z) + np.asarray(lam) / rho)


def drs_fixed_point_residuals(E: MeasurementEnsemble, b, state: DrsState, rho: float):
    """The three splitting fixed-point defects ``(||P mu||, ||Q z||, ||z + rho mu - [z]_Z||)``, ``mu = lambda/rho``."""
    mu = state.lam / rho
    p_mu = float(np.linalg.norm(E.project_range(mu)))
    q_z = float(np.linalg.norm(E.project_complement(state.z)))
    torus_gap = float(np.linalg.norm(state.z + rho * mu - project_torus(state.z, b)))
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
    test is absolute and off for ``deriv_tol <= 0``.  ``fixed_budget``
    disables both, reproducing fixed-iteration experiment runs.
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


def _range_parts(p, carry, rho_prev, rho, out=(None,) * 4):
    """``(P z, P lambda, next carry)`` of an iterate from ``p`` and ``carry``, written into ``out[:3]``.

    ``out[3]`` takes ``rho p``; the next carry may overwrite ``carry``, which is read first.
    """
    pz, pl, nxt, rho_p = out
    if rho == rho_prev == -1.0:  # raar and admm: the same values without the exact negations and halving
        pz = np.multiply(np.add(p, carry, out=pz), 0.5, out=pz)
        pl = np.subtract(carry, pz, out=pl)
        return pz, pl, np.add(pl, p, out=nxt)
    rho_p = np.multiply(rho, p, out=rho_p)
    pz = np.divide(np.subtract(rho_p, carry, out=pz), rho + rho_prev, out=pz)
    pl = np.add(carry, np.multiply(rho_prev, pz, out=pl), out=pl)
    return pz, pl, np.subtract(pl, rho_p, out=nxt)


def _state_pair(state, b, out=None):
    return state.z, state.lam


def _read_only(v):
    v = v.view()
    v.flags.writeable = False
    return v


def _admm_start(w0, b):
    z, lam = split_lift(w0, b)  # the pair of the raar start
    return AdmmState(y=z, z=z, lam=lam)


def _reflection_check(E, b, w, beta, tol):
    # raar's beta = 1 is checked just inside the certificate's open range
    cert = certify_fixed_point(E, b, w, min(beta, 1.0 - 1e-12), tol)
    return cert.certified, cert.summary()


def _splitting_check(E, b, state, rho, tol):
    resids = drs_fixed_point_residuals(E, b, state, rho)
    passed = bool(max(resids) <= tol * np.linalg.norm(b))
    return passed, {"fixed_point_residuals": dict(zip(("range_dual", "complement_primal", "torus_gap"), resids)),
                    "certified": passed}


class _Form(NamedTuple):
    state: type  # the state's class, which a state file's fields rebuild
    start: Callable  # (w0, b) -> the state lifted from w0
    pair: Callable  # (state, b, out=None) -> (z, lambda), written into out when the form computes them
    lift: Callable  # state -> the lifted iterate on_iterate sees, read-only
    penalty: Callable  # step parameter -> rho of the step's projection
    advance: Callable  # (E, b, state, step parameter, z of the state's pair, out=None) -> next state
    slot: Callable  # (three N-vectors, work vector) -> (pair's out, step's out) of a state run writes there
    check: Callable  # (E, b, state, step parameter, tol) -> (pass flag, certificate)
    curvature: Callable  # (E, b, state, step parameter) -> tangent curvature certificate


# An advance looks its public step up when called, so that a wrapper
# installed on a step sees every step of a run; raar hands its step the
# [w]_Z of the iterate's record.  raar's and drs's lifts are run vectors,
# so on_iterate gets a read-only view of them.
_FORMS = {
    "raar": _Form(RaarState, lambda w0, b: RaarState(w=w0),
                  lambda state, b, out=None: split_lift(state.w, b, out=out),
                  lambda state: _read_only(state.w), lambda beta: -1.0,
                  lambda E, b, state, beta, z, out=None: RaarState(w=raar_step(E, b, state.w, beta, z, out=out)),
                  lambda w, z, lam, work: ((z, lam), (w, work)),
                  lambda E, b, state, beta, tol: _reflection_check(E, b, state.w, beta, tol),
                  lambda E, b, state, beta: certify_cross_section_minimizer(E, *split_lift(state.w, b), beta=beta)),
    "admm": _Form(AdmmState, _admm_start, _state_pair, attrgetter("lift"), lambda beta: -1.0,
                  lambda E, b, state, beta, z, out=None: admm_step(E, b, state, beta, out=out),
                  lambda y, z, lam, work: ((z, lam), AdmmState(y, z, lam)),
                  lambda E, b, state, beta, tol: _reflection_check(E, b, state.lift, beta, tol),
                  lambda E, b, state, beta: certify_cross_section_minimizer(E, *split_lift(state.lift, b), beta=beta)),
    "drs": _Form(DrsState, lambda w0, b: DrsState(y=w0, z=w0, lam=np.zeros_like(w0)),
                 _state_pair, lambda state: _read_only(state.z), lambda rho: rho,
                 lambda E, b, state, rho, z, out=None: drs_step(E, b, state, rho, out=out),
                 lambda y, z, lam, work: ((z, lam), DrsState(y, z, lam)), _splitting_check,
                 lambda E, b, state, rho: certify_drs_cross_section(E, b, state.z, rho)),
}


def _form(algo: str) -> _Form:
    if algo not in _FORMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    return _FORMS[algo]


def initial_state(E: MeasurementEnsemble, b, algo: str, w0):
    """Starting state of ``algo`` lifted from ``w0`` (an object ``x`` gives ``w0 = A* x``).

    raar starts at ``w0``; admm at ``z1 = [w0]_Z``, ``lambda1 = w0 - z1``, which
    retraces the raar sequence from ``w0``; drs at ``y = z = w0``, ``lambda = 0``.
    Malformed ``b``, or a ``w0`` of the wrong length, non-finite or zero,
    raises ``InvalidDataError``.
    """
    form = _form(algo)
    b = check_magnitudes(b, E.N)
    w0 = check_vector(w0, E.N, "lift")
    if np.linalg.norm(w0) == 0:
        raise InvalidDataError("initial vector must be nonzero")
    return form.start(w0, b)


class _StepView:
    """The ensemble as a step sees it: a range projection goes to the run's vector ``p``
    unless the step names its own ``out``, and the view keeps it."""

    def __init__(self, E: MeasurementEnsemble, p):
        self.E, self.p, self.projection = E, p, None

    def project_range(self, w, out=None):
        self.projection = self.E.project_range(w, out=self.p if out is None else out)
        return self.projection


def _checked_count(name: str, value, least: int = 0):
    """``TypeError`` when ``value`` is not an integer, ``ValueError`` when it is below ``least``."""
    if not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'nonnegative' if least == 0 else f'at least {least}'}, got {value}")


def _stop_reason(stop: StoppingRule, rec: DiagnosticsRecord):
    if stop.fixed_budget or rec.k == 0:
        return None
    if rec.residual <= stop.residual_tol:
        return "residual"
    if stop.deriv_tol > 0 and rec.deriv_norm <= stop.deriv_tol:
        return "deriv_norm"
    return None


def run(
    E: MeasurementEnsemble,
    b,
    algo: str,
    schedule: ParameterSchedule,
    w0,
    max_iters: int,
    stop: StoppingRule | None = None,
    record_every: int = 1,
    on_iterate: Callable[[int, np.ndarray], None] | None = None,
) -> RunResult:
    """Drive one solver from the lift ``w0`` with a parameter schedule and record diagnostics.

    The run starts at ``initial_state(E, b, algo, w0)``.  The schedule is
    evaluated at the 1-based iteration index before each step, and the
    iterates are those of the public step functions, bit for bit.  The run
    allocates its N-vectors once, on 64-byte boundaries: two states used in
    turn with their pairs, the range projection, the record's ``P z``,
    ``P lambda`` and carried projection and one work vector (eleven complex),
    and one real vector.  The steps write into them through their ``out``.  A row is
    built right after the step that gives its projections, before the next pair: it writes
    ``z - P z`` over ``P z``, ``lambda - P lambda`` over ``P lambda`` and its other temporaries
    over the spent range projection and work vector (the residual-only stop test puts its
    ``z - P z`` there, as a row may follow).  It writes into no array it did not allocate, ``w0`` and ``b`` included.  A
    record costs vector norms only: its ``P z`` and ``P lambda`` come from
    the range projection of the step after it, so each step costs one
    ``A`` and one ``A*`` whatever ``record_every`` and whether or not a
    stopping rule is set, and its ``||lambda||`` from the dot that tests
    that ``lambda``.  The start costs one more ``A`` and ``A*``, and so does
    the final record of a run that reaches ``max_iters`` (it projects the
    vector the next step would); a stopping rule that fires at iterate
    ``k`` has made step ``k + 1`` for its record and drops that step's
    iterate.  The step parameter ranges are ``analysis``'s: every schedule
    value the run would use is checked against them before any operator call.  Records
    are kept at ``k = 0``, every ``record_every`` steps and at the end;
    between them a stopping rule tests the residual alone (one norm) and
    builds a record only when that fires or when ``deriv_tol > 0``.  A
    non-finite iterate ends the run with ``stop_reason="nonfinite"``: the
    state is then the last finite iterate, and the trace ends with its
    record when the projection made at it is finite; ``lambda`` alone is
    tested, since each form's ``lambda`` carries a non-finite ``z`` or ``w``:
    one dot ``lambda^H lambda``, swept entrywise only when the dot is not finite.
    Whatever ends the run, the result holds the final state and its pair ``(z, lambda)``,
    in the run's vectors, which nothing writes after ``run`` returns.
    ``on_iterate(k, w)``, when given, is called with the lifted iterate
    ``w`` at ``k = 0`` and after each accepted step.  raar's ``w`` and drs's ``z`` are read-only views of the run's
    vectors, valid until the call returns (copy to keep); admm's ``z + lambda`` is fresh.  Before any operator
    call, malformed ``b`` or ``w0`` raises ``InvalidDataError``, a non-integer
    ``max_iters`` or ``record_every`` ``TypeError``, and a negative budget, a
    stride below 1 or a schedule value outside the form's range at any ``k`` in ``1..max(max_iters, 1)``
    ``ValueError``.
    """
    form = _form(algo)
    _checked_count("max_iters", max_iters)
    _checked_count("record_every", record_every, 1)
    state = initial_state(E, b, algo, w0)
    b = np.asarray(b, dtype=np.float64)  # checked by initial_state; not copied
    b_norm = float(np.linalg.norm(b))
    stop = stop or StoppingRule()
    work = _aligned_empty(E.N)  # raar's step temporaries, drs's rho p, and the vector the last record projects
    slots = [form.slot(*(_aligned_empty(E.N) for _ in range(3)), work) for _ in range(2)]  # step k + 1 writes slot k % 2
    parts = (*(_aligned_empty(E.N) for _ in range(3)), work)  # P z, P lambda, the carried projection
    view = _StepView(E, _aligned_empty(E.N))
    row_work = (*parts[:2], view.p, work, _aligned_empty(E.N, np.float64))  # a row's temporaries
    t0 = time.perf_counter_ns()

    z, lam = form.pair(state, b, out=slots[1][0])  # raar's start pair sits where step 2 writes its pair
    lam_sq = np.vdot(lam, lam).real
    last = max(max_iters, 1)  # value_at is monotone between breakpoints: its extremes on 1..last sit at these k
    for k in sorted({1, last, *(j for kb, _v in schedule.breakpoints for j in (kb, kb + 1) if 1 <= j <= last)}):
        _checked_param(algo, schedule.value_at(k))
    param = schedule.value_at(1)
    rho = form.penalty(param)
    carry = E.project_range(np.subtract(lam, np.multiply(rho, z, out=work), out=work), out=parts[2])
    records = []
    if on_iterate is not None:
        on_iterate(0, form.lift(state))

    def record(z, lam, lam_sq, pz, pl, param, k, reached):
        return _trace_row(b, b_norm, z, lam, pz, pl, param, k, reached - t0, algo, row_work, lam_sq)

    k, reached = 0, t0

    while k < max_iters:
        next_param = schedule.value_at(k + 1)
        pair_out, step_out = slots[k % 2]
        nxt = form.advance(view, b, state, next_param, z, step_out)
        rho_prev, rho = rho, form.penalty(next_param)
        pz, pl, carry = _range_parts(view.projection, carry, rho_prev, rho, parts)
        rec = reason = None  # the row is built while z, lambda and their projections are fresh
        if k % record_every == 0 or not stop.fixed_budget and (
                stop.deriv_tol > 0 or _residual_parts(z, pz, b_norm, view.p)[1] <= stop.residual_tol):
            rec = record(z, lam, lam_sq, pz, pl, param, k, reached)
            reason = _stop_reason(stop, rec)
        next_z, next_lam = form.pair(nxt, b, out=pair_out)
        # raar w - z, admm lambda + y - z, drs lambda + rho (z - y); a finite lambda can overflow the dot
        next_lam_sq = np.vdot(next_lam, next_lam).real
        if not math.isfinite(next_lam_sq) and not np.isfinite(next_lam).all():
            reason = "nonfinite"
            if np.isfinite(pz).all():  # P z, or z - P z once a row is built: else the step's projection is spoilt too
                records.append(rec or record(z, lam, lam_sq, pz, pl, param, k, reached))
            break
        if k % record_every == 0 or reason:
            records.append(rec)
        if reason:
            break
        state, z, lam, lam_sq, param, k = nxt, next_z, next_lam, next_lam_sq, next_param, k + 1
        reached = time.perf_counter_ns()
        if on_iterate is not None:
            on_iterate(k, form.lift(state))
    else:
        x = np.add(z, np.divide(lam, rho, out=work), out=work)
        pz, pl, _ = _range_parts(E.project_range(x, out=view.p), carry, rho, rho, parts)
        rec = record(z, lam, lam_sq, pz, pl, param, k, reached)
        reason = _stop_reason(stop, rec) or "max_iters"
        records.append(rec)

    return RunResult(records=records, state=state, stop_reason=reason, z=z, lam=lam)


def fixed_point_check(E: MeasurementEnsemble, b, algo: str, state, param: float, tol: float = 1e-8):
    """``(pass flag, certificate)`` of a ``state`` of ``algo`` at step parameter ``param``.

    raar and admm: ``certify_fixed_point`` at their lift and ``min(param, 1 - 1e-12)``,
    reporting its summary; drs: passes when its largest ``drs_fixed_point_residuals``
    is at most ``tol * ||b||``, reporting them.  Every form's certificate holds the pass
    flag as ``certified``.  A ``param`` outside the step's range raises ``ValueError``
    before any operator call, as in ``curvature``.
    """
    return _form(algo).check(E, b, state, _checked_param(algo, param), tol)


def curvature(E: MeasurementEnsemble, b, algo: str, state, param: float) -> SaddleCertificate:
    """Tangent curvature certificate of a ``state`` of ``algo`` at step parameter ``param``.

    raar and admm: ``certify_cross_section_minimizer`` on the split of their lift,
    given the beta; drs: ``certify_drs_cross_section``, ``rho K_perp - diag(b/|z| - 1)``.
    """
    return _form(algo).curvature(E, b, state, _checked_param(algo, param))


class Finish(NamedTuple):
    """A finished run read out by its form."""

    x: np.ndarray  # the object estimate A(z + lambda/rho)
    fixed_point_pass: bool
    certificate: dict  # the fixed-point check as ``solve`` writes it


def finish(E: MeasurementEnsemble, b, algo: str, result: RunResult, param: float, tol: float = 1e-8) -> Finish:
    """Object estimate and fixed-point check of a run of ``algo`` at parameter ``param``.

    ``x = A(z + lambda/rho)`` comes from the run's pair with ``rho`` the
    form's penalty (-1 for raar and admm); the check is
    ``fixed_point_check`` of the run's final state.
    """
    x = reconstruct(E, result.z, result.lam, _form(algo).penalty(param))
    return Finish(x, *fixed_point_check(E, b, algo, result.state, param, tol))
