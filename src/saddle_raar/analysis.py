"""Saddle-point objective, optimality diagnostics, and certificates.

Central objects, written with ``P`` = projection onto ``range(A*)`` and
``Q = I - P`` the complementary projection:

* the concave-nonconvex objective ``F(z, l; beta) = (beta/2)||Q(z-l)||^2
  - ||l||^2 / 2`` maximized in the dual ``l`` and minimized in ``z`` on
  the magnitude torus;
* the entrywise criticality vector ``q(z, l) = z^{-1} * Q(z - l)`` whose
  realness encodes first-order optimality of ``z``;
* fixed-point certificates for the relaxed-reflection iteration, with the
  admissible relaxation interval implied by the penalty threshold;
* cross-section (tangent) Hessian certificates on the subspace
  ``Xi = { xi real : <xi, b> = 0 }`` that quotients out global phase;
* the measurement spectral gap ``lambda2`` certifying strict local
  minimality of the true solution;
* the convergence functional ``T`` of each step of a run (``fejer_step``) and
  its self-referenced inequality ratio, the trace's basin-of-attraction
  indicator ``t_ratio``, in the trace row ``diagnostics`` builds from a
  pair's range projections, as ``run`` builds every row it keeps.

All evaluators are pure.  Dense paths up to ``DENSE_CAP`` ambient dimensions build their forms
from the real ``N x 2n`` phase factor ``F = [Re B*, Im B*]`` of ``K = F F^T``, built once per call
and reflected in its own buffer, and compute only the extreme eigenvalues they need.  A tangent
form is written once, on its lower triangle, into one Fortran-ordered ``(N-1)^2`` buffer by a
``dsyr2k`` and a ``dsyrk``, and solved alone in that buffer unless the same solve goes on to answer
a pencil from the factor, which never leaves it (its tuple ends in the pencil's ``nu_max``); the
residual comes from the form's action through one projection, the Lanczos branch's matvec.
``lambda2^2`` is the largest eigenvalue of the reflected factor's ``2n x 2n`` tangent Gram.  Beyond
the cap, one matrix-free tangent Lanczos solve with a convergence flag, which also gives ``lambda2``
from the tangent curvature ``1 - lambda2^2`` at the solution; both take ``sigma_top = ||A w0|| / ||w0||``.
scipy is imported by those eigen-solves alone, when they run; everything else needs numpy only.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .operators import (_TINY, DimensionError, InvalidDataError, MeasurementEnsemble, check_magnitudes,
                        check_vector, split_lift, unit_phase)

__all__ = [
    "DENSE_CAP",
    "beta_prime",
    "beta_from_rho",
    "rho_from_beta",
    "objective",
    "dual_gradient",
    "criticality_vector",
    "global_phase",
    "aligned_error",
    "aligned_distance",
    "correlation",
    "FixedPointCertificate",
    "certify_fixed_point",
    "beta_max_from_threshold",
    "SaddleCertificate",
    "certify_cross_section_minimizer",
    "certify_drs_cross_section",
    "SpectralGapResult",
    "spectral_gap",
    "fejer_step",
    "DiagnosticsRecord",
    "diagnostics",
]

# Above this ambient dimension, eigen/SVD work switches to matrix-free
# iterative routines with explicit convergence flags.
DENSE_CAP = 4096
# Relative tolerance of those iterative eigen-solves.
EIG_TOL = 1e-8


# each form's step parameter: its name, its range and the test of that range, which NaN fails
_RANGES = {
    "raar": ("beta", "(0, 1]", lambda v: 0.0 < v <= 1.0),
    "admm": ("beta", "(0, 1)", lambda v: 0.0 < v < 1.0),
    "drs": ("rho", "(0, inf)", lambda v: 0.0 < v < math.inf),
}


def _checked_param(algo: str, value):
    """``value``, or ``ValueError`` when it lies outside the range of ``algo``'s step parameter."""
    name, contract, ok = _RANGES[algo]
    if not ok(value):
        raise ValueError(f"{name} must lie in {contract}, got {value}")
    return value


def beta_prime(beta: float) -> float:
    """Auxiliary parameter ``beta / (1 - beta)``; inverse penalty weight."""
    return beta / (1.0 - _checked_param("admm", beta))


def beta_from_rho(rho: float) -> float:
    """Relaxation parameter paired with a splitting penalty: ``1 / (rho + 1)``; ``rho`` lies in ``(0, inf)``."""
    return 1.0 / (_checked_param("drs", rho) + 1.0)


def rho_from_beta(beta: float) -> float:
    """Inverse pairing ``(1 - beta) / beta``; beta = 1 has no finite penalty."""
    return (1.0 - _checked_param("admm", beta)) / beta


def _real_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


# ---------------------------------------------------------------------------
# Objective and first-order quantities
# ---------------------------------------------------------------------------


def objective(E: MeasurementEnsemble, z: np.ndarray, lam: np.ndarray, beta: float) -> float:
    """Max-min objective ``(beta/2) ||Q(z - lam)||^2 - ||lam||^2 / 2``."""
    return _projected_row(E, 1.0, z, lam, _checked_param("raar", beta), 0).objective  # b is read by the residual alone


def dual_gradient(E: MeasurementEnsemble, z, lam, beta: float) -> np.ndarray:
    """Gradient of the objective in the dual direction.

    Real-inner-product convention: the derivative of ``F`` along a complex
    direction ``d`` is ``Re(g^H d)`` for the returned ``g``, here
    ``g = -(beta Q(z - lam) + lam)``; ``beta`` is checked as :func:`objective` checks it.
    """
    return -(_checked_param("raar", beta) * E.project_complement(np.asarray(z) - np.asarray(lam)) + np.asarray(lam))


def criticality_vector(E: MeasurementEnsemble, z, lam) -> np.ndarray:
    """Entrywise quotient ``z^{-1} * Q(z - lam)``.

    Realness of the result is the first-order condition for ``z`` to
    minimize the objective on the torus.  Coordinates where ``|z|`` is below
    the smallest normal double, zero to :func:`unit_phase`, report zero.
    """
    z = np.asarray(z, dtype=np.complex128)
    resid = E.project_complement(z - np.asarray(lam))
    return np.divide(resid, z, out=np.zeros_like(z), where=np.abs(z) >= _TINY)


# ---------------------------------------------------------------------------
# Phase alignment and error metrics
# ---------------------------------------------------------------------------


def global_phase(w: np.ndarray, w_ref: np.ndarray) -> complex:
    """Unit scalar ``alpha`` minimizing ``||w - alpha w_ref||``; 1 if undetermined."""
    s = np.vdot(w_ref, w)
    a = abs(s)
    return s / a if a > 0 else 1.0 + 0.0j


def aligned_error(x: np.ndarray, x0: np.ndarray) -> float:
    """Relative error ``min_{|alpha|=1} ||x - alpha x0|| / ||x0||``."""
    nrm = np.linalg.norm(x0)
    if nrm == 0:
        raise ValueError("reference object must be nonzero")
    return aligned_distance(x, x0) / float(nrm)


def aligned_distance(w: np.ndarray, w_ref: np.ndarray) -> float:
    """Absolute distance ``min_{|alpha|=1} ||w - alpha w_ref||``."""
    alpha = global_phase(w, w_ref)
    return float(np.linalg.norm(np.asarray(w) - alpha * np.asarray(w_ref)))


def correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Phase-invariant correlation ``|<x, y>| / (||x|| ||y||)``."""
    denom = np.linalg.norm(x) * np.linalg.norm(y)
    if denom == 0:
        return 0.0
    return float(abs(np.vdot(x, y)) / denom)


# ---------------------------------------------------------------------------
# Convergence functional and basin indicator
# ---------------------------------------------------------------------------


def _functional(beta: float, zq_norm, lq_norm, al_norm):
    """``T = beta ||Q(z - z*)||^2 + (1-beta) ||Q(lam - lam*)||^2 + ||A lam||^2`` from those three norms."""
    return beta * zq_norm**2 + (1.0 - beta) * lq_norm**2 + al_norm**2


def _functional_and_margin(E: MeasurementEnsemble, z, lam, z_star, lam_star, beta: float):
    """``(T, margin)`` of a pair against a reference, with ``T`` evaluated once."""
    z, lam, z_star, lam_star = (np.asarray(v, dtype=np.complex128) for v in (z, lam, z_star, lam_star))
    alpha = global_phase(z + lam, z_star + lam_star)
    z_star, lam_star = alpha * z_star, alpha * lam_star
    t = float(_functional(beta, np.linalg.norm(E.project_complement(z - z_star)),
                          np.linalg.norm(E.project_complement(lam - lam_star)), np.linalg.norm(E.apply(lam))))
    return t, float(t - 2.0 * _real_inner(z_star - z, lam - lam_star))


# ---------------------------------------------------------------------------
# Fixed-point certificate
# ---------------------------------------------------------------------------


@dataclass
class FixedPointCertificate:
    """Result of checking the fixed-point conditions at a lifted iterate.

    ``c`` is the measured real vector with ``P(b*u) = c*u``; ``phase_residual``
    the defect of that identity against the value implied by the iterate's
    magnitudes; ``beta_max`` the upper end of the admissible relaxation
    interval ``(0, beta_max]`` from the penalty threshold at this phase.
    """

    beta: float
    tol: float
    phase_residual: float
    c: np.ndarray
    c_imag_norm: float
    magnitude_margin: np.ndarray
    magnitude_ok: bool
    threshold: float
    beta_max: float
    certified: bool

    def summary(self) -> dict:
        """Every field but the arrays ``c`` and ``magnitude_margin``, plus ``beta_interval``."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("c", "magnitude_margin")}
        return doc | {"beta_interval": [0.0, self.beta_max]}


def beta_max_from_threshold(threshold: float) -> float:
    """Largest relaxation parameter admitted by a penalty threshold ``t``.

    The fixed-point magnitude stays nonnegative iff ``(1-beta)/beta >= t``,
    i.e. ``beta <= 1/(1+t)``; nonpositive thresholds admit the whole (0, 1].
    """
    return 1.0 if threshold <= 0.0 else 1.0 / (1.0 + threshold)


def certify_fixed_point(
    E: MeasurementEnsemble, b, w, beta: float, tol: float = 1e-8
) -> FixedPointCertificate:
    """Check whether ``w`` is a fixed point of the beta-relaxed iteration.

    With ``u = w/|w|`` and ``c = (1 - (1-beta)/beta) b + ((1-beta)/beta)|w|``,
    the conditions are the phase identity ``P(b*u) = c*u`` and the
    nonnegativity of the implied magnitude, ``c >= (1 - (1-beta)/beta) b``.
    Also reports the measured ``c`` (from ``u`` alone) and the admissible
    relaxation interval at this phase vector.  Failures are reported in the
    certificate, never raised; malformed ``b`` or ``w`` raises ``InvalidDataError``.
    """
    b = check_magnitudes(b, E.N)
    w = check_vector(w, E.N, "lift")
    inv_bp = rho_from_beta(beta)  # checks beta
    u = unit_phase(w)
    c_def = (1.0 - inv_bp) * b + inv_bp * np.abs(w)

    lifted = E.project_range(b * u)
    phase_residual = float(np.linalg.norm(lifted - c_def * u))

    c_meas = np.conj(u) * lifted
    c = np.real(c_meas)
    c_imag_norm = float(np.linalg.norm(np.imag(c_meas)))

    margin = c - (1.0 - inv_bp) * b
    scale = float(np.linalg.norm(b))
    magnitude_ok = bool(np.min(margin) >= -tol * scale)

    support = b > 0
    threshold = float(np.max((b[support] - c[support]) / b[support])) if np.any(support) else 0.0
    bmax = beta_max_from_threshold(threshold)

    certified = (
        phase_residual <= tol * scale
        and c_imag_norm <= max(tol, 1e-8) * max(scale, float(np.linalg.norm(c)))
        and magnitude_ok
    )
    return FixedPointCertificate(
        beta=beta,
        tol=tol,
        phase_residual=phase_residual,
        c=c,
        c_imag_norm=c_imag_norm,
        magnitude_margin=margin,
        magnitude_ok=magnitude_ok,
        threshold=threshold,
        beta_max=bmax,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# Tangent (cross-section) Hessian machinery
# ---------------------------------------------------------------------------


def _householder(b: np.ndarray):
    """``(v, c)`` of ``H = I - c v v^T``, ``H b = -s ||b|| e_0``; ``s = sign(b_0)``, so ``v_0`` never cancels."""
    v = np.asarray(b, dtype=np.float64) / np.linalg.norm(b)
    v[0] += np.copysign(1.0, v[0])
    return v, 2.0 / (v @ v)


def _reflect(x: np.ndarray, v: np.ndarray, c: float) -> np.ndarray:
    """``H x`` for the reflector ``(v, c)`` of :func:`_householder`; ``x`` a vector or a matrix, left as it is."""
    return x - np.multiply.outer(c * v, v @ x)


def _tangent_form(f: np.ndarray, v: np.ndarray, c: float, d: np.ndarray, scale: float) -> np.ndarray:
    """``scale K_perp - diag(d)`` on the tangent subspace, in the basis ``B = H[:, 1:]``: lower triangle only,
    one Fortran-ordered ``(N-1)^2`` buffer that LAPACK can overwrite, from the reflected factor ``f = (H F)[1:]``.

    ``B.T K_perp B = I - f f^T``, and ``B.T diag(d) B`` is rows and columns 1: of the closed form
    ``H diag(d) H = diag(d) - v p^T - p v^T``, ``p = c d v - (c^2/2) <v, d v> v``: the diagonal is
    ``scale - d[1:]``, the rank-2 part one ``dsyr2k`` (O(N^2)) and ``-scale f f^T`` one ``dsyrk`` (O(N^2 n)).
    """
    from scipy.linalg.blas import dsyr2k, dsyrk
    p = c * d * v - (0.5 * c * c * (v @ (d * v))) * v
    h = np.zeros((v.size - 1, v.size - 1), order="F")  # zeroed: eigh's finiteness check reads the upper triangle
    dsyr2k(1.0, v[1:, None], p[1:, None], c=h, lower=1, overwrite_c=1)
    h.reshape(-1, order="F")[:: v.size] += scale - d[1:]
    dsyrk(-scale, f.T, beta=1.0, c=h, trans=1, lower=1, overwrite_c=1)  # f.T is Fortran-ordered: no copy
    return h


def _phase_factor(E: MeasurementEnsemble, u: np.ndarray, v=None, c=None) -> np.ndarray:
    """Rows ``u != 0`` of ``F = [Re B*, Im B*]``, ``B* = diag(conj(u)) A*``: ``F F^T = Re(diag(conj(u)) P diag(u))``.

    ``B*`` is formed in ``materialize_adjoint``'s array and written once into ``F``'s own buffer, which a reflector
    ``(v, c)`` of :func:`_householder`, when given, turns into ``H F`` in place.
    """
    s = u != 0
    bstar = E.materialize_adjoint() if s.all() else E.materialize_adjoint()[s]
    np.multiply(np.conj(u[s])[:, None], bstar, out=bstar)
    f = np.concatenate([bstar.real, bstar.imag], axis=1)
    del bstar  # dead before the reflection
    return f if v is None else np.subtract(f, np.multiply.outer(c * v, v @ f), out=f)


def _min_eig_lanczos(matvec, n_dim: int, seed: int):
    """Smallest eigenvalue of a symmetric ``n_dim``-dimensional operator by Lanczos, from the start ``seed`` draws,
    so that a repeated call gives the same bits."""
    import scipy.sparse.linalg

    op = scipy.sparse.linalg.LinearOperator((n_dim, n_dim), matvec=matvec, dtype=np.float64)
    try:
        v0 = np.random.default_rng(seed).standard_normal(n_dim)
        vals, vecs = scipy.sparse.linalg.eigsh(op, k=1, which="SA", tol=EIG_TOL, maxiter=5000, v0=v0)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        if len(exc.eigenvalues):
            return float(exc.eigenvalues[0]), float("nan"), False
        return float("nan"), float("nan"), False
    lam = float(vals[0])
    v = vecs[:, 0]
    resid = float(np.linalg.norm(matvec(v) - lam * v))
    return lam, resid, True


def _tangent_min_eig(E: MeasurementEnsemble, z: np.ndarray, d: np.ndarray, scale: float, seed: int = 0, q0=None):
    """Smallest eigenvalue of ``scale K_perp - diag(d)`` on the tangent subspace of ``z``.

    ``K_perp = Re(diag(conj(u)) Q diag(u))`` with ``u`` the phase of ``z``; ``d``, ``K_perp`` and ``Xi`` live on the
    support of ``z``.  Returns ``(eigenvalue, residual, converged, method, nu_max)``.  The form acts in the basis
    ``H[:, 1:]`` of the reflector ``H``, computed once, through one projection; the residual is taken from that action.
    Up to ``DENSE_CAP`` support dimensions, the form's lower triangle is built in place (:func:`_tangent_form`) from
    ``f = (H F)[1:]``, the phase factor built and reflected in its own buffer, for one dense subset eigen-solve that
    overwrites it; ``f`` is dropped before that solve unless ``q0`` is given, when the same ``f`` then gives ``nu_max``,
    the top eigenvalue of the pencil ``(diag q0, K_perp)`` on ``Xi``; ``f`` never leaves this function.  Beyond the cap
    Lanczos on the same action from the start ``seed`` draws.  ``nu_max`` is None but for a solved pencil.  A non-finite
    ``d`` (an iterate entry too small for its quotient) raises ``InvalidDataError`` before any operator call.
    """
    if not np.isfinite(d).all():
        raise InvalidDataError("iterate has an entry too small for a finite tangent curvature")
    mag = np.abs(z)
    s = mag > 0
    b = mag[s]
    u = unit_phase(z)
    v, c = _householder(b)

    def matvec(xi):
        x = np.zeros(b.size)
        x[1:] = xi
        x = _reflect(x, v, c)
        full = np.zeros(E.N)
        full[s] = x
        return _reflect(scale * np.real(np.conj(u) * E.project_complement(u * full))[s] - d * x, v, c)[1:]

    if b.size <= DENSE_CAP:
        import scipy.linalg
        f = _phase_factor(E, u * s, v, c)[1:]
        h = _tangent_form(f, v, c, d, scale)
        if q0 is None:
            del f  # the solve holds the form alone
        vals, vecs = scipy.linalg.eigh(h, lower=True, subset_by_index=[0, 0], overwrite_a=True)
        del h
        lam, y, nu_max = float(vals[0]), vecs[:, 0], None
        if q0 is not None:  # the largest of the pencil's b.size - 1 eigenvalues on Xi, from the same f
            with contextlib.suppress(scipy.linalg.LinAlgError):
                nu_max = float(scipy.linalg.eigh(_tangent_form(f, v, c, -q0, 0.0),
                                                 _tangent_form(f, v, c, np.zeros(b.size), 1.0),
                                                 lower=True, subset_by_index=[b.size - 2] * 2, eigvals_only=True,
                                                 overwrite_a=True, overwrite_b=True)[0])
        return lam, float(np.linalg.norm(matvec(y) - lam * y)), True, "dense", nu_max

    return *_min_eig_lanczos(matvec, b.size - 1, seed), "lanczos", None


@dataclass
class SaddleCertificate:
    """Second-order certificate on the cross section at a candidate point.

    ``hessian_min_eig`` is the smallest eigenvalue of the tangent Hessian
    ``K_perp - diag(Re q)`` restricted to ``Xi``; ``rho`` the fitted
    multiplier for the first-order condition ``Im q = rho * 1``.  Given a
    ``beta``, the dense path's beta bounds give the largest relaxation
    parameters for which the local saddle (curvature) and contraction
    conditions hold at this point; otherwise they and ``beta_ok`` are None.
    """

    q: np.ndarray
    rho: float
    first_order_defect: float
    hessian_min_eig: float
    eig_residual: float
    strict: bool
    method: str
    converged: bool
    beta: float | None = None
    beta_ok: bool | None = None
    beta_bound_saddle: float | None = None
    beta_bound_contraction: float | None = None
    beta_bound: float | None = None

    def summary(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "q"}


def certify_cross_section_minimizer(
    E: MeasurementEnsemble,
    z,
    lam,
    beta: float | None = None,
) -> SaddleCertificate:
    """Certify second-order minimality of ``z`` on its cross section.

    Assembles ``H = K_perp - diag(Re q(z, lam))`` with
    ``K_perp = Re(diag(conj(u)) Q diag(u))`` and returns its smallest
    eigenvalue restricted to the tangent subspace ``Xi`` orthogonal to the
    magnitudes, together with the first-order defect
    ``||Im q - rho * 1||`` at the fitted multiplier ``rho``.

    Coordinates where ``z`` vanishes carry no phase freedom; all quantities restrict to the
    support, which needs two entries or more (``ValueError``).  Up to ``DENSE_CAP`` support
    dimensions one subset eigen-solve on ``Xi``, and a generalized one for the beta bounds
    only when ``beta`` is given; beyond that a matrix-free Lanczos path (no beta bounds).
    A ``beta`` outside ``raar_step``'s ``(0, 1]`` raises ``ValueError``, a malformed ``z``
    or ``lam`` ``InvalidDataError``.
    """
    if beta is not None:
        _checked_param("raar", beta)
    z = check_vector(z, E.N, "iterate")
    lam = check_vector(lam, E.N, "dual")
    mag = np.abs(z)
    s = mag > 0
    if np.count_nonzero(s) < 2:
        raise ValueError(f"iterate support has {np.count_nonzero(s)} entries: its cross section is empty")
    b = mag[s]
    if b.min() < _TINY:  # q would report 0 there, but the entry is on the support
        raise InvalidDataError("iterate has an entry too small for a finite tangent curvature")
    with np.errstate(over="ignore"):  # q can overflow at a tiny normal entry, which the tangent solve rejects
        q_full = criticality_vector(E, z, lam)
    q = q_full[s]
    # beta bounds from nu_max of (diag q0, K_perp); (K_perp - diag q0, K_perp) has 1 - nu
    q0 = None if beta is None else np.real(criticality_vector(E, z, np.zeros_like(z)))[s]
    min_eig, eig_resid, converged, method, nu_max = _tangent_min_eig(E, z, np.real(q), 1.0, q0=q0)
    b2 = b * b
    # multiplier fitted by the b^2-weighted mean, matching the constraint
    # <theta, b^2> = 0 that defines the cross section
    rho = float(np.dot(b2, np.imag(q)) / np.sum(b2))
    first_order_defect = float(np.linalg.norm(np.imag(q) - rho))

    beta_saddle = beta_contraction = beta_bound = None
    if nu_max is not None:
        beta_saddle = float(min(max(1.0 - nu_max, 0.0), 1.0))
        beta_contraction = float(min(max(1.0 - 2.0 * nu_max, 0.0), 1.0))
        beta_bound = min(beta_saddle, beta_contraction)

    beta_ok = None if beta_bound is None else bool(beta < beta_bound)
    return SaddleCertificate(q=q_full, rho=rho, first_order_defect=first_order_defect, hessian_min_eig=min_eig,
                             eig_residual=eig_resid, strict=bool(converged and min_eig > 0.0), method=method,
                             converged=converged, beta=beta, beta_ok=beta_ok, beta_bound_saddle=beta_saddle,
                             beta_bound_contraction=beta_contraction, beta_bound=beta_bound)


def certify_drs_cross_section(
    E: MeasurementEnsemble, b, z, rho: float
) -> SaddleCertificate:
    """Analogous restricted curvature check for the splitting competitor.

    Certifies ``(rho+1) I - diag(b/|z|) - rho K >= 0`` on the tangent
    subspace, with ``K = Re(diag(conj(u)) P diag(u))``: the tangent
    curvature ``rho K_perp - diag(b/|z| - 1)``.  Before any operator call, ``rho`` outside
    ``(0, inf)``, a zero in ``z`` or ``N = 1`` raises ``ValueError``, malformed ``b`` or ``z``
    ``InvalidDataError``.
    """
    _checked_param("drs", rho)
    b = check_magnitudes(b, E.N)
    z = check_vector(z, E.N, "iterate")
    mag = np.abs(z)
    if np.any(mag <= 0) or E.N < 2:
        raise ValueError("curvature check needs N >= 2 and nonzero iterate magnitudes")
    if mag.min() < _TINY:
        raise InvalidDataError("iterate has an entry too small for a finite tangent curvature")
    with np.errstate(over="ignore"):  # b / |z| can overflow at a tiny normal entry, which the tangent solve rejects
        d = b / mag - 1.0
    min_eig, eig_resid, converged, method, _ = _tangent_min_eig(E, z, d, rho)
    return SaddleCertificate(q=np.zeros_like(z), rho=rho, first_order_defect=float("nan"), hessian_min_eig=min_eig,
                             eig_residual=eig_resid, strict=bool(converged and min_eig > 0.0), method=method,
                             converged=converged)


# ---------------------------------------------------------------------------
# Spectral gap
# ---------------------------------------------------------------------------


@dataclass
class SpectralGapResult:
    """Second singular value of the phase-conjugated measurement stack.

    ``lambda2 < 1`` certifies strict local minimality of the true solution
    on its cross section.  ``sigma_top = ||A w0|| / ||w0||`` at ``w0 = A* x0`` is not
    measured from ``F``: it checks the isometry ``A A* = I`` along ``x0`` and reads 1.
    ``hypothesis_met`` is False when the randomness/rank assumptions behind
    that guarantee do not hold (deterministic masks, rank-1 object, single
    pattern), in which case ``lambda2`` is still reported.
    """

    lambda2: float
    sigma_top: float
    hypothesis_met: bool
    method: str
    converged: bool
    notes: str = ""


def spectral_gap(E: MeasurementEnsemble, x0, grid, seed: int = 0) -> SpectralGapResult:
    """Compute the spectral gap ``lambda2`` at the noiseless solution.

    Builds ``B* = diag(conj(u0)) A*`` with ``u0`` the phase of ``A* x0``
    and returns the second-largest singular value of the real stack
    ``F = [Re(B*), Im(B*)]``.  ``F F^T b = b``, so the certificates' reflector splits
    ``H F F^T H = diag(1, f f^T)``, ``f = (H F)[1:]``: up to ``DENSE_CAP`` ambient
    dimensions ``lambda2^2`` is the largest eigenvalue of the ``2n x 2n`` Gram ``f^T f``.
    Beyond it the matrix-free tangent solve of the certificates at ``w0 = A* x0``,
    ``d = 0``, from the start ``seed`` draws: ``K_perp = I - F F^T`` has least tangent
    eigenvalue ``mu = 1 - lambda2^2``.  Both take ``sigma_top = ||A w0|| / ||w0||``, and
    both are NaN if the solve does not converge.
    ``grid`` is the object's shape, for the rank of the matricized object;
    an ``x0`` or ``grid`` whose size is not ``E.n`` raises ``DimensionError``.
    """
    vec = E._check_object(x0)
    if int(np.prod(grid)) != E.n:
        raise DimensionError(f"grid {tuple(grid)} has {int(np.prod(grid))} entries, the object {E.n}")
    rank = int(np.linalg.matrix_rank(vec.reshape(grid)))
    w0 = E.apply_adjoint(vec)
    b = np.abs(w0)
    if np.min(b) <= 1e-14 * np.max(b):
        raise ValueError("zero measurement magnitudes: phase of the solution undefined")

    notes = [] if rank >= 2 else ["object rank < 2"]
    n_patterns = getattr(E, "l", None)
    if n_patterns is not None and (n_patterns < 2 or getattr(E, "random_mask_count", 0) < 1):
        notes.append("masks deterministic or too few patterns")

    if E.N <= DENSE_CAP:
        f = _phase_factor(E, w0 / b, *_householder(b))[1:]
        lam2 = math.sqrt(max(float(np.linalg.eigvalsh(f.T @ f)[-1]), 0.0))
        method, converged = "dense", True
    else:
        mu, _, converged, method, _ = _tangent_min_eig(E, w0, np.zeros(E.N), 1.0, seed)
        lam2 = math.sqrt(max(1.0 - mu, 0.0)) if converged else float("nan")
    sigma_top = float(np.linalg.norm(E.apply(w0)) / np.linalg.norm(w0)) if converged else float("nan")

    return SpectralGapResult(
        lambda2=lam2,
        sigma_top=sigma_top,
        hypothesis_met=not notes,
        method=method,
        converged=converged,
        notes="; ".join(notes),
    )


def fejer_step(E: MeasurementEnsemble, b, w_prev, w, beta: float, z_star, lam_star):
    """``(T, margin, ratio, distance)`` of one step ``w_prev -> w`` of a run at relaxation ``beta``.

    At the step's decomposition ``z = [w_prev]_Z``, ``lam = w_prev - z``: the convergence
    functional ``T``, the contraction margin, and the cross-term ratio ``(T - margin) / T``
    (zero where ``T`` is at roundoff level, ``T <= (1e-12 ||b||)^2``); and the phase-aligned
    distance ``min_alpha ||w - alpha w*||``, ``w* = z* + lam*``.  A caller streams a run
    through it from ``run``'s hooks: ``on_iterate`` copies each lift, and ``on_record`` of
    row ``k >= 1`` takes step ``k`` at the row's ``param``, which is that step's, and drops
    ``w_{k-1}``; the start's distance is ``aligned_distance(w0, w*)``.
    """
    b = np.asarray(b, dtype=np.float64)
    t, m = _functional_and_margin(E, *split_lift(w_prev, b), z_star, lam_star, beta)
    ratio = (t - m) / t if t > (1e-12 * np.linalg.norm(b)) ** 2 else 0.0
    return t, m, ratio, aligned_distance(w, np.asarray(z_star) + np.asarray(lam_star))


# ---------------------------------------------------------------------------
# Per-iteration diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsRecord:
    """One row of a solver trace."""

    k: int
    param: float
    residual: float
    deriv_norm: float
    t_ratio: float
    objective: float
    wall_ns: int = 0

    csv_header = ("k", "beta_or_rho", "residual", "deriv_norm", "t_ratio", "objective_F", "wall_ns")

    def csv_row(self):
        """The fields in ``csv_header`` order; ``str`` of each float is its ``repr``."""
        return tuple(getattr(self, f.name) for f in fields(self))


def _residual_parts(z, pz, b_norm: float, zq):
    """``(||z - P z||, ||z - P z|| / ||b||)``, a record's residual, with ``z - P z`` written into ``zq``."""
    re, im = np.subtract(z, pz, out=zq).real, zq.imag
    zq_norm = math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's two dots, without its wrapper
    return zq_norm, zq_norm / b_norm


def _norm(v) -> float:
    """``||v||`` as one unit-stride dot, where ``np.linalg.norm`` makes two stride-2 ones on a complex ``v``."""
    return math.sqrt(np.vdot(v, v).real)


def diagnostics(b, b_norm: float, z, lam, lam_sq: float, pz, pl, param: float, k: int, wall_ns: int, algo: str,
                work) -> DiagnosticsRecord:
    """Evaluate the trace metrics at a primal/dual pair from its range projections.

    The one builder of a trace row; ``run`` builds every row it keeps through it.
    ``pz = P z`` and ``pl = P lam``; no operator is applied, and every norm of a complement
    part is taken as ``||v - P v||``.  ``b`` enters only the splitting objective, ``b_norm``
    only the residual, and ``lam_sq`` is ``Re(lam^H lam)``, the dot :func:`_norm` makes.
    For the relaxed-reflection and multiplier forms ``param`` is the
    relaxation parameter; for the splitting competitor it is the penalty ``rho`` and the
    derivative norm / objective are the splitting Lagrangian's (the ratio uses the corresponding
    ``1/(1+rho)``).  The ratio's denominator is ``T`` at the zero reference.  The residual's
    norm is that of :func:`_residual_parts`, which the stopping rule reads; every other norm
    is a :func:`_norm`.  The temporaries go into ``work``, four complex vectors and one
    real whose contents are never read; ``work[:2]``, which take ``z - P z`` and ``lam - P lam``, may be ``(pz, pl)``.
    """
    zq, lq, t, u, r = work
    zq_norm, residual = _residual_parts(z, pz, b_norm, zq)
    lam_norm = math.sqrt(lam_sq)
    pl_norm, lq_norm = _norm(pl), _norm(np.subtract(lam, pl, out=lq))  # ||A lam||, read before lq writes

    if algo == "drs":
        rho = param
        beta = beta_from_rho(rho)
        deriv = float(np.hypot(zq_norm, pl_norm / rho))
        obj = 0.5 * _norm(np.subtract(np.abs(z, out=r), b, out=r)) ** 2  # |z| - b
        np.add(zq, np.divide(lq, rho, out=t), out=t)  # zq + lq / rho
        obj += 0.5 * rho * (_norm(t) ** 2 - _norm(np.divide(lam, rho, out=u)) ** 2)
    else:
        beta = param
        np.add(np.multiply(1.0 - beta, lq, out=t), np.multiply(beta, zq, out=u), out=t)  # (1 - beta) lq + beta zq
        deriv = float(np.hypot(_norm(t), pl_norm))
        obj = 0.5 * beta * _norm(np.subtract(zq, lq, out=t)) ** 2 - 0.5 * lam_norm**2

    denom = _functional(beta, zq_norm, lq_norm, pl_norm)
    # at machine-precision convergence the quotient is 0/0 and only the
    # marker is meaningful: its sign would be pure roundoff
    t_scale = max(_norm(z), lam_norm)
    if denom <= (1e-13 * t_scale) ** 2:
        t_ratio = float("inf")
    else:
        t_ratio = 1.0 + 2.0 * _real_inner(z, lam) / denom

    return DiagnosticsRecord(
        k=k,
        param=float(param),
        residual=residual,
        deriv_norm=deriv,
        t_ratio=t_ratio,
        objective=float(obj),
        wall_ns=int(wall_ns),
    )


def _projected_row(E: MeasurementEnsemble, b, z, lam, param: float, k: int, algo: str = "raar") -> DiagnosticsRecord:
    """The :func:`diagnostics` row of ``(z, lam)`` from one projection of each and fresh work vectors."""
    b = np.asarray(b, dtype=np.float64)
    z, lam = np.asarray(z, dtype=np.complex128), np.asarray(lam, dtype=np.complex128)
    work = (*(np.empty_like(z) for _ in range(4)), np.empty(z.shape))
    return diagnostics(b, float(np.linalg.norm(b)), z, lam, np.vdot(lam, lam).real, E.project_range(z),
                       E.project_range(lam), param, k, 0, algo, work)
