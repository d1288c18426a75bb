"""Desk-scale benchmark studies: Gaussian success sweeps and CDP runs.

Two experiment families:

* ``gaussian_success_sweep`` reconstructs random objects from dense
  Gaussian ensembles over a grid of sampling ratios and parameters,
  reporting per-cell success rates for the relaxed-reflection solver and
  the splitting competitor at paired parameters ``beta = 1/(rho+1)``;
* the coded-diffraction experiments run the randomly phased phantom under
  five relaxation paths (constant start, then linear decay to 0.5) on
  noiseless or Poisson-noised magnitudes, with reconstruction quality and
  saddle diagnostics.

Trials are independent; per-trial seeds derive from the experiment seed
by counter-based keys, so results are reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import analysis
from .initializers import NullVectorResult, null_vector, random_lift
from .operators import (
    InvalidDataError,
    MeasurementEnsemble,
    PhantomObject,
    build_cdp_ensemble,
    build_gaussian_ensemble,
    build_rpp,
    split_lift,
)
from .solvers import ParameterSchedule, StoppingRule, _checked_count, finish, reconstruct, run

__all__ = [
    "BETA_GRID",
    "RHO_GRID",
    "RATIO_GRID",
    "BETA_PATH_STARTS",
    "PoissonData",
    "poisson_data",
    "TrialOutcome",
    "CellResult",
    "SweepResult",
    "gaussian_success_sweep",
    "paired_success_cells",
    "CdpInstance",
    "cdp_instance",
    "CdpPathResult",
    "cdp_case_run",
    "CdpCaseResult",
    "cdp_case_suite",
]

# Parameter grids of the Gaussian study: beta = k/(k+1) pairs with rho = 1/k.
BETA_GRID = tuple(k / (k + 1.0) for k in range(1, 11))
RHO_GRID = tuple(1.0 / k for k in range(1, 11))
RATIO_GRID = (3.0, 3.5, 4.0, 4.5, 5.0)
BETA_PATH_STARTS = (0.95, 0.9, 0.8, 0.7, 0.6)

# Iterations held at the terminal relaxation value at the end of each
# decay path.  The dual maximizer moves with the parameter, so a path
# still declining at the final iteration leaves a dual gradient of the
# size of one parameter step no matter how well the solver tracks; the
# terminal hold lets the iterate reach the terminal-parameter saddle.
TERMINAL_SETTLE_ITERS = 240

# Poisson noise calibration: relative window around the target level, and probe budget.
NOISE_REL_WINDOW = 0.05
NOISE_MAX_PROBES = 80


def _child_seeds(*key) -> np.ndarray:
    """Four deterministic integer seeds derived from a counter key."""
    return np.random.SeedSequence(list(key)).generate_state(4)


def _gaussian_instance(n: int, N: int, seeds):
    """``(E, x0, b)``: the ensemble from ``seeds[0]``, the object ``random_lift(n, seeds[1])``, ``b = |A* x0|``."""
    E = build_gaussian_ensemble(n, N, seed=int(seeds[0]))
    x0 = random_lift(n, int(seeds[1]))
    return E, x0, np.abs(E.apply_adjoint(x0))


def _start(E: MeasurementEnsemble, b, null: bool, weak_fraction: float, seed: int):
    """``(null vector or None, w0)``: the null vector at ``weak_fraction`` lifted at ``||b||`` if ``null``.

    Otherwise ``(None, random_lift(E.N, seed))``.
    """
    if not null:
        return None, random_lift(E.N, seed)
    nv = null_vector(E, b, weak_fraction=weak_fraction, seed=seed)
    return nv, E.apply_adjoint(nv.x * np.linalg.norm(b))  # scale to the data's energy; direction is what matters


# ---------------------------------------------------------------------------
# Poisson counting noise
# ---------------------------------------------------------------------------


@dataclass
class PoissonData:
    """Calibrated noisy magnitudes with the resolved count scale."""

    b: np.ndarray
    kappa: float
    realized_level: float
    target_level: float

    def summary(self) -> dict:
        """Every field but the array ``b``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "b"}


def _sample_magnitudes(clean: np.ndarray, kappa: float, seed_key) -> np.ndarray:
    rng = np.random.default_rng(seed_key)
    counts = rng.poisson(kappa * clean**2)
    return np.sqrt(counts / kappa)


def poisson_data(
    x0: PhantomObject,
    E: MeasurementEnsemble,
    target_level: float,
    seed: int,
) -> PoissonData:
    """Poisson counting noise calibrated to a relative magnitude error.

    Squared magnitudes are Poisson with mean ``kappa * |A* x0|^2``; the
    scale ``kappa`` is bisected (each probe resampling with a fixed
    per-probe seed) until the realized level ``||b - |A* x0||| / ||b||``
    is within ``NOISE_REL_WINDOW`` of the target, in at most
    ``NOISE_MAX_PROBES`` probes.
    """
    if not 0.0 < target_level < 1.0:
        raise InvalidDataError("target noise level must lie in (0, 1)")
    clean = np.abs(E.apply_adjoint(x0.values))
    norm_clean = np.linalg.norm(clean)

    def realize(kappa, probe):
        b = _sample_magnitudes(clean, kappa, [seed, probe])
        nb = np.linalg.norm(b)
        level = float(np.linalg.norm(b - clean) / nb) if nb > 0 else 1.0
        return b, level

    # noise level scales like 1/sqrt(kappa); start from the analytic guess
    kappa = E.N / (4.0 * (target_level * norm_clean) ** 2)
    lo = hi = None
    for probe in range(NOISE_MAX_PROBES):
        b, level = realize(kappa, probe)
        if abs(level - target_level) <= NOISE_REL_WINDOW * target_level:
            return PoissonData(b=b, kappa=kappa, realized_level=level, target_level=target_level)
        if level > target_level:
            lo = kappa  # too noisy: need more counts
            kappa = kappa * 4.0 if hi is None else math.sqrt(kappa * hi)
        else:
            hi = kappa
            kappa = kappa / 4.0 if lo is None else math.sqrt(kappa * lo)
    raise InvalidDataError(
        f"could not reach noise level {target_level} within {NOISE_MAX_PROBES} probes (last {level})"
    )


# ---------------------------------------------------------------------------
# Gaussian success sweep
# ---------------------------------------------------------------------------


@dataclass
class TrialOutcome:
    algo: str
    ratio: float
    param: float
    trial: int
    success: bool
    final_residual: float
    aligned_error: float
    iterations: int
    fixed_point_pass: bool


@dataclass
class CellResult:
    algo: str
    ratio: float
    param: float
    outcomes: list

    @property
    def trials(self) -> int:
        return len(self.outcomes)

    @property
    def successes(self) -> int:
        return sum(1 for o in self.outcomes if o.success)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


@dataclass
class SweepResult:
    """Per-cell success counts over the (ratio x parameter x algo) grid, cells in (algo, ratio, param) order."""

    n: int
    trials: int
    seed: int
    success_threshold: float
    cells: list = field(default_factory=list)

    def cell(self, algo: str, ratio: float, param: float) -> CellResult:
        for c in self.cells:
            if c.algo == algo and c.ratio == ratio and abs(c.param - param) < 1e-12:
                return c
        raise KeyError((algo, ratio, param))

    def to_rows(self):
        return [(c.ratio, repr(c.param), c.algo, repr(c.success_rate)) for c in self.cells]

    def to_json_dict(self):
        """Every field, and each cell's ``successes``, ``trials`` and ``success_rate``."""
        doc = asdict(self)
        for cell, c in zip(doc["cells"], self.cells):
            cell |= {"successes": c.successes, "trials": c.trials, "success_rate": c.success_rate}
        return doc


def _run_success_trial(
    n, ratio, algo, param, param_idx, trial, seed, max_iters, threshold
) -> TrialOutcome:
    N = int(round(ratio * n))
    ialgo = 0 if algo == "raar" else 1
    seeds = _child_seeds(seed, int(round(ratio * 10)), ialgo, param_idx, trial)
    E, x0, b = _gaussian_instance(n, N, seeds)
    _, w0 = _start(E, b, False, None, int(seeds[2]))

    # stop well below the success threshold so converged iterates sit comfortably
    # inside the fixed-point certificate tolerance; a trial reads only its final record
    stop = StoppingRule(residual_tol=min(1e-8, 0.1 * threshold), deriv_tol=0.0)
    result = run(E, b, algo, ParameterSchedule.constant(param), w0, max_iters, stop, record_every=max_iters)
    done = finish(E, b, algo, result, param, tol=1e-6)

    final_residual = result.final_record.residual
    return TrialOutcome(
        algo=algo,
        ratio=ratio,
        param=param,
        trial=trial,
        success=bool(final_residual <= threshold),
        final_residual=final_residual,
        aligned_error=analysis.aligned_error(done.x, x0),
        iterations=result.final_record.k,
        fixed_point_pass=done.fixed_point_pass,
    )


def gaussian_success_sweep(
    n: int = 100,
    ratios=RATIO_GRID,
    betas=BETA_GRID,
    rhos=RHO_GRID,
    trials: int = 40,
    seed: int = 0,
    max_iters: int = 2000,
    success_threshold: float = 1e-5,
) -> SweepResult:
    """Success-rate sweep over sampling ratios and solver parameters.

    Each trial draws a fresh ensemble, object, and random start from
    counter-derived seeds.  Success means the final relative residual is
    at or below ``success_threshold`` within the iteration budget (the
    aligned reconstruction error is recorded alongside).
    """
    sweep = SweepResult(n=n, trials=trials, seed=seed, success_threshold=success_threshold)
    # cells in (algo, ratio, param) order; a parameter's grid index keys its trial seeds
    for algo, grid in (("drs", rhos), ("raar", betas)):
        for ratio in sorted(ratios):
            for idx, param in sorted(enumerate(grid), key=lambda item: item[1]):
                outcomes = [
                    _run_success_trial(n, ratio, algo, param, idx, trial, seed, max_iters, success_threshold)
                    for trial in range(trials)
                ]
                sweep.cells.append(CellResult(algo=algo, ratio=ratio, param=param, outcomes=outcomes))
    return sweep


def paired_success_cells(*, ratio: float = 4.0, beta: float = 0.9, **sweep) -> SweepResult:
    """The two paired cells (one relaxation value, its penalty partner).

    ``sweep`` holds ``gaussian_success_sweep``'s ``n``, ``trials``, ``seed``,
    ``max_iters`` and ``success_threshold``, with its defaults.
    """
    return gaussian_success_sweep(ratios=(ratio,), betas=(beta,), rhos=(analysis.rho_from_beta(beta),), **sweep)


# ---------------------------------------------------------------------------
# Coded diffraction experiments
# ---------------------------------------------------------------------------


@dataclass
class CdpInstance:
    """Shared data of one coded-diffraction case: ensemble, object, magnitudes and the paths' start."""

    ensemble: MeasurementEnsemble
    phantom: PhantomObject
    b: np.ndarray
    noise: PoissonData | None
    init_seed: int
    null_init: NullVectorResult | None  # spectral initializer of cases a and c
    w0: np.ndarray  # the lift every path starts from


def cdp_instance(
    case: str, grid=(32, 32), seed: int = 0, noise_target: float = 0.18, weak_fraction: float = 0.5
) -> CdpInstance:
    """Build the shared instance for one experiment case.

    Cases: (a) noiseless + spectral init, (b) noiseless + random init,
    (c) Poisson noise + spectral init, (d) Poisson noise + random init.
    """
    if case not in ("a", "b", "c", "d"):
        raise ValueError(f"unknown case {case!r}")
    seeds = _child_seeds(seed, "abcd".index(case))
    phantom = build_rpp(grid, seed=int(seeds[0]))
    E = build_cdp_ensemble(grid, seed=int(seeds[1]))
    if case in ("a", "b"):
        b = np.abs(E.apply_adjoint(phantom.values))
        noise = None
    else:
        noise = poisson_data(phantom, E, noise_target, seed=int(seeds[2]))
        b = noise.b
    init_seed = int(seeds[3])
    nv, w0 = _start(E, b, case in ("a", "c"), weak_fraction, init_seed)
    return CdpInstance(
        ensemble=E, phantom=phantom, b=b, noise=noise, init_seed=init_seed, null_init=nv, w0=w0
    )


@dataclass
class CdpPathResult:
    """One relaxation path's trace and reconstructions."""

    beta_start: float
    records: list
    x_final: np.ndarray
    x_snapshot: np.ndarray
    final_residual: float
    final_deriv_norm: float
    aligned_error: float
    tail_t_ratio_positive: bool  # the basin indicator is positive on the last 100 rows

    def summary(self) -> dict:
        """Every field but the trace and the two reconstructions."""
        arrays = ("records", "x_final", "x_snapshot")
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in arrays}


def cdp_case_run(
    instance: CdpInstance,
    beta_start: float,
    total_iters: int = 600,
    hold_iters: int = 300,
    settle_iters: int = TERMINAL_SETTLE_ITERS,
    on_iterate=None,
) -> CdpPathResult:
    """Run one relaxation path on a phantom instance.

    The path holds ``beta_start`` for ``hold_iters`` iterations, then
    decreases piecewise linearly to 0.5 within the remaining budget
    (fixed budget, full trace).  The decline completes ``settle_iters``
    before the end: the dual maximizer moves with the parameter, so the
    dual gradient at the final iterate would otherwise measure one
    parameter step's worth of target motion rather than convergence
    quality.  Returns the mid-run snapshot reconstruction (at iterate
    ``hold_iters``, or the last one if the run is shorter), the final
    reconstruction ``A(z - lambda)``, and whether the basin indicator is
    positive on the last 100 rows.  ``on_iterate`` is passed on to ``run``, whose lift is valid during
    the call (the snapshot copies it).  ``hold_iters`` and ``settle_iters`` are checked as ``run`` checks ``max_iters``.
    """
    _checked_count("hold_iters", hold_iters)
    _checked_count("settle_iters", settle_iters)
    E, b = instance.ensemble, instance.b
    knee = max(hold_iters + 1, total_iters - settle_iters)
    schedule = ParameterSchedule(((hold_iters, beta_start), (knee, 0.5)))
    w_snap = None

    def observe(k, w):
        nonlocal w_snap
        if k == hold_iters:
            w_snap = w.copy()  # run's own vector: read-only, valid during the call
        if on_iterate is not None:
            on_iterate(k, w)

    result = run(
        E,
        b,
        "raar",
        schedule,
        instance.w0,
        max_iters=total_iters,
        stop=StoppingRule(fixed_budget=True),
        on_iterate=observe,
    )
    x_snap = reconstruct(E, *split_lift(result.state.w if w_snap is None else w_snap, b))

    x_fin = reconstruct(E, result.z, result.lam)
    return CdpPathResult(
        beta_start=beta_start,
        records=result.records,
        x_final=x_fin,
        x_snapshot=x_snap,
        final_residual=result.final_record.residual,
        final_deriv_norm=result.final_record.deriv_norm,
        aligned_error=analysis.aligned_error(x_fin, instance.phantom.values),
        tail_t_ratio_positive=all(r.t_ratio > 0 for r in result.records[-100:]),
    )


@dataclass
class CdpCaseResult:
    """All five relaxation paths of one case plus cross-path correlations."""

    instance: CdpInstance
    paths: list
    correlations: np.ndarray

    def pairwise_min_correlation(self) -> float:
        m = self.correlations
        off = m[~np.eye(m.shape[0], dtype=bool)]
        return float(off.min()) if off.size else 1.0


def cdp_case_suite(
    case: str,
    grid=(32, 32),
    seed: int = 0,
    total_iters: int = 600,
    hold_iters: int = 300,
    settle_iters: int = TERMINAL_SETTLE_ITERS,
    noise_target: float = 0.18,
    weak_fraction: float = 0.5,
) -> CdpCaseResult:
    """Run the paths from each of ``BETA_PATH_STARTS`` on one shared instance of a case."""
    inst = cdp_instance(case, grid, seed, noise_target, weak_fraction)
    paths = [
        cdp_case_run(
            inst,
            start,
            total_iters=total_iters,
            hold_iters=hold_iters,
            settle_iters=settle_iters,
        )
        for start in BETA_PATH_STARTS
    ]

    k = len(paths)
    corr = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            corr[i, j] = corr[j, i] = analysis.correlation(paths[i].x_final, paths[j].x_final)
    return CdpCaseResult(instance=inst, paths=paths, correlations=corr)
