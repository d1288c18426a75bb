"""Starting iterates: null-vector spectral initialization and random starts.

The null-vector method finds the unit object vector whose measurements are
smallest on the weak index set (the coordinates with the smallest data
magnitudes), by power iteration on ``x -> x - A(1_I * (A* x))``.  The
result depends on the data only through the magnitudes.
``solvers.run`` starts a form from a lift (``solvers.initial_state``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import InvalidDataError, MeasurementEnsemble, check_magnitudes

__all__ = [
    "NullVectorResult",
    "null_vector",
    "random_lift",
]


# Power-iteration residual at which the null vector counts as converged,
# and the iteration budget.
POWER_TOL = 1e-8
POWER_ITERS = 200


@dataclass
class NullVectorResult:
    """Unit spectral initializer with power-iteration convergence info."""

    x: np.ndarray
    eigenvalue: float
    residual: float
    converged: bool
    iterations: int


def null_vector(E: MeasurementEnsemble, b, weak_fraction: float = 0.5, seed: int = 0) -> NullVectorResult:
    """Spectral initializer minimizing the measurement energy on the weak set.

    With ``I`` the indices of the ``floor(weak_fraction * N)`` smallest
    entries of ``b``, returns the unit ``x`` minimizing ``||1_I * (A* x)||``,
    computed as the dominant eigenvector of ``I - A diag(1_I) A*`` by at
    most ``POWER_ITERS`` power iterations (eigenvalues lie in [0, 1]) from
    a random start drawn from ``seed``.  Non-convergence within that budget
    is flagged.
    """
    if not 0.0 < weak_fraction < 1.0:
        raise ValueError(f"weak_fraction must lie in (0, 1), got {weak_fraction}")
    b = check_magnitudes(b, E.N)
    weak_count = math.floor(weak_fraction * E.N)
    if weak_count < 1:
        raise InvalidDataError("weak fraction selects no coordinates")
    weak = np.zeros(E.N)
    weak[np.argsort(b, kind="stable")[:weak_count]] = 1.0

    def apply_op(x):
        return x - E.apply(weak * E.apply_adjoint(x))

    x = random_lift(E.n, seed)
    x /= np.linalg.norm(x)
    mu = 0.0
    resid = np.inf
    iters = 0
    for iters in range(1, POWER_ITERS + 1):
        y = apply_op(x)
        mu = float(np.real(np.vdot(x, y)))
        resid = float(np.linalg.norm(y - mu * x))
        ny = np.linalg.norm(y)
        if ny == 0:
            break
        x = y / ny
        if resid <= POWER_TOL:
            break
    return NullVectorResult(
        x=x, eigenvalue=mu, residual=resid, converged=resid <= POWER_TOL, iterations=iters
    )


def random_lift(N: int, seed: int) -> np.ndarray:
    """I.i.d. complex-Gaussian lifted vector, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(N) + 1j * rng.standard_normal(N)

