import os

# One BLAS thread, as the benchmark runs, unless the caller set a count: set before numpy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from saddle_raar import (  # noqa: E402
    MeasurementEnsemble,
    beta_prime,
    build_cdp_ensemble,
    build_gaussian_ensemble,
    run,
)
from saddle_raar.analysis import (_functional_and_margin, _householder, _phase_factor, _projected_row,  # noqa: E402
                                  _reflect)


def run_rows(*args, **kwargs):
    """``(result, rows)`` of ``run(*args, **kwargs)``, its kept rows collected through a list sink."""
    rows = []
    return run(*args, on_record=rows.append, **kwargs), rows


@pytest.fixture(scope="session")
def dense_small():
    """Dense ensemble n=16, N=48 with a noiseless instance."""
    E = build_gaussian_ensemble(16, 48, seed=7)
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    b = np.abs(E.apply_adjoint(x0))
    return E, x0, b


@pytest.fixture(scope="session")
def dense_wide():
    """Dense ensemble n=16, N=64 (ratio 4) with a noiseless instance."""
    E = build_gaussian_ensemble(16, 64, seed=1)
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    b = np.abs(E.apply_adjoint(x0))
    return E, x0, b


@pytest.fixture(scope="session")
def cdp_8x8():
    """Coded-diffraction ensemble on an 8x8 random-phase object."""
    rng = np.random.default_rng(11)
    x0 = np.exp(2j * np.pi * rng.random((8, 8))).reshape(-1)
    E = build_cdp_ensemble((8, 8), seed=3)
    b = np.abs(E.apply_adjoint(x0))
    return E, x0, b


def random_complex(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def placed(a, offset):
    """A copy of ``a`` whose data starts ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(a.nbytes + 64, dtype=np.uint8)
    start = (offset - buf.ctypes.data) % 64
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


def trace_row_work(n):
    """Fresh work vectors of a trace row for ``n`` coordinates: four complex, one real."""
    return (*(np.empty(n, dtype=complex) for _ in range(4)), np.empty(n))


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

    def apply_adjoint(self, x, out=None):
        self.adjoints += 1
        return self.inner.apply_adjoint(x, out=out)


# ---------------------------------------------------------------------------
# Oracles: closed forms and readouts the tests check the library against
# ---------------------------------------------------------------------------


def optimal_dual(E, z, beta):
    """The unique dual maximizer of the objective at fixed ``z``: ``-beta' Q z``, undefined at ``beta = 1``."""
    bp = beta_prime(beta)
    return -bp * E.project_complement(z)


def dual_gradient_norm(E, z, lam, param, algo="raar"):
    """Norm of ``dual_gradient``, ``(||Q((1-beta)lam + beta z)||^2 + ||A lam||^2)^{1/2}``, as a trace row has it.

    With ``algo="drs"`` and ``param = rho``, the splitting row's ``(||Q z||^2 + ||P lam||^2 / rho^2)^{1/2}``.
    """
    return _projected_row(E, 1.0, z, lam, param, 0, algo).deriv_norm  # b is not read by the derivative norm


def inequality_ratio(E, z, lam, beta):
    """Basin indicator ``1 + 2<z, lam> / (beta ||Qz||^2 + (1-beta)||Q lam||^2 + ||A lam||^2)``, as a trace row has it.

    The ``+inf`` marker stands for the 0/0 limit at a solution, where the
    quotient's sign would be pure roundoff.
    """
    return _projected_row(E, 1.0, z, lam, beta, 0).t_ratio  # b enters only the residual, not read here


def convergence_functional(E, z, lam, z_star, lam_star, beta):
    """``T = beta ||Q(z - z*)||^2 + (1-beta) ||Q(lam - lam*)||^2 + ||A lam||^2`` against the phase-aligned reference."""
    return _functional_and_margin(E, z, lam, z_star, lam_star, beta)[0]


def contraction_margin(E, z, lam, z_star, lam_star, beta):
    """Margin ``T(z, lam) - 2 <alpha z* - z, lam - alpha lam*>``; positive at each step means Fejer contraction."""
    return _functional_and_margin(E, z, lam, z_star, lam_star, beta)[1]


def tangent_basis(b):
    """Orthonormal basis (columns) of ``Xi = { xi real : <xi, b> = 0 }``: ``H[:, 1:]``."""
    return _reflect(np.eye(len(b)), *_householder(b))[:, 1:]


def assemble_complement_form(E, u):
    """Dense form ``Re(diag(conj(u)) Q diag(u)) = I - F F^T`` for unit ``u``, ``F`` the phase factor."""
    f = _phase_factor(E, u)
    return np.eye(E.N) - f @ f.T


def dense_spectral_gap(E, x0):
    """``(sigma_top, lambda2)``, the two largest singular values of the phase factor at ``A* x0``, by a full SVD."""
    w0 = E.apply_adjoint(x0)
    svals = np.linalg.svd(_phase_factor(E, w0 / np.abs(w0)), compute_uv=False)
    return float(svals[0]), float(svals[1])
