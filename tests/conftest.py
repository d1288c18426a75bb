import numpy as np
import pytest

from saddle_raar import MeasurementEnsemble, build_cdp_ensemble, build_gaussian_ensemble


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
