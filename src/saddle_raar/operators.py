"""Measurement ensembles and the linear maps used by every solver.

An ensemble represents an isometric measurement map through its adjoint
``A*`` (object space -> measurement space, ``A A* = I``).  Everything the
iterations need is expressed with three operations:

* ``apply_adjoint``  -- ``x -> A* x``
* ``apply``          -- ``w -> A w``
* ``project_range``  -- ``w -> P w`` with ``P = A* A``

The complementary projection ``I - P`` (the energy outside the measurement
range) is always computed as ``w - project_range(w)``; the complementary
isometry itself is never materialized.

Two ensemble kinds are provided: dense complex-Gaussian matrices with
orthonormalized rows, and masked oversampled 2-D DFTs (coded diffraction
patterns).  The module also builds the randomly phased phantom test object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.linalg import lapack_lite

__all__ = [
    "DimensionError",
    "InvalidMaskError",
    "AliasingError",
    "InvalidDataError",
    "MeasurementEnsemble",
    "GaussianEnsemble",
    "CodedDiffractionEnsemble",
    "PhantomObject",
    "build_gaussian_ensemble",
    "build_cdp_ensemble",
    "random_unit_masks",
    "unit_phase",
    "project_torus",
    "split_lift",
    "shepp_logan",
    "build_rpp",
    "ensemble_from_descriptor",
]


class DimensionError(ValueError):
    """Vector length does not match the ensemble dimensions."""


class InvalidMaskError(ValueError):
    """A diffraction mask has entries off the unit circle."""


class AliasingError(ValueError):
    """Padded grid too small to oversample the object."""


class InvalidDataError(ValueError):
    """Magnitude data violates its contract (negative, all zero, ...)."""


# ---------------------------------------------------------------------------
# Elementwise torus operations
# ---------------------------------------------------------------------------

# Smallest normal double: below it ``w / |w|`` can overflow.
_TINY = float(np.finfo(np.float64).tiny)


def _aligned_empty(shape, dtype=np.complex128) -> np.ndarray:
    """An uninitialised C-ordered array whose data starts on a 64-byte boundary.

    Off that boundary an AVX-512 loop over a vector costs up to twice as much, and numpy
    places a fresh vector at any multiple of 16 bytes.  A call costs about 1.6 us against
    0.16 us for ``np.empty`` (2-core AVX-512 Xeon), so it is for buffers kept and written in place.
    """
    dtype = np.dtype(dtype)
    nbytes = (shape if isinstance(shape, Integral) else math.prod(shape)) * dtype.itemsize
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start:start + nbytes].view(dtype).reshape(shape)


def unit_phase(w: np.ndarray, out=None) -> np.ndarray:
    """Entrywise phase ``w / |w|``, with phase 1 where ``|w|`` is below the smallest normal double.

    A subnormal entry takes the phase of a zero one, where ``w / |w|`` could overflow.
    The convention makes the map total, finite on finite input and deterministic; any
    unit value is admissible there.  Where every ``|w|`` reaches that double, one unmasked
    divide gives the same bits; a NaN fails that test and keeps the masked form.  With
    ``out`` the phase is written into it, and ``out`` may be ``w`` itself.
    """
    w = np.asarray(w, dtype=np.complex128)
    mag = np.abs(w)
    if mag.size and mag.min() >= _TINY:
        return np.divide(w, mag, out=out)
    normal = mag >= _TINY
    out = np.divide(w, mag, out=out, where=normal)
    out[~normal] = 1.0
    return out


def project_torus(w: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Nearest point ``b * w/|w|`` on the torus ``{z : |z| = b}``, written into ``out`` when given.

    Entries where ``b`` is zero map to exactly zero; entries where ``w``
    is zero use the phase-1 convention of :func:`unit_phase`.
    """
    b = np.asarray(b, dtype=np.float64)
    u = unit_phase(w, out=out)
    return np.multiply(b, u, out=u)


def split_lift(w: np.ndarray, b: np.ndarray, out=None):
    """The primal/dual pair ``(z, w - z)``, ``z = project_torus(w, b)``, of a relaxed-reflection lift ``w``.

    With ``out``, a pair of vectors, the pair is written into them.
    """
    z, lam = (None, None) if out is None else out
    z = project_torus(w, b, out=z)
    return z, np.subtract(w, z, out=lam)


def check_magnitudes(b: np.ndarray, N: int) -> np.ndarray:
    """Validate magnitude data: length ``N``, finite, nonnegative, not all zero."""
    b = np.asarray(b, dtype=np.float64)
    if b.size != N:
        raise InvalidDataError(f"magnitude data has length {b.size}, expected {N}")
    if not np.all(np.isfinite(b)):
        raise InvalidDataError("magnitude data must be finite")
    if np.any(b < 0):
        raise InvalidDataError("magnitude data must be nonnegative")
    if not np.any(b > 0):
        raise InvalidDataError("magnitude data must have a positive entry")
    return b


def check_vector(v: np.ndarray, N: int, what: str) -> np.ndarray:
    """``v`` as a complex vector, checked to have length ``N`` and finite entries."""
    v = np.asarray(v, dtype=np.complex128)
    if v.size != N:
        raise InvalidDataError(f"{what} has length {v.size}, expected {N}")
    if not np.isfinite(v).all():
        raise InvalidDataError(f"{what} must be finite")
    return v


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


class MeasurementEnsemble:
    """Isometric measurement map exposed through matrix-free actions.

    Subclasses set ``n`` (object dimension), ``N`` (measurement dimension)
    and implement ``apply_adjoint`` (with its ``out``) and ``apply``.  Instances are immutable
    after construction and safe to share across concurrent solver runs.
    """

    kind = "abstract"
    n: int
    N: int

    # -- actions ----------------------------------------------------------

    def apply_adjoint(self, x: np.ndarray, out=None) -> np.ndarray:
        """Lift an object vector: ``x -> A* x``; a given ``out``, a contiguous N-vector, takes it and is returned."""
        raise NotImplementedError

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Adjoint pair of :meth:`apply_adjoint`: ``w -> A w``."""
        raise NotImplementedError

    def project_range(self, w: np.ndarray, out=None) -> np.ndarray:
        """Orthogonal projection ``P w = A*(A w)`` onto ``range(A*)``, written into ``out`` when given.

        ``out`` may be ``w`` itself: ``A w`` is taken before ``A*`` writes.
        """
        return self.apply_adjoint(self.apply(w), out=out)

    def project_complement(self, w: np.ndarray) -> np.ndarray:
        """Complementary projection ``w - P w``."""
        return np.asarray(w, dtype=np.complex128) - self.project_range(w)

    # -- shape checks ------------------------------------------------------

    def _check_object(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128).ravel()
        if x.size != self.n:
            raise DimensionError(f"object vector has length {x.size}, expected {self.n}")
        return x

    def _check_measurement(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.complex128).ravel()
        if w.size != self.N:
            raise DimensionError(f"measurement vector has length {w.size}, expected {self.N}")
        return w

    # -- numerical self-checks ----------------------------------------------

    def isometry_defect(self, probes: int = 100, seed: int = 0) -> float:
        """Largest ``| ||A* x|| / ||x|| - 1 |`` over random probes."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(probes):
            x = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
            r = np.linalg.norm(self.apply_adjoint(x)) / np.linalg.norm(x)
            worst = max(worst, abs(r - 1.0))
        return worst

    def projection_defect(self, probes: int = 20, seed: int = 0) -> float:
        """Largest relative defect of ``P`` being an orthogonal projection.

        Checks idempotence ``P(Pw) = Pw`` and the Pythagoras identity
        ``||w - Pw||^2 + ||A w||^2 = ||w||^2`` on random probes.
        """
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(probes):
            w = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
            pw = self.project_range(w)
            worst = max(worst, np.linalg.norm(self.project_range(pw) - pw) / np.linalg.norm(w))
            total = np.linalg.norm(w - pw) ** 2 + np.linalg.norm(self.apply(w)) ** 2
            worst = max(worst, abs(total / np.linalg.norm(w) ** 2 - 1.0))
        return worst

    def materialize_adjoint(self) -> np.ndarray:
        """Dense ``N x n`` matrix of ``A*`` (columns are lifted basis vectors), a fresh array the caller owns."""
        cols = np.empty((self.N, self.n), dtype=np.complex128)
        e = np.zeros(self.n, dtype=np.complex128)
        for j in range(self.n):
            e[j] = 1.0
            cols[:, j] = self.apply_adjoint(e)
            e[j] = 0.0
        return cols

    # -- serialization -------------------------------------------------------

    def descriptor(self) -> dict:
        raise NotImplementedError


class GaussianEnsemble(MeasurementEnsemble):
    """Dense ensemble: complex Gaussian rows orthonormalized by QR.

    ``A*`` is the N x n matrix with orthonormal columns obtained from an
    i.i.d. complex standard-Gaussian draw, so ``A A* = I`` holds exactly
    up to factorization roundoff.  ``numpy.linalg.lapack_lite``'s ``zgeqrf``
    and ``zungqr`` factor the draw in place as ``np.linalg.qr`` does, bit for
    bit, without scipy; ``A*`` is stored at a 64-byte boundary.
    """

    kind = "dense-gaussian"

    def __init__(self, n: int, N: int, seed: int):
        for name, value in (("n", n), ("N", N), ("seed", seed)):
            if not isinstance(value, Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if n < 1 or N < 1:
            raise DimensionError("dimensions must be positive")
        if N < n:
            raise DimensionError(f"need N >= n, got n={n}, N={N}")
        self.n = int(n)
        self.N = int(N)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        h = np.empty((self.n, self.N), dtype=np.complex128)  # LAPACK's column-major N x n
        h.real.T[...] = rng.standard_normal((self.N, self.n))  # the bytes of the draw a + 1j * b
        h.imag.T[...] = rng.standard_normal((self.N, self.n))
        _qr_in_place(h)
        self._adjoint = _aligned_empty(h.T.shape)  # P costs more at some offsets of A* in a cache line
        self._adjoint[...] = h.T  # N x n, orthonormal columns

    def apply_adjoint(self, x, out=None):
        return np.matmul(self._adjoint, self._check_object(x), out=out)

    def apply(self, w):
        # (A*)^H w without materializing the conjugate transpose
        return np.conj(np.conj(self._check_measurement(w)) @ self._adjoint)

    def project_range(self, w, out=None):
        # apply's operations, with conj(w) taken in out, which A* overwrites once A w is formed
        return self.apply_adjoint(np.conj(np.conj(self._check_measurement(w), out=out) @ self._adjoint), out=out)

    def materialize_adjoint(self):
        return self._adjoint.copy()

    def descriptor(self):
        return {"kind": self.kind, "n": self.n, "N": self.N, "seed": self.seed}


def _qr_in_place(h: np.ndarray) -> None:
    """Overwrite C-ordered ``h``, LAPACK's column-major ``m x n`` for ``h.shape == (n, m)``, with its QR's Q.

    These are ``np.linalg.qr``'s reduced-mode calls and workspace sizes, so Q is its output bit
    for bit.  ``lapack_lite`` checks no dimension against the buffer: each comes from ``h.shape``.
    """
    n, m = h.shape
    tau, work = np.empty(n, dtype=np.complex128), np.zeros(1, dtype=np.complex128)
    for routine, dims in ((lapack_lite.zgeqrf, (m, n)), (lapack_lite.zungqr, (m, n, n))):
        routine(*dims, h, m, tau, work, -1, 0)  # workspace query
        work = np.empty(max(1, n, int(work[0].real)), dtype=np.complex128)
        if info := routine(*dims, h, m, tau, work, work.size, 0)["info"]:
            raise np.linalg.LinAlgError(f"{routine.__name__} returned info={info}")


class CodedDiffractionEnsemble(MeasurementEnsemble):
    """Masked oversampled 2-D DFT ensemble.

    For each unit-modulus mask ``mu_j`` on the object grid, a measurement
    block is the unnormalized 2-D DFT of the zero-padded product
    ``mu_j * x``, scaled by a common constant so that ``A A* = I``.
    """

    kind = "masked-dft"

    def __init__(self, grid, masks, padded=None, seed=None, random_mask_count=0):
        self.grid = _checked_grid(grid)
        r, c = self.grid
        masks = np.asarray(masks, dtype=np.complex128)
        if masks.ndim != 3 or masks.shape[1:] != self.grid:
            raise DimensionError(f"masks must have shape (l, {r}, {c})")
        if masks.shape[0] < 2:
            raise InvalidMaskError("need at least 2 masks")
        if np.max(np.abs(np.abs(masks) - 1.0)) > 1e-12:
            raise InvalidMaskError("mask entries must have unit modulus")
        self.padded = _checked_grid((2 * r, 2 * c) if padded is None else padded, "padded")
        if self.padded[0] < 2 * r - 1 or self.padded[1] < 2 * c - 1:
            raise AliasingError(
                f"padded grid {self.padded} undersamples a {r}x{c} object; "
                f"need at least ({2 * r - 1}, {2 * c - 1})"
            )
        self.masks = masks
        self._conj_masks = masks.conj()
        self.seed = seed
        self.random_mask_count = int(random_mask_count)
        self.l = masks.shape[0]
        self.n = r * c
        self.N = self.l * self.padded[0] * self.padded[1]
        # Isometry scale for the unnormalized DFT: exact for unit-modulus
        # masks, so a probe that disagrees is a defect, never a calibration.
        self.c0 = 1.0 / math.sqrt(self.N)
        if (defect := self.isometry_defect(probes=1, seed=0xC0DED)) > 1e-8:
            raise RuntimeError(f"analytic isometry scale is off: probe defect {defect!r}")

    def _lift(self, x2, out=None):
        """``A*`` of a stack ``(..., r, c)`` of object grids, as ``(..., l, pr, pc)``, in ``out`` when given.

        ``masks * x`` fills the corner of one zeroed block; the row transforms skip its zero
        rows, and each step writes in place.  Each 1-D transform and the scaling are those of one
        zero-padded ``fft2`` per mask, so the result is bitwise that loop's (criterion 08 moves under 1 ulp).
        """
        (pr, pc), (r, c) = self.padded, self.grid
        shape = (*x2.shape[:-2], self.l, pr, pc)
        block = np.empty(shape, dtype=np.complex128) if out is None else out.reshape(shape)
        block.fill(0.0)
        rows = block[..., :r, :]
        np.multiply(self.masks, x2[..., None, :, :], out=rows[..., :c])
        np.fft.fft(rows, axis=-1, out=rows)
        np.fft.fft(block, axis=-2, out=block)
        return np.multiply(self.c0, block, out=block)

    def apply_adjoint(self, x, out=None):
        block = self._lift(self._check_object(x).reshape(self.grid), out)
        return block.reshape(self.N) if out is None else out

    def apply(self, w, block=None):
        """``A w``; the row transforms go into ``block``, a contiguous N-vector (``w`` allowed), the rest in place."""
        blocks = self._check_measurement(w).reshape(self.l, *self.padded)
        (pr, pc), (r, c) = self.padded, self.grid
        # the adjoint of the unnormalized DFT is (pr*pc) * ifft2; c columns and r rows of a block reach the object
        cols = np.fft.ifft(blocks, axis=-1, out=None if block is None else block.reshape(blocks.shape))[..., :c]
        kept = np.fft.ifft(cols, axis=-2, out=cols)[..., :r, :]
        np.multiply(kept, pr * pc, out=kept)
        acc = np.zeros(self.grid, dtype=np.complex128)
        for j in range(self.l):
            acc += self._conj_masks[j] * kept[j]
        return (self.c0 * acc).reshape(self.n)

    def project_range(self, w, out=None):
        return self.apply_adjoint(self.apply(w, out), out=out)  # A's transforms run in out, then A* fills it

    def materialize_adjoint(self):
        basis = np.eye(self.n, dtype=np.complex128).reshape(self.n, *self.grid)
        return np.ascontiguousarray(self._lift(basis).reshape(self.n, self.N).T)

    def descriptor(self):
        return {
            "kind": self.kind,
            "grid": list(self.grid),
            "padded": list(self.padded),
            "seed": self.seed,
            "n_masks": self.l,
            "random_mask_count": self.random_mask_count,
            "masks_re_im": complex_to_interleaved(self.masks),
        }


def _checked_grid(grid, name: str = "grid") -> tuple:
    """``grid`` as ``(rows, cols)`` once it holds two entries and both sides are positive."""
    if len(grid) != 2:
        raise DimensionError(f"{name} must hold two entries, got {len(grid)}")
    rows, cols = int(grid[0]), int(grid[1])
    if rows < 1 or cols < 1:
        raise DimensionError(f"{name} {rows}x{cols} must have positive sides")
    return rows, cols


def build_gaussian_ensemble(n: int, N: int, seed: int) -> GaussianEnsemble:
    """Draw and orthonormalize a dense complex-Gaussian ensemble."""
    return GaussianEnsemble(n, N, seed)


def random_unit_masks(grid, l: int, seed: int) -> np.ndarray:
    """Stack of ``l`` unit-modulus masks; the first is all-ones.

    Remaining masks have i.i.d. phases uniform on the circle, drawn
    deterministically from ``seed``.
    """
    rng = np.random.default_rng(seed)
    masks = np.empty((l, grid[0], grid[1]), dtype=np.complex128)
    masks[0] = 1.0
    for j in range(1, l):
        masks[j] = np.exp(2j * np.pi * rng.random(grid))
    return masks


def build_cdp_ensemble(grid, seed: int = 0, n_masks: int = 2) -> CodedDiffractionEnsemble:
    """Build a coded-diffraction ensemble on ``grid`` with padded grid ``(2r, 2c)``.

    Uses ``n_masks`` masks with the first uncoded (all ones) and the rest
    i.i.d. uniform on the unit circle, the "one coded and one uncoded
    pattern" setup when ``n_masks=2``.  Explicit masks or another padding
    go to :class:`CodedDiffractionEnsemble` directly.
    """
    grid = _checked_grid(grid)
    if n_masks < 2:
        raise InvalidMaskError("need at least 2 masks")
    masks = random_unit_masks(grid, n_masks, seed)
    return CodedDiffractionEnsemble(grid, masks, seed=seed, random_mask_count=n_masks - 1)


def complex_to_interleaved(vec: np.ndarray) -> list:
    return np.ascontiguousarray(vec, dtype=np.complex128).ravel().view(np.float64).tolist()


def interleaved_to_complex(values) -> np.ndarray:
    return np.array(values, dtype=np.float64).view(np.complex128)


def ensemble_from_descriptor(d: dict) -> MeasurementEnsemble:
    """Rebuild an ensemble from its JSON-friendly descriptor; ``ValueError`` for one that is not a dict."""
    if not isinstance(d, dict):
        raise ValueError(f"ensemble descriptor must be an object, got {type(d).__name__}")
    kind = d.get("kind")
    if kind == GaussianEnsemble.kind:
        return GaussianEnsemble(d["n"], d["N"], d["seed"])
    if kind == CodedDiffractionEnsemble.kind:
        grid = tuple(d["grid"])
        masks = interleaved_to_complex(d["masks_re_im"]).reshape(d["n_masks"], *grid)
        return CodedDiffractionEnsemble(
            grid,
            masks,
            padded=tuple(d["padded"]),
            seed=d.get("seed"),
            random_mask_count=d.get("random_mask_count", 0),
        )
    raise ValueError(f"unknown ensemble kind: {kind!r}")


# ---------------------------------------------------------------------------
# Test objects
# ---------------------------------------------------------------------------


# Classic 10-ellipse head phantom: (additive intensity, semi-axis a, b,
# center x0, y0, rotation in degrees).
_PHANTOM_ELLIPSES = [
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.98, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.02, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.02, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.01, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.01, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.01, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.01, 0.0230, 0.0230, 0.00, -0.6050, 0.0),
    (0.01, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
]


def shepp_logan(shape) -> np.ndarray:
    """Standard additive Shepp-Logan phantom on ``shape = (rows, cols)``."""
    rows, cols = int(shape[0]), int(shape[1])
    y = np.linspace(1.0, -1.0, rows)[:, None]
    x = np.linspace(-1.0, 1.0, cols)[None, :]
    img = np.zeros((rows, cols))
    for amp, a, b, x0, y0, phi_deg in _PHANTOM_ELLIPSES:
        phi = math.radians(phi_deg)
        xr = (x - x0) * math.cos(phi) + (y - y0) * math.sin(phi)
        yr = -(x - x0) * math.sin(phi) + (y - y0) * math.cos(phi)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += amp
    return np.clip(img, 0.0, None)


@dataclass(frozen=True)
class PhantomObject:
    """Complex test object with its grid shape."""

    values: np.ndarray  # flat complex vector, length rows*cols
    grid: tuple

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values.reshape(self.grid))


def build_rpp(grid, seed: int) -> PhantomObject:
    """Randomly phased phantom: Shepp-Logan magnitudes, i.i.d. uniform phases.

    A zero margin of width ``ceil(rows/8)`` surrounds the phantom.  The
    random phases make reconstruction genuinely harder than for the plain
    phantom; the magnitude image equals the phantom exactly.
    """
    rows, cols = int(grid[0]), int(grid[1])
    if rows < 16 or cols < 16:
        raise DimensionError(f"grid {rows}x{cols} too small for the phantom; need >= 16x16")
    margin = math.ceil(rows / 8)
    inner = (rows - 2 * margin, cols - 2 * margin)
    p = np.zeros((rows, cols))
    p[margin:rows - margin, margin:cols - margin] = shepp_logan(inner)
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random((rows, cols)))
    return PhantomObject(values=(p * phases).reshape(-1), grid=(rows, cols))
