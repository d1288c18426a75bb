"""Measurement ensembles and the two projections every solver is built from.

Build a dense Gaussian ensemble and a masked oversampled-DFT ensemble,
verify the isometry numerically, and look at the torus projection that
snaps a vector to the measured magnitudes.
"""

import numpy as np

from saddle_raar import (
    build_cdp_ensemble,
    build_gaussian_ensemble,
    build_rpp,
    project_torus,
)

rng = np.random.default_rng(0)

# A dense ensemble: complex Gaussian rows, orthonormalized.  The adjoint
# lifts an object x in C^16 into the measurement space C^48.
E = build_gaussian_ensemble(n=16, N=48, seed=1)
x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
w = E.apply_adjoint(x)
print(f"dense ensemble: ||A* x|| / ||x|| = {np.linalg.norm(w) / np.linalg.norm(x):.15f}")
print(f"isometry defect over 100 probes: {E.isometry_defect():.2e}")
print(f"projection defect (idempotence + Pythagoras): {E.projection_defect():.2e}")

# The range projection P = A* A and its complement split any vector.
v = rng.standard_normal(48) + 1j * rng.standard_normal(48)
pv = E.project_range(v)
qv = E.project_complement(v)
print(f"||P v||^2 + ||v - P v||^2 - ||v||^2 = "
      f"{np.linalg.norm(pv)**2 + np.linalg.norm(qv)**2 - np.linalg.norm(v)**2:.2e}")

# The torus projection rescales every entry to the measured magnitude,
# keeping its phase.  Zero entries take phase 1 by convention.
b = np.abs(w)
z = project_torus(v, b)
print(f"torus projection: max | |z| - b | = {np.max(np.abs(np.abs(z) - b)):.2e}")

# Coded diffraction patterns: one uncoded and one random unit-modulus
# mask, measured through zero-padded 2-D DFTs.  Isometry comes from a
# single analytic scale.
phantom = build_rpp((32, 32), seed=2)
C = build_cdp_ensemble((32, 32), seed=3)
print(f"\nCDP ensemble: object {C.grid}, padded {C.padded}, masks {C.l}, N = {C.N}")
print(f"CDP isometry defect: {C.isometry_defect(probes=20):.2e}")
data = np.abs(C.apply_adjoint(phantom.values))
print(f"phantom magnitudes: ||b|| = {np.linalg.norm(data):.4f}, "
      f"rank of the phantom image = {np.linalg.matrix_rank(phantom.values.reshape(phantom.grid))}")
