"""Certifying limits: fixed-point conditions, tangent curvature, spectral gap.

A converged iterate is certified in two layers.  The fixed-point
certificate checks the phase identity P(b*u) = c*u together with the
nonnegativity of the implied magnitudes, and reports the interval of
relaxation values that keep this phase vector a fixed point.  The
cross-section certificate assembles the tangent Hessian on the subspace
orthogonal to the magnitudes and reports its smallest eigenvalue, which
for the true solution of a coded-diffraction instance is bounded below by
one minus the measurement spectral gap.
"""

import numpy as np

from saddle_raar import (
    ParameterSchedule,
    StoppingRule,
    build_cdp_ensemble,
    certify_cross_section_minimizer,
    certify_fixed_point,
    build_gaussian_ensemble,
    initial_state,
    random_lift,
    run,
    spectral_gap,
)

# --- fixed-point certificate on a converged dense run --------------------
E = build_gaussian_ensemble(n=16, N=64, seed=1)
rng = np.random.default_rng(5)
x0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
b = np.abs(E.apply_adjoint(x0))

raar0 = initial_state(E, b, "raar", random_lift(E.N, seed=3))
res = run(E, b, "raar", ParameterSchedule.constant(0.9), raar0, 3000,
          StoppingRule(residual_tol=1e-12, deriv_tol=0.0))
cert = certify_fixed_point(E, b, res.state.w, beta=0.9)
print(f"converged run: phase residual {cert.phase_residual:.2e}, "
      f"certified={cert.certified}")
print(f"admissible relaxation interval at this phase: (0, {cert.beta_max:.6f}]")

# --- spectral gap and tangent curvature on a coded-diffraction instance --
rng = np.random.default_rng(11)
obj = np.exp(2j * np.pi * rng.random((8, 8))).reshape(-1)
C = build_cdp_ensemble((8, 8), seed=3)
gap = spectral_gap(C, obj, grid=(8, 8))
print(f"\nspectral gap: lambda2 = {gap.lambda2:.6f} (top singular value "
      f"{gap.sigma_top:.12f}), hypothesis met: {gap.hypothesis_met}")

z_star = C.apply_adjoint(obj)
saddle = certify_cross_section_minimizer(C, z_star, np.zeros_like(z_star), beta=0.9)
print(f"tangent Hessian smallest eigenvalue: {saddle.hessian_min_eig:.6f}")
print(f"guaranteed lower bound 1 - lambda2:  {1 - gap.lambda2:.6f}")
print(f"first-order defect {saddle.first_order_defect:.2e} at fitted "
      f"multiplier {saddle.rho:.2e}; strict minimizer: {saddle.strict}")
print(f"relaxation bounds at this point: saddle {saddle.beta_bound_saddle:.4f}, "
      f"contraction {saddle.beta_bound_contraction:.4f}")
