"""One iteration, three faces: relaxed reflections, multipliers, splitting.

The relaxed-reflection update on the lifted iterate w is algebraically
identical to an alternating-direction method on the triple (y, z, lambda)
with unit dual step: starting the triple from z1 = [w0]_Z and
lambda1 = w0 - z1 reproduces the reflection sequence exactly.  The
splitting competitor with penalty rho plays the same game at the paired
relaxation value beta = 1/(rho + 1).
"""

import numpy as np

from saddle_raar import (
    ParameterSchedule,
    StoppingRule,
    admm_step,
    beta_from_rho,
    build_gaussian_ensemble,
    initial_state,
    raar_step,
    random_lift,
    run,
)

E = build_gaussian_ensemble(n=16, N=64, seed=1)
rng = np.random.default_rng(5)
x0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
b = np.abs(E.apply_adjoint(x0))

beta = 0.9
w = random_lift(E.N, seed=42)
admm = initial_state(E, b, "admm", w)

print("step   ||w'_k - w_k|| / ||w_k||")
for k in range(1, 11):
    w = raar_step(E, b, w, beta)
    lam_prev = admm.lam
    admm = admm_step(E, b, admm, beta=beta)
    w_prime = admm.y + lam_prev
    print(f"{k:4d}   {np.linalg.norm(w_prime - w) / np.linalg.norm(w):.3e}")

# Full runs through the shared loop, with the default stopping rule.
w0 = random_lift(E.N, seed=7)
res = run(E, b, "raar", ParameterSchedule.constant(beta), initial_state(E, b, "raar", w0), 3000)
print(f"\nrelaxed reflections: stopped by {res.stop_reason} at k={res.final_record.k}, "
      f"residual {res.final_record.residual:.2e}")

rho = 1.0 / 9.0
print(f"paired splitting penalty: rho = 1/9 -> beta = {beta_from_rho(rho):.3f}")
res_drs = run(E, b, "drs", ParameterSchedule.constant(rho), initial_state(E, b, "drs", w0, rho), 6000,
              StoppingRule(residual_tol=1e-12, deriv_tol=1e-11))
print(f"splitting: stopped by {res_drs.stop_reason} at k={res_drs.final_record.k}, "
      f"residual {res_drs.final_record.residual:.2e}")
