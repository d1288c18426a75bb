"""Reconstructing the randomly phased phantom from 1.5 diffraction patterns.

The noiseless experiment: a 32x32 phantom with i.i.d. random phases,
measured through one uncoded and one coded oversampled pattern, solved by
600 relaxed-reflection iterations whose relaxation value holds at its
start for 300 iterations and then decays piecewise linearly to 0.5.
Spectral initialization puts the start inside the attraction basin; the
basin indicator turning positive early confirms it.

Writes the phantom, the mid-run snapshot, and the final reconstruction
as PGM images under demo_out/.
"""

from saddle_raar import aligned_error
from saddle_raar.artifacts import aligned_real_image, magnitude_image, write_pgm
from saddle_raar.experiments import cdp_case_suite

suite = cdp_case_suite("a", grid=(32, 32), seed=0)
x0 = suite.instance.phantom.values

print("start  final residual  aligned error  basin indicator > 0 (last 100)")
for p in suite.paths:
    print(f"{p.beta_start:5.2f}  {p.final_residual:14.2e}  {p.aligned_error:13.2e}  "
          f"{p.tail_t_ratio_positive}")

print(f"\nall pairwise reconstruction correlations >= "
      f"{suite.pairwise_min_correlation():.6f}")

write_pgm("demo_out/phantom.pgm", magnitude_image(x0, (32, 32)))
best = suite.paths[0]
write_pgm("demo_out/snapshot_mid_run.pgm", aligned_real_image(best.x_snapshot, x0, (32, 32)))
write_pgm("demo_out/reconstruction.pgm", aligned_real_image(best.x_final, x0, (32, 32)))
print(f"\nimages written to demo_out/ (error vs source: "
      f"{aligned_error(best.x_final, x0):.2e})")
