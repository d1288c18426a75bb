"""Phase retrieval by relaxed averaged alternating reflections.

A numpy/scipy library implementing the one-parameter relaxed-reflection
iteration on magnitude data, its exact reformulation as an alternating
direction method of multipliers, a penalty-splitting competitor, spectral
initialization, saddle-point/fixed-point certificates, and desk-scale
benchmark experiments (Gaussian ensembles and coded diffraction patterns).
"""

from .analysis import (
    DiagnosticsRecord,
    FixedPointCertificate,
    SaddleCertificate,
    SpectralGapResult,
    aligned_distance,
    aligned_error,
    beta_from_rho,
    beta_prime,
    certify_cross_section_minimizer,
    certify_drs_cross_section,
    certify_fixed_point,
    correlation,
    criticality_vector,
    diagnostics,
    dual_gradient,
    fejer_monitor,
    global_phase,
    objective,
    rho_from_beta,
    spectral_gap,
)
from .experiments import (
    cdp_case_run,
    cdp_case_suite,
    cdp_instance,
    gaussian_success_sweep,
    paired_success_cells,
    poisson_data,
)
from .initializers import null_vector, random_lift
from .operators import (
    AliasingError,
    CodedDiffractionEnsemble,
    DimensionError,
    GaussianEnsemble,
    InvalidDataError,
    InvalidMaskError,
    MeasurementEnsemble,
    PhantomObject,
    build_cdp_ensemble,
    build_gaussian_ensemble,
    build_rpp,
    ensemble_from_descriptor,
    project_torus,
    shepp_logan,
    unit_phase,
)
from .solvers import (
    AdmmState,
    DrsState,
    ParameterSchedule,
    RaarState,
    StoppingRule,
    admm_step,
    curvature,
    drs_step,
    finish,
    fixed_point_check,
    initial_state,
    raar_step,
    reconstruct,
    run,
)

__version__ = "0.1.0"
