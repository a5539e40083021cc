"""Numerical laboratory for time-periodic drift-diffusion operators.

The package realizes a T-periodic second-order operator family as three
interoperating engines (exact Gaussian transitions for linear drift,
Euler-Maruyama particle transport, and finite-difference space-time grids),
and layers diagnostics on top: hypothesis certification, decay-rate fits,
spectral-gap and spectral-mapping checks, and Poincare / entropy inequality
residuals.
"""

from .blas import pin_openblas_threads
from .errors import (
    Blowup,
    ConfigError,
    DegenerateWindow,
    DimensionTooLarge,
    EigSolverFailure,
    IntegratorFailure,
    LabError,
    MissingGradient,
    NoiseFloor,
    NonPositiveDefinite,
    NotApplicable,
    NotDissipative,
    PerronFailure,
    QNotXIndependent,
    SingularSystem,
    SolverDivergence,
    UnboundedDrift,
)
from .fields import (
    DriftTerm,
    PeriodicCoefficientField,
    SamplePlan,
    build_plan,
    gen_field,
    grad1d_field,
    polynomial_field,
)
from .hypotheses import (
    HypothesisReport,
    LyapunovResult,
    check_hypotheses,
)
from .montecarlo import (
    ParticleEnsemble,
    SimConfig,
    TangentEnsemble,
    sample_periodic_measure,
)
from .ougaussian import (
    GaussianMeasure,
    OUModel,
    PeriodicGaussianSystem,
    as_field,
    fourier_matrix_model,
    periodic_system,
)

__version__ = "0.1.0"

# after every import above, so numpy's OpenBLAS is mapped; grid pins scipy's
pin_openblas_threads()
