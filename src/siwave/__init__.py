"""siwave: numerical laboratory for blow-up in 1D semilinear wave equations
with scale-invariant damping and mass.

Submodules:

  params      coefficient algebra (delta/gamma/sigma), critical exponents and curves
  hypergeom   Gauss hypergeometric series evaluation on [0, 1)
  kernels     kernels of the closed-form linear solver and their lower bounds
  profiles    compactly supported Cauchy data and source terms
  grids       uniform spacetime grids and sampled fields
  linear      representation-formula solver (Gauss-Legendre quadrature)
  fd          finite-difference semilinear solver and lifespan detection
  comparison  characteristic trace, integral inequality, comparison blow-up point
  iteration   coupled-system iteration sequences and divergence thresholds
  experiments eps-sweep orchestration and scaling fits
  cli         command-line interface (`siwave`)
"""

from .comparison import (
    ComparisonFrame,
    InequalityReport,
    ReducedTrace,
    comparison_blowup_log,
    comparison_blowup_z,
    empirical_frame,
    reduce_solution,
    verify_fundamental_inequality,
)
from .experiments import ScalingFit, SweepConfig, SweepResult, run_sweep
from .fd import (
    LifespanRecord,
    detect_lifespan,
    detect_lifespan_system,
    solve_linear_fd,
    solve_semilinear_field,
)
from .grids import GridSpec, SpacetimeField
from .hypergeom import ConvergenceError, hyp2f1
from .iteration import (
    CriticalSequences,
    CuspSequences,
    SubcriticalSequences,
    critical_sequences,
    cusp_sequences,
    divergence_threshold,
    lifespan_rate_system,
    subcritical_sequences,
)
from .kernels import (
    BoundReport,
    KernelPoint,
    LightConeSample,
    light_cone_sample,
    verify_kernel_lower_bounds,
)
from .linear import QuadratureError, solve_linear_field, solve_linear_point
from .params import (
    CriticalCurveReport,
    CuspExponents,
    LifespanPrediction,
    ScaleInvariantParams,
    SystemParams,
    classify_system,
    cusp_exponents,
    fujita,
    glassey,
    lambda_curve,
    params_with_sigma,
    predicted_lifespan_exponent,
    strauss,
)
from .profiles import CauchyProfile, SourceTerm, bump_profile, smooth_bump, zero_source

__version__ = "0.1.0"
