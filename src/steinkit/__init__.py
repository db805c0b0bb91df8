"""steinkit: Stein kernels for mixed univariate distributions.

Decides existence of, constructs, and certifies Stein kernels for finite
mixtures of absolutely continuous pieces, atoms, and a Cantor-type singular
part; evaluates Stein-discrepancy bounds on the total-variation distance to
the moment-matched normal; recovers densities from kernels; and checks the
O(n^-1/2) total-variation CLT bound against exact n-fold convolutions.
"""

from .clt import CltCurve, clt_bound, clt_curve, convolution_tv, convolution_tv_result, rate_fit
from .discrepancy import DiscrepancyReport, discrepancy_bounds, tv_to_normal
from .distributions import (
    Atom,
    CantorPart,
    DistributionSpec,
    Exponential,
    Moments,
    Normal,
    QuadratureConfig,
    SupportInterval,
    Tabulated,
    Uniform,
    ac_density,
    affine_transform,
    load_spec,
    moments,
    parse_spec,
    partial_expectation,
    spec_from_dict,
    spec_to_dict,
    support,
    truncated_support,
)
from .errors import (
    DegenerateError,
    ExistenceError,
    IntegrationWarning,
    NumericsError,
    SpecError,
    SteinKitError,
)
from .kernels import (
    ExistenceReport,
    InconsistencyWitness,
    KernelFn,
    RadonNikodymFactor,
    Reason,
    TestFunction,
    Verdict,
    discrete_witness,
    existence_check,
    kernel_stats,
    kernel_to_csv,
    nz_density,
    nz_mass,
    radon_nikodym_factor,
    standard_test_functions,
    stein_kernel,
    stein_residual,
)
from .recovery import RecoveredDensity, recover_density, stein_operator

__version__ = "0.1.0"
