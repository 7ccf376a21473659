"""Spectral theory of the 1-d zigzag generator, computed.

For a unimodal potential U the zigzag process (X, Theta) on R x {-1, +1}
has generator L f = theta f' + lambda(x, theta) (f(x, -theta) - f(x, theta))
with canonical switching rate lambda = max(theta U'(x), 0).  Its L^2 spectrum
is the zero set of a holomorphic characteristic function; this package
evaluates that function, finds its zeros, builds the eigenfunctions,
resolvents and spectral projections, computes first-order eigenvalue shifts
under constant refreshment, and validates the spectral gap against an
event-driven path simulation.
"""

from .errors import (
    DegenerateObservableError,
    DomainError,
    GapUndeterminedError,
    InsufficientHorizonError,
    IntegrationError,
    NearZeroError,
    NonSimpleEigenvalueError,
    NotAnEigenvalueError,
    PolishFailureError,
    ResolventAtEigenvalueError,
    SimulationError,
    TruncationError,
    UnresolvedClusterError,
    WindingError,
    ZigzagError,
)
from .potential import (
    PotentialModel,
    SwitchingRateSpec,
    beta_family,
    check_assumptions,
    custom,
    gaussian,
    parse_potential,
    scale,
)
from .charfn import CharFunctionHandle
from .rootfinder import ComplexRegion, count_zeros, locate_zeros
from .spectrum import (
    EigenvalueRecord,
    SpectrumResult,
    auto_region,
    compute_spectrum,
    rescale_spectrum,
    spectral_gap,
)
from .operator import (
    GridFunction,
    PiecewiseEigenfunction,
    apply_generator,
    apply_resolvent,
    default_grid,
    eigenfunction,
    eigenfunction_table,
    grid_radius,
    inner_product_mu,
    inner_product_nu,
    k_coefficients,
    psi_tilde,
    resolvent_defect,
    spectral_projection,
    z_prime_consistency,
)
from .perturbation import (
    PerturbedEigenvalue,
    PerturbedSpectrum,
    perturbed_spectrum,
    refreshment_coefficient,
    refreshment_coefficient_symmetric,
)
from .simulator import (
    MarginalHistogram,
    ZigzagPath,
    autocorrelation,
    empirical_marginal,
    envelope_decay_rate,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # potentials
    "PotentialModel",
    "SwitchingRateSpec",
    "gaussian",
    "beta_family",
    "custom",
    "scale",
    "parse_potential",
    "check_assumptions",
    # characteristic function and roots
    "CharFunctionHandle",
    "ComplexRegion",
    "count_zeros",
    "locate_zeros",
    # spectrum
    "EigenvalueRecord",
    "SpectrumResult",
    "auto_region",
    "compute_spectrum",
    "rescale_spectrum",
    "spectral_gap",
    # operator-level objects
    "GridFunction",
    "PiecewiseEigenfunction",
    "grid_radius",
    "default_grid",
    "psi_tilde",
    "eigenfunction",
    "eigenfunction_table",
    "inner_product_mu",
    "inner_product_nu",
    "k_coefficients",
    "apply_resolvent",
    "resolvent_defect",
    "spectral_projection",
    "z_prime_consistency",
    "apply_generator",
    # perturbation
    "PerturbedEigenvalue",
    "PerturbedSpectrum",
    "refreshment_coefficient",
    "refreshment_coefficient_symmetric",
    "perturbed_spectrum",
    # simulation
    "ZigzagPath",
    "MarginalHistogram",
    "simulate",
    "empirical_marginal",
    "autocorrelation",
    "envelope_decay_rate",
    # errors
    "ZigzagError",
    "DomainError",
    "IntegrationError",
    "TruncationError",
    "NearZeroError",
    "WindingError",
    "UnresolvedClusterError",
    "PolishFailureError",
    "NotAnEigenvalueError",
    "ResolventAtEigenvalueError",
    "NonSimpleEigenvalueError",
    "GapUndeterminedError",
    "SimulationError",
    "InsufficientHorizonError",
    "DegenerateObservableError",
]
