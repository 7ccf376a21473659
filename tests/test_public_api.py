"""The public names of zigzagspec.

They stay unless CHANGES.md records the removal: this literal list and that
record change together, so a name cannot drop out of __all__ unnoticed.
"""

import zigzagspec

PUBLIC = [
    "__version__",
    "PotentialModel",
    "SwitchingRateSpec",
    "gaussian",
    "beta_family",
    "custom",
    "scale",
    "parse_potential",
    "check_assumptions",
    "CharFunctionHandle",
    "ComplexRegion",
    "count_zeros",
    "locate_zeros",
    "EigenvalueRecord",
    "SpectrumResult",
    "auto_region",
    "compute_spectrum",
    "rescale_spectrum",
    "spectral_gap",
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
    "PerturbedEigenvalue",
    "PerturbedSpectrum",
    "refreshment_coefficient",
    "refreshment_coefficient_symmetric",
    "perturbed_spectrum",
    "ZigzagPath",
    "MarginalHistogram",
    "simulate",
    "empirical_marginal",
    "autocorrelation",
    "envelope_decay_rate",
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


def test_public_names_are_the_recorded_list():
    assert zigzagspec.__all__ == PUBLIC


def test_every_public_name_resolves():
    missing = [n for n in PUBLIC if not hasattr(zigzagspec, n)]
    assert missing == []
