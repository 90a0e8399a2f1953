"""Spin squeezing of layered atomic arrays driven by squeezed vacuum.

The package predicts how much quadrature squeezing a paraxial
squeezed-vacuum beam imprints on the collective spin of a stack of
subwavelength atomic array layers.  Three routes to the same number are
provided: a closed-form beam-splitter model, a steady-state solve of
the coupled layer moments, and a stochastic-trajectory estimate used as
an independent cross-check.
"""

from .analytic import (
    DetuningSpec,
    ThreeLevelSpec,
    overlap_chi,
    reflectivity_complex,
    squeezing_contrast,
    three_level_effective,
    xi2_analytic,
    xi2_min,
    xi2_min_vs_layers,
    xi2_mismatch,
    xi2_three_level,
)
from .config import ExperimentConfig, build_config, load_config_file, parse_config_text
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DomainError,
    PhysicalityError,
    ResidualError,
    SpinSqueezeError,
    StabilityError,
)
from .geometry import ArrayGeometry, BeamProfile
from .layers import (
    DriftMatrix,
    LayerKernel,
    TruncationInfo,
    delta_prime,
    drift_matrix,
    evanescent_band,
    evanescent_range,
    interaction_kernel,
)
from .mc import McParams, simulate_xi2, stacked_covariance, stacked_drift
from .rates import (
    RateSet,
    ValidityReport,
    compute_rates,
    discrete_overlap,
    overlap_efficiency,
    single_layer_rate,
    validity_report,
    waist_for_overlap,
)
from .squeezed_input import (
    DiffusionSet,
    SqueezedVacuumSpec,
    SqueezingResult,
    beam_splitter,
    field_moments,
    input_quadrature_variance,
    noise_diffusions,
)
from .steady import (
    SteadyStateMoments,
    UnitResponse,
    collective_moments,
    numeric_response,
    solve_moments,
    unit_response,
    xi2_from_response,
    xi2_numeric,
)
from .sweep import fig_data, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "BeamProfile",
    "ConfigError",
    "ConvergenceError",
    "DetuningSpec",
    "DiffusionSet",
    "DomainError",
    "DriftMatrix",
    "ExperimentConfig",
    "LayerKernel",
    "McParams",
    "PhysicalityError",
    "RateSet",
    "ResidualError",
    "SpinSqueezeError",
    "SqueezedVacuumSpec",
    "SqueezingResult",
    "StabilityError",
    "SteadyStateMoments",
    "ThreeLevelSpec",
    "TruncationInfo",
    "UnitResponse",
    "ValidityReport",
    "beam_splitter",
    "build_config",
    "collective_moments",
    "compute_rates",
    "delta_prime",
    "discrete_overlap",
    "drift_matrix",
    "evanescent_band",
    "evanescent_range",
    "fig_data",
    "field_moments",
    "input_quadrature_variance",
    "interaction_kernel",
    "load_config_file",
    "noise_diffusions",
    "numeric_response",
    "overlap_chi",
    "overlap_efficiency",
    "parse_config_text",
    "reflectivity_complex",
    "run_sweep",
    "simulate_xi2",
    "single_layer_rate",
    "solve_moments",
    "squeezing_contrast",
    "stacked_covariance",
    "stacked_drift",
    "three_level_effective",
    "unit_response",
    "validity_report",
    "waist_for_overlap",
    "xi2_analytic",
    "xi2_from_response",
    "xi2_min",
    "xi2_min_vs_layers",
    "xi2_mismatch",
    "xi2_numeric",
    "xi2_three_level",
]
