"""Weighted grade-of-membership analysis.

Sampling, spectral estimation, class-count selection, and evaluation for
mixed-membership models of weighted categorical response matrices.
"""

from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateRankError,
    DimensionError,
    DistributionRangeError,
    InfeasibleSchemeError,
    RankDeficiencyError,
    WgomError,
)
from .types import (
    EstimationResult,
    ItemParams,
    MembershipMatrix,
    ModelSpec,
    ResponseMatrix,
    SampleDiagnostics,
    validate_model_spec,
)
from .sampling import (
    Bernoulli,
    Binomial,
    Exponential,
    GeneralDiscrete,
    Normal,
    Poisson,
    SignedBinary,
    Uniform,
    construct_discrete,
    expected_responses,
    sample_response,
)
from .estimation import ideal_rmsp, ideal_scgoma, rmsp, scgoma
from .modularity import ClassCountSweep, fuzzy_weighted_modularity, select_k
from .metrics import (
    MembershipProfile,
    accuracy_rate,
    data_sparsity,
    hamming_error,
    profile_memberships,
    relative_error,
)
from .experiments import (
    GridRow,
    block_memberships,
    distribution_from_config,
    random_item_params,
    run_experiment,
    simulation_spec,
)

__version__ = "0.1.0"

__all__ = [
    "Bernoulli",
    "Binomial",
    "ClassCountSweep",
    "ConfigError",
    "DataFormatError",
    "DegenerateRankError",
    "DimensionError",
    "DistributionRangeError",
    "EstimationResult",
    "Exponential",
    "GeneralDiscrete",
    "GridRow",
    "InfeasibleSchemeError",
    "ItemParams",
    "MembershipMatrix",
    "MembershipProfile",
    "ModelSpec",
    "Normal",
    "Poisson",
    "RankDeficiencyError",
    "ResponseMatrix",
    "SampleDiagnostics",
    "SignedBinary",
    "Uniform",
    "WgomError",
    "accuracy_rate",
    "block_memberships",
    "construct_discrete",
    "data_sparsity",
    "distribution_from_config",
    "expected_responses",
    "fuzzy_weighted_modularity",
    "hamming_error",
    "ideal_rmsp",
    "ideal_scgoma",
    "profile_memberships",
    "random_item_params",
    "relative_error",
    "rmsp",
    "run_experiment",
    "sample_response",
    "scgoma",
    "select_k",
    "simulation_spec",
    "validate_model_spec",
]
