"""Differentially private query answering over datasets with missing values.

The package covers the full pipeline: data model for incomplete datasets,
MCAR/MAR missingness mechanisms, feature-wise Lipschitz queries with their
sensitivity constants, calibrated Laplace/Gaussian mechanisms composed with
masking, closed-form amplification accounting, and an empirical audit engine
based on exact and Monte Carlo hockey-stick divergences.
"""

from .accountant import (
    AmplificationReport,
    amplified_epsilon,
    amplify_fwl,
    amplify_generic,
    corollary_bound,
)
from .audit import (
    AuditRow,
    AuditTable,
    MixtureDecomposition,
    TightnessResult,
    composed_output_mixture,
    composed_vector_mixture,
    mixture_decomposition,
    tightness_counterexample,
    verify_amplification,
)
from .datasets import (
    CompleteDataset,
    IncompleteDataset,
    Mask,
    MaskMatrix,
    NeighborPair,
    apply_mask,
    feature_gap,
    is_neighbor,
    load_dataset_csv,
    observed_indices,
    save_dataset_csv,
)
from .divergence import (
    DiscreteDistribution,
    DivergenceEstimate,
    VectorMixture,
    hockey_stick_discrete,
    hockey_stick_mixture_1d,
    mc_delta_vector,
    mix_discrete,
)
from .errors import (
    BudgetRangeError,
    CellTagError,
    DegenerateQueryError,
    DimensionError,
    LipschitzContractError,
    MechanismConsistencyError,
    SchemaError,
    SupportError,
    UnsupportedMechanismError,
)
from .missingness import (
    CappedBernoulli,
    DatasetMechanism,
    FeatureMechanism,
    MarAnchoredPattern,
    McarBernoulli,
    McarPattern,
    MechanismClass,
    dataset_mask_probability,
    feature_mechanism_from_spec,
    load_mechanism_spec,
    mask_probability,
    p_star,
    sample_mask,
    tight_rho,
    verify_rho,
)
from .noise import (
    ComposedMechanism,
    ComposedRun,
    NoiseMechanism,
    PrivacyBudget,
    calibrate_gaussian,
    calibrate_laplace,
    log_output_density,
    release_record,
    run_composed,
    run_mechanism,
)
from .queries import (
    FwlCheckReport,
    FwlQuery,
    SensitivityBounds,
    lipschitz_postprocess,
    linear_combination,
    make_standard_query,
    sensitivity_complete,
    sensitivity_masked,
    verify_fwl,
)

__version__ = "0.1.0"
