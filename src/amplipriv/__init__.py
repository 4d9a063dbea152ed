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
    TightnessResult,
    composed_output_mixture,
    composed_vector_mixture,
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
    load_dataset_csv,
    save_dataset_csv,
)
from .divergence import (
    DivergenceEstimate,
    VectorMixture,
    hockey_stick_mixture_1d,
    mc_delta_vector,
)
from .errors import (
    BudgetRangeError,
    DegenerateQueryError,
    DimensionError,
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
    release_record,
    run_composed,
    run_mechanism,
)
from .queries import (
    FwlQuery,
    SensitivityBounds,
    linear_combination,
    make_standard_query,
    named_postprocess,
    sensitivity_complete,
    sensitivity_masked,
)

__version__ = "0.1.0"
