"""Conservative false discovery rate estimation from very few p-values.

The package estimates nonlocal FDRs from a single discovery count, local
FDRs from ranked p-values via rank doubling, runs the mixture simulation
study behind those estimators, and ships a small CSV pipeline plus CLI.
"""

__version__ = "0.5.0"

from .confidence import (
    ConfidenceDistribution,
    SignificanceRangeError,
    attainable_range,
    inverse_significance,
    one_sided_interval,
    sample_parameter,
    significance,
)
from .distributions import (
    Chi2MixtureParams,
    chi2_1df_sf,
    student_t_sf,
)
from .ingest import (
    AbundanceMatrix,
    Subject,
    TableFormatError,
    load_abundance_csv,
    load_pvalues_csv,
    pooled_t_statistic,
    shift_log_transform,
    two_sample_t_pvalues,
)
from .lfdr import (
    BhLfdrLink,
    BhRejection,
    LfdrResult,
    LfdrRow,
    PValueSet,
    bh_lfdr_link,
    bh_reject,
    enforce_monotonicity,
    lfdr_estimates,
)
from .nfdr import (
    ESTIMATOR_KINDS,
    KIND_CORRECTED,
    KIND_MEAN,
    KIND_MLE,
    NfdrEstimate,
    NumericFailure,
    corrected_nfdr,
    mean_nfdr,
    mle_nfdr,
)
from .simulate import (
    DEFAULT_N_GRID,
    DEFAULT_PI0_GRID,
    MetricsRow,
    SimulatedDataset,
    SimulationConfig,
    exact_small_n_coverage,
    generate_dataset,
    run_grid,
    true_lfdr,
)

__all__ = [
    "AbundanceMatrix",
    "BhLfdrLink",
    "BhRejection",
    "Chi2MixtureParams",
    "ConfidenceDistribution",
    "DEFAULT_N_GRID",
    "DEFAULT_PI0_GRID",
    "ESTIMATOR_KINDS",
    "KIND_CORRECTED",
    "KIND_MEAN",
    "KIND_MLE",
    "LfdrResult",
    "LfdrRow",
    "MetricsRow",
    "NfdrEstimate",
    "NumericFailure",
    "PValueSet",
    "SignificanceRangeError",
    "SimulatedDataset",
    "SimulationConfig",
    "Subject",
    "TableFormatError",
    "attainable_range",
    "bh_lfdr_link",
    "bh_reject",
    "chi2_1df_sf",
    "corrected_nfdr",
    "enforce_monotonicity",
    "exact_small_n_coverage",
    "generate_dataset",
    "inverse_significance",
    "lfdr_estimates",
    "load_abundance_csv",
    "load_pvalues_csv",
    "mean_nfdr",
    "mle_nfdr",
    "one_sided_interval",
    "pooled_t_statistic",
    "run_grid",
    "sample_parameter",
    "shift_log_transform",
    "significance",
    "student_t_sf",
    "true_lfdr",
    "two_sample_t_pvalues",
]
