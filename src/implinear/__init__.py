"""Iterative magnitude pruning on linear models trained by gradient flow.

Exact closed-form training, the pruning engine with full audit traces,
alignment/thresholding baselines, covariance-regime generators, executable
recovery bounds, and a seeded Monte Carlo harness.
"""

from .baselines import (
    IhtDivergenceError,
    IhtResult,
    ThresholdConfig,
    alignment_order,
    hard_threshold,
    ht_estimator,
    iht,
)
from .designs import (
    FeatureSet,
    SparseProblem,
    assemble_problem,
    gen_incoherent_design,
    gen_orthonormal_design,
    gen_sparse_signal,
    gen_uniform_corr_design,
    make_rng,
    pairwise_incoherence,
    sample_noise,
)
from .engine import (
    ImpConfig,
    ImpTrace,
    imp_prune_order,
    run_imp,
    trace_to_dict,
)
from .flow import INFINITE, closed_form_weights
from .linalg import (
    CovMatrix,
    SymEig,
    min_nonzero_eig,
    pseudo_inverse,
    sym_eig,
)
from .theory import (
    BoundInputs,
    McSummary,
    check_onp,
    check_recoverable,
    concentration_sample_size,
    concentration_sample_size_raw,
    exact_binomial_ci,
    noise_projector,
    recovery_sample_size,
    recovery_sample_size_raw,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "BoundInputs",
    "CovMatrix",
    "FeatureSet",
    "IhtDivergenceError",
    "IhtResult",
    "ImpConfig",
    "ImpTrace",
    "McSummary",
    "SparseProblem",
    "SymEig",
    "ThresholdConfig",
    "alignment_order",
    "assemble_problem",
    "check_onp",
    "check_recoverable",
    "closed_form_weights",
    "concentration_sample_size",
    "concentration_sample_size_raw",
    "exact_binomial_ci",
    "gen_incoherent_design",
    "gen_orthonormal_design",
    "gen_sparse_signal",
    "gen_uniform_corr_design",
    "hard_threshold",
    "ht_estimator",
    "iht",
    "imp_prune_order",
    "make_rng",
    "min_nonzero_eig",
    "noise_projector",
    "pairwise_incoherence",
    "pseudo_inverse",
    "recovery_sample_size",
    "recovery_sample_size_raw",
    "run_imp",
    "sample_noise",
    "sym_eig",
    "trace_to_dict",
]
