"""Bayesian two-group effect-size estimation.

The model is a two-component Gaussian mixture with known group membership:
a seeded Gibbs sampler draws the joint posterior of the group means and
variances, from which the posterior of the standardized mean difference is
formed and summarized (posterior mean and mode, highest-density intervals,
region-of-practical-equivalence masses, and accept/reject decisions), with
Welch's t-test as the frequentist baseline and a Monte Carlo harness for
error-rate studies.
"""

from .analysis import (
    DecisionOutcome,
    EffectSizeDraws,
    HpdInterval,
    PosteriorSummary,
    RopePartition,
    alpha_decision,
    classify_error,
    cohen_partition,
    delta_mpe,
    effect_size_series,
    hpd_decision,
    hpd_interval,
    pmp,
    posterior_mode,
    summarize,
)
from .distributions import (
    RngState,
    derive_seed,
    sample_gamma,
    sample_inverse_gamma,
    sample_normal,
)
from .errors import MixttError
from .gibbs import ChainConfig, PosteriorChain, gibbs_sweep, run_chain
from .harness import (
    Scenario,
    StudyConfig,
    StudyResult,
    generate_dataset,
    prior_sensitivity,
    run_study,
    scenario_params,
)
from .model import (
    GroupedSample,
    IndependencePrior,
    PriorPreset,
    SufficientStats,
    compute_sufficient_stats,
    pooled_sd,
    realize_preset,
)
from .welch import WelchResult, welch_t_test

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "DecisionOutcome",
    "EffectSizeDraws",
    "GroupedSample",
    "HpdInterval",
    "IndependencePrior",
    "MixttError",
    "PosteriorChain",
    "PosteriorSummary",
    "PriorPreset",
    "RngState",
    "RopePartition",
    "Scenario",
    "StudyConfig",
    "StudyResult",
    "SufficientStats",
    "WelchResult",
    "alpha_decision",
    "classify_error",
    "cohen_partition",
    "compute_sufficient_stats",
    "delta_mpe",
    "derive_seed",
    "effect_size_series",
    "generate_dataset",
    "gibbs_sweep",
    "hpd_decision",
    "hpd_interval",
    "pmp",
    "pooled_sd",
    "posterior_mode",
    "prior_sensitivity",
    "realize_preset",
    "run_chain",
    "run_study",
    "sample_gamma",
    "sample_inverse_gamma",
    "sample_normal",
    "summarize",
    "scenario_params",
    "welch_t_test",
]
