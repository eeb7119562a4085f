"""Monte Carlo study harness: scenario data generation and batch analysis.

A study draws many datasets from a fixed two-component Gaussian scenario,
runs one chain per dataset, and records each dataset's effect-size summary
and Welch p-value; :func:`mixtt.reports.study_result_dict` derives the
decisions, error classes and aggregates from them. Every dataset gets its
own seed derived from the master seed and the dataset index, so results do
not depend on execution order and the whole study is a pure function of its
configuration.

Reported effect sizes use the group2-minus-group1 direction, and the true
effect size of a scenario uses the unpooled denominator
sqrt((sd1^2 + sd2^2) / 2); for balanced groups the two denominators agree.

:func:`generate_dataset` draws each group's normals through
``gibbs._normals``, in the compiled kernel that also runs the chains. Its C
twin of :func:`~mixtt.distributions.sample_normal` gives bit-identical
values and leaves the stream where the Python draws would; without the
kernel, ``gibbs._normals`` calls it once per value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .analysis import PosteriorSummary, check_level, check_rope, summarize
from .distributions import RngState, check_seed, derive_seed
from .gibbs import ChainConfig, _normals, check_chain_length, map_chains, run_chain
from .model import PRESET_KINDS, GroupedSample, PriorPreset, pooled_sd, realize_preset
from .welch import welch_t_test

# second parameters are standard deviations
_SCENARIOS: dict[str, tuple[float, float, float, float]] = {
    "small": (2.89, 1.84, 3.5, 1.56),
    "medium": (254.08, 2.36, 255.84, 3.04),
    "large": (15.01, 3.4, 19.91, 5.8),
    "null": (148.3, 1.34, 148.3, 2.03),
}

SCENARIO_KINDS = tuple(_SCENARIOS)

# run defaults shared by the library entry points and the CLI flags
DEFAULT_ITERATIONS = 10_000
DEFAULT_BURN_IN = 5_000
DEFAULT_ALPHA = 0.95
DEFAULT_ROPE = (-0.2, 0.2)
# sign convention of every study and sensitivity effect size, and analyze's default
DIRECTION = "g2-g1"


def scenario_params(kind: str) -> tuple[float, float, float, float, float]:
    """Component parameters (mu1, sd1, mu2, sd2) and true effect size of a built-in scenario."""
    scenario = Scenario.named(kind)
    return scenario.mu1, scenario.sd1, scenario.mu2, scenario.sd2, scenario.true_delta


@dataclass(frozen=True)
class Scenario:
    """A fixed two-component Gaussian data-generating process."""

    kind: str
    mu1: float
    sd1: float
    mu2: float
    sd2: float

    @property
    def true_delta(self) -> float:
        """(mu2 - mu1) / sqrt((sd1^2 + sd2^2) / 2), the unpooled effect size."""
        return (self.mu2 - self.mu1) / math.sqrt((self.sd1 * self.sd1 + self.sd2 * self.sd2) / 2.0)

    @classmethod
    def named(cls, kind: str) -> "Scenario":
        if kind not in _SCENARIOS:
            raise ValueError(f"unknown scenario {kind!r}; expected one of {SCENARIO_KINDS}")
        return cls(kind, *_SCENARIOS[kind])


def _check_group_size(n_per_group: int) -> None:
    """Reject fewer than 2 observations per group, too few for a group variance."""
    if n_per_group < 2:
        raise ValueError(f"need at least 2 observations per group, got {n_per_group}")


def generate_dataset(scenario: Scenario, n_per_group: int, rng: RngState) -> GroupedSample:
    """Draw a balanced dataset: n from component 1, then n from component 2."""
    _check_group_size(n_per_group)
    v1 = scenario.sd1 * scenario.sd1
    v2 = scenario.sd2 * scenario.sd2
    group1 = _normals(rng, scenario.mu1, v1, n_per_group)
    group2 = _normals(rng, scenario.mu2, v2, n_per_group)
    return GroupedSample(group1, group2)


@dataclass(frozen=True)
class StudyConfig:
    """A simulation study; its sizes, seed, chain length, level and rope are checked before any draw.

    The sizes are ints, not bools (else TypeError): ``n_per_group`` >= 2 and ``n_datasets`` >= 1.
    """

    scenario: Scenario
    n_per_group: int
    n_datasets: int
    master_seed: int
    iterations: int = DEFAULT_ITERATIONS
    burn_in: int = DEFAULT_BURN_IN
    preset: PriorPreset = PriorPreset("wide")
    alpha: float = DEFAULT_ALPHA
    rope: tuple[float, float] = DEFAULT_ROPE

    def __post_init__(self):
        if isinstance(self.n_per_group, bool) or isinstance(self.n_datasets, bool):
            raise TypeError(f"n_per_group and n_datasets must be integers, not bools: "
                            f"{self.n_per_group}, {self.n_datasets}")
        if operator.index(self.n_datasets) < 1:
            raise ValueError(f"n_datasets must be >= 1, got {self.n_datasets}")
        _check_group_size(operator.index(self.n_per_group))
        check_seed(self.master_seed)
        check_chain_length(self.iterations, self.burn_in)
        check_level(self.alpha)
        check_rope(self.rope)


@dataclass(frozen=True)
class DatasetRecord:
    """What one simulated dataset's run measured."""

    index: int
    dataset_seed: int
    summary: PosteriorSummary
    welch_p: float


def run_study(config: StudyConfig) -> tuple[DatasetRecord, ...]:
    """Simulate, fit, and summarize ``n_datasets`` independent datasets.

    Returns one record per dataset, in index order. Dataset i derives its
    seed from (master_seed, i): one child stream for data generation and
    one for the chain, so the records do not depend on execution order:
    :func:`~mixtt.gibbs.map_chains` runs them on one thread per usable CPU
    where the compiled kernel runs, and serially without it.
    """
    def run_dataset(i: int) -> DatasetRecord:
        dataset_seed = derive_seed(config.master_seed, i)
        data_rng = RngState(derive_seed(dataset_seed, 0))
        sample = generate_dataset(config.scenario, config.n_per_group, data_rng)
        prior = realize_preset(config.preset, sample)
        seed = derive_seed(dataset_seed, 1)
        chain = run_chain(sample, ChainConfig(config.iterations, config.burn_in, seed, prior))
        summary = summarize(chain, DIRECTION, config.alpha)
        return DatasetRecord(i, dataset_seed, summary, welch_t_test(sample).p_value)

    return tuple(map_chains(run_dataset, range(config.n_datasets)))


@dataclass(frozen=True)
class PresetSummary:
    """One preset's run in a sensitivity comparison: its kind, the chain config that ran, its summary."""

    kind: str
    config: ChainConfig
    summary: PosteriorSummary


def check_presets(presets) -> list[PriorPreset]:
    """Return ``presets`` as a list if it holds two or more with no kind repeated, else ValueError."""
    presets = list(presets)
    kinds = [preset.kind for preset in presets]
    if len(kinds) < 2 or len(set(kinds)) < len(kinds):
        raise ValueError(f"sensitivity needs at least two presets of distinct kinds, got {kinds}")
    return presets


def prior_sensitivity(
    sample: GroupedSample,
    presets,
    base_seed: int,
    iterations: int = DEFAULT_ITERATIONS,
    burn_in: int = DEFAULT_BURN_IN,
    alpha: float = DEFAULT_ALPHA,
) -> tuple[PresetSummary, ...]:
    """Fit the same data once per preset, in the given order, through :func:`~mixtt.gibbs.map_chains`.

    Chain seeds derive from base_seed and the kind's index in
    :data:`~mixtt.model.PRESET_KINDS`, so a kind's summary does not depend on
    the other presets or their order, and cross-preset differences are not
    confounded by different random streams for the same kind.

    Raises
    ------
    ValueError
        If ``presets`` fails :func:`check_presets`, ``alpha`` is not a credible level,
        ``base_seed`` fails :func:`check_seed`, the chain length fails :func:`check_chain_length`,
        or the sample is too small for a pooled standard deviation; no chain runs.
        Also if a chain draws a value past the largest float (:func:`~mixtt.analysis.summarize`).
    """
    check_level(alpha)
    presets = check_presets(presets)
    pooled_sd(1.0, 1.0, sample.n1, sample.n2)  # the effect size's size check, before any chain runs

    def run_preset(preset: PriorPreset) -> PresetSummary:
        seed = derive_seed(base_seed, PRESET_KINDS.index(preset.kind))
        config = ChainConfig(iterations, burn_in, seed, realize_preset(preset, sample))
        return PresetSummary(preset.kind, config, summarize(run_chain(sample, config), DIRECTION, alpha))

    return tuple(map_chains(run_preset, presets))
