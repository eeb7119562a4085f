"""Monte Carlo study harness: scenario data generation and batch analysis.

A study draws many datasets from a fixed two-component Gaussian scenario,
runs one chain per dataset, and aggregates effect-size summaries, decisions,
and error classifications. Every dataset gets its own seed derived from the
master seed and the dataset index, so results do not depend on execution
order and the whole study is a pure function of its configuration.

Reported effect sizes use the group2-minus-group1 direction, and the true
effect size of a scenario uses the unpooled denominator
sqrt((sd1^2 + sd2^2) / 2); for balanced groups the two denominators agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import (
    PosteriorSummary,
    classify_error,
    effect_size_series,
    hpd_decision,
    normalize_rope,
    summarize,
)
from .errors import ConfigInvalid, InsufficientSize, UnknownScenario
from .distributions import RngState, derive_seed, sample_normal
from .gibbs import ChainConfig, run_chain
from .model import PRESET_KINDS, GroupedSample, PriorPreset, realize_preset
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
DEFAULT_ROPE = ((-0.2, 0.2),)
# sign convention of every study and sensitivity effect size, and analyze's default
DIRECTION = "g2-g1"


def scenario_params(kind: str) -> tuple[float, float, float, float, float]:
    """Component parameters (mu1, sd1, mu2, sd2) and true effect size of a built-in scenario."""
    if kind not in _SCENARIOS:
        raise UnknownScenario(f"unknown scenario {kind!r}; expected one of {SCENARIO_KINDS}")
    mu1, sd1, mu2, sd2 = _SCENARIOS[kind]
    return mu1, sd1, mu2, sd2, (mu2 - mu1) / math.sqrt((sd1 * sd1 + sd2 * sd2) / 2.0)


@dataclass(frozen=True)
class Scenario:
    """A fixed two-component Gaussian data-generating process."""

    kind: str
    mu1: float
    sd1: float
    mu2: float
    sd2: float
    true_delta: float

    @classmethod
    def named(cls, kind: str) -> "Scenario":
        mu1, sd1, mu2, sd2, delta = scenario_params(kind)
        return cls(kind, mu1, sd1, mu2, sd2, delta)


def generate_dataset(scenario: Scenario, n_per_group: int, rng: RngState) -> GroupedSample:
    """Draw a balanced dataset: n from component 1, then n from component 2."""
    if n_per_group < 2:
        raise InsufficientSize(f"need at least 2 observations per group, got {n_per_group}")
    v1 = scenario.sd1 * scenario.sd1
    v2 = scenario.sd2 * scenario.sd2
    values = [sample_normal(rng, scenario.mu1, v1) for _ in range(n_per_group)]
    values += [sample_normal(rng, scenario.mu2, v2) for _ in range(n_per_group)]
    allocations = [1] * n_per_group + [2] * n_per_group
    return GroupedSample(values, allocations)


@dataclass(frozen=True)
class StudyConfig:
    """Full specification of a simulation study."""

    scenario: Scenario
    n_per_group: int
    n_datasets: int
    master_seed: int
    iterations: int = DEFAULT_ITERATIONS
    burn_in: int = DEFAULT_BURN_IN
    preset: PriorPreset = PriorPreset("wide")
    alpha: float = DEFAULT_ALPHA
    rope: tuple[tuple[float, float], ...] = DEFAULT_ROPE

    def __post_init__(self):
        if self.n_datasets < 1:
            raise ConfigInvalid(f"n_datasets must be >= 1, got {self.n_datasets}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigInvalid(f"alpha must be in (0, 1], got {self.alpha}")
        object.__setattr__(self, "rope", normalize_rope(self.rope))


@dataclass(frozen=True)
class DatasetRecord:
    """Summaries of one simulated dataset."""

    index: int
    dataset_seed: int
    summary: PosteriorSummary
    decision: str
    strict_decision: str
    error: str
    welch_p: float


def run_study(config: StudyConfig) -> tuple[DatasetRecord, ...]:
    """Simulate, fit, and summarize ``n_datasets`` independent datasets.

    Returns one record per dataset, in index order. Dataset i derives its
    seed from (master_seed, i): one child stream for data generation and
    one for the chain, so any execution order (or a parallel runner)
    produces identical records.

    Decisions are recorded in both the three-valued form and the strict
    two-valued form. Error classification uses the three-valued decision,
    where a rejection means the HPD interval lies entirely outside the
    rope; an interval that merely straddles the boundary is indeterminate,
    not a false positive.
    """
    sc = config.scenario
    records = []
    for i in range(config.n_datasets):
        dataset_seed = derive_seed(config.master_seed, i)
        data_rng = RngState(derive_seed(dataset_seed, 0))
        sample = generate_dataset(sc, config.n_per_group, data_rng)
        prior = realize_preset(config.preset, sample)
        seed = derive_seed(dataset_seed, 1)
        chain = run_chain(sample, ChainConfig(config.iterations, config.burn_in, seed, prior))
        summary = summarize(effect_size_series(chain, direction=DIRECTION), config.alpha)
        decision = hpd_decision(summary.hpd, config.rope)
        records.append(
            DatasetRecord(
                index=i,
                dataset_seed=dataset_seed,
                summary=summary,
                decision=decision,
                strict_decision=hpd_decision(summary.hpd, config.rope, strict=True),
                error=classify_error(sc.true_delta, config.rope, decision),
                welch_p=welch_t_test(sample).p_value,
            )
        )
    return tuple(records)


@dataclass(frozen=True)
class PresetSummary:
    """One preset's run in a sensitivity comparison: its kind, the chain config that ran, its summary."""

    kind: str
    config: ChainConfig
    summary: PosteriorSummary


def prior_sensitivity(
    sample: GroupedSample,
    presets,
    base_seed: int,
    iterations: int = DEFAULT_ITERATIONS,
    burn_in: int = DEFAULT_BURN_IN,
    alpha: float = DEFAULT_ALPHA,
) -> tuple[PresetSummary, ...]:
    """Fit the same data once per preset, in the given order.

    Chain seeds derive from base_seed and the kind's index in
    :data:`~mixtt.model.PRESET_KINDS`, so a kind's summary does not depend on
    the other presets or their order, and cross-preset differences are not
    confounded by different random streams for the same kind.

    Raises
    ------
    ConfigInvalid
        If fewer than two presets are given or a kind repeats; no chain runs.
    """
    presets = list(presets)
    kinds = [preset.kind for preset in presets]
    if len(kinds) < 2 or len(set(kinds)) < len(kinds):
        raise ConfigInvalid(f"sensitivity needs at least two presets of distinct kinds, got {kinds}")
    records = []
    for preset in presets:
        seed = derive_seed(base_seed, PRESET_KINDS.index(preset.kind))
        config = ChainConfig(iterations, burn_in, seed, realize_preset(preset, sample))
        summary = summarize(effect_size_series(run_chain(sample, config), direction=DIRECTION), alpha)
        records.append(PresetSummary(preset.kind, config, summary))
    return tuple(records)
