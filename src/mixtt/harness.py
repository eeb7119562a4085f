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
from dataclasses import dataclass, field

from .analysis import (
    DECISION_ACCEPTED,
    DECISION_INDETERMINATE,
    DECISION_REJECTED,
    ERROR_TYPE_I,
    ERROR_TYPE_II,
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
from .model import GroupedSample, IndependencePrior, PriorPreset, realize_preset
from .welch import welch_t_test

# second parameters are standard deviations
_SCENARIOS: dict[str, tuple[float, float, float, float]] = {
    "small": (2.89, 1.84, 3.5, 1.56),
    "medium": (254.08, 2.36, 255.84, 3.04),
    "large": (15.01, 3.4, 19.91, 5.8),
    "null": (148.3, 1.34, 148.3, 2.03),
}

SCENARIO_KINDS = tuple(_SCENARIOS)

# stream index per preset kind, so rerunning the same preset reuses the same
# seed and matched-seed comparisons across presets stay matched
_PRESET_STREAM = {"wide": 0, "medium": 1, "narrow": 2, "custom": 3}

DEFAULT_ROPE = ((-0.2, 0.2),)


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
    iterations: int = 10_000
    burn_in: int = 5_000
    preset: PriorPreset = PriorPreset("wide")
    alpha: float = 0.95
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


@dataclass(frozen=True)
class StudyResult:
    """Per-dataset records plus aggregate rates for a whole study."""

    config: StudyConfig
    records: tuple[DatasetRecord, ...]
    type_i_rate: float = field(init=False)
    type_ii_rate: float = field(init=False)
    accepted_count: int = field(init=False)
    rejected_count: int = field(init=False)
    indeterminate_count: int = field(init=False)
    mean_delta_mpe: float = field(init=False)
    welch_rejection_rate: float = field(init=False)

    def __post_init__(self):
        n = len(self.records)
        if n != self.config.n_datasets:
            raise ConfigInvalid(f"expected {self.config.n_datasets} records, got {n}")
        set_ = object.__setattr__
        set_(self, "type_i_rate", sum(r.error == ERROR_TYPE_I for r in self.records) / n)
        set_(self, "type_ii_rate", sum(r.error == ERROR_TYPE_II for r in self.records) / n)
        set_(self, "accepted_count", sum(r.decision == DECISION_ACCEPTED for r in self.records))
        set_(self, "rejected_count", sum(r.decision == DECISION_REJECTED for r in self.records))
        set_(
            self,
            "indeterminate_count",
            sum(r.decision == DECISION_INDETERMINATE for r in self.records),
        )
        set_(self, "mean_delta_mpe", sum(r.summary.delta_mpe for r in self.records) / n)
        set_(self, "welch_rejection_rate", sum(r.welch_p < 0.05 for r in self.records) / n)


def run_study(config: StudyConfig) -> StudyResult:
    """Simulate, fit, and summarize ``n_datasets`` independent datasets.

    Dataset i derives its seed from (master_seed, i): one child stream for
    data generation and one for the chain, so any execution order (or a
    parallel runner) produces identical records.

    Decisions are recorded in both the three-valued form and the strict
    two-valued form. Error classification uses the three-valued outcome,
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
        summary = summarize(effect_size_series(chain, direction="g2-g1"), config.alpha)
        outcome = hpd_decision(summary.hpd, config.rope)
        records.append(
            DatasetRecord(
                index=i,
                dataset_seed=dataset_seed,
                summary=summary,
                decision=outcome.status,
                strict_decision=hpd_decision(summary.hpd, config.rope, strict=True).status,
                error=classify_error(sc.true_delta, config.rope, outcome),
                welch_p=welch_t_test(sample).p_value,
            )
        )
    return StudyResult(config=config, records=tuple(records))


@dataclass(frozen=True)
class PresetSummary:
    """Posterior summaries for one preset in a sensitivity comparison."""

    preset: PriorPreset
    prior: IndependencePrior
    chain_seed: int
    summary: PosteriorSummary


def prior_sensitivity(
    sample: GroupedSample,
    presets,
    base_seed: int,
    iterations: int = 10_000,
    burn_in: int = 5_000,
    alpha: float = 0.95,
) -> tuple[list[PresetSummary], dict[tuple[str, str], float]]:
    """Fit the same data once per preset and compare the posterior means.

    Chain seeds derive from (base_seed, preset kind), so repeating a preset
    reproduces its summary exactly and cross-preset differences are not
    confounded by different random streams for the same kind.
    """
    presets = list(presets)
    if len(presets) < 2:
        raise ConfigInvalid("at least two presets required for a sensitivity comparison")
    summaries = []
    for preset in presets:
        seed = derive_seed(base_seed, _PRESET_STREAM[preset.kind])
        prior = realize_preset(preset, sample)
        chain = run_chain(sample, ChainConfig(iterations, burn_in, seed, prior))
        summary = summarize(effect_size_series(chain, direction="g2-g1"), alpha)
        summaries.append(PresetSummary(preset, prior, seed, summary))
    differences = {
        (a.preset.kind, b.preset.kind): a.summary.delta_mpe - b.summary.delta_mpe
        for idx, a in enumerate(summaries)
        for b in summaries[idx + 1 :]
    }
    return summaries, differences
