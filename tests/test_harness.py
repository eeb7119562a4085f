import numpy as np
import pytest

from mixtt.distributions import RngState, derive_seed
from mixtt.errors import ConfigInvalid, InsufficientSize, UnknownScenario
from mixtt.harness import (
    Scenario,
    StudyConfig,
    generate_dataset,
    prior_sensitivity,
    run_study,
    scenario_params,
)
from mixtt.model import GroupedSample, PriorPreset
from mixtt.reports import sensitivity_dict, study_result_dict


def test_scenario_parameter_table():
    assert scenario_params("small") == (2.89, 1.84, 3.5, 1.56, pytest.approx(0.35761291192561007))
    assert scenario_params("medium")[4] == pytest.approx(0.6467441997007768)
    assert scenario_params("large") == (15.01, 3.4, 19.91, 5.8, pytest.approx(1.0307227466835946))
    mu1, sd1, mu2, sd2, delta = scenario_params("null")
    assert (mu1, mu2) == (148.3, 148.3)
    assert (sd1, sd2) == (1.34, 2.03)
    assert delta == 0.0


def test_scenario_magnitudes_match_reported_rounding():
    assert abs(scenario_params("small")[4]) == pytest.approx(0.35, abs=0.01)
    assert scenario_params("medium")[4] == pytest.approx(0.6467, abs=1e-4)
    assert scenario_params("large")[4] == pytest.approx(1.03, abs=0.001)


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        scenario_params("huge")
    with pytest.raises(UnknownScenario):
        Scenario.named("tiny")


def test_generate_dataset_minimal():
    sample = generate_dataset(Scenario.named("small"), 2, RngState(1))
    assert len(sample) == 4
    assert sample.n1 == sample.n2 == 2
    with pytest.raises(InsufficientSize):
        generate_dataset(Scenario.named("small"), 1, RngState(1))


def test_generate_dataset_deterministic():
    a = generate_dataset(Scenario.named("medium"), 10, RngState(5))
    b = generate_dataset(Scenario.named("medium"), 10, RngState(5))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.allocations, b.allocations)


def test_generate_dataset_null_means_close():
    sample = generate_dataset(Scenario.named("null"), 300, RngState(77))
    assert abs(sample.group1.mean() - sample.group2.mean()) < 0.5


def test_study_config_validation():
    sc = Scenario.named("null")
    with pytest.raises(ConfigInvalid):
        StudyConfig(scenario=sc, n_per_group=10, n_datasets=0, master_seed=1)
    with pytest.raises(ConfigInvalid):
        StudyConfig(scenario=sc, n_per_group=10, n_datasets=5, master_seed=1, alpha=1.5)


def test_single_dataset_study_aggregates_equal_record():
    cfg = StudyConfig(
        scenario=Scenario.named("large"),
        n_per_group=30,
        n_datasets=1,
        master_seed=404,
        iterations=2000,
        burn_in=1000,
    )
    records = run_study(cfg)
    assert len(records) == 1
    rec = records[0]
    agg = study_result_dict(cfg, records)["aggregates"]
    assert agg["mean_delta_mpe"] == rec.summary.delta_mpe
    assert agg["type_i_rate"] == float(rec.error == "type-I")
    assert agg["accepted_count"] == int(rec.decision == "accepted")


def test_study_is_pure_function_of_config():
    cfg = StudyConfig(
        scenario=Scenario.named("null"),
        n_per_group=20,
        n_datasets=4,
        master_seed=2026,
        iterations=1500,
        burn_in=500,
    )
    a = run_study(cfg)
    b = run_study(cfg)
    assert a == b


def test_per_dataset_seeds_are_index_derived():
    cfg = StudyConfig(
        scenario=Scenario.named("null"),
        n_per_group=20,
        n_datasets=3,
        master_seed=31337,
        iterations=1200,
        burn_in=200,
    )
    records = run_study(cfg)
    assert [r.dataset_seed for r in records] == [derive_seed(31337, i) for i in range(3)]
    # dropping to fewer datasets reproduces a prefix: order independence
    smaller = run_study(
        StudyConfig(
            scenario=Scenario.named("null"),
            n_per_group=20,
            n_datasets=2,
            master_seed=31337,
            iterations=1200,
            burn_in=200,
        )
    )
    assert smaller == records[:2]


def test_large_effect_never_looks_null_even_at_n50():
    cfg = StudyConfig(
        scenario=Scenario.named("large"),
        n_per_group=50,
        n_datasets=100,
        master_seed=88,
    )
    records = run_study(cfg)
    contained = sum(r.summary.hpd.lower >= -0.2 and r.summary.hpd.upper <= 0.2 for r in records)
    assert contained == 0
    assert study_result_dict(cfg, records)["aggregates"]["type_ii_rate"] == 0.0


def _sensitivity_sample():
    rng = RngState(9001)
    from mixtt.distributions import sample_normal

    values = [sample_normal(rng, 0.0, 1.0) for _ in range(100)]
    values += [sample_normal(rng, 1.0, 1.0) for _ in range(100)]
    return GroupedSample(values, [1] * 100 + [2] * 100)


def test_prior_sensitivity_small_differences():
    sample = _sensitivity_sample()
    presets = [PriorPreset("wide"), PriorPreset("medium"), PriorPreset("narrow")]
    records = prior_sensitivity(sample, presets, base_seed=5, iterations=4000, burn_in=2000)
    assert [r.kind for r in records] == ["wide", "medium", "narrow"]
    wide, medium, narrow = (r.summary.delta_mpe for r in records)
    assert abs(wide - medium) < 0.1
    assert abs(wide - narrow) < 0.1
    # shrinkage pulls the narrow-prior estimate toward zero, within noise
    assert abs(narrow) <= abs(wide) + 0.02
    differences = sensitivity_dict(records, 5, sample.n1, sample.n2)["differences"]
    assert [(d["first"], d["second"], d["delta_mpe_difference"]) for d in differences] == [
        ("medium", "narrow", medium - narrow),
        ("wide", "medium", wide - medium),
        ("wide", "narrow", wide - narrow),
    ]


def test_prior_sensitivity_rejects_repeated_kind(monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain was started")

    monkeypatch.setattr("mixtt.harness.run_chain", no_chain)
    presets = [PriorPreset("wide"), PriorPreset("wide"), PriorPreset("narrow")]
    with pytest.raises(ConfigInvalid, match=r"\['wide', 'wide', 'narrow'\]"):
        prior_sensitivity(_sensitivity_sample(), presets, base_seed=5)


def test_prior_sensitivity_kind_stream_ignores_order():
    # a kind's chain seed comes from its index in PRESET_KINDS, not its position
    sample = _sensitivity_sample()
    kinds = ("wide", "narrow")
    fwd, rev = (
        prior_sensitivity(sample, [PriorPreset(k) for k in order], base_seed=5, iterations=2000, burn_in=1000)
        for order in (kinds, kinds[::-1])
    )
    assert fwd[0].kind == rev[1].kind == "wide"
    assert fwd[0] == rev[1]


def test_prior_sensitivity_needs_two_presets():
    with pytest.raises(ConfigInvalid):
        prior_sensitivity(_sensitivity_sample(), [PriorPreset("wide")], base_seed=1)
