"""Acceptance suite: one test per shipping criterion, with a PASS/FAIL line each.

Run as ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the summary
lines for passing criteria as well). Every study here goes through the real
CLI or public API with fixed seeds, so the whole suite is deterministic.

Criterion 5 (the published worked-example dataset) is skipped and replaced
by criteria 6-8, because that dataset cannot be vendored here.

Criteria 2 and 4 check that the reported HPDs and PMPs place the effect in
the large or small region as the model's exact posterior does. Each
dataset is rebuilt from its seed and its exact posterior is sampled iid by
an oracle (``exact_delta_summaries`` in ``_oracles``) that shares no code
with the sampler or the summaries. The sampler's per-dataset verdict must
match the exact posterior's, except where the exact HPD endpoint or PMP lies
within three Monte Carlo standard errors of the bound; those errors are
measured per dataset for an estimate from as many draws as the chain keeps.
The 95% HPD must also cover the true effect in at least 90 of 100 datasets.
Fixed containment counts (>= 90/100 HPDs in [0.8, inf) at n=200, >= 95/100
in [0.2, 0.5) and PMP >= 0.95 at n=700) are reported but not asserted: on
these seeds the exact posterior itself reaches only 61, 59 and 75 (the
sampler: 60, 60 and 76). By the normal approximation, those targets
need about 450 and 1,400 observations per group.
"""

import itertools
import json
import math
import statistics

import numpy as np
import pytest
import scipy.stats
from _oracles import (
    batch_mean_se,
    batch_var_se,
    exact_delta_summaries,
    group_posterior_moments,
    ks_distance,
    shortest_covering_interval,
)

from mixtt.analysis import cohen_partition, effect_size_series, hpd_interval
from mixtt.cli import main as cli_main
from mixtt.distributions import RngState, derive_seed, sample_inverse_gamma, sample_normal
from mixtt.gibbs import ChainConfig, run_chain
from mixtt.harness import Scenario, StudyConfig, generate_dataset, run_study
from mixtt.model import GroupedSample, IndependencePrior, PriorPreset, realize_preset
from mixtt.reports import study_result_dict
from mixtt.welch import welch_t_test

SEED = 20260810
# iid exact-posterior draws per group and dataset behind criteria 2 and 4
ORACLE_DRAWS = 100_000


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def _simulate(tmp, name, scenario, n, datasets, seed):
    out = tmp / f"{name}.json"
    rc = cli_main([
        "simulate", "--scenario", scenario, "--n", str(n), "--datasets", str(datasets),
        "--seed", str(seed), "--output", str(out),
    ])
    assert rc == 0
    return json.loads(out.read_text())


def _exact_posterior(study, cell):
    """Exact-posterior delta summaries for every dataset of a study, plus its margin rule.

    Each dataset is rebuilt from its record's seed exactly as the study
    harness draws it, and its Welch p-value must reproduce the record's.
    The returned ``margin(se)`` turns the oracle's per-dataset Monte Carlo
    standard error of a chain-sized estimate into the distance from a bound
    inside which a verdict may flip by noise: three standard errors of the
    chain's estimate and of the oracle's own, combined.
    """
    cfg = study["config"]
    scenario = Scenario.named(cfg["scenario"])
    mc_draws = cfg["iterations"] - cfg["burn_in"]
    out = []
    for r in study["records"]:
        sample = generate_dataset(scenario, cfg["n_per_group"], RngState(derive_seed(r["dataset_seed"], 0)))
        assert welch_t_test(sample).p_value == r["welch_p"], f"dataset {r['index']} not rebuilt"
        out.append(exact_delta_summaries(
            sample.group1, sample.group2, realize_preset(PriorPreset(cfg["preset"]), sample),
            cfg["alpha"], cell, np.random.default_rng([SEED, r["dataset_seed"]]),
            size=ORACLE_DRAWS, mc_draws=mc_draws,
        ))

    def margin(se):
        return 3.0 * se * math.sqrt(1.0 + mc_draws / ORACLE_DRAWS)

    return out, margin


def _unexplained(records, reported, wanted, near_bound):
    """Indices of datasets whose verdict differs from the exact posterior's away from the bound."""
    return [r["index"] for r, a, b, near in zip(records, reported, wanted, near_bound) if a != b and not near]


def _verdict_summary(reported, wanted, unexplained):
    differ = sum(a != b for a, b in zip(reported, wanted))
    return (
        f"verdicts differ from the exact posterior on {differ}/{len(reported)} datasets, "
        f"{len(unexplained)} of them beyond 3 MCSE of the bound {unexplained}"
    )


def _covered(records, true_delta):
    return sum(r["hpd"]["lower"] <= true_delta <= r["hpd"]["upper"] for r in records)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def null_study_300(workdir):
    return _simulate(workdir, "null300", "null", 300, 100, SEED)


def test_c1_null_scenario_type_i_elimination(null_study_300):
    agg = null_study_300["aggregates"]
    rate = agg["type_i_rate"]
    detail = (
        f"simulate null n=300: type-I rate {rate:.2f} "
        f"(rejected={agg['rejected_count']}, indeterminate={agg['indeterminate_count']}, "
        f"accepted={agg['accepted_count']}); requirement: exactly 0"
    )
    _report("1 null-scenario type-I elimination", rate == 0.0, detail)
    assert rate == 0.0


def test_c2_large_effect_recovery(workdir):
    study = _simulate(workdir, "large200", "large", 200, 100, SEED)
    records = study["records"]
    true_delta = study["config"]["true_delta"]
    mean_ok = abs(study["aggregates"]["mean_delta_mpe"] - 1.0307) <= 0.15
    exact, margin = _exact_posterior(study, (0.8, math.inf))

    reported = [r["hpd"]["lower"] >= 0.8 for r in records]
    wanted = [e["lower"] >= 0.8 for e in exact]
    near = [abs(e["lower"] - 0.8) <= margin(e["se_lower"]) for e in exact]
    unexplained = _unexplained(records, reported, wanted, near)
    covered = _covered(records, true_delta)
    ok = mean_ok and not unexplained and covered >= 90
    detail = (
        f"simulate large n=200: mean delta_mpe={study['aggregates']['mean_delta_mpe']:.4f} "
        f"(true {true_delta:.4f}, need +-0.15: {'ok' if mean_ok else 'off'}); "
        f"HPD in [0.8, inf): {sum(reported)}/100, exact posterior {sum(wanted)}/100 "
        f"(paper-style target >= 90 not asserted); "
        f"{_verdict_summary(reported, wanted, unexplained)}; "
        f"95% HPD covers true delta: {covered}/100 (need >= 90)"
    )
    _report("2 large-effect recovery", ok, detail)
    assert mean_ok, detail
    assert not unexplained, detail
    assert covered >= 90, detail


def test_c3_medium_effect_always_rejects_null(workdir):
    study = _simulate(workdir, "medium100", "medium", 100, 100, SEED)
    inside = sum(
        r["hpd"]["lower"] >= -0.2 and r["hpd"]["upper"] <= 0.2 for r in study["records"]
    )
    detail = f"simulate medium n=100: HPDs inside (-0.2, 0.2): {inside}/100; requirement: 0"
    _report("3 medium-effect null rejection", inside == 0, detail)
    assert inside == 0


def test_c4_small_effect_convergence(workdir):
    study = _simulate(workdir, "small700", "small", 700, 100, SEED)
    records = study["records"]
    true_delta = study["config"]["true_delta"]
    exact, margin = _exact_posterior(study, (0.2, 0.5))

    reported = [r["hpd"]["lower"] >= 0.2 and r["hpd"]["upper"] < 0.5 for r in records]
    wanted = [e["lower"] >= 0.2 and e["upper"] < 0.5 for e in exact]
    near = [
        abs(e["lower"] - 0.2) <= margin(e["se_lower"]) or abs(e["upper"] - 0.5) <= margin(e["se_upper"])
        for e in exact
    ]
    hpd_unexplained = _unexplained(records, reported, wanted, near)

    reported_pmp = [r["pmp"]["cell"] == "small" and r["pmp"]["value"] >= 0.95 for r in records]
    wanted_pmp = [0.2 <= e["mean"] < 0.5 and e["mass"] >= 0.95 for e in exact]
    near_pmp = [abs(e["mass"] - 0.95) <= margin(e["se_mass"]) for e in exact]
    pmp_unexplained = _unexplained(records, reported_pmp, wanted_pmp, near_pmp)

    covered = _covered(records, true_delta)
    ok = not hpd_unexplained and not pmp_unexplained and covered >= 90
    detail = (
        f"simulate small n=700: HPD inside [0.2, 0.5): {sum(reported)}/100, exact posterior "
        f"{sum(wanted)}/100; {_verdict_summary(reported, wanted, hpd_unexplained)}. "
        f"PMP >= 0.95 in the small cell: {sum(reported_pmp)}/100, exact posterior "
        f"{sum(wanted_pmp)}/100; {_verdict_summary(reported_pmp, wanted_pmp, pmp_unexplained)}. "
        f"Paper-style targets >= 95 not asserted. "
        f"95% HPD covers true delta: {covered}/100 (need >= 90)"
    )
    _report("4 small-effect convergence", ok, detail)
    assert not hpd_unexplained, detail
    assert not pmp_unexplained, detail
    assert covered >= 90, detail


def test_c5_worked_example_dataset():
    detail = (
        "published worked-example dataset is not redistributable in this "
        "environment; per the fallback clause the criterion is replaced by "
        "criteria 6-8"
    )
    _report("5 worked example", True, f"SKIPPED - {detail}")
    pytest.skip(detail)


def test_c6_sampler_matches_quadrature_oracle():
    sample = GroupedSample([4.2, 5.1, 4.8, 5.6, 4.4], [6.3, 5.9, 7.1, 6.5, 6.8])
    prior = IndependencePrior(b0=5.5, B0=4.0, c0=3.0, C0=2.0)
    chain = run_chain(sample, ChainConfig(205_000, 5_000, SEED, prior))

    checks = []
    for label, mu_draws, v_draws, values in [
        ("group1", chain.mu1, chain.sigma2_1, sample.group1),
        ("group2", chain.mu2, chain.sigma2_2, sample.group2),
    ]:
        oracle = group_posterior_moments(values, prior)
        for name, draws, target in [
            (f"{label}.mean_mu", mu_draws, oracle["mean_mu"]),
            (f"{label}.mean_v", v_draws, oracle["mean_v"]),
        ]:
            est, se = batch_mean_se(draws)
            checks.append((name, est, target, se))
        for name, draws, target in [
            (f"{label}.var_mu", mu_draws, oracle["var_mu"]),
            (f"{label}.var_v", v_draws, oracle["var_v"]),
        ]:
            est, se = batch_var_se(draws)
            checks.append((name, est, target, se))

    worst = max(abs(est - target) / se for _, est, target, se in checks)
    ok = worst <= 3.0
    _report(
        "6 sampler-oracle equivalence",
        ok,
        f"8 posterior moments vs 2-D quadrature on a fixed 5+5 dataset; "
        f"worst |z| = {worst:.2f} (limit 3)",
    )
    for name, est, target, se in checks:
        assert abs(est - target) <= 3.0 * se, (name, est, target, se)


def test_c7_property_suites():
    failures = []

    # shortest-window optimality, exhaustively over all multisets of size <= 12
    # drawn from a fixed 5-point grid, against the all-pairs enumeration oracle
    grid = (0.0, 1.0, 2.5, 4.0, 8.0)
    for size in range(2, 13):
        for combo in itertools.combinations_with_replacement(grid, size):
            for level in (0.3, 0.62, 0.95, 1.0):
                got = hpd_interval(np.array(combo), level)
                want = shortest_covering_interval(combo, level)
                if (got.lower, got.upper) != want:
                    failures.append(f"hpd {combo} level {level}: {got} != {want}")

    # partition: disjoint cover with draw-count masses summing to one
    part = cohen_partition()
    rng = np.random.default_rng(SEED)
    draws = rng.normal(0.0, 1.5, 4001)
    counts = [np.count_nonzero((draws >= lo) & (draws < hi)) for _, lo, hi in part]
    masses = [c / draws.size for c in counts]
    if sum(counts) != draws.size:
        failures.append("partition cell counts do not add up")
    if abs(math.fsum(masses) - 1.0) > 1e-12:
        failures.append("partition masses do not sum to 1")
    bounds = [b for _, lo, hi in part for b in (lo, hi)]
    if bounds != sorted(bounds):
        failures.append("partition cells are not ordered")
    for x in (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8, 0.0, 3.0, -3.0):
        hits = [lab for lab, lo, hi in part if lo <= x < hi]
        if len(hits) != 1:
            failures.append(f"{x} lands in {len(hits)} cells")

    # translation equivariance of the wide-preset chain
    gen = np.random.default_rng(3)
    g1, g2 = gen.normal(3.0, 1.0, 12), gen.normal(4.0, 2.0, 12)
    base_sample = GroupedSample(g1, g2)
    shifted_sample = GroupedSample(g1 + 500.0, g2 + 500.0)
    base = run_chain(base_sample, ChainConfig(4000, 1000, 17, realize_preset(PriorPreset("wide"), base_sample)))
    moved = run_chain(shifted_sample, ChainConfig(4000, 1000, 17, realize_preset(PriorPreset("wide"), shifted_sample)))
    if not np.allclose(moved.mu1, base.mu1 + 500.0, rtol=1e-9, atol=0):
        failures.append("mu1 draws did not shift exactly")
    if not np.allclose(moved.sigma2_1, base.sigma2_1, rtol=1e-9, atol=0):
        failures.append("sigma2_1 draws changed under translation")
    d0 = effect_size_series(base, direction="g1-g2")
    d1 = effect_size_series(moved, direction="g1-g2")
    if not np.allclose(d1, d0, rtol=1e-9, atol=1e-12):
        failures.append("effect-size draws changed under translation")

    # welch invariances at 1e-12 relative
    w_base = welch_t_test(base_sample)
    for tag, factor, offset in [("shift", 1.0, 777.7), ("scale", 31.25, 0.0)]:
        other = GroupedSample(g1 * factor + offset, g2 * factor + offset)
        w = welch_t_test(other)
        for field in ("t_statistic", "df", "p_value"):
            a, b = getattr(w, field), getattr(w_base, field)
            if abs(a - b) > 1e-12 * max(abs(a), abs(b)):
                failures.append(f"welch {field} not invariant under {tag}")

    # distribution sampler: moment and KS checks at the stated sizes
    rng_n = RngState(1)
    xs = np.fromiter((sample_normal(rng_n, 0.0, 1.0) for _ in range(1_000_000)), float, count=1_000_000)
    if abs(xs.mean()) > 0.01:
        failures.append(f"1e6 normal draws: mean {xs.mean():.5f} off by > 0.01")
    if abs(xs.var(ddof=1) - 1.0) > 0.02:
        failures.append(f"1e6 normal draws: variance {xs.var(ddof=1):.5f} off by > 0.02")

    rng_ig = RngState(1)
    ig = np.fromiter((sample_inverse_gamma(rng_ig, 3.0, 2.0) for _ in range(1_000_000)), float, count=1_000_000)
    if abs(ig.mean() - 1.0) > 0.02:
        failures.append(f"1e6 IG(3,2) draws: mean {ig.mean():.5f} beyond 2% of 1")
    # analytic variance C^2/((c-1)^2 (c-2)) = 1; the tolerance is wide because
    # the fourth moment of IG(3, 2) is infinite, making this estimator heavy-tailed
    if abs(ig.var(ddof=1) - 1.0) > 0.05:
        failures.append(f"1e6 IG(3,2) draws: variance {ig.var(ddof=1):.5f} beyond 5% of 1")
    if ig.min() <= 0.0:
        failures.append("IG draws not strictly positive")

    rng_pos = RngState(2)
    if not all(sample_inverse_gamma(rng_pos, 25.01, 10.0) > 0.0 for _ in range(10_000)):
        failures.append("IG(25.01, 10) produced a non-positive draw")

    for idx in range(3):
        stream = RngState(derive_seed(SEED, idx))
        zs = [sample_normal(stream, 0.0, 1.0) for _ in range(100_000)]
        d = ks_distance(zs, scipy.stats.norm.cdf)
        if d > 0.01:
            failures.append(f"derived stream {idx}: normal KS distance {d:.4f} > 0.01")

    _report(
        "7 property suites",
        not failures,
        "HPD enumeration (6182 samples x 4 levels), partition cover, chain "
        "translation equivariance, Welch invariances, sampler moment/KS checks"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert not failures, failures


@pytest.fixture(scope="module")
def null_trend_studies():
    out = {}
    for n in (50, 100, 200):
        cfg = StudyConfig(
            scenario=Scenario.named("null"), n_per_group=n, n_datasets=100,
            master_seed=derive_seed(SEED, n),
        )
        out[n] = study_result_dict(cfg, run_study(cfg))["aggregates"]["type_i_rate"]
    return out


def test_c8_consistency_trends(null_trend_studies, null_study_300):
    pmp_medians = {}
    for n in (50, 200, 800):
        pmps = []
        for rep in range(20):
            cfg = StudyConfig(
                scenario=Scenario.named("large"), n_per_group=n, n_datasets=1,
                master_seed=derive_seed(derive_seed(SEED, 1000 + n), rep),
            )
            pmps.append(run_study(cfg)[0].summary.pmp_value)
        pmp_medians[n] = statistics.median(pmps)

    rates = dict(null_trend_studies)
    rates[300] = null_study_300["aggregates"]["type_i_rate"]

    pmp_ok = (
        pmp_medians[50] <= pmp_medians[200] <= pmp_medians[800]
        and pmp_medians[800] >= 0.95
    )
    rate_ok = rates[50] >= rates[100] >= rates[200] >= rates[300] and rates[300] == 0.0
    detail = (
        f"median PMP at n=50/200/800: {pmp_medians[50]:.3f}/{pmp_medians[200]:.3f}/"
        f"{pmp_medians[800]:.3f} (nondecreasing, >= 0.95 at 800); "
        f"null type-I rates at n=50/100/200/300: {rates[50]:.2f}/{rates[100]:.2f}/"
        f"{rates[200]:.2f}/{rates[300]:.2f} (nonincreasing, 0 at 300)"
    )
    _report("8 consistency trends", pmp_ok and rate_ok, detail)
    assert pmp_ok, detail
    assert rate_ok, detail


def test_c9_byte_identical_reruns(workdir):
    csv_path = workdir / "det.csv"
    rng = RngState(13)
    with open(csv_path, "w") as fh:
        fh.write("value,group\n")
        for _ in range(25):
            fh.write(f"{sample_normal(rng, 0.0, 1.0)},a\n")
        for _ in range(25):
            fh.write(f"{sample_normal(rng, 0.6, 1.0)},b\n")

    commands = {
        "analyze": lambda out, plot: [
            "analyze", "--input", str(csv_path), "--output", str(out),
            "--plot-data", str(plot), "--seed", "21", "--iters", "2500", "--burnin", "500",
        ],
        "simulate": lambda out, plot: [
            "simulate", "--scenario", "medium", "--n", "15", "--datasets", "3",
            "--seed", "22", "--iters", "1500", "--burnin", "300", "--output", str(out),
        ],
        "sensitivity": lambda out, plot: [
            "sensitivity", "--input", str(csv_path), "--seed", "23",
            "--iters", "1500", "--burnin", "300", "--output", str(out),
        ],
    }
    mismatches = []
    for name, build in commands.items():
        payloads = []
        for run in ("x", "y"):
            out = workdir / f"{name}_{run}.json"
            plot = workdir / f"{name}_{run}.plot.csv"
            rc = cli_main(build(out, plot))
            if rc != 0:
                mismatches.append(f"{name} run {run} exited {rc}")
                continue
            blob = out.read_bytes()
            if name == "analyze":
                blob += plot.read_bytes()
            payloads.append(blob)
        if len(payloads) == 2 and payloads[0] != payloads[1]:
            mismatches.append(f"{name}: reruns differ")
    _report(
        "9 determinism",
        not mismatches,
        "analyze/simulate/sensitivity rerun byte-identically"
        + (f"; {mismatches}" if mismatches else ""),
    )
    assert not mismatches, mismatches
