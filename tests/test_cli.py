import csv
import json

import numpy as np
import pytest
from _oracles import write_plot_rows_reference

from mixtt import cli, gibbs, harness
from mixtt.analysis import HpdInterval, cohen_partition, density_grid, summarize
from mixtt.cli import main
from mixtt.distributions import RngState, sample_normal
from mixtt.gibbs import PosteriorChain
from mixtt.model import GroupedSample, PriorPreset, compute_sufficient_stats, realize_preset
from mixtt.reports import read_sample_csv, write_json, write_plot_data, write_plot_rows


@pytest.fixture
def data_csv(tmp_path):
    rng = RngState(606)
    path = tmp_path / "data.csv"
    with open(path, "w") as fh:
        fh.write("value,group\n")
        for _ in range(30):
            fh.write(f"{sample_normal(rng, 0.0, 1.0)},ctrl\n")
        for _ in range(30):
            fh.write(f"{sample_normal(rng, 1.0, 1.0)},treat\n")
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def write_sample_csv(sample, path):
    # rows grouped (all of group 1, then group 2), so re-reading maps the
    # first label back to group 1; within-group order is kept
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "group"])
        for group, label in ((sample.group1, 1), (sample.group2, 2)):
            for v in group:
                writer.writerow([repr(float(v)), label])


def test_analyze_report_contents(data_csv, tmp_path):
    out = tmp_path / "report.json"
    plot = tmp_path / "plot.csv"
    rc = run_cli("analyze", "--input", data_csv, "--output", out, "--plot-data", plot,
                 "--seed", 7, "--iters", 3000, "--burnin", 1000)
    assert rc == 0
    report = json.loads(out.read_text())
    analysis = report["analysis"]
    assert set(analysis) == {"delta_mpe", "delta_mode", "hpd", "esr", "pmp", "decision", "welch"}
    assert analysis["esr"] == {"lower": analysis["hpd"]["lower"], "upper": analysis["hpd"]["upper"]}
    assert 0.0 <= analysis["pmp"]["value"] <= 1.0
    assert 0.0 <= analysis["welch"]["p_value"] <= 1.0
    chain = report["chain"]
    assert chain["iterations"] == 3000 and chain["burn_in"] == 1000 and chain["seed"] == 7
    assert chain["preset"] == "wide" and chain["direction"] == "g2-g1"
    assert set(chain["prior"]) == {"b0", "B0", "c0", "C0"}
    assert report["rope"] == [[-0.2, 0.2]]
    assert report["input"] == {"n1": 30, "n2": 30}
    # first label in the file becomes group 1, so g2-g1 means treat minus ctrl
    assert analysis["delta_mpe"] > 0.4


def test_analyze_plot_data_structure(data_csv, tmp_path):
    out = tmp_path / "report.json"
    plot = tmp_path / "plot.csv"
    run_cli("analyze", "--input", data_csv, "--output", out, "--plot-data", plot,
            "--seed", 7, "--iters", 2000, "--burnin", 1000)
    rows = list(csv.reader(plot.read_text().splitlines()))
    assert rows[0] == ["kind", "x", "y"]
    density = [r for r in rows if r[0] == "density"]
    assert len(density) == 512
    xs = [float(r[1]) for r in density]
    assert xs == sorted(xs)
    assert all(float(r[2]) >= 0.0 for r in density)
    assert {r[0] for r in rows[1:]} == {"density", "hpd_lower", "hpd_upper", "rope_boundary"}
    report = json.loads(out.read_text())
    hpd_lower = next(float(r[1]) for r in rows if r[0] == "hpd_lower")
    assert hpd_lower == report["analysis"]["hpd"]["lower"]
    boundaries = sorted(float(r[1]) for r in rows if r[0] == "rope_boundary")
    assert boundaries == [-0.8, -0.5, -0.2, 0.2, 0.5, 0.8]


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100, -3.0])
def test_plot_rows_are_the_csv_writers_bytes(tmp_path, scale):
    rng = RngState(5)
    draws = np.array([sample_normal(rng, 0.0, 1.0) for _ in range(200)]) * scale
    grid, dens = density_grid(draws)
    hpd = HpdInterval(0.95, float(draws.min()), -0.0)
    write_plot_rows(grid, dens, hpd, tmp_path / "plot.csv")
    write_plot_rows_reference(grid, dens, hpd, tmp_path / "reference.csv")
    assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_analyze_plot_data_evaluates_the_density_once(data_csv, tmp_path, monkeypatch):
    calls = []

    def spy(draws):
        calls.append(draws.size)
        return density_grid(draws)

    for module in ("analysis", "cli", "reports"):  # every place a caller may look it up
        monkeypatch.setattr(f"mixtt.{module}.density_grid", spy, raising=False)
    rc = run_cli("analyze", "--input", data_csv, "--output", tmp_path / "report.json",
                 "--plot-data", tmp_path / "plot.csv", "--seed", 7, "--iters", 2000, "--burnin", 1000)
    assert rc == 0
    assert calls == [1000]


def test_delta_mode_is_plot_density_peak(data_csv, tmp_path):
    out = tmp_path / "report.json"
    plot = tmp_path / "plot.csv"
    rc = run_cli("analyze", "--input", data_csv, "--output", out, "--plot-data", plot,
                 "--seed", 8, "--iters", 2000, "--burnin", 500)
    assert rc == 0
    rows = csv.reader(plot.read_text().splitlines())
    density = [(float(x), float(y)) for kind, x, y in rows if kind == "density"]
    peak_x = max(density, key=lambda row: row[1])[0]
    assert json.loads(out.read_text())["analysis"]["delta_mode"] == peak_x


@pytest.mark.parametrize("value", [1.0, 0.3])
def test_plot_data_rejects_constant_draws(tmp_path, value):
    # 1.0 gives an sd of exactly 0; 0.3 gives a rounding-sized sd and a
    # bandwidth near 1e-17, which would make a spike instead of an error
    draws = np.full(50, value)
    with pytest.raises(ValueError, match="all draws identical"):
        write_plot_data(draws, HpdInterval(0.95, value, value), tmp_path / "plot.csv")


def test_analyze_deterministic_outputs(data_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    for out, plot in [(a, pa), (b, pb)]:
        rc = run_cli("analyze", "--input", data_csv, "--output", out, "--plot-data", plot,
                     "--seed", 11, "--iters", 2000, "--burnin", 500)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert pa.read_bytes() == pb.read_bytes()


def test_analyze_direction_and_custom_prior(data_csv, tmp_path):
    out = tmp_path / "report.json"
    rc = run_cli("analyze", "--input", data_csv, "--output", out, "--seed", 3,
                 "--iters", 2000, "--burnin", 500, "--direction", "g1-g2",
                 "--b0", 0.0, "--B0", 10.0, "--c0", 0.5, "--C0", 0.5)
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["analysis"]["delta_mpe"] < 0.0
    assert report["chain"]["preset"] == "custom"
    assert report["chain"]["prior"] == {"b0": 0.0, "B0": 10.0, "c0": 0.5, "C0": 0.5}


def test_analyze_parameter_summary_is_the_draws_mean_and_sd(data_csv, tmp_path):
    # the report scales the draws by a power of two, which leaves ordinary values' bits alone
    out = tmp_path / "report.json"
    assert run_cli("analyze", "--input", data_csv, "--output", out, "--seed", 3, "--iters", 2000, "--burnin", 500) == 0
    sample = read_sample_csv(data_csv)
    chain = gibbs.run_chain(sample, gibbs.ChainConfig(2000, 500, 3, realize_preset(PriorPreset("wide"), sample)))
    summary = json.loads(out.read_text())["chain"]["parameter_summary"]
    for name in ("mu1", "mu2", "sigma2_1", "sigma2_2"):
        draws = getattr(chain, name)
        assert summary[name] == {"mean": float(draws.mean()), "sd": float(draws.std(ddof=1))}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("prior", [
    ["--b0", 0, "--B0", 1, "--c0", 1, "--C0", 1e308],
    ["--b0", 0, "--B0", 1e300, "--c0", 1e-300, "--C0", 1e300],
], ids=["C0-1e308", "B0-1e300-c0-1e-300"])
def test_analyze_reports_extreme_custom_priors_finitely(tmp_path, prior):
    # the variance draws reach 1e307: their sums, squares and pooled sd would overflow unscaled
    data = tmp_path / "data.csv"
    write_sample_csv(harness.generate_dataset(harness.Scenario.named("large"), 30, RngState(7)), data)
    out = tmp_path / "report.json"
    assert run_cli("analyze", "--input", data, "--output", out, "--plot-data", tmp_path / "plot.csv",
                   "--seed", 1, "--iters", 3000, "--burnin", 1000, *prior) == 0
    report = json.loads(out.read_text())  # the report is written with allow_nan=False: every float is finite
    for name in ("sigma2_1", "sigma2_2"):
        assert report["chain"]["parameter_summary"][name]["mean"] > 1e290


@pytest.mark.filterwarnings("error")
def test_analyze_rejects_a_chain_that_draws_past_the_largest_float(tmp_path, capsys):
    # IG(2, 1e308) draws a variance past the largest float in about one sweep of nine
    data = tmp_path / "data.csv"
    data.write_text("value,group\n1.5,a\n2.25,a\n3.0,b\n4.5,b\n")
    out = tmp_path / "report.json"
    assert run_cli("analyze", "--input", data, "--output", out, "--seed", 1, "--iters", 3000, "--burnin", 1000,
                   "--b0", 0, "--B0", 1, "--c0", 1, "--C0", 1e308) == 2
    err = capsys.readouterr().err
    assert err.startswith("mixtt: error: the chain drew values beyond the largest float, ") and " in 2000 kept sweeps" in err
    assert not out.exists()


def test_analyze_direction_mirrors_every_summary(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("value,group\n" + "".join(
        f"{i % 5}.{i % 3},a\n{i % 4 + 1}.{i % 7},b\n" for i in range(1, 13)))
    reports = {}
    for direction in ("g2-g1", "g1-g2"):
        out = tmp_path / f"{direction}.json"
        rc = run_cli("analyze", "--input", data, "--output", out, "--direction", direction,
                     "--seed", 5, "--iters", 2000, "--burnin", 500)
        assert rc == 0
        reports[direction] = json.loads(out.read_text())["analysis"]
    default, flipped = reports["g2-g1"], reports["g1-g2"]
    assert flipped["delta_mpe"] == -default["delta_mpe"]
    f, d = flipped["hpd"], default["hpd"]
    assert (f["lower"], f["upper"]) == (-d["upper"], -d["lower"])
    assert flipped["pmp"]["value"] == default["pmp"]["value"]
    cells = [label for label, _, _ in cohen_partition()]  # symmetric about 0: cell i mirrors cell -1 - i
    assert cells.index(flipped["pmp"]["cell"]) == len(cells) - 1 - cells.index(default["pmp"]["cell"])
    # the density grid runs min to max, and its points round differently when mirrored
    assert flipped["delta_mode"] == pytest.approx(-default["delta_mode"], rel=1e-12)
    assert flipped["decision"] == default["decision"]  # the default rope is symmetric


def test_each_command_summarizes_each_chain_once(data_csv, tmp_path, monkeypatch):
    calls = []

    def spy(chain, *rest):
        calls.append(chain)
        return summarize(chain, *rest)

    for module in (cli, harness):
        monkeypatch.setattr(module, "summarize", spy)
    chain_flags = ("--seed", 6, "--iters", 1000, "--burnin", 200)
    for args, expected in [
        (("analyze", "--input", data_csv, "--output", tmp_path / "a.json"), 1),
        (("simulate", "--scenario", "small", "--n", 10, "--datasets", 3, "--output", tmp_path / "s.json"), 3),
        (("sensitivity", "--input", data_csv, "--output", tmp_path / "p.json"), 3),
    ]:
        calls.clear()
        assert run_cli(*args, *chain_flags) == 0
        assert len(calls) == expected, args[0]
        assert all(isinstance(chain, PosteriorChain) for chain in calls), args[0]


def test_analyze_partial_custom_prior_fails(data_csv, tmp_path, capsys):
    rc = run_cli("analyze", "--input", data_csv, "--output", tmp_path / "r.json",
                 "--seed", 3, "--b0", 0.0)
    assert rc != 0
    assert "custom prior" in capsys.readouterr().err


def test_analyze_constant_data_is_degenerate(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("value,group\n" + "1.0,a\n" * 5 + "1.0,b\n" * 5)
    rc = run_cli("analyze", "--input", path, "--output", tmp_path / "r.json", "--seed", 1)
    assert rc != 0
    assert "variance" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    rc = run_cli("analyze", "--input", tmp_path / "nope.csv", "--output", tmp_path / "r.json",
                 "--seed", 1)
    assert rc != 0
    assert "error" in capsys.readouterr().err


def test_parse_error_carries_line_number(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("value,group\n1.0,a\nnot-a-number,b\n")
    rc = run_cli("analyze", "--input", path, "--output", tmp_path / "r.json", "--seed", 1)
    assert rc != 0
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_non_finite_value_rejected_with_line_number(tmp_path, capsys, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"value,group\n1.0,a\n2.0,b\n{bad},a\n3.0,b\n")
    out = tmp_path / "r.json"
    rc = run_cli("analyze", "--input", path, "--output", out, "--seed", 1)
    assert rc != 0
    assert "line 4" in capsys.readouterr().err
    assert not out.exists()


def test_underscore_value_rejected_with_line_number(tmp_path, capsys):
    # float() reads 1_0 as 10
    path = tmp_path / "bad.csv"
    path.write_text("value,group\n1.0,a\n2.0,b\n1_0,a\n3.0,b\n")
    out = tmp_path / "r.json"
    rc = run_cli("analyze", "--input", path, "--output", out, "--seed", 1)
    assert rc == 2
    assert "line 4: not a number: '1_0'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("label", ["", "  "], ids=["empty", "blank"])
def test_blank_group_label_rejected_with_line_number(tmp_path, capsys, label):
    path = tmp_path / "bad.csv"
    path.write_text(f"value,group\n1.0,a\n2.0,b\n3.0,{label}\n4.0,b\n")
    out = tmp_path / "r.json"
    rc = run_cli("analyze", "--input", path, "--output", out, "--seed", 1)
    assert rc == 2
    assert "line 4: empty group label" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, line",
    [
        ("value,group\n1.0,a\n\n2.0,b\n1.0,a,junk\n3.0,b\n", "line 5"),
        ("value,group,note\n1.0,a\n2.0,b\n3.0,a\n4.0,b\n", "line 1"),
        ("value,group\n1.0,a\n2.0,b\n\n3.0,c\n4.0,a\n",
         "line 5: more than two group labels: ['a', 'b', 'c']"),
    ],
    ids=["data-row", "header", "third-label"],
)
def test_extra_columns_rejected_with_line_number(tmp_path, capsys, text, line):
    path = tmp_path / "wide.csv"
    path.write_text(text)
    rc = run_cli("analyze", "--input", path, "--output", tmp_path / "r.json", "--seed", 1)
    assert rc == 2
    assert line in capsys.readouterr().err


LONG_VALUE = "0." + "0" * 131070 + "1"  # one character over the csv module's default field size limit


@pytest.mark.parametrize("command", ["analyze", "sensitivity"])
@pytest.mark.parametrize(
    "text, line",
    [
        (f"value,group\n1.0,a\n2.0,b\n3.0,a\n{LONG_VALUE},b\n", 5),
        (f"{LONG_VALUE},group\n1.0,a\n2.0,b\n3.0,a\n4.0,b\n", 1),
    ],
    ids=["data-row", "header"],
)
def test_csv_module_error_names_the_line(tmp_path, capsys, command, text, line):
    path = tmp_path / "long.csv"
    path.write_text(text)
    rc = run_cli(command, "--input", path, "--output", tmp_path / "r.json", "--seed", 1,
                 "--iters", 300, "--burnin", 100)
    assert rc == 2
    assert capsys.readouterr().err == f"mixtt: error: {path}: line {line}: field larger than field limit (131072)\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["analyze", "sensitivity"])
def test_one_label_file_names_the_file(tmp_path, capsys, command):
    path = tmp_path / "one.csv"
    path.write_text("value,group\n1.0,a\n\n2.0,a\n3.0,a\n")
    rc = run_cli(command, "--input", path, "--output", tmp_path / "r.json", "--seed", 1)
    assert rc == 2
    assert f"mixtt: error: {path}: both groups need at least one observation\n" == capsys.readouterr().err


def test_utf8_bom_is_accepted(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark
    path = tmp_path / "bom.csv"
    path.write_text("value,group\n1.0,a\n2.5,b\n1.5,a\n3.0,b\n0.5,a\n", encoding="utf-8-sig")
    out = tmp_path / "r.json"
    rc = run_cli("analyze", "--input", path, "--output", out, "--seed", 1,
                 "--iters", 300, "--burnin", 100)
    assert rc == 0
    assert json.loads(out.read_text())["input"] == {"n1": 3, "n2": 2}


def _assert_overflow_rejected(tmp_path, capsys, command, rows):
    path = tmp_path / "huge.csv"
    path.write_text("value,group\n" + rows)
    rc = run_cli(command, "--input", path, "--output", tmp_path / "r.json", "--seed", 1,
                 "--iters", 300, "--burnin", 100)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("mixtt: error:") and "overflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "sensitivity"])
def test_overflowing_values_rejected(tmp_path, capsys, command):
    _assert_overflow_rejected(tmp_path, capsys, command, "1e200,a\n2e200,a\n1.0,b\n3.0,b\n")
    # huge values of both signs: the pairwise sum meets inf + -inf, which must not warn
    rows = ["0,a"] * 16
    rows[0] = rows[8] = "1e308,a"
    rows[1] = rows[9] = "-1e308,a"
    _assert_overflow_rejected(tmp_path, capsys, command, "\n".join(rows + ["1.0,b", "3.0,b", ""]))
    # group b's mean rounds off -1e300, so its sum of squared deviations is inf; the pooled one is 0
    _assert_overflow_rejected(tmp_path, capsys, command, "-1e300,a\n" * 5 + "-1e300,b\n" * 30)


@pytest.mark.parametrize("command", ["analyze", "sensitivity"])
@pytest.mark.parametrize(
    "rows",
    [
        # finite sum of squared deviations; Welch's se^2 squared overflowed
        "1e153,a\n-1e153,a\n3e153,a\n1e153,b\n-1e153,b\n",
        # finite sum of squared deviations; the presets' B0 overflowed
        "6e153,a\n-6e153,a\n6e153,b\n-6e153,b\n",
    ],
    ids=["welch-se", "preset-B0"],
)
def test_overflowing_derived_quantities_rejected(tmp_path, capsys, command, rows):
    _assert_overflow_rejected(tmp_path, capsys, command, rows)


@pytest.mark.parametrize("command", ["analyze", "sensitivity"])
def test_values_at_1e70_scale_run(tmp_path, command):
    # at 1e-100 scale the squares of Welch's standard errors underflow unless rescaled
    for scale in ("e70", "e-100"):
        path = tmp_path / "big.csv"
        path.write_text("value,group\n1{0},a\n-2{0},a\n3{0},a\n2{0},b\n5{0},b\n-1{0},b\n".format(scale))
        rc = run_cli(command, "--input", path, "--output", tmp_path / "r.json", "--seed", 1,
                     "--iters", 300, "--burnin", 100)
        assert rc == 0, scale


@pytest.mark.parametrize("python_chain", [False, True], ids=["kernel", "python"])
@pytest.mark.parametrize("command", ["analyze", "sensitivity", "simulate"])
def test_run_too_large_for_memory_is_an_error(data_csv, tmp_path, monkeypatch, capsys, command, python_chain):
    # the chain's draws or a simulated group's normals cannot be allocated, so no
    # sweep runs and no normal is drawn on either path
    if python_chain:
        monkeypatch.setattr(gibbs, "_kernel", None)
    if command == "simulate":
        flags = ["--scenario", "small", "--n", 100_000_000_000_000, "--datasets", 1]
    else:
        flags = ["--input", data_csv, "--iters", 100_000_000_000_000, "--burnin", 0]
    rc = run_cli(command, *flags, "--output", tmp_path / "r.json", "--seed", 1)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("mixtt: error: Unable to allocate")
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_bad_header_rejected(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    for text, message in [("amount,arm\n1.0,a\n2.0,b\n", "header"), ("", "empty file"),
                          ("value,group\n", "no data rows")]:
        path.write_text(text)
        rc = run_cli("analyze", "--input", path, "--output", tmp_path / "r.json", "--seed", 1)
        assert rc == 2
        assert message in capsys.readouterr().err


def test_seed_is_required(data_csv, tmp_path):
    with pytest.raises(SystemExit):
        run_cli("analyze", "--input", data_csv, "--output", tmp_path / "r.json")


def test_csv_round_trip_preserves_stats(tmp_path):
    rng = np.random.default_rng(30)
    for _ in range(5):
        alloc = rng.integers(1, 3, 40)
        alloc[0] = rng.integers(1, 3)  # first row may belong to either group
        alloc[:2] = [2, 1] if alloc[0] == 2 else [1, 2]
        sample = GroupedSample.from_labels(rng.normal(0, 1, 40), alloc)
        path = tmp_path / "round.csv"
        write_sample_csv(sample, path)
        again = read_sample_csv(path)
        assert compute_sufficient_stats(again) == compute_sufficient_stats(sample)


def test_simulate_command(tmp_path):
    out = tmp_path / "study.json"
    rc = run_cli("simulate", "--scenario", "null", "--n", 20, "--datasets", 3,
                 "--seed", 5, "--iters", 1500, "--burnin", 500, "--output", out)
    assert rc == 0
    study = json.loads(out.read_text())
    assert study["config"]["scenario"] == "null"
    assert study["config"]["true_delta"] == 0.0
    assert len(study["records"]) == 3
    agg = study["aggregates"]
    assert 0.0 <= agg["type_i_rate"] <= 1.0
    assert agg["accepted_count"] + agg["rejected_count"] + agg["indeterminate_count"] == 3
    for rec in study["records"]:
        assert rec["decision"] in ("accepted", "rejected", "indeterminate")
        assert rec["strict_decision"] in ("accepted", "rejected")
        assert rec["error"] in ("type-I", "type-II", "none")


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = run_cli("simulate", "--scenario", "small", "--n", 10, "--datasets", 2,
                     "--seed", 9, "--iters", 1000, "--burnin", 200, "--output", out)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_takes_the_largest_seed(tmp_path):
    out = tmp_path / "study.json"
    rc = run_cli("simulate", "--scenario", "small", "--n", 10, "--datasets", 2,
                 "--seed", 2**64 - 1, "--iters", 600, "--burnin", 100, "--output", out)
    assert rc == 0
    assert json.loads(out.read_text())["config"]["master_seed"] == 18446744073709551615


def test_simulate_rejects_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("simulate", "--scenario", "galactic", "--n", 10, "--datasets", 2,
                "--seed", 1, "--output", tmp_path / "x.json")


def _exit_status(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("interruption, status", [
    (["simulate", "--scenario", "galactic", "--n", "10", "--datasets", "2", "--seed", "1"], 2),  # argparse's
    (["simulate", "--scenario", "large", "--n", "10", "--datasets", "2", "--seed", "1",
      "--iters", "100", "--burnin", "100"], 2),  # a ValueError that main reports
    (["analyze", "--help"], 0),
], ids=["usage-error", "value-error", "help"])
def test_main_reuses_its_parser_and_writes_its_first_calls_bytes_after(data_csv, tmp_path, monkeypatch, capsys,
                                                                      interruption, status):
    monkeypatch.setattr(cli, "_parser", None)  # so the first call below builds it
    chain = ["--iters", "600", "--burnin", "100", "--seed", "4"]
    calls = {
        "analyze.json": ["analyze", "--input", str(data_csv), *chain, "--plot-data", str(tmp_path / "plot.csv")],
        "study.json": ["simulate", "--scenario", "large", "--n", "20", "--datasets", "3", *chain, "--alpha", "0.9"],
    }

    def run():
        files = {}
        for name, argv in calls.items():
            assert main([*argv, "--output", str(tmp_path / name)]) == 0
            files[name] = (tmp_path / name).read_bytes()
        files["plot.csv"] = (tmp_path / "plot.csv").read_bytes()
        return files

    first = run()
    parser = cli._parser
    texts = []
    for _ in range(2):
        assert _exit_status([*interruption, "--output", str(tmp_path / "other.json")]) == status
        texts.append(capsys.readouterr())
    assert texts[0] == texts[1] and (texts[0].out or texts[0].err)
    assert run() == first and cli._parser is parser


@pytest.mark.parametrize("command", [[], ["simulate"]])
def test_help_follows_the_terminal_width_at_the_time_of_the_call(monkeypatch, capsys, command):
    # argparse's formatter reads the width when the help is printed, not when the parser is built
    monkeypatch.setattr(cli, "_parser", None)
    texts = {}
    for columns in (200, 44, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        assert _exit_status([*command, "--help"]) == 0
        text = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([*command, "--help"])
        assert text == capsys.readouterr().out  # what a parser built at this width prints
        assert texts.setdefault(columns, text) == text
    assert len(texts[44].splitlines()) > len(texts[200].splitlines())  # the narrow help wraps more


def test_sensitivity_command(data_csv, tmp_path):
    out = tmp_path / "sens.json"
    rc = run_cli("sensitivity", "--input", data_csv, "--seed", 4, "--iters", 1500,
                 "--burnin", 500, "--output", out)
    assert rc == 0
    sens = json.loads(out.read_text())
    assert [p["preset"] for p in sens["presets"]] == ["wide", "medium", "narrow"]
    assert len(sens["differences"]) == 3
    for diff in sens["differences"]:
        assert abs(diff["delta_mpe_difference"]) < 0.25


def test_sensitivity_single_preset_fails(data_csv, tmp_path, capsys):
    rc = run_cli("sensitivity", "--input", data_csv, "--seed", 4, "--presets", "wide",
                 "--output", tmp_path / "s.json")
    assert rc == 2
    assert "two presets" in capsys.readouterr().err


def test_sensitivity_unknown_preset_is_named(data_csv, tmp_path, capsys):
    rc = run_cli("sensitivity", "--input", data_csv, "--seed", 4, "--presets", "wide,custom",
                 "--output", tmp_path / "s.json")
    assert rc == 2
    assert "unknown preset kind 'custom'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra, rows",
    [
        ("analyze", ["--alpha", "1.5"], None),
        ("analyze", ["--alpha", "nan"], None),
        ("sensitivity", ["--alpha", "0"], None),
        ("analyze", [], "1.0,a\n2.0,b\n3.5,b\n2.5,b\n"),
        ("analyze", ["--rope=0,inf"], None),
        ("analyze", ["--rope=-inf,0.2"], None),
        ("sensitivity", ["--presets", "wide,wide,narrow"], None),
        ("sensitivity", [], "1.0,a\n2.0,b\n"),
        ("analyze", ["--b0", "nan", "--B0", "1", "--c0", "1", "--C0", "1"], None),
        ("analyze", ["--b0", "0", "--B0", "nan", "--c0", "1", "--C0", "1"], None),
        ("analyze", ["--b0", "0", "--B0", "1", "--c0", "nan", "--C0", "1"], None),
        ("analyze", ["--b0", "0", "--B0", "1", "--c0", "1", "--C0", "nan"], None),
        ("analyze", ["--b0", "inf", "--B0", "1", "--c0", "1", "--C0", "1"], None),
        ("analyze", ["--b0", "0", "--B0", "inf", "--c0", "1", "--C0", "1"], None),
        ("analyze", ["--b0", "0", "--B0", "1", "--c0", "inf", "--C0", "1"], None),
        ("analyze", ["--b0", "0", "--B0", "1", "--c0", "1", "--C0", "inf"], None),
        ("analyze", ["--iters", "1", "--burnin", "0"], None),
        ("analyze", ["--seed", "-1"], None),
        ("sensitivity", ["--seed", "18446744073709551616"], None),
        ("analyze", ["--rope=0.5"], None),
        ("analyze", ["--rope=a,b"], None),
        ("analyze", ["--rope=0.5,0.1"], None),
        ("analyze", ["--alpha", "x"], None),
        ("analyze", ["--seed", "1.5"], None),
    ],
    ids=[
        "analyze-alpha-above-one", "analyze-alpha-nan", "sensitivity-alpha-zero", "one-row-group",
        "analyze-rope-inf", "analyze-rope-minus-inf", "sensitivity-repeated-preset",
        "sensitivity-one-plus-one-rows", "prior-b0-nan", "prior-B0-nan", "prior-c0-nan",
        "prior-C0-nan", "prior-b0-inf", "prior-B0-inf", "prior-c0-inf",
        "prior-C0-inf", "analyze-one-kept-sweep", "analyze-seed-negative", "sensitivity-seed-2-to-64",
        "analyze-rope-one-bound", "analyze-rope-not-numbers", "analyze-rope-reversed",
        "analyze-alpha-not-a-number", "analyze-seed-not-an-integer",
    ],
)
def test_bad_arguments_fail_before_any_chain(data_csv, tmp_path, monkeypatch, capsys, command, extra, rows):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain was started")

    monkeypatch.setattr("mixtt.cli.run_chain", no_chain)
    monkeypatch.setattr("mixtt.harness.run_chain", no_chain)
    data = data_csv
    if rows is not None:
        data = tmp_path / "in.csv"
        data.write_text("value,group\n" + rows)
    try:
        rc = run_cli(command, "--input", data, "--output", tmp_path / "r.json", "--seed", 1, *extra)
    except SystemExit as exc:  # argparse rejects a bad flag value with status 2, naming the flag
        rc = exc.code
        assert f"argument {extra[0].split('=')[0]}:" in capsys.readouterr().err
    assert rc == 2


def test_plot_data_same_path_as_output_rejected(data_csv, tmp_path, monkeypatch, capsys):
    def no_read(*args, **kwargs):
        raise AssertionError("the input was read")

    monkeypatch.setattr("mixtt.cli.read_sample_csv", no_read)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "r.json"
    rc = run_cli("analyze", "--input", data_csv, "--output", out, "--plot-data", "r.json", "--seed", 1)
    assert rc == 2
    assert "same file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, target",
    [("analyze", "--output"), ("analyze", "--plot-data"), ("sensitivity", "--output")],
)
def test_output_onto_input_rejected_before_any_read(data_csv, tmp_path, monkeypatch, capsys,
                                                    command, target):
    def no_call(*args, **kwargs):
        raise AssertionError("the input was read or a chain was started")

    for name in ("mixtt.cli.read_sample_csv", "mixtt.cli.run_chain", "mixtt.harness.run_chain"):
        monkeypatch.setattr(name, no_call)
    monkeypatch.chdir(data_csv.parent)
    before = data_csv.read_bytes()
    paths = {"--output": tmp_path / "r.json", target: "./" + data_csv.name}
    rc = run_cli(command, "--input", data_csv, "--seed", 1, *[a for kv in paths.items() for a in kv])
    assert rc == 2
    assert f"--input and {target} name the same file" in capsys.readouterr().err
    assert data_csv.read_bytes() == before


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("analyze", ["--iters", 0], "iterations must be >= 1, got 0"),
        ("analyze", ["--iters", 100, "--burnin", 99],
         "the density estimate needs at least 2 kept sweeps; --iters 100 with --burnin 99 keeps 1"),
        ("sensitivity", ["--iters", 10, "--burnin", 10],
         "burn-in must satisfy 0 <= burn_in < iterations, got 10 vs 10"),
        ("simulate", ["--iters", 0], "iterations must be >= 1, got 0"),
        # the prior settings the flags alone decide are checked before the read too
        ("analyze", ["--b0", 0], "a custom prior needs all four of --b0 --B0 --c0 --C0"),
        ("analyze", ["--b0", 0, "--B0", -1, "--c0", 1, "--C0", 1], "B0 must be > 0, got -1.0"),
        ("sensitivity", ["--presets", "wide"],
         "sensitivity needs at least two presets of distinct kinds, got ['wide']"),
        ("sensitivity", ["--presets", "wide,wide"],
         "sensitivity needs at least two presets of distinct kinds, got ['wide', 'wide']"),
        ("sensitivity", ["--presets", "wide,bogus"],
         "unknown preset kind 'bogus'; expected one of ('wide', 'medium', 'narrow')"),
        ("analyze", ["--prior", "narrow", "--b0", 1, "--B0", 4, "--c0", 0.5, "--C0", 0.5],
         "--prior cannot be combined with the custom prior flags --b0 --B0 --c0 --C0"),
        # the chain length is checked before simulate's own sizes
        ("simulate", ["--n", 1, "--iters", 0], "iterations must be >= 1, got 0"),
    ],
    ids=["analyze-no-sweeps", "analyze-one-kept-sweep", "sensitivity-burn-in-equals-iters",
         "simulate-no-sweeps", "analyze-partial-custom-prior", "analyze-negative-B0",
         "sensitivity-one-preset", "sensitivity-repeated-preset", "sensitivity-unknown-preset",
         "analyze-preset-and-custom-prior", "simulate-no-sweeps-and-one-row-groups"],
)
def test_bad_chain_flags_are_rejected_before_any_input_is_read_or_drawn(data_csv, tmp_path, monkeypatch,
                                                                        capsys, command, flags, message):
    def no_call(*args, **kwargs):
        raise AssertionError("the input was read or a dataset was drawn")

    for name in ("mixtt.cli.read_sample_csv", "mixtt.harness.generate_dataset"):
        monkeypatch.setattr(name, no_call)
    if command == "simulate":
        source = ["--scenario", "small", "--n", 30, "--datasets", 3]
    else:
        source = ["--input", data_csv]
    rc = run_cli(command, *source, "--output", tmp_path / "r.json", "--seed", 1, *flags)
    assert rc == 2
    assert capsys.readouterr().err == f"mixtt: error: {message}\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["analyze", "sensitivity", "simulate"])
def test_chain_too_large_for_memory_is_rejected_before_any_input_is_read(data_csv, tmp_path, monkeypatch,
                                                                        capsys, command):
    # no file is read and no dataset is drawn
    def no_input(*args, **kwargs):
        raise AssertionError("an input was read or drawn")

    for name in ("mixtt.cli.read_sample_csv", "mixtt.harness.generate_dataset"):
        monkeypatch.setattr(name, no_input)
    if command == "simulate":
        source = ["--scenario", "small", "--n", 30, "--datasets", 3]
    else:
        source = ["--input", data_csv]
    rc = run_cli(command, *source, "--output", tmp_path / "r.json", "--seed", 1,
                 "--iters", 100_000_000_000_000, "--burnin", 0)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("mixtt: error: Unable to allocate")
    assert err.rstrip().endswith("for an array with shape (4, 100000000000000) and data type float64")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("iters", [2**62, 10**19, 10**30])
@pytest.mark.parametrize("command", ["analyze", "sensitivity", "simulate"])
def test_chain_past_any_array_size_names_its_flags(data_csv, tmp_path, capsys, command, iters):
    # numpy refuses such a block with a ValueError of its own, before it tries to allocate
    source = ["--scenario", "small", "--n", 30, "--datasets", 3] if command == "simulate" else ["--input", data_csv]
    rc = run_cli(command, *source, "--output", tmp_path / "r.json", "--seed", 1, "--iters", iters, "--burnin", 1)
    assert rc == 2
    assert capsys.readouterr().err == (f"mixtt: error: --iters {iters} with --burnin 1 keeps {iters - 1} sweeps: "
                                       "a chain too large for memory\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, flags", [("analyze", ["--b0", 0]), ("sensitivity", ["--presets", "wide"])],
                         ids=["analyze-partial-custom-prior", "sensitivity-one-preset"])
def test_chain_too_large_for_memory_is_reported_before_the_commands_own_flags(data_csv, tmp_path, capsys,
                                                                              command, flags):
    rc = run_cli(command, "--input", data_csv, *flags, "--output", tmp_path / "r.json", "--seed", 1,
                 "--iters", 100_000_000_000_000, "--burnin", 0)
    assert rc == 2
    assert capsys.readouterr().err.startswith("mixtt: error: Unable to allocate")


@pytest.mark.parametrize(
    "command, flag, target",
    [("simulate", "--output", "missing/s.json"), ("analyze", "--plot-data", "missing/p.csv"),
     ("sensitivity", "--output", ".")],
)
def test_unwritable_output_rejected_before_any_chain(data_csv, tmp_path, monkeypatch, capsys,
                                                     command, flag, target):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain was started")

    monkeypatch.setattr("mixtt.cli.run_chain", no_chain)
    monkeypatch.setattr("mixtt.harness.run_chain", no_chain)
    outdir = tmp_path / "out"
    outdir.mkdir()
    paths = {"--output": outdir / "r.json", flag: outdir / target}
    if command == "simulate":
        source = ["--scenario", "small", "--n", 30, "--datasets", 3]
    else:
        source = ["--input", data_csv]
    rc = run_cli(command, *source, "--seed", 1, *[a for kv in paths.items() for a in kv])
    assert rc == 2
    assert f"{flag} must name a file in an existing directory" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


def test_report_does_not_depend_on_row_interleaving(tmp_path):
    rng = np.random.default_rng(0)
    rows1 = [f"{v!r},a\n" for v in rng.normal(15.0, 3.4, 300).tolist()]
    rows2 = [f"{v!r},b\n" for v in rng.normal(19.9, 5.8, 300).tolist()]
    layouts = {
        "grouped": rows1 + rows2,
        "interleaved": [row for pair in zip(rows1, rows2) for row in pair],
    }
    reports = []
    for name, rows in layouts.items():
        data, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        data.write_text("value,group\n" + "".join(rows))
        rc = run_cli("analyze", "--input", data, "--output", out,
                     "--seed", 1, "--iters", 600, "--burnin", 100)
        assert rc == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("existing", [False, True])
def test_write_json_failure_leaves_file_untouched(tmp_path, existing):
    path = tmp_path / "r.json"
    if existing:
        path.write_bytes(b"old report\n")
    with pytest.raises(ValueError):
        write_json({"x": float("inf")}, path)
    if existing:
        assert path.read_bytes() == b"old report\n"
    else:
        assert not path.exists()


def test_sensitivity_has_no_rope_flag(data_csv, tmp_path):
    # sensitivity reports no decisions, so a rope would be silently ignored
    with pytest.raises(SystemExit) as exc:
        run_cli("sensitivity", "--input", data_csv, "--seed", 4, "--rope=-5,5",
                "--output", tmp_path / "s.json")
    assert exc.value.code == 2


def test_sensitivity_deterministic(data_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = run_cli("sensitivity", "--input", data_csv, "--seed", 4, "--iters", 1200,
                     "--burnin", 400, "--output", out)
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_valid_alpha_reaches_every_report(data_csv, tmp_path):
    chain = ("--seed", 3, "--iters", 1000, "--burnin", 200, "--alpha", 0.9)
    out = tmp_path / "a.json"
    assert run_cli("analyze", "--input", data_csv, "--output", out, *chain) == 0
    analysis = json.loads(out.read_text())["analysis"]
    assert analysis["hpd"]["level"] == analysis["decision"]["alpha"] == 0.9
    out = tmp_path / "s.json"
    assert run_cli("simulate", "--scenario", "small", "--n", 20, "--datasets", 2, "--output", out, *chain) == 0
    study = json.loads(out.read_text())
    assert study["config"]["alpha"] == 0.9
    assert [r["hpd"]["level"] for r in study["records"]] == [0.9, 0.9]
    out = tmp_path / "p.json"
    assert run_cli("sensitivity", "--input", data_csv, "--output", out, *chain) == 0
    assert json.loads(out.read_text())["config"]["alpha"] == 0.9


def test_rope_flag_equals_syntax(data_csv, tmp_path):
    out = tmp_path / "r.json"
    rc = run_cli("analyze", "--input", data_csv, "--output", out, "--seed", 2,
                 "--iters", 1000, "--burnin", 200, "--rope=-0.5,0.5")
    assert rc == 0
    assert json.loads(out.read_text())["rope"] == [[-0.5, 0.5]]
