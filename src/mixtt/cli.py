"""Command-line front end.

Three subcommands: ``analyze`` fits one dataset and writes a report,
``simulate`` runs a Monte Carlo study over a built-in scenario, and
``sensitivity`` compares prior presets on the same data. Every command
requires ``--seed``; there is no wall-clock seeding, so rerunning a command
with identical flags produces byte-identical output files.

Exit status is 0 on success. Any rejected input or unreadable file exits 2
with ``mixtt: error: <message>`` on stderr; an argparse usage error also
exits 2, with argparse's usage and error lines. A traceback means a defect.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .analysis import DIRECTIONS, effect_size_series, posterior_mode, summarize
from .gibbs import ChainConfig, run_chain
from .harness import (
    DEFAULT_ALPHA,
    DEFAULT_BURN_IN,
    DEFAULT_ITERATIONS,
    DEFAULT_ROPE,
    DIRECTION,
    SCENARIO_KINDS,
    Scenario,
    StudyConfig,
    prior_sensitivity,
    run_study,
)
from .model import PRESET_KINDS, GroupedSample, IndependencePrior, PriorPreset, realize_preset
from .reports import (
    analysis_dict,
    read_sample_csv,
    sensitivity_dict,
    study_result_dict,
    write_json,
    write_plot_data,
)
from .welch import welch_t_test


def _parse_rope(text: str) -> tuple[tuple[float, float], ...]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers in LO,HI, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"rope bounds must be finite, got {text!r}")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"rope needs LO < HI, got {text!r}")
    return ((lo, hi),)


def _parse_alpha(text: str) -> float:
    try:
        alpha = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < alpha <= 1.0:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"credible level must be in (0, 1], got {text!r}")
    return alpha


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iters", type=int, default=DEFAULT_ITERATIONS, help="total sweeps per chain")
    p.add_argument("--burnin", type=int, default=DEFAULT_BURN_IN, help="sweeps discarded up front")
    p.add_argument("--seed", type=int, required=True, help="master seed; required, no wall-clock fallback")
    p.add_argument("--alpha", type=_parse_alpha, default=DEFAULT_ALPHA,
                   help="credible level for HPD and decisions")


def _add_rope_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--rope",
        type=_parse_rope,
        default=DEFAULT_ROPE,
        metavar="LO,HI",
        help="no-effect region for decisions (use --rope=LO,HI for negative bounds)",
    )


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prior", choices=PRESET_KINDS, default="wide",
                   help="data-scaled prior preset")
    p.add_argument("--b0", type=float, default=None, help="custom prior mean of the group means")
    p.add_argument("--B0", type=float, default=None, help="custom prior variance of the group means")
    p.add_argument("--c0", type=float, default=None, help="custom inverse-gamma shape for the variances")
    p.add_argument("--C0", type=float, default=None, help="custom inverse-gamma scale for the variances")


def _prior_from_args(args: argparse.Namespace, sample: GroupedSample) -> tuple[IndependencePrior, str]:
    """The prior for ``analyze`` and the preset name its report gives it."""
    custom = (args.b0, args.B0, args.c0, args.C0)
    if all(v is None for v in custom):
        return realize_preset(PriorPreset(args.prior), sample), args.prior
    if any(v is None for v in custom):
        raise ValueError("a custom prior needs all four of --b0 --B0 --c0 --C0")
    return IndependencePrior(*custom), "custom"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixtt",
        description="Bayesian two-group effect-size estimation with ROPE/HPD summaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="fit one CSV dataset and write a JSON report")
    p_an.add_argument("--input", required=True, help="CSV file with a value,group header")
    p_an.add_argument("--output", required=True, help="where to write the JSON report")
    p_an.add_argument("--plot-data", default=None, help="also write a kind,x,y density CSV here")
    p_an.add_argument("--direction", choices=DIRECTIONS, default=DIRECTION,
                      help="sign convention for the reported effect size")
    p_an.add_argument("--strict-decision", action="store_true",
                      help="collapse boundary-straddling decisions into rejections")
    _add_chain_flags(p_an)
    _add_rope_flag(p_an)
    _add_prior_flags(p_an)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study over a built-in scenario")
    p_sim.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
    p_sim.add_argument("--n", type=int, required=True, help="observations per group")
    p_sim.add_argument("--datasets", type=int, required=True, help="number of simulated datasets")
    p_sim.add_argument("--output", required=True, help="where to write the JSON study result")
    _add_chain_flags(p_sim)
    _add_rope_flag(p_sim)
    p_sim.add_argument("--prior", choices=PRESET_KINDS, default="wide")

    p_sen = sub.add_parser("sensitivity", help="compare prior presets on the same data")
    p_sen.add_argument("--input", required=True, help="CSV file with a value,group header")
    p_sen.add_argument("--output", required=True, help="where to write the JSON comparison")
    p_sen.add_argument("--presets", default=",".join(PRESET_KINDS),
                       help="comma-separated preset names (at least two)")
    _add_chain_flags(p_sen)

    return parser


def _check_distinct_paths(*flags: tuple[str, str | None]) -> None:
    """Reject two (flag, path) pairs that resolve to the same file; run before any read."""
    seen: dict[Path, str] = {}
    for flag, value in flags:
        if value is None:
            continue
        path = Path(value).resolve()
        if path in seen:
            raise ValueError(f"{seen[path]} and {flag} name the same file: {value}")
        seen[path] = flag


def cmd_analyze(args: argparse.Namespace) -> None:
    _check_distinct_paths(
        ("--input", args.input), ("--output", args.output), ("--plot-data", args.plot_data))
    sample = read_sample_csv(args.input)
    prior, preset_kind = _prior_from_args(args, sample)
    welch = welch_t_test(sample)  # fails on a one-row group before any chain runs
    config = ChainConfig(args.iters, args.burnin, args.seed, prior)
    chain = run_chain(sample, config)
    deltas = effect_size_series(chain, direction=args.direction)
    summary = summarize(deltas, args.alpha)
    report = analysis_dict(
        config, chain, summary, posterior_mode(deltas), welch,
        preset_kind, args.direction, args.rope, args.strict_decision,
    )
    write_json(report, args.output)
    if args.plot_data is not None:
        write_plot_data(deltas, summary.hpd, args.plot_data)


def cmd_simulate(args: argparse.Namespace) -> None:
    config = StudyConfig(
        scenario=Scenario.named(args.scenario),
        n_per_group=args.n,
        n_datasets=args.datasets,
        master_seed=args.seed,
        iterations=args.iters,
        burn_in=args.burnin,
        preset=PriorPreset(args.prior),
        alpha=args.alpha,
        rope=args.rope,
    )
    write_json(study_result_dict(config, run_study(config)), args.output)


def cmd_sensitivity(args: argparse.Namespace) -> None:
    _check_distinct_paths(("--input", args.input), ("--output", args.output))
    sample = read_sample_csv(args.input)
    presets = [PriorPreset(name.strip()) for name in args.presets.split(",") if name.strip()]
    records = prior_sensitivity(sample, presets, args.seed, args.iters, args.burnin, args.alpha)
    write_json(sensitivity_dict(records, args.seed, sample.n1, sample.n2), args.output)


_COMMANDS = {"analyze": cmd_analyze, "simulate": cmd_simulate, "sensitivity": cmd_sensitivity}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"mixtt: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
