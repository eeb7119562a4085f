"""Command-line front end.

Three subcommands: ``analyze`` fits one dataset and writes a report,
``simulate`` runs a Monte Carlo study over a built-in scenario, and
``sensitivity`` compares prior presets on the same data. Every command
requires ``--seed``; there is no wall-clock seeding, so rerunning a command
with identical flags produces byte-identical output files.

Exit status is 0 on success. Any rejected input, unreadable file, output
that is a directory or in a missing directory (rejected before any chain
runs), or run too large for memory (``--iters`` or ``--n`` whose arrays
cannot be allocated; every command finds a too large ``--iters`` before it
reads or draws anything, and names ``--iters``, ``--burnin`` and the kept
sweeps where numpy refuses the chain's block outright) exits 2 with
``mixtt: error: <message>`` on stderr; argparse usage errors also exit 2.
Undecodable input text names its line and byte offset in the file. A
traceback means a defect.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import DIRECTIONS, check_level, check_rope, density_grid, effect_size_series, summarize
from .distributions import check_seed
from .gibbs import ChainConfig, chain_block, check_chain_length, run_chain
from .harness import (
    DEFAULT_ALPHA,
    DEFAULT_BURN_IN,
    DEFAULT_ITERATIONS,
    DEFAULT_ROPE,
    DIRECTION,
    SCENARIO_KINDS,
    Scenario,
    StudyConfig,
    check_presets,
    prior_sensitivity,
    run_study,
)
from .model import PRESET_KINDS, IndependencePrior, PriorPreset, realize_preset
from .reports import (
    analysis_dict, read_sample_csv, sensitivity_dict, study_result_dict, write_json, write_plot_rows,
)
from .welch import welch_t_test


def _flag_type(check, convert=float):
    """An argparse ``type`` giving ``check(convert(text))``; a ValueError becomes the flag's error."""
    def parse(text: str):
        try:
            return check(convert(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iters", type=int, default=DEFAULT_ITERATIONS, help="total sweeps per chain")
    p.add_argument("--burnin", type=int, default=DEFAULT_BURN_IN, help="sweeps discarded up front")
    p.add_argument("--seed", type=_flag_type(check_seed, int), required=True,
                   help="master seed; required, no wall-clock fallback")
    p.add_argument("--alpha", type=_flag_type(check_level), default=DEFAULT_ALPHA,
                   help="credible level for HPD and decisions")


def _add_rope_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--rope",
        type=_flag_type(check_rope, lambda text: tuple(map(float, text.split(",")))),
        default=DEFAULT_ROPE,
        metavar="LO,HI",
        help="no-effect region for decisions (use --rope=LO,HI for negative bounds)",
    )


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
    # None, not "wide", so that cmd_analyze can tell a given --prior from the default
    p_an.add_argument("--prior", choices=PRESET_KINDS, default=None, help="data-scaled prior preset")
    p_an.add_argument("--b0", type=float, default=None, help="custom prior mean of the group means")
    p_an.add_argument("--B0", type=float, default=None, help="custom prior variance of the group means")
    p_an.add_argument("--c0", type=float, default=None, help="custom inverse-gamma shape for the variances")
    p_an.add_argument("--C0", type=float, default=None, help="custom inverse-gamma scale for the variances")

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
    """Reject two flags naming one file, or an output that is a directory or in a missing one."""
    seen: dict[Path, str] = {}
    for flag, value in flags:
        if value is None:
            continue
        path = Path(value).resolve()
        if path in seen:
            raise ValueError(f"{seen[path]} and {flag} name the same file: {value}")
        if flag != "--input" and (path.is_dir() or not path.parent.is_dir()):
            raise ValueError(f"{flag} must name a file in an existing directory: {value}")
        seen[path] = flag


def cmd_analyze(args: argparse.Namespace) -> None:
    if args.iters - args.burnin < 2:
        raise ValueError(f"the density estimate needs at least 2 kept sweeps; --iters {args.iters} "
                         f"with --burnin {args.burnin} keeps 1")
    custom = [value for value in (args.b0, args.B0, args.c0, args.C0) if value is not None]
    if custom and args.prior is not None:
        raise ValueError("--prior cannot be combined with the custom prior flags --b0 --B0 --c0 --C0")
    if 0 < len(custom) < 4:
        raise ValueError("a custom prior needs all four of --b0 --B0 --c0 --C0")
    prior = IndependencePrior(*custom) if custom else None
    preset = "custom" if custom else args.prior or "wide"
    sample = read_sample_csv(args.input)
    if prior is None:
        prior = realize_preset(PriorPreset(preset), sample)
    welch = welch_t_test(sample)  # fails on a one-row group before any chain runs
    config = ChainConfig(args.iters, args.burnin, args.seed, prior)
    chain = run_chain(sample, config)
    summary = summarize(chain, args.direction, args.alpha)  # fails on a draw past the largest float, before the density
    # one evaluation gives the mode and the plot rows
    grid, dens = density_grid(effect_size_series(chain, args.direction))
    report = analysis_dict(
        config, chain, summary, float(grid[dens.argmax()]), welch,
        preset, args.direction, args.rope, args.strict_decision,
    )
    write_json(report, args.output)
    if args.plot_data is not None:
        write_plot_rows(grid, dens, summary.hpd, args.plot_data)


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
    presets = check_presets(PriorPreset(name.strip()) for name in args.presets.split(",") if name.strip())
    sample = read_sample_csv(args.input)
    records = prior_sensitivity(sample, presets, args.seed, args.iters, args.burnin, args.alpha)
    write_json(sensitivity_dict(records, args.seed, sample.n1, sample.n2), args.output)


_COMMANDS = {"analyze": cmd_analyze, "simulate": cmd_simulate, "sensitivity": cmd_sensitivity}
# the file flags and their argparse dests; a command without one of them reads it as None
_PATH_FLAGS = (("--input", "input"), ("--output", "output"), ("--plot-data", "plot_data"))
# main's parser, built on its first call: parsing leaves no state in it, and help reads the terminal width when printed
_parser = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # the checks every command shares, before any command reads or draws
        _check_distinct_paths(*((flag, getattr(args, dest, None)) for flag, dest in _PATH_FLAGS))
        kept = check_chain_length(args.iters, args.burnin)
        try:
            chain_block(kept)  # a chain too large for memory fails here
        except ValueError:  # numpy's, for a block past any array size: "Maximum allowed dimension exceeded"
            raise MemoryError(f"--iters {args.iters} with --burnin {args.burnin} keeps {kept} sweeps: "
                              "a chain too large for memory") from None
        _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"mixtt: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
