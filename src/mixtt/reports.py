"""File formats: CSV ingestion, JSON reports, and plot-data export.

Input CSV has a ``value,group`` header; the group column may hold any string
labels, and the first distinct label becomes group 1. Reports are JSON with
sorted keys and floats in shortest round-trip notation, so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .analysis import (
    DecisionOutcome,
    EffectSizeDraws,
    HpdInterval,
    PosteriorSummary,
    cohen_partition,
    density_grid,
)
from .errors import ParseError
from .gibbs import PosteriorChain
from .harness import PresetSummary, StudyResult
from .model import GroupedSample, IndependencePrior
from .welch import WelchResult


def read_sample_csv(path: str | Path) -> GroupedSample:
    """Read a two-column ``value,group`` CSV into a :class:`GroupedSample`.

    The header and every data row hold exactly two fields; blank lines are
    skipped.

    Raises
    ------
    ParseError
        On a malformed header, row, or value; messages carry line numbers.
    """
    values: list[float] = []
    labels: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        header = [h.strip().lower() for h in header]
        if header != ["value", "group"]:
            raise ParseError(f"{path}: line 1: expected header 'value,group', got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != 2:
                raise ParseError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
            try:
                value = float(row[0])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: not a number: {row[0]!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: line {lineno}: not a finite number: {row[0]!r}")
            values.append(value)
            labels.append(row[1].strip())
    if not values:
        raise ParseError(f"{path}: no data rows")
    try:
        return GroupedSample.from_labels(values, labels)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one analysis produced, plus the metadata to reproduce it."""

    summary: PosteriorSummary
    delta_mode: float
    decision: DecisionOutcome
    welch: WelchResult
    iterations: int
    burn_in: int
    seed: int
    prior: IndependencePrior
    preset_kind: str
    direction: str
    rope: tuple[tuple[float, float], ...]
    strict: bool
    n1: int
    n2: int
    parameter_summary: dict

    def to_dict(self) -> dict:
        hpd = self.summary.hpd
        return {
            "analysis": {
                **_summary_dict(self.summary),
                "delta_mode": self.delta_mode,
                "esr": {"lower": hpd.lower, "upper": hpd.upper},
                "decision": {
                    "status": self.decision.status,
                    "alpha": self.decision.alpha,
                    "strict": self.strict,
                },
                "welch": {
                    "t_statistic": self.welch.t_statistic,
                    "df": self.welch.df,
                    "p_value": self.welch.p_value,
                },
            },
            "chain": {
                "iterations": self.iterations,
                "burn_in": self.burn_in,
                "seed": self.seed,
                "prior": _prior_dict(self.prior),
                "preset": self.preset_kind,
                "direction": self.direction,
                "parameter_summary": self.parameter_summary,
            },
            "rope": [list(pair) for pair in self.rope],
            "input": {"n1": self.n1, "n2": self.n2},
        }


def _summary_dict(summary: PosteriorSummary) -> dict:
    hpd = summary.hpd
    return {
        "delta_mpe": summary.delta_mpe,
        "hpd": {"level": hpd.level, "lower": hpd.lower, "upper": hpd.upper},
        "pmp": {"cell": summary.pmp_label, "value": summary.pmp_value},
    }


def _prior_dict(prior: IndependencePrior) -> dict:
    return {"b0": prior.b0, "B0": prior.B0, "c0": prior.c0, "C0": prior.C0}


def study_result_dict(result: StudyResult) -> dict:
    """JSON-ready view of a study: config echo, aggregates, per-dataset records."""
    cfg = result.config
    return {
        "config": {
            "scenario": cfg.scenario.kind,
            "components": {
                "mu1": cfg.scenario.mu1,
                "sd1": cfg.scenario.sd1,
                "mu2": cfg.scenario.mu2,
                "sd2": cfg.scenario.sd2,
            },
            "true_delta": cfg.scenario.true_delta,
            "n_per_group": cfg.n_per_group,
            "n_datasets": cfg.n_datasets,
            "iterations": cfg.iterations,
            "burn_in": cfg.burn_in,
            "preset": cfg.preset.kind,
            "alpha": cfg.alpha,
            "rope": [list(pair) for pair in cfg.rope],
            "master_seed": cfg.master_seed,
            "direction": "g2-g1",
        },
        "aggregates": {
            "type_i_rate": result.type_i_rate,
            "type_ii_rate": result.type_ii_rate,
            "accepted_count": result.accepted_count,
            "rejected_count": result.rejected_count,
            "indeterminate_count": result.indeterminate_count,
            "mean_delta_mpe": result.mean_delta_mpe,
            "welch_rejection_rate": result.welch_rejection_rate,
        },
        "records": [
            {
                "index": r.index,
                "dataset_seed": r.dataset_seed,
                **_summary_dict(r.summary),
                "decision": r.decision,
                "strict_decision": r.strict_decision,
                "error": r.error,
                "welch_p": r.welch_p,
            }
            for r in result.records
        ],
    }


def sensitivity_dict(
    summaries: list[PresetSummary],
    differences: dict[tuple[str, str], float],
    iterations: int,
    burn_in: int,
    seed: int,
    alpha: float,
    n1: int,
    n2: int,
) -> dict:
    return {
        "config": {
            "iterations": iterations,
            "burn_in": burn_in,
            "seed": seed,
            "alpha": alpha,
            "n1": n1,
            "n2": n2,
            "direction": "g2-g1",
        },
        "presets": [
            {
                "preset": s.preset.kind,
                "prior": _prior_dict(s.prior),
                "chain_seed": s.chain_seed,
                **_summary_dict(s.summary),
            }
            for s in summaries
        ],
        "differences": [
            {"first": a, "second": b, "delta_mpe_difference": diff}
            for (a, b), diff in sorted(differences.items())
        ],
    }


def write_json(obj: dict, path: str | Path) -> None:
    """Serialize with sorted keys and a trailing newline; byte-stable per input."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_plot_data(deltas: EffectSizeDraws, hpd: HpdInterval, path: str | Path) -> None:
    """Write the effect-size density plus annotation rows as ``kind,x,y`` CSV.

    Density rows hold the :func:`~mixtt.analysis.density_grid` points and
    densities; annotation rows (HPD bounds and the conventional category
    boundaries) leave ``y`` empty.

    Raises
    ------
    DegenerateDraws
        If all draws are identical (no density estimate exists).
    """
    grid, dens = density_grid(deltas)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "x", "y"])
        for x, y in zip(grid, dens):
            writer.writerow(["density", repr(float(x)), repr(float(y))])
        writer.writerow(["hpd_lower", repr(hpd.lower), ""])
        writer.writerow(["hpd_upper", repr(hpd.upper), ""])
        for _, lo, _ in cohen_partition().cells:
            if math.isfinite(lo):
                writer.writerow(["rope_boundary", repr(lo), ""])


def chain_summary_dict(chain: PosteriorChain) -> dict:
    """Marginal means and standard deviations of the four parameters."""
    def stats(arr):
        return {"mean": float(arr.mean()), "sd": float(arr.std(ddof=1))}

    return {
        "mu1": stats(chain.mu1),
        "mu2": stats(chain.mu2),
        "sigma2_1": stats(chain.sigma2_1),
        "sigma2_2": stats(chain.sigma2_2),
    }
