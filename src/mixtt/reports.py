"""File formats: CSV ingestion, JSON reports, and plot-data export.

Input CSV has a ``value,group`` header; the group column may hold any string
labels, and the first distinct label becomes group 1. Reports are JSON with
sorted keys and floats in shortest round-trip notation, so identical runs
produce byte-identical files.

Three blocks recur below. A *summary* is ``delta_mpe`` (posterior mean of
the effect size), ``hpd`` (``level``, ``lower``, ``upper``: the shortest
interval holding ``level`` of the draws) and ``pmp`` (``cell``: the
conventional category holding ``delta_mpe``, ``value``: the share of draws
in that cell). A *prior* is ``b0``, ``B0`` (normal mean and variance of each
group mean) and ``c0``, ``C0`` (inverse-gamma shape and scale of each group
variance). A *rope* is a list of ``[lo, hi]`` pairs.

``mixtt analyze`` (:func:`analysis_dict`) writes

- ``analysis``: a summary, plus ``delta_mode`` (posterior mode), ``esr``
  (``lower``, ``upper``: the HPD bounds again), ``decision`` (``status``:
  ``accepted``, ``rejected`` or ``indeterminate``; ``alpha``: the HPD level;
  ``strict``: whether indeterminate was collapsed into rejected) and
  ``welch`` (``t_statistic``, ``df``, ``p_value``, two-sided);
- ``chain``: ``iterations``, ``burn_in``, ``seed``, ``prior``, ``preset``
  (``wide``, ``medium``, ``narrow`` or ``custom``), ``direction`` (``g2-g1``
  or ``g1-g2``) and ``parameter_summary``, which maps each of ``mu1``,
  ``mu2``, ``sigma2_1`` and ``sigma2_2`` to the ``mean`` and ``sd`` of its
  post-burn-in draws;
- ``rope``: the rope the decision used;
- ``input``: the group sizes ``n1`` and ``n2``.

``mixtt simulate`` (:func:`study_result_dict`) writes

- ``config``: ``scenario``, ``components`` (``mu1``, ``sd1``, ``mu2``,
  ``sd2``), ``true_delta``, ``n_per_group``, ``n_datasets``,
  ``iterations``, ``burn_in``, ``preset``, ``alpha``, ``rope``,
  ``master_seed`` and ``direction``;
- ``aggregates``: ``type_i_rate`` and ``type_ii_rate`` (shares of datasets
  with that error), ``accepted_count``, ``rejected_count`` and
  ``indeterminate_count``, ``mean_delta_mpe``, and ``welch_rejection_rate``
  (share with Welch p below 0.05);
- ``records``: one object per dataset in index order, holding ``index``,
  ``dataset_seed``, a summary, ``decision``, ``strict_decision`` (accepted
  or rejected), ``error`` (``type-I``, ``type-II`` or ``none``) and
  ``welch_p``.

``mixtt sensitivity`` (:func:`sensitivity_dict`) writes

- ``config``: ``iterations``, ``burn_in``, ``seed``, ``alpha``, ``n1``,
  ``n2`` and ``direction``;
- ``presets``: one object per preset in command-line order, holding
  ``preset``, ``prior``, ``chain_seed`` and a summary; the presets are
  distinct kinds (a repeated kind is rejected before any chain runs);
- ``differences``: one entry per pair of presets, sorted by the pair,
  holding ``first`` (the earlier on the command line), ``second`` and
  ``delta_mpe_difference`` (first minus second).

``mixtt analyze --plot-data`` (:func:`write_plot_data`) writes a ``kind,x,y``
CSV: 512 ``density`` rows with the grid point and its kernel density, then
``hpd_lower`` and ``hpd_upper`` rows and one ``rope_boundary`` row per
finite category bound (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8), each with ``y``
empty.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

from .analysis import (
    DECISION_ACCEPTED,
    DECISION_INDETERMINATE,
    DECISION_REJECTED,
    ERROR_TYPE_I,
    ERROR_TYPE_II,
    HpdInterval,
    PosteriorSummary,
    cohen_partition,
    density_grid,
)
from .errors import ParseError
from .gibbs import ChainConfig, PosteriorChain
from .harness import DIRECTION, DatasetRecord, PresetSummary, StudyConfig
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
    distinct: dict[str, None] = {}  # labels in order of first appearance
    with open(path, newline="", encoding="utf-8-sig") as fh:  # tolerates a UTF-8 BOM
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
            if labels[-1] not in distinct:
                distinct[labels[-1]] = None
                if len(distinct) > 2:
                    raise ParseError(f"{path}: line {lineno}: more than two group labels: {[*distinct]!r}")
    if not values:
        raise ParseError(f"{path}: no data rows")
    try:
        return GroupedSample.from_labels(values, labels)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def analysis_dict(
    config: ChainConfig,
    chain: PosteriorChain,
    summary: PosteriorSummary,
    delta_mode: float,
    decision: str,
    welch: WelchResult,
    preset_kind: str,
    direction: str,
    rope: tuple[tuple[float, float], ...],
    strict: bool,
) -> dict:
    """JSON-ready report of one analysis: summaries, the chain that ran, and its input sizes."""
    hpd = summary.hpd
    return {
        "analysis": {
            **_summary_dict(summary),
            "delta_mode": delta_mode,
            "esr": {"lower": hpd.lower, "upper": hpd.upper},
            "decision": {"status": decision, "alpha": hpd.level, "strict": strict},
            "welch": {
                "t_statistic": welch.t_statistic,
                "df": welch.df,
                "p_value": welch.p_value,
            },
        },
        "chain": {
            "iterations": config.iterations,
            "burn_in": config.burn_in,
            "seed": config.seed,
            "prior": _prior_dict(config.prior),
            "preset": preset_kind,
            "direction": direction,
            "parameter_summary": {
                name: {"mean": float(draws.mean()), "sd": float(draws.std(ddof=1))}
                for name, draws in (
                    ("mu1", chain.mu1),
                    ("mu2", chain.mu2),
                    ("sigma2_1", chain.sigma2_1),
                    ("sigma2_2", chain.sigma2_2),
                )
            },
        },
        "rope": [list(pair) for pair in rope],
        "input": {"n1": chain.stats.n1, "n2": chain.stats.n2},
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


def study_result_dict(config: StudyConfig, records: tuple[DatasetRecord, ...]) -> dict:
    """JSON-ready view of a study: config echo, aggregates, per-dataset records."""
    n = len(records)
    return {
        "config": {
            "scenario": config.scenario.kind,
            "components": {
                "mu1": config.scenario.mu1,
                "sd1": config.scenario.sd1,
                "mu2": config.scenario.mu2,
                "sd2": config.scenario.sd2,
            },
            "true_delta": config.scenario.true_delta,
            "n_per_group": config.n_per_group,
            "n_datasets": config.n_datasets,
            "iterations": config.iterations,
            "burn_in": config.burn_in,
            "preset": config.preset.kind,
            "alpha": config.alpha,
            "rope": [list(pair) for pair in config.rope],
            "master_seed": config.master_seed,
            "direction": DIRECTION,
        },
        "aggregates": {
            "type_i_rate": sum(r.error == ERROR_TYPE_I for r in records) / n,
            "type_ii_rate": sum(r.error == ERROR_TYPE_II for r in records) / n,
            "accepted_count": sum(r.decision == DECISION_ACCEPTED for r in records),
            "rejected_count": sum(r.decision == DECISION_REJECTED for r in records),
            "indeterminate_count": sum(r.decision == DECISION_INDETERMINATE for r in records),
            "mean_delta_mpe": sum(r.summary.delta_mpe for r in records) / n,
            "welch_rejection_rate": sum(r.welch_p < 0.05 for r in records) / n,
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
            for r in records
        ],
    }


def sensitivity_dict(records: tuple[PresetSummary, ...], seed: int, n1: int, n2: int) -> dict:
    """JSON-ready view of a sensitivity comparison: config echo, presets, pairwise differences."""
    config = records[0].config
    differences = sorted(
        (a.kind, b.kind, a.summary.delta_mpe - b.summary.delta_mpe) for a, b in combinations(records, 2)
    )
    return {
        "config": {
            "iterations": config.iterations,
            "burn_in": config.burn_in,
            "seed": seed,
            "alpha": records[0].summary.hpd.level,
            "n1": n1,
            "n2": n2,
            "direction": DIRECTION,
        },
        "presets": [
            {
                "preset": r.kind,
                "prior": _prior_dict(r.config.prior),
                "chain_seed": r.config.seed,
                **_summary_dict(r.summary),
            }
            for r in records
        ],
        "differences": [
            {"first": a, "second": b, "delta_mpe_difference": diff} for a, b, diff in differences
        ],
    }


def write_json(obj: dict, path: str | Path) -> None:
    """Serialize with sorted keys and a trailing newline; byte-stable per input.

    The text is formed before the file is opened, so a failure leaves the path as it was.
    """
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_plot_data(deltas: np.ndarray, hpd: HpdInterval, path: str | Path) -> None:
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
        for _, lo, _ in cohen_partition():
            if math.isfinite(lo):
                writer.writerow(["rope_boundary", repr(lo), ""])
