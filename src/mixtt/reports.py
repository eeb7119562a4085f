"""File formats: CSV ingestion, JSON reports, and plot-data export.

Input CSV has a ``value,group`` header. Each value is a finite number without
``_`` digit separators; the group column holds exactly two distinct non-blank
labels, and the first label in the file becomes group 1. A report depends
only on each group's values in file order and on which label comes first,
not on how the two groups' rows are interleaved. Plain blocks of whole
lines are read in bulk until the first block that is not plain: one with a
quoted field, a CR line end, a NUL, a blank or whitespace-only line, or a
row that breaks a rule above. The compiled kernel parses a plain block in
one C pass (:func:`mixtt.gibbs._scan_block`): it takes only values of a
strict ASCII grammar, which its ``strtod`` and ``float()`` both round
correctly, and declines anything else, such as whitespace, ``inf`` or a
locale's other decimal point, so that numpy and ``float()`` split that block
instead, as they split every block without the kernel; the groups are the
same either way. The rest of the file is read row by row through the csv
module; a rejected row, or a csv-module error, names its line, and
undecodable text names its line and byte offset in the file.
Reports are JSON with sorted keys and floats in shortest round-trip
notation, so identical runs produce byte-identical files.

Three blocks recur below. A *summary* is ``delta_mpe`` (posterior mean of
the effect size), ``hpd`` (``level``, ``lower``, ``upper``: the shortest
interval holding ``level`` of the draws) and ``pmp`` (``cell``: the
conventional category holding ``delta_mpe``, ``value``: the share of draws
in that cell). A *prior* is ``b0``, ``B0`` (normal mean and variance of each
group mean) and ``c0``, ``C0`` (inverse-gamma shape and scale of each group
variance). A *rope* is a list holding one ``[lo, hi]`` pair.

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
  ``welch_p``. ``decision`` compares the HPD interval with the rope;
  ``strict_decision`` collapses indeterminate into rejected. ``error``
  classifies the three-valued ``decision`` against ``true_delta``.

``mixtt sensitivity`` (:func:`sensitivity_dict`) writes

- ``config``: ``iterations``, ``burn_in``, ``seed``, ``alpha``, ``n1``,
  ``n2`` and ``direction``;
- ``presets``: one object per preset in command-line order, holding
  ``preset``, ``prior``, ``chain_seed`` and a summary; the presets are
  distinct kinds (a repeated kind is rejected before any chain runs);
- ``differences``: one entry per pair of presets, sorted by the pair,
  holding ``first`` (the earlier on the command line), ``second`` and
  ``delta_mpe_difference`` (first minus second).

``mixtt analyze --plot-data`` (:func:`write_plot_rows`) writes a ``kind,x,y``
CSV: 512 ``density`` rows with the grid point and its kernel density, then
``hpd_lower`` and ``hpd_upper`` rows and one ``rope_boundary`` row per
finite category bound (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8), each with ``y``
empty. ``delta_mode`` is the density rows' peak, from the same grid.
"""

from __future__ import annotations

import csv
import io
import itertools
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
    classify_error,
    cohen_partition,
    density_grid,
    hpd_decision,
)
from .gibbs import ChainConfig, PosteriorChain, _scan_block
from .harness import DIRECTION, DatasetRecord, PresetSummary, StudyConfig
from .model import GroupedSample, IndependencePrior
from .welch import WelchResult


# characters the bulk pass takes per read, before completing the last line: enough to
# amortize the per-block numpy calls; 64 KiB read as fast as 256 KiB, with less peak memory
_BLOCK_CHARS = 1 << 16


def read_sample_csv(path: str | Path) -> GroupedSample:
    """Read a two-column ``value,group`` CSV into a :class:`GroupedSample`.

    The header and every data row hold exactly two fields; blank lines are
    skipped. Plain blocks are read in bulk until the first block that is not
    plain; the csv loop reads that block and the rest of the file row by row.

    Raises
    ------
    ValueError
        On a malformed header, row, or value, or undecodable text; a rejected
        row, or a csv-module error, names its line, and undecodable text its
        line and byte offset in the file.
    """
    groups: dict[str, list[np.ndarray]] = {}  # label -> its values in parts, in order of first appearance
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # tolerates a UTF-8 BOM
            header = next(csv.reader(fh), None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            header = [h.strip().lower() for h in header]
            if header != ["value", "group"]:
                raise ValueError(f"{path}: line 1: expected header 'value,group', got {','.join(header)!r}")
            lineno = 2  # the number of the next block's first row
            while block := fh.read(_BLOCK_CHARS):
                if not block.endswith("\n"):
                    block += fh.readline()  # complete the last line; only the file's last may lack a newline
                rows = _take_block(block, groups)
                if not rows:
                    _read_rows(path, itertools.chain(io.StringIO(block, newline=""), fh), lineno, groups)
                    break
                lineno += rows
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    except csv.Error as exc:  # in the header: the csv loop names its own rows' lines
        raise ValueError(f"{path}: line 1: {exc}") from None
    if not groups:
        raise ValueError(f"{path}: no data rows")
    try:  # one label leaves group 2 empty
        return GroupedSample(*[*map(np.concatenate, groups.values()), []][:2])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _undecodable(path: str | Path, exc: UnicodeDecodeError) -> ValueError:
    """The error for the file's first undecodable byte, naming its line and its offset in the file.

    ``exc``'s position counts from an internal read chunk, so the bytes are
    decoded again, on this error path only. Plain ``utf-8`` accepts the BOM, so
    its positions are the file's. Lines end at LF, CRLF or a lone CR.
    """
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as first:
        head = raw[: first.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return ValueError(f"{path}: line {line}: can't decode byte 0x{raw[first.start]:02x} "
                          f"at file offset {first.start}: {first.reason}")
    return ValueError(f"{path}: {exc}")  # the file changed since it was read


def _take_block(block: str, groups: dict[str, list[np.ndarray]]) -> int:
    """Add a plain block's values to ``groups`` and return its row count; 0 leaves ``groups`` as it was.

    A block is plain where the csv loop would read every line as the plain
    ``value,label`` pair it is: no quote, CR or NUL, exactly one comma, no
    line over the csv module's field size limit. Its values must pass the
    ``_`` and finite rules and parse as ``float()`` parses them; its labels
    must strip to non-blank ones, at most two with those already in
    ``groups``. Anything else, a blank line included, is left to the csv loop,
    so it alone words every error. The kernel's scan reads the block where it
    can (:func:`~mixtt.gibbs._scan_block`), and :func:`_split_block` where
    the kernel is absent or declines it; both give the same values and labels.
    """
    if '"' in block or "\r" in block or "\0" in block:
        return 0
    text = block.encode()
    limit = csv.field_size_limit()
    split = _scan_block(text, limit) or _split_block(block, text, limit)
    if split is None:
        return 0
    values, codes, labels = split
    index = {label: group for group, label in enumerate(groups)}  # stripped label -> group
    lookup = np.empty(len(labels), np.intp)  # raw label code -> group
    for code, label in enumerate(labels):
        stripped = label.strip()
        if not stripped:
            return 0
        lookup[code] = index.setdefault(stripped, len(index))
    if len(index) > 2:
        return 0
    first = lookup[codes] == 0
    for label, part in zip(index, (values[first], values[~first])):
        groups.setdefault(label, []).append(part)
    return values.size


def _split_block(block: str, text: bytes, limit: int) -> tuple[np.ndarray, np.ndarray, list[str]] | None:
    """:func:`~mixtt.gibbs._scan_block`'s result for ``block``, whose UTF-8 is ``text``, from numpy and ``float()``.

    It takes every value ``float()`` reads as a finite number without ``_``,
    and any number of raw labels; None where a line holds other than one
    comma, is over ``limit`` bytes or has another value.
    """
    body = block.removesuffix("\n")
    # ',' and '\n' are single bytes in UTF-8 and occur in no other character's encoding
    raw = np.frombuffer(text.removesuffix(b"\n"), np.uint8)
    newlines = np.flatnonzero(raw == ord("\n"))
    starts, ends = np.append(0, newlines + 1), np.append(newlines, raw.size)
    commas = np.flatnonzero(raw == ord(","))
    # n commas for n lines, comma i inside line i: every line holds exactly one. A line's
    # length in bytes bounds its fields' lengths in characters
    if (commas.size != starts.size or (commas < starts).any() or (commas >= ends).any()
            or (ends - starts).max() > limit):
        return None
    fields = body.replace("\n", ",").split(",")
    values, labels = fields[0::2], fields[1::2]
    if "_" in block and "_" in "".join(values):  # float() would read 1_0 as 10
        return None
    try:
        v = np.array(values, dtype=float)
    except ValueError:  # a value float() rejects
        return None
    if not np.isfinite(v).all():
        return None
    codes = {label: code for code, label in enumerate(dict.fromkeys(labels))}  # raw label -> code
    return v, np.fromiter(map(codes.__getitem__, labels), dtype=np.intp, count=len(labels)), [*codes]


def _read_rows(path: str | Path, lines, lineno: int, groups: dict[str, list[np.ndarray]]) -> None:
    """The csv loop: add the rows of ``lines``, the first numbered ``lineno``, to ``groups``."""
    tails: dict[str, list[float]] = {label: [] for label in groups}  # label -> the values read here
    lineno -= 1  # the last row read
    try:
        for lineno, row in enumerate(csv.reader(lines), start=lineno + 1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
            try:
                if "_" in row[0]:  # float() would read 1_0 as 10
                    raise ValueError
                value = float(row[0])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a number: {row[0]!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: line {lineno}: not a finite number: {row[0]!r}")
            label = row[1].strip()
            if not label:
                raise ValueError(f"{path}: line {lineno}: empty group label")
            if label not in tails and len(tails) == 2:
                raise ValueError(f"{path}: line {lineno}: more than two group labels: {[*tails, label]!r}")
            tails.setdefault(label, []).append(value)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {lineno + 1}: {exc}") from None
    for label, tail in tails.items():
        groups.setdefault(label, []).append(np.array(tail, dtype=float))


def analysis_dict(
    config: ChainConfig,
    chain: PosteriorChain,
    summary: PosteriorSummary,
    delta_mode: float,
    welch: WelchResult,
    preset_kind: str,
    direction: str,
    rope: tuple[float, float],
    strict: bool,
) -> dict:
    """JSON-ready report of one analysis: summaries, the chain that ran, and its input sizes."""
    hpd = summary.hpd
    return {
        "analysis": {
            **_summary_dict(summary),
            "delta_mode": delta_mode,
            "esr": {"lower": hpd.lower, "upper": hpd.upper},
            "decision": {"status": hpd_decision(hpd, rope, strict), "alpha": hpd.level, "strict": strict},
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
        "rope": [list(rope)],
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
    """JSON-ready view of a study: config echo, aggregates, per-dataset records.

    Each row derives its three-valued and strict decisions from the
    record's HPD interval and the study's rope, and its error class from the
    three-valued decision and the scenario's true effect size: an interval
    that merely straddles the rope boundary is indeterminate, not a false
    positive. The aggregates are counted from those same rows.
    """
    rows = []
    for r in records:
        decision = hpd_decision(r.summary.hpd, config.rope)
        rows.append({
            "index": r.index,
            "dataset_seed": r.dataset_seed,
            **_summary_dict(r.summary),
            "decision": decision,
            "strict_decision": hpd_decision(r.summary.hpd, config.rope, strict=True),
            "error": classify_error(config.scenario.true_delta, config.rope, decision),
            "welch_p": r.welch_p,
        })
    n = len(rows)
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
            "rope": [list(config.rope)],
            "master_seed": config.master_seed,
            "direction": DIRECTION,
        },
        "aggregates": {
            "type_i_rate": sum(row["error"] == ERROR_TYPE_I for row in rows) / n,
            "type_ii_rate": sum(row["error"] == ERROR_TYPE_II for row in rows) / n,
            "accepted_count": sum(row["decision"] == DECISION_ACCEPTED for row in rows),
            "rejected_count": sum(row["decision"] == DECISION_REJECTED for row in rows),
            "indeterminate_count": sum(row["decision"] == DECISION_INDETERMINATE for row in rows),
            "mean_delta_mpe": sum(row["delta_mpe"] for row in rows) / n,
            "welch_rejection_rate": sum(row["welch_p"] < 0.05 for row in rows) / n,
        },
        "records": rows,
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
    boundaries) leave ``y`` empty. ``mixtt analyze`` writes the grid it took its
    mode from (:func:`write_plot_rows`); this form stays for the benchmark's layer ladder.

    Raises
    ------
    ValueError
        If all draws are identical (no density estimate exists).
    """
    write_plot_rows(*density_grid(deltas), hpd, path)


def write_plot_rows(grid: np.ndarray, dens: np.ndarray, hpd: HpdInterval, path: str | Path) -> None:
    """Write density rows for ``grid`` and ``dens``, then the annotation rows, as ``kind,x,y`` CSV.

    The rows are joined in one write, in the bytes ``csv.writer`` gives them:
    CRLF line ends, and no field needs quoting.
    """
    rows = ["kind,x,y", *(f"density,{x!r},{y!r}" for x, y in zip(grid.tolist(), dens.tolist())),
            f"hpd_lower,{hpd.lower!r},", f"hpd_upper,{hpd.upper!r},",
            *(f"rope_boundary,{lo!r}," for _, lo, _ in cohen_partition() if math.isfinite(lo))]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(rows) + "\r\n")
