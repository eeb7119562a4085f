"""Output checks for the benchmark's CLI calls.

The checks hold for any correct chain, whatever random stream it used, so
they survive changes that legitimately shift the draws (a new sweep kernel,
a lockstep engine). They never compare against stored floats. Each takes
the parsed CLI output plus the plug-in Cohen's d of the call's input data
and raises :class:`CheckFailed` on the first violation.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

# Conventional effect-size bands (Cohen): cells are [lower, upper).
COHEN_BOUNDS = (-0.8, -0.5, -0.2, 0.2, 0.5, 0.8)
COHEN_CELLS = (
    "large-negative", "medium-negative", "small-negative", "none", "small", "medium", "large",
)

# |delta_MPE - plug-in d| may be at most this share of the HPD width. In two
# sets of 36 datasets (all four scenarios, n = 10/50/300, wide prior) the
# worst ratio was 0.05-0.06, so a pass leaves a wide margin and a sign flip
# or a wrong standardizer still fails.
PLUGIN_TOLERANCE = 0.25


class CheckFailed(AssertionError):
    """An output violated an invariant that every correct run satisfies."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def plugin_d(group1, group2) -> float:
    """Plug-in Cohen's d in the CLI's g2-g1 direction, pooled sd with divisor n1+n2-2."""
    g1 = np.asarray(group1, dtype=float)
    g2 = np.asarray(group2, dtype=float)
    n1, n2 = g1.size, g2.size
    pooled = ((n1 - 1) * g1.var(ddof=1) + (n2 - 1) * g2.var(ddof=1)) / (n1 + n2 - 2)
    return float((g2.mean() - g1.mean()) / math.sqrt(pooled))


def cohen_cell(x: float) -> str:
    return COHEN_CELLS[bisect.bisect_right(COHEN_BOUNDS, x)]


def implied_decision(lower: float, upper: float, rope, strict: bool) -> str:
    """The decision an HPD [lower, upper] implies against a union of rope intervals."""
    if any(lo <= lower and upper <= hi for lo, hi in rope):
        return "accepted"
    if all(upper < lo or hi < lower for lo, hi in rope):
        return "rejected"
    return "rejected" if strict else "indeterminate"


def check_finite(obj, where: str = "output") -> None:
    """Every number anywhere in a parsed JSON document is finite."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            check_finite(value, f"{where}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            check_finite(value, f"{where}[{i}]")
    elif isinstance(obj, float):
        require(math.isfinite(obj), f"{where} is not finite: {obj}")


def check_effect(delta: float, hpd: dict, pmp: dict, plugin: float, where: str) -> None:
    """Checks shared by every effect-size summary: HPD, PMP cell and plug-in agreement."""
    lower, upper = hpd["lower"], hpd["upper"]
    require(lower <= delta <= upper, f"{where}: delta_mpe {delta} outside HPD [{lower}, {upper}]")
    require(pmp["cell"] == cohen_cell(delta),
            f"{where}: PMP cell {pmp['cell']!r} does not contain delta_mpe {delta}")
    require(0.0 <= pmp["value"] <= 1.0, f"{where}: PMP mass {pmp['value']} outside [0, 1]")
    gap = abs(delta - plugin)
    require(gap <= PLUGIN_TOLERANCE * (upper - lower),
            f"{where}: |delta_mpe - plug-in d| = {gap:.4g} exceeds "
            f"{PLUGIN_TOLERANCE} x HPD width {upper - lower:.4g} (plug-in d = {plugin:.4g})")


def check_analyze(report: dict, plot_rows: list[list[str]], plugin: float) -> None:
    """Checks for ``mixtt analyze --plot-data``: the report and its density CSV."""
    check_finite(report)
    a = report["analysis"]
    hpd = a["hpd"]
    check_effect(a["delta_mpe"], hpd, a["pmp"], plugin, "analyze")
    require(a["esr"] == {"lower": hpd["lower"], "upper": hpd["upper"]}, "analyze: esr differs from the HPD")
    status = implied_decision(hpd["lower"], hpd["upper"], report["rope"], a["decision"]["strict"])
    require(a["decision"]["status"] == status,
            f"analyze: decision {a['decision']['status']!r}, but HPD and rope imply {status!r}")
    require(plot_rows and plot_rows[0] == ["kind", "x", "y"], "plot data: bad header")
    density = [row for row in plot_rows[1:] if row[0] == "density"]
    require(len(density) > 0, "plot data: no density rows")
    for row in density:
        x, y = float(row[1]), float(row[2])
        require(math.isfinite(x) and math.isfinite(y) and y >= 0.0, f"plot data: bad density row {row}")
    bounds = {row[0]: float(row[1]) for row in plot_rows[1:] if row[0] in ("hpd_lower", "hpd_upper")}
    require(bounds == {"hpd_lower": hpd["lower"], "hpd_upper": hpd["upper"]},
            "plot data: HPD rows differ from the report")


def check_study(result: dict, plugins: list[float]) -> None:
    """Checks for ``mixtt simulate``; ``plugins`` holds each record's plug-in d in order."""
    check_finite(result)
    records = result["records"]
    cfg = result["config"]
    require(len(records) == cfg["n_datasets"] == len(plugins),
            f"study: {len(records)} records for {cfg['n_datasets']} datasets")
    for r, plugin in zip(records, plugins):
        where = f"study record {r['index']}"
        hpd = r["hpd"]
        check_effect(r["delta_mpe"], hpd, r["pmp"], plugin, where)
        for key, strict in (("decision", False), ("strict_decision", True)):
            status = implied_decision(hpd["lower"], hpd["upper"], cfg["rope"], strict)
            require(r[key] == status, f"{where}: {key} {r[key]!r}, but HPD and rope imply {status!r}")
    agg = result["aggregates"]
    for status in ("accepted", "rejected", "indeterminate"):
        count = sum(r["decision"] == status for r in records)
        require(agg[f"{status}_count"] == count, f"study: {status}_count {agg[f'{status}_count']} != {count}")


def check_sensitivity(payload: dict, plugin: float) -> None:
    """Checks for ``mixtt sensitivity``: every preset's summary and the pairwise differences."""
    check_finite(payload)
    presets = payload["presets"]
    require(len(presets) >= 2, "sensitivity: fewer than two presets")
    by_kind = {}
    for p in presets:
        check_effect(p["delta_mpe"], p["hpd"], p["pmp"], plugin, f"sensitivity preset {p['preset']}")
        by_kind[p["preset"]] = p["delta_mpe"]
    for d in payload["differences"]:
        expected = by_kind[d["first"]] - by_kind[d["second"]]
        require(d["delta_mpe_difference"] == expected,
                f"sensitivity: difference {d['first']}-{d['second']} is {d['delta_mpe_difference']}, "
                f"expected {expected}")
