"""Span tracing at the module boundaries of the mixtt package.

While :func:`instrument` is active, each module-level reference that one
layer module holds to a public function of another layer module is swapped
for a wrapper that records a span, as are the few calls inside a module
listed in ``INNER`` and the ``GroupedSample`` constructors. A call through
``mixtt.cli.main`` therefore records its spans in the order the CLI itself
makes the calls. The package's files are untouched and the original
references are restored on exit.

The per-variate calls in ``UNTRACED`` get no span: each costs a few
microseconds, about as much as a span, so spanning them would distort the
very shares being measured. Their time stays in the caller's self time
(gibbs, harness); the ladder reports their unit cost and exact word counts.

Spans are kept in flat arrays (parent index, name id, start, end, all in
nanoseconds) and written out once at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import types
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

LAYERS = ("distributions", "model", "gibbs", "analysis", "welch", "harness", "reports", "cli")

# Calls inside one module that still get a span: the sweep and its O(n)
# residual, and the per-dataset steps of a study.
INNER = {
    "gibbs": ("sigma2_conditional_params",),
    "harness": ("generate_dataset", "analyze_dataset"),
}
UNTRACED = {"distributions.sample_normal", "distributions.sample_inverse_gamma"}
# Constructors that build the data model from input rows.
CONSTRUCTORS = (("GroupedSample", "__init__"), ("GroupedSample", "from_labels"))


class Tracer:
    """In-memory span store; spans nest through the ``current`` parent index."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._current = [-1]  # index of the open span that new spans nest under

    def clear(self) -> None:
        for column in (self.parent, self.name, self.start, self.end):
            del column[:]
        self._current[0] = -1

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that every call records a span called ``name``."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        parent, names, start, end, current = self.parent, self.name, self.start, self.end, self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            up = current[0]
            parent.append(up)
            names.append(nid)
            end.append(0)
            current[0] = idx
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                current[0] = up

        return traced

    def columns(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (copies), plus each span's root span index."""
        parent = np.array(self.parent, dtype=np.int64)
        root = np.arange(parent.size)
        for i in np.flatnonzero(parent >= 0):  # parents precede their children
            root[i] = root[parent[i]]
        return {
            "parent": parent,
            "root": root,
            "name": np.array(self.name, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
        }

    def summary(self, cost: "SpanCost") -> dict[str, dict[str, float]]:
        """Per span name: count, total duration and self time, all in ns.

        Self time is a span's duration minus its children's, less the
        calibrated wrapper cost: ``cost.outside_ns`` per direct child (time
        the wrapper adds to its caller's interval) and ``cost.inside_ns``
        for the span itself (time it adds inside its own interval).
        """
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        nested = parent >= 0
        child_time = np.zeros(dur.size)
        np.add.at(child_time, parent[nested], dur[nested])
        children = np.bincount(parent[nested], minlength=dur.size)
        self_ns = dur - child_time - cost.outside_ns * children - cost.inside_ns
        name = np.array(self.name, dtype=np.int64)
        k = len(self.names)
        count = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_ns, minlength=k)
        return {
            self.names[i]: {"count": int(count[i]), "total_ns": float(total[i]), "self_ns": float(own[i])}
            for i in range(k) if count[i]
        }


def _layer_modules():
    return {layer: importlib.import_module(f"mixtt.{layer}") for layer in LAYERS}


@contextmanager
def instrument(tracer: Tracer):
    """Swap the package's layer-boundary references for span-recording wrappers."""
    modules = _layer_modules()
    known = {m.__name__: layer for layer, m in modules.items()}
    saved = []
    try:
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                    continue
                home = known.get(obj.__module__)
                name = f"{home}.{obj.__name__}"
                if home is None or name in UNTRACED or (home == layer and attr not in INNER.get(layer, ())):
                    continue
                saved.append((module, attr, obj))
                setattr(module, attr, tracer.wrap(obj, name))
        model = modules["model"]
        for cls_name, attr in CONSTRUCTORS:
            cls = getattr(model, cls_name)
            raw = vars(cls)[attr]
            saved.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, f"model.{cls_name}.{attr}")))
            else:
                setattr(cls, attr, tracer.wrap(raw, f"model.{cls_name}.{attr}"))
        yield
    finally:
        for owner, attr, obj in reversed(saved):
            setattr(owner, attr, obj)


@dataclass(frozen=True)
class SpanCost:
    """Nanoseconds one wrapped call adds outside and inside its own span."""

    outside_ns: float
    inside_ns: float


def calibrate_span_cost(tracer: Tracer, calls: int = 50_000, repeats: int = 5) -> SpanCost:
    """Median wrapper cost on a three-argument function that does nothing."""

    def noop(a, b, c):
        return None

    wrapped = tracer.wrap(noop, "trace.calibration")
    outside, inside = [], []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        for _ in range(calls):
            noop(1, 2.0, 3.0)
        plain = (perf_counter_ns() - t0) / calls
        t0 = perf_counter_ns()
        for _ in range(calls):
            wrapped(1, 2.0, 3.0)
        total = (perf_counter_ns() - t0) / calls - plain
        within = (sum(tracer.end) - sum(tracer.start)) / calls - plain
        inside.append(within)
        outside.append(total - within)
        tracer.clear()
    return SpanCost(statistics.median(outside), statistics.median(inside))


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
