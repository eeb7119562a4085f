"""The workload process: one process, one thread, driving ``mixtt.cli.main`` in-process.

Started by ``run.py``, never by hand. It generates the workload's inputs,
prints ``READY`` when the first timed call is about to start, then prints
one JSON line with its results. ``--setup-only`` stops after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np


def run_call(main, call, clock=perf_counter) -> tuple[float, bool]:
    """Make one CLI call and check its outputs; returns (call seconds, passed)."""
    t0 = clock()
    try:
        rc = main(call.argv)
        elapsed = clock() - t0
        if rc != 0:
            print(f"perfbench: exit status {rc} from mixtt {' '.join(call.argv)}", file=sys.stderr)
            return elapsed, False
        call.check()
    except Exception:  # any failure of the call or its checks counts against failed_frac
        elapsed = clock() - t0
        print(f"perfbench: call failed: mixtt {' '.join(call.argv)}", file=sys.stderr)
        traceback.print_exc()
        return elapsed, False
    return elapsed, True


def tail(latencies_ms: list[float]) -> dict | None:
    """Latency at the highest percentile with at least 10 calls beyond it."""
    ordered = sorted(latencies_ms)
    m = len(ordered)
    if m <= 10:
        return None
    return {"value_ms": ordered[m - 11], "percentile": 100.0 * (m - 10) / m, "calls": m}


def environment() -> dict:
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": sorted(os.sched_getaffinity(0)),
        "numpy_simd_baseline": simd.get("baseline"),
        "numpy_simd_found": simd.get("found"),
        "thread_pinning": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_THREADS")},
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def measure(workload, main, seconds: float) -> dict:
    """End-to-end run: calls in order until ``seconds`` pass, then repeat call 0.

    A speed probe samples the host throughout. Call times exclude the
    probe's own time, and each call is scaled by the probe passes made
    during it, or by the run's mean pass if none fell inside (see
    reference.py).
    """
    from reference import NOMINAL_MS, SpeedProbe, reference_ms, slowness

    run_dir = workload.workdir / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    latencies, intervals, chains, failed, index = [], [], 0, 0, 0
    first_outputs = None
    with SpeedProbe(workload.probe) as probe:
        clock = probe.clock
        start = clock()
        while clock() - start < seconds:
            call = workload.call(index, run_dir)
            first_pass, t0 = len(probe.passes), clock()
            elapsed, ok = run_call(main, call, clock)
            intervals.append((clock() - t0, first_pass, len(probe.passes)))  # call plus checks
            latencies.append(elapsed * 1e3)
            if ok:
                chains += call.chains
            else:
                failed += 1
            if index == 0:
                first_outputs = [p.read_bytes() if p.exists() else None for p in call.outputs]
            index += 1
    refs = probe.passes or [reference_ms(probe.kind)]  # a window under INTERVAL_S gets no pass
    per_call = [slowness(refs[a:b] or refs, probe.kind) for _, a, b in intervals]
    scaled = [ms / k for ms, k in zip(latencies, per_call)]
    busy = sum(t for t, _, _ in intervals)
    busy_scaled = sum(t / k for (t, _, _), k in zip(intervals, per_call))

    # c9: the first call, rerun with the same flags, must write the same bytes
    repeat_dir = workload.workdir / "repeat"
    repeat_dir.mkdir(parents=True, exist_ok=True)
    repeat = workload.call(0, repeat_dir)
    _, ok = run_call(main, repeat)
    same = ok and [p.read_bytes() for p in repeat.outputs] == first_outputs
    if not same:
        print("perfbench: repeated call 0 did not reproduce its output bytes", file=sys.stderr)
        failed += 1
    attempted = index + 1
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "chains_per_s": chains / busy_scaled,
            "call_ms_p50": statistics.median(scaled),
            "peak_rss_mb": peak_rss_mb(),
        },
        "detail": {
            "timed_calls": index,
            "chains_checked": chains,
            "failed_frac": failed / attempted,
            "raw_chains_per_s": chains / busy,
            "raw_call_ms_p50": statistics.median(latencies),
            "call_ms_tail": tail(scaled),
            "raw_call_ms": latencies,
            "call_slowness": per_call,
            "reference_ms": refs,
            "reference_kind": probe.kind,
            "reference_nominal_ms": NOMINAL_MS[probe.kind],
            "repeat_byte_identical": same,
        },
    }


def traced(workload, main, seconds: float, seed: int) -> dict:
    """Traced run: the layer ladder, then traced and untraced replays of the workload's calls."""
    from ladder import run_ladder
    from tracing import LAYERS, Tracer, calibrate_span_cost, instrument, layer_of

    tracer = Tracer()
    span_cost = calibrate_span_cost(tracer)
    root = tracer.wrap(main, "cli.main")

    def traced_main(argv):
        # spans only while the CLI runs; the output checks stay untraced
        with instrument(tracer):
            return root(argv)

    start = perf_counter()
    run_dir = workload.workdir / "run"
    run_dir.mkdir(parents=True, exist_ok=True)

    # the ladder writes the workload's own output format with write_json
    first = workload.trace_calls(0, run_dir)[0]
    _, ok = run_call(main, first)
    attempted, failed = 1, int(not ok)
    payload = json.loads(first.outputs[0].read_text())
    ladder_values, ladder_detail = run_ladder(seed, workload.ladder_n, workload.workdir / "ladder", payload)

    rounds = traced_calls = 0
    untraced_s = traced_s = 0.0
    names: dict[str, dict[str, float]] = {}
    spans = None
    while rounds == 0 or perf_counter() - start < seconds:
        calls = workload.trace_calls(rounds, run_dir)
        # alternate which side goes first so neither always runs on warm caches
        for with_trace in ((False, True) if rounds % 2 == 0 else (True, False)):
            for call in calls:
                if with_trace:
                    elapsed, ok = run_call(traced_main, call)
                    traced_s += elapsed
                    traced_calls += 1
                else:
                    elapsed, ok = run_call(main, call)
                    untraced_s += elapsed
                attempted += 1
                failed += not ok
        for name, agg in tracer.summary(span_cost).items():
            into = names.setdefault(name, {"count": 0, "total_ns": 0.0, "self_ns": 0.0})
            for key in into:
                into[key] += agg[key]
        if spans is None:
            spans = tracer.columns()
        tracer.clear()
        rounds += 1

    spans_path = workload.workdir / "spans.npz"
    np.savez_compressed(spans_path, names=np.array(tracer.names), **spans)

    untraced_ns = untraced_s * 1e9
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, agg in names.items():
        if layer_of(name) in layer_self:
            layer_self[layer_of(name)] += agg["self_ns"]
    accounted = sum(layer_self.values())
    metrics = dict(ladder_values)
    for layer, self_ns in layer_self.items():
        metrics[f"{layer}.share"] = self_ns / untraced_ns
        metrics[f"{layer}.self_ms"] = self_ns / traced_calls / 1e6
    sigma2 = names.get("gibbs.sigma2_conditional_params", {"self_ns": 0.0})
    metrics["gibbs.sigma2_conditional_params_share"] = sigma2["self_ns"] / untraced_ns
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics["trace.unaccounted_frac"] = (untraced_ns - accounted) / untraced_ns
    metrics["trace.spans_per_call"] = sum(a["count"] for a in names.values()) / traced_calls
    metrics["trace.span_cost_ns"] = span_cost.outside_ns + span_cost.inside_ns

    functions = sorted(
        ((name, agg["self_ns"] / untraced_ns, agg["count"] / traced_calls,
          agg["total_ns"] / max(agg["count"], 1) / 1e3) for name, agg in names.items()),
        key=lambda row: -row[1],
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "rounds": rounds,
            "traced_calls": traced_calls,
            "untraced_call_ms": untraced_s / traced_calls * 1e3,
            "traced_call_ms": traced_s / traced_calls * 1e3,
            "ladder_median_iqr": ladder_detail,
            "functions_by_self_share": [
                {"name": n, "self_share": s, "calls_per_call": c, "mean_span_us": d}
                for n, s, c, d in functions
            ],
            "spans_file": str(spans_path),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from mixtt import cli
    from reference import SETUP_PASSES, reference_ms, slowness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    print("READY", flush=True)
    # host speed right after set-up, outside the timed part, to scale setup_s
    setup_slowness = slowness([reference_ms(workload.probe) for _ in range(SETUP_PASSES)], workload.probe)
    if args.setup_only:
        print(json.dumps({"setup_slowness": setup_slowness}), flush=True)
        return 0
    if args.trace:
        result = traced(workload, cli.main, args.seconds, args.seed)
    else:
        result = measure(workload, cli.main, args.seconds)
    result["detail"]["setup_slowness"] = setup_slowness
    result["detail"]["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
