#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload {study,analyze-large,sensitivity} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
listed in BENCHMARK.json; ``--trace 1`` measures the per-layer metrics (the
direct-call ladder plus a traced replay). The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name with its unit,
and a full record goes to ``.perfbench_work/results/``.

The workload itself runs in a child process (one process, one thread, BLAS
and OpenMP pinned to one thread). ``setup_s`` is the time from starting such
a process to its first timed call, the median over ``SETUP_SAMPLES``
processes: the last one goes on to run the workload. All end-to-end timings
are scaled to nominal host speed by a reference loop (see reference.py); the
raw figures are in the full record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def start_worker(args, workdir: Path, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one workload process; returns (seconds from start to READY, its last output line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_THREADS)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise BenchError(f"workload process failed (exit status {proc.returncode})")
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return ready_s, json.loads(lines[-1])


def source_identity() -> dict:
    """The git commit when there is one, and a digest of the package source either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "mixtt" / "__init__.py").is_file():
        raise BenchError("package source src/mixtt not found")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    deadline = monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_work" / args.workload
    setup, setup_slowness = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready_s, setup_out = start_worker(args, workdir, deadline, setup_only=True)
            setup.append(ready_s)
            setup_slowness.append(setup_out["setup_slowness"])
    ready_s, result = start_worker(args, workdir, deadline, setup_only=False)
    setup.append(ready_s)
    if not args.trace:
        setup_slowness.append(result["detail"]["setup_slowness"])
        result["metrics"]["setup_s"] = statistics.median(setup) / statistics.fmean(setup_slowness)
    if set(result["metrics"]) != set(units):
        raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(units))}")

    detail = result.pop("detail")
    detail["raw_setup_s_samples"] = setup
    detail["environment"].update(source_identity())
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(detail["environment"], sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        refs = sorted(detail["reference_ms"])
        print(f"  (timings above at nominal host speed; reference loop median {refs[len(refs) // 2]:.4g} ms "
              f"vs nominal {detail['reference_nominal_ms']} ms; raw chains_per_s "
              f"{detail['raw_chains_per_s']:.6g}, raw call_ms_p50 {detail['raw_call_ms_p50']:.6g})")
        t = detail["call_ms_tail"]
        print("  call_ms_tail = " + (f"{t['value_ms']:.6g} ms at p{t['percentile']:.1f} of {t['calls']} calls"
                                     if t else f"omitted: {detail['timed_calls']} timed calls, 11 needed"))
    else:
        print("  top spans by self time (share of untraced call time):")
        for row in detail["functions_by_self_share"][:8]:
            print(f"    {row['name']:<40} {row['self_share']:.4f}")
    print(f"  failed_frac = {result['failed']}/{result['attempted']}")

    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    units_out = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    record.write_text(json.dumps({**result, "metrics": units_out, "detail": detail}, indent=1) + "\n")
    print(f"  full record: {record.relative_to(ROOT)}")
    return {**result, "metrics": units_out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
