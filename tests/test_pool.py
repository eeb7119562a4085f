"""``gibbs.map_chains``: studies and sensitivity runs give the same results on any number of threads.

With the compiled kernel and two or more usable CPUs, map_chains runs one
share of its items per usable CPU: the calling thread drains one, and the
others run on a process-wide thread pool. With one usable CPU, one item or
the Python path it runs them serially. One CPU is forced by patching
``os.sched_getaffinity``, which map_chains reads on every call.
"""

import os
import shutil
import signal
import sys
import threading
import time

import pytest

from mixtt import gibbs
from mixtt.cli import main as cli_main
from mixtt.harness import Scenario, StudyConfig, prior_sensitivity, run_study
from mixtt.model import PRESET_KINDS, GroupedSample, PriorPreset

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
needs_pool = pytest.mark.skipif(shutil.which("cc") is None or CPUS < 2,
                                reason="the pool runs only with a C compiler and two usable CPUs")


@pytest.fixture(params=["kernel", "python"])
def chain_path(request, monkeypatch):
    if request.param == "python":
        monkeypatch.setattr(gibbs, "_kernel", None)
    return request.param


def _all_and_one_cpu(monkeypatch, run):
    """``run()`` on every usable CPU, then with one."""
    everywhere = run()
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return everywhere, run()


def test_study_and_sensitivity_do_not_depend_on_the_worker_count(monkeypatch, chain_path):
    iterations = 2000 if chain_path == "kernel" else 600
    study = StudyConfig(Scenario.named("large"), 25, 7, master_seed=11, iterations=iterations, burn_in=200)
    records, serial = _all_and_one_cpu(monkeypatch, lambda: run_study(study))
    assert len(records) == 7 and records == serial
    sample = GroupedSample([1.2, 0.4, 2.2, 1.9, 0.8, 1.1], [2.5, 3.1, 1.7, 2.8, 3.3])
    presets = [PriorPreset(kind) for kind in PRESET_KINDS]
    summaries, serial = _all_and_one_cpu(
        monkeypatch, lambda: prior_sensitivity(sample, presets, 3, iterations, 200))
    assert [s.kind for s in summaries] == list(PRESET_KINDS) and summaries == serial


def test_cli_files_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    data.write_text("value,group\n" + "".join(f"{i % 5}.{i % 3},a\n{i % 4 + 1}.{i % 7},b\n" for i in range(12)))
    chain = ["--iters", "2000", "--burnin", "500", "--seed", "5"]
    commands = {
        "large": ["simulate", "--scenario", "large", "--n", "30", "--datasets", "13", *chain],
        "null": ["simulate", "--scenario", "null", "--n", "40", "--datasets", "13", *chain],
        "sensitivity": ["sensitivity", "--input", str(data), *chain],
    }

    def run():
        files = {}
        for name, argv in commands.items():
            out = tmp_path / f"{name}.json"
            assert cli_main([*argv, "--output", str(out)]) == 0
            files[name] = out.read_bytes()
        return files

    everywhere, serial = _all_and_one_cpu(monkeypatch, run)
    assert everywhere == serial


@pytest.mark.parametrize("cpus", ["all", "one"])
def test_map_chains_keeps_item_order_and_raises_the_first_failing_item(monkeypatch, chain_path, cpus):
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def fn(x):
        if x == 2:
            time.sleep(0.05)  # item 5 fails first in time, but item 2 comes first in order
            raise ValueError("item 2")
        if x == 5:
            raise ValueError("item 5")
        return x * x

    assert gibbs.map_chains(lambda x: x * x, range(8)) == [x * x for x in range(8)]
    with pytest.raises(ValueError, match="item 2"):
        gibbs.map_chains(fn, range(8))


def _pooled(chain_path, cpus):
    """Whether map_chains runs shares on the pool here, rather than serially."""
    return chain_path == "kernel" and cpus == "all" and CPUS >= 2 and gibbs._loaded_kernel() is not None


@pytest.mark.parametrize("cpus", ["all", "one"])
def test_map_chains_runs_each_item_once_on_one_thread_per_cpu_the_callers_included(monkeypatch, chain_path, cpus):
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    runs, threads = [], set()

    def fn(x):
        runs.append(x)
        threads.add(threading.get_ident())
        time.sleep(0.002)  # releases the interpreter lock, as a kernel chain does, so every share takes items
        return x * x

    assert gibbs.map_chains(fn, range(40)) == [x * x for x in range(40)]
    assert sorted(runs) == list(range(40))
    assert threading.get_ident() in threads
    assert (2 if _pooled(chain_path, cpus) else 1) <= len(threads) <= (CPUS if cpus == "all" else 1)


@pytest.mark.parametrize("cpus", ["all", "one"])
def test_map_chains_returns_only_after_every_share_when_an_item_of_the_callers_share_raises(
        monkeypatch, chain_path, cpus):
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    pooled = _pooled(chain_path, cpus)
    caller = threading.get_ident()
    running, pool_item_started = [], threading.Event()

    def fn(x):
        running.append(x)
        try:
            if threading.get_ident() == caller:
                if pooled:  # a pool share has an item under way when the caller's item raises
                    assert pool_item_started.wait(timeout=10)
                raise ValueError(f"item {x} on the calling thread")
            pool_item_started.set()
            time.sleep(0.1)
            return x
        finally:
            running.remove(x)

    with pytest.raises(ValueError, match="on the calling thread"):
        gibbs.map_chains(fn, range(8))
    assert running == []


def test_map_chains_on_more_shares_than_cores_runs_each_item_once(monkeypatch):
    # eight usable CPUs on however many cores there are: seven pool threads and the caller take indices
    # from one iterator, and a switch interval of a microsecond makes them interleave between bytecodes
    if gibbs._loaded_kernel() is None:
        pytest.skip("map_chains runs serially without the compiled kernel")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(gibbs, "_pool", None)  # a fresh pool of seven threads, shut down below
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            runs = []
            assert gibbs.map_chains(lambda x: runs.append(x) or -x, range(300)) == [-x for x in range(300)]
            assert sorted(runs) == list(range(300))
    finally:
        sys.setswitchinterval(interval)
        if gibbs._pool is not None:
            gibbs._pool.shutdown()


def test_two_threads_starting_together_load_the_kernel_once(monkeypatch):
    calls = []

    def load():
        calls.append(threading.get_ident())
        time.sleep(0.05)  # long enough for the other thread to arrive
        return None

    monkeypatch.setattr(gibbs, "_kernel", gibbs._UNLOADED)
    monkeypatch.setattr(gibbs, "_load_kernel", load)
    barrier = threading.Barrier(2)
    handles = []

    def first_chain():
        barrier.wait(timeout=10)
        handles.append(gibbs._loaded_kernel())

    threads = [threading.Thread(target=first_chain) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(calls) == 1 and handles == [None, None]


@needs_pool
# Python 3.12 warns on fork() in a process with threads; this test forks one on purpose
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_of_a_process_with_a_pool_runs_a_study():
    study = StudyConfig(Scenario.named("null"), 20, 4, master_seed=9, iterations=1500, burn_in=500)
    expected = run_study(study)
    assert gibbs._pool is not None
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 1
        try:
            signal.alarm(60)  # a child stuck on the parent's dead pool threads ends here
            code = 0 if run_study(study) == expected else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
