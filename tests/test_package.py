import subprocess
import sys
import types
from pathlib import Path

import mixtt


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, obj in vars(mixtt).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert sorted(mixtt.__all__) == sorted(public)


def test_all_names_resolve():
    for name in mixtt.__all__:
        assert getattr(mixtt, name, None) is not None, name


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves only the test oracles
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import mixtt.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(mixtt.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_cli_import_builds_no_kernel():
    # the kernel compiles on the first chain or dataset, never at import, where it would land in setup time
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import mixtt.cli, mixtt.gibbs as g; "
        "print(g._kernel is g._UNLOADED)"
    )
    src = str(Path(mixtt.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "True"


def test_cli_import_loads_no_thread_pool():
    # concurrent.futures (about 4 ms, and logging with it) loads with the first study's pool, never for analyze
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import mixtt.cli; "
        "print('concurrent.futures' in sys.modules)"
    )
    src = str(Path(mixtt.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
