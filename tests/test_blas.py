"""Every OpenBLAS the lab maps into a process runs one thread: numpy's once
``periodiclab`` is imported, scipy's once ``periodiclab.grid`` (the only module
that imports scipy) is, and both when the host process loaded scipy first.
An OpenBLAS loaded after ``periodiclab`` starts no worker thread at all.

Each fresh interpreter runs without ``OPENBLAS_NUM_THREADS``, which importing
``periodiclab`` sets in this process, so a library loaded before the package
is pinned by the package and not by an inherited variable."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GETTERS = [f"{prefix}_get_num_threads{suffix}"
           for prefix in ("openblas", "scipy_openblas") for suffix in ("", "64_")]


def mapped_openblas() -> list:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    return sorted({f[5].strip() for f in fields
                   if len(f) == 6 and "openblas" in os.path.basename(f[5])})


def thread_counts() -> dict:
    """The thread count of each OpenBLAS mapped into this process, by file name."""
    threads = {}
    for path in mapped_openblas():
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        getter = next(getattr(lib, name) for name in GETTERS if hasattr(lib, name))
        getter.restype = ctypes.c_int
        threads[os.path.basename(path)] = getter()
    return threads


def printed_after(code: str, expression: str):
    """The JSON value of ``expression`` in a fresh interpreter after it runs ``code``."""
    probe = f"{code}\nimport json, os, test_blas\nprint(json.dumps({expression}))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def assert_one_thread_each(threads: dict):
    if not threads:
        pytest.skip("no OpenBLAS is mapped into the process")
    assert set(threads.values()) == {1}, threads


def test_every_openblas_runs_one_thread():
    import periodiclab.grid  # noqa: F401  (the imports are what pin BLAS)

    assert_one_thread_each(thread_counts())


@pytest.mark.parametrize("code", [
    "import periodiclab",
    "import periodiclab.grid",
    "import scipy.sparse.linalg; import periodiclab",
], ids=["package", "grid", "scipy-first"])
def test_a_fresh_process_pins_every_openblas_it_maps(code):
    assert_one_thread_each(printed_after(code, "test_blas.thread_counts()"))


def test_openblas_loaded_after_the_package_starts_no_worker():
    tasks = printed_after("import periodiclab, periodiclab.grid",
                          "os.listdir('/proc/self/task')")
    assert len(tasks) == 1, tasks

