"""Importing the lab leaves every OpenBLAS in the process at one thread."""

import ctypes
import os

import pytest

import periodiclab  # noqa: F401  (the import is what pins BLAS)

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


def test_every_openblas_runs_one_thread():
    paths = mapped_openblas()
    if not paths:
        pytest.skip("no OpenBLAS is mapped into this process")
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        getter = next(getattr(lib, name) for name in GETTERS if hasattr(lib, name))
        getter.restype = ctypes.c_int
        threads[os.path.basename(path)] = getter()
    assert set(threads.values()) == {1}, threads
