"""One BLAS thread per lab thread.

OpenBLAS starts a pool of one thread per core.  At the lab's dense sizes
(parity blocks of a few hundred rows) that pool buys no wall time: it burns
a second core, makes the reports depend on the core count, and collapses
when another process shares the cores.  The lab's parallelism is its own
threads (``--jobs``, and the dense spectrum's two parity blocks), so each
OpenBLAS runs one thread.  Importing this module, the package's first
import, sets ``OPENBLAS_NUM_THREADS=1`` in the environment: an OpenBLAS
loaded afterwards (numpy's, or scipy's through ``periodiclab.grid``) then
starts no worker thread, so no worker spins at start-up.  A library the host
process mapped before that is set to one thread through its own entry point
when the lab maps it: importing ``periodiclab`` pins numpy's (and scipy's,
if the host process already loaded scipy), and importing
``periodiclab.grid``, the only module that imports scipy, pins scipy's.
Where no OpenBLAS is loaded (or ``/proc`` is absent) there is nothing to
pin.
"""

import ctypes
import os

# read by each OpenBLAS when it loads; set before the package imports numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# the C entry points of plain and scipy-prefixed, 32- and 64-bit-integer builds
_SETTERS = [f"{prefix}_set_num_threads{suffix}"
            for prefix in ("openblas", "scipy_openblas") for suffix in ("", "64_")]


def pin_openblas_threads() -> None:
    """Set each OpenBLAS already mapped into this process to one thread."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)    # never loads a new library
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break
