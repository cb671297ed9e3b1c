"""Print the host's arithmetic as numpy runs it: the OpenBLAS core and numpy's SIMD targets.

Usage::

    python3 tools/host_arithmetic.py

The last bits of the solver's outputs depend on both values. The force
reduction's ``matmul`` and the error norm's ``x.dot(x)`` round by the
OpenBLAS kernels that the core selects. ``power``, ``exp`` and ``log``
round by the SIMD loops that numpy dispatches to. ``tools/write_bench.py``
adds both values to a BENCH file's ``host``, and
``tools/snapshot_outputs.py`` writes them to ``host.txt``. A diff between
two hosts then names its cause.

* ``openblas_core``: the core name that the OpenBLAS bundled with a numpy
  wheel reports (``scipy_openblas_get_corename64_`` in numpy 2.x wheels,
  ``openblas_get_corename64_`` in numpy 1.x wheels);
* ``simd``: the entries of ``__cpu_dispatch__`` that ``__cpu_features__``
  marks enabled, from ``numpy._core._multiarray_umath`` (or
  ``numpy.core`` on numpy 1.x).

A value that cannot be read is ``unknown``: a numpy built against a
system BLAS, say, has no bundled OpenBLAS to ask.
"""

from __future__ import annotations

import ctypes
import importlib
from pathlib import Path

import numpy as np

UNKNOWN = "unknown"
_CORENAME = ("scipy_openblas_get_corename64_", "openblas_get_corename64_")
_UMATH = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")


def openblas_core() -> str:
    """The core whose kernels the bundled OpenBLAS runs, or ``unknown``."""
    home = Path(np.__file__).parent
    # manylinux and Windows wheels bundle it in numpy.libs, macOS wheels in .dylibs
    for lib in sorted([*home.parent.glob("numpy.libs/*openblas*"), *home.glob(".dylibs/*openblas*")]):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in _CORENAME:
            func = getattr(dll, name, None)
            if func is not None:
                func.restype = ctypes.c_char_p
                return func().decode()
    return UNKNOWN


def simd_targets() -> str:
    """numpy's enabled dispatch targets, space-separated, or ``unknown``."""
    for name in _UMATH:
        try:
            umath = importlib.import_module(name)
        except ImportError:
            continue
        dispatch = getattr(umath, "__cpu_dispatch__", None)
        features = getattr(umath, "__cpu_features__", None)
        if dispatch is not None and features is not None:
            return " ".join(t for t in dispatch if features.get(t)) or "none"
    return UNKNOWN


def fingerprint() -> dict[str, str]:
    return {"openblas_core": openblas_core(), "simd": simd_targets()}


if __name__ == "__main__":
    for key, value in fingerprint().items():
        print(f"{key} = {value}")
