"""Thread count of the OpenBLAS that numpy's wheels bundle.

numpy has no setter for its BLAS threads, so ``serial`` looks the library
up among numpy's own shared objects, binds it only if it is already loaded,
and sets one thread for the duration of a ``with`` block. The setting is
process-wide. Where numpy uses another BLAS, ``serial`` changes nothing.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

# Thread getter and setter of the wheels' renamed OpenBLAS: the 64-bit
# integer build, then the 32-bit one.
_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
            "scipy_openblas_{}_num_threads")


@cache
def _openblas():
    """(get, set) of the thread count, or None when numpy's BLAS is not a
    loaded OpenBLAS of its own wheel (Linux ``numpy.libs``, macOS
    ``.dylibs``)."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    root = Path(np.__file__).parent
    for path in (*root.parent.glob("numpy.libs/*openblas*"),
                 *root.glob(".dylibs/*openblas*")):
        try:
            lib = ctypes.CDLL(str(path), mode=noload)
        except OSError:
            continue
        for name in _SYMBOLS:
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes = ctypes.c_int, (ctypes.c_int,)
                return get, set_
    return None


@contextmanager
def serial():
    """One BLAS thread inside the block; the previous count after it."""
    fns = _openblas()
    if fns is None:
        yield
        return
    get, set_ = fns
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
