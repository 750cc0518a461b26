"""Thread count and banded LU of the OpenBLAS that numpy's wheels bundle.

numpy has no setter for its BLAS threads and no banded solver, so this
module looks the library up among numpy's own shared objects and binds it
only if it is already loaded. ``serial`` sets one thread for the duration
of a ``with`` block; the setting is process-wide. ``band_solver`` gives
LAPACK ``dgbsv`` of the same library. Where numpy uses another BLAS,
``serial`` changes nothing and ``band_solver`` is None.
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
# LAPACK dgbsv (Fortran calling convention) of the same builds, with the
# integer type of each.
_GBSV = (("scipy_dgbsv_64_", ctypes.c_int64), ("scipy_dgbsv_", ctypes.c_int32))


@cache
def _library():
    """numpy's own OpenBLAS when it is loaded (Linux ``numpy.libs``, macOS
    ``.dylibs``), else None."""
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
        if any(hasattr(lib, name.format("get")) for name in _SYMBOLS):
            return lib
    return None


@cache
def _openblas():
    """(get, set) of the thread count, or None when numpy's BLAS is not a
    loaded OpenBLAS of its own wheel."""
    lib = _library()
    for name in _SYMBOLS if lib is not None else ():
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


@cache
def band_solver():
    """``solve(kl, ku, ab, b)``: LAPACK ``dgbsv`` on each of T banded
    systems, or None when numpy's BLAS has no wheel OpenBLAS to take it
    from.

    ``ab`` is T x m x (2 kl + ku + 1), C-contiguous float64: row j of
    ``ab[i]`` is column j of trial i's matrix A in LAPACK band storage,
    ``ab[i, j, kl + ku + r - j] = A[r, j]``, and its first kl entries are
    workspace. ``b`` is T x m, C-contiguous. Each system is factored and
    solved in place, one call a trial: ``b[i]`` becomes the solution and
    ``ab[i]`` its LU factors. Returns each trial's LAPACK ``info``: 0, or
    i > 0 when U(i, i) is exactly zero and ``b[i]`` is left unsolved."""
    lib = _library()
    for name, int_t in _GBSV if lib is not None else ():
        gbsv = getattr(lib, name, None)
        if gbsv is not None:
            break
    else:
        return None
    ptr = ctypes.POINTER(int_t)
    gbsv.restype = None
    gbsv.argtypes = (ptr, ptr, ptr, ptr, ctypes.c_void_p, ptr,
                     ctypes.c_void_p, ctypes.c_void_p, ptr, ptr)

    def solve(kl: int, ku: int, ab: np.ndarray, b: np.ndarray) -> np.ndarray:
        trials, m = b.shape
        ldab = 2 * kl + ku + 1
        if (ab.shape != (trials, m, ldab) or ab.dtype != np.float64
                or b.dtype != np.float64 or not ab.flags.c_contiguous
                or not b.flags.c_contiguous):
            raise ValueError("band storage must be C-contiguous float64 "
                             f"of shape ({trials}, {m}, {ldab})")
        ipiv = np.empty(m, dtype=int_t)
        info = int_t()
        n_, kl_, ku_, nrhs, ldab_, ldb, info_ = (
            ctypes.byref(c) for c in (*map(int_t, (m, kl, ku, 1, ldab, m)),
                                      info))
        at_ab, at_b, at_piv = ab.ctypes.data, b.ctypes.data, ipiv.ctypes.data
        infos = np.zeros(trials, dtype=int)
        for i in range(trials):
            gbsv(n_, kl_, ku_, nrhs, at_ab + i * ab.strides[0], ldab_,
                 at_piv, at_b + i * b.strides[0], ldb, info_)
            if info.value < 0:
                raise ValueError(f"dgbsv: argument {-info.value} is illegal")
            infos[i] = info.value
        return infos

    return solve
