"""LAPACK's dstebz and dsterf by ctypes, from the OpenBLAS that the numpy wheel
ships (`numpy.libs/libscipy_openblas64_*.so`, loaded by `import numpy`);
importing scipy.linalg for them would add about 26 MB of RSS.  The build is
ILP64 with a `scipy_` prefix: integers are int64, and each CHARACTER argument
takes a trailing size_t length.  A missing library or symbol raises
RuntimeError; there is no other route.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

_LIBS_DIR = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
_LIB_PREFIX = "libscipy_openblas64_"
_P = ctypes.c_void_p


@functools.cache
def library():
    """(path, dstebz, dsterf) of the numpy wheel's OpenBLAS, bound on first use."""
    names = sorted(f for f in (os.listdir(_LIBS_DIR) if os.path.isdir(_LIBS_DIR) else ())
                   if f.startswith(_LIB_PREFIX) and f.endswith(".so"))
    if not names:
        raise RuntimeError(f"no {_LIB_PREFIX}*.so in {_LIBS_DIR}: the eigensolver calls "
                           "LAPACK in the OpenBLAS that the numpy wheel ships")
    path = os.path.join(_LIBS_DIR, names[0])
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise RuntimeError(f"cannot load {path}: {exc}") from None
    routines = []
    for symbol, argtypes in (
            # RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W,
            # IBLOCK, ISPLIT, WORK, IWORK, INFO, then the lengths of RANGE, ORDER
            ("scipy_dstebz_64_", [ctypes.c_char_p] * 2 + [_P] * 16 + [ctypes.c_size_t] * 2),
            # N, D, E, INFO
            ("scipy_dsterf_64_", [_P] * 4)):
        try:
            fn = getattr(lib, symbol)
        except AttributeError:
            raise RuntimeError(f"{path} lacks the symbol {symbol}") from None
        fn.argtypes, fn.restype = argtypes, None
        routines.append(fn)
    return (path, *routines)


def _batch(diags, offdiags):
    """C-contiguous float64 (r, n) and (r, n - 1) arrays; copies only if needed."""
    d = np.ascontiguousarray(diags, dtype=np.float64)
    e = np.ascontiguousarray(offdiags, dtype=np.float64)
    if d.ndim != 2 or e.shape != (d.shape[0], d.shape[1] - 1):
        raise ValueError(f"need (r, n) diagonals and (r, n - 1) off-diagonals, got {d.shape} and {e.shape}")
    return d, e


def largest_eigenvalues(diags, offdiags, abstol: float) -> np.ndarray:
    """The largest eigenvalue of each matrix of a batch, by dstebz with
    RANGE='I', IL=IU=n and ABSTOL=abstol."""
    _, dstebz, _ = library()
    d, e = _batch(diags, offdiags)
    r, n = d.shape
    out = np.empty(r)
    # integers N, IL, IU, M, NSPLIT, INFO; reals VL = VU = 0, unused with
    # RANGE='I', and ABSTOL
    ints, reals = np.array([n, n, n, 0, 0, 0], dtype=np.int64), np.array([0.0, abstol])
    w, work = np.empty(n), np.empty(4 * n)
    iblock, isplit, iwork = (np.empty(k * n, dtype=np.int64) for k in (1, 1, 3))
    n_p, il_p, iu_p, m_p, nsplit_p, info_p = (ints.ctypes.data + 8 * k for k in range(6))
    vl_p, tol_p, d_p, e_p = reals.ctypes.data, reals.ctypes.data + 8, d.ctypes.data, e.ctypes.data
    work_ps = [a.ctypes.data for a in (w, iblock, isplit, work, iwork)]
    for i in range(r):
        dstebz(b"I", b"E", n_p, vl_p, vl_p, il_p, iu_p, tol_p, d_p + i * d.strides[0],
               e_p + i * e.strides[0], m_p, nsplit_p, *work_ps, info_p, 1, 1)
        if ints[5] != 0 or ints[3] != 1:
            raise RuntimeError(f"dstebz failed on matrix {i}: INFO={ints[5]}, M={ints[3]}")
        out[i] = w[0]
    return out


def spectra(diags, offdiags) -> np.ndarray:
    """The sorted spectrum of each matrix of a batch, by dsterf."""
    _, _, dsterf = library()
    d, e = _batch(diags, offdiags)
    out = d.copy()
    r, n = out.shape
    ints = np.array([n, 0], dtype=np.int64)  # N, INFO
    ebuf = np.empty(max(n - 1, 1))
    n_p, info_p, d_p, e_p = ints.ctypes.data, ints.ctypes.data + 8, out.ctypes.data, ebuf.ctypes.data
    for i in range(r):
        # dsterf overwrites D with the ascending eigenvalues and E with scratch
        ebuf[:n - 1] = e[i]
        dsterf(n_p, d_p + i * out.strides[0], e_p, info_p)
        if ints[1] != 0:
            raise RuntimeError(f"dsterf failed on matrix {i}: INFO={ints[1]}")
    return out
