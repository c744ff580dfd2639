"""Symmetric tridiagonal eigensolver: the largest eigenvalue and full spectra
by LAPACK, Sturm counts and Gershgorin brackets.

lambda_max is LAPACK's dstebz (bisection, RANGE='I', IL=IU=n) with ABSTOL =
tol, a required argument (campaigns pass experiments.ABSTOL), and a full
spectrum is dsterf (Pal-Walker-Kahan QL/QR), which reads no tolerance.  Both
are called by ctypes in the OpenBLAS that the numpy wheel ships
(`numpy.libs/libscipy_openblas64_*.so`, loaded by `import numpy`); importing
scipy.linalg for them would add about 26 MB of RSS.  The build is ILP64 with
a `scipy_` prefix: integers are int64, and each CHARACTER argument takes a
trailing size_t length.  A missing library or symbol raises RuntimeError;
there is no other route.  Each matrix of a batch is solved on its own, so a
row's result does not depend on what else sits in the batch.

One shifted LDL^T recurrence (`_sturm_counts`) counts the eigenvalues at or
below a shift, for a batch of matrices with one or several shifts each; it
serves `sturm_count` and `counts_abs_at_or_above`, and the tests use it to
check the LAPACK results independently.  All routines are pure.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

from .sampler import TridiagonalMatrix

_EPS = float(np.finfo(float).eps)
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


def _sturm_counts(diags: np.ndarray, b2s: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues at or below each shift, for a (r, n) batch.

    shifts has shape (r,) for one shift per matrix or (r, k) for k shifts per
    matrix; the counts have the shape of shifts.  b2s holds the squared
    off-diagonals, shape (r, n - 1).

    Shifted LDL^T recurrence d_1 = a_1 - x, d_i = (a_i - x) - b_{i-1}^2/d_{i-1};
    the count is the number of negative pivots.  A pivot with |d| below
    eps_pivot = macheps * (1 + |a_i - x| + b_{i-1}^2) is replaced by
    -eps_pivot and counted negative, so a shift landing exactly on an
    eigenvalue yields the "<= x" count instead of a division blow-up.
    """
    cols, b2cols = diags.T, b2s.T
    if shifts.ndim == 2:
        cols, b2cols = cols[:, :, None], b2cols[:, :, None]
    t = cols[0] - shifts
    eps = _EPS * (1.0 + np.abs(t))
    d = np.where(np.abs(t) < eps, -eps, t)
    count = (d < 0).astype(np.int64)
    for a, b2 in zip(cols[1:], b2cols):
        am = a - shifts
        t = am - b2 / d
        eps = _EPS * (1.0 + np.abs(am) + b2)
        d = np.where(np.abs(t) < eps, -eps, t)
        count += d < 0
    return count


def sturm_count(tri: TridiagonalMatrix, x: float) -> int:
    """Number of eigenvalues of tri at or below x.

    A shift exactly on an eigenvalue counts it: for [[0, 1], [1, 0]] the
    count is 1 at x = -1 and 2 at x = 1.
    """
    return int(_sturm_counts(tri.diag[None], tri.offdiag[None] ** 2, np.array([float(x)]))[0])


def gershgorin(tri: TridiagonalMatrix) -> tuple[float, float]:
    """Interval [lo, hi] containing the whole spectrum."""
    diag, off = tri.diag, np.abs(tri.offdiag)
    r = np.zeros_like(diag)
    r[:-1] += off
    r[1:] += off
    return float((diag - r).min()), float((diag + r).max())


def lambda_max_batch(diags, offdiags, tol: float) -> np.ndarray:
    """Largest eigenvalue of each matrix in a (replicas, n) batch, by dstebz
    with ABSTOL = tol."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    _, dstebz, _ = library()
    d, e = _batch(diags, offdiags)
    r, n = d.shape
    out = np.empty(r)
    # integers N, IL, IU, M, NSPLIT, INFO; reals VL = VU = 0, unused with
    # RANGE='I', and ABSTOL
    ints, reals = np.array([n, n, n, 0, 0, 0], dtype=np.int64), np.array([0.0, tol])
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


def lambda_max(tri: TridiagonalMatrix, tol: float) -> float:
    """Largest eigenvalue; |result - true| <= tol."""
    return float(lambda_max_batch(tri.diag[None], tri.offdiag[None], tol)[0])


def batch_spectra(diags, offdiags) -> np.ndarray:
    """Full spectra for a (replicas, n) batch by dsterf; returns (replicas, n)
    sorted."""
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


def full_spectrum(tri: TridiagonalMatrix) -> np.ndarray:
    """All n eigenvalues by dsterf, sorted nondecreasing."""
    return batch_spectra(tri.diag[None], tri.offdiag[None])[0]


def counts_abs_at_or_above(diags, offdiags, t: float) -> np.ndarray:
    """Per-matrix number of eigenvalues with |lambda| >= t, via two counts."""
    diags, offdiags = _batch(diags, offdiags)
    b2s = offdiags**2
    tt = np.full(diags.shape[0], float(t))
    above = diags.shape[1] - _sturm_counts(diags, b2s, tt)
    below = _sturm_counts(diags, b2s, -tt)
    return above + below
