"""Symmetric tridiagonal eigensolver, one batch entry point per question, each
over (r, n) diagonals and (r, n - 1) off-diagonals: `lambda_max_batch`,
`batch_spectra`, `counts_at_or_below` (eigenvalues at or below a shift), which
`counts_abs_at_or_above` calls once, and `gershgorin`, a bracket of each spectrum.

lambda_max is LAPACK's dstebz (bisection, RANGE='I', IL=IU=n) at this
module's constant ABSTOL, and a full spectrum is dsterf (Pal-Walker-Kahan
QL/QR), which reads no tolerance; SOLVER names both for run manifests.  Both
are called by ctypes in the OpenBLAS that the numpy wheel ships
(`numpy.libs/libscipy_openblas64_*.so`, loaded by `import numpy`); importing
scipy.linalg for them would add about 26 MB of RSS.  The build is ILP64 with
a `scipy_` prefix: integers are int64, and each CHARACTER argument takes a
trailing size_t length.  A missing library or symbol raises RuntimeError;
there is no other route.  Each matrix of a batch is solved on its own, so a
row's result does not depend on what else sits in the batch.  The counts are
one shifted LDL^T recurrence in numpy, which the tests also use to check the
LAPACK results independently.  It has no pivot guard: in IEEE arithmetic a
+0 pivot counts as "at or below" and turns the next into -inf, which the one
after absorbs (Kahan 1966; Demmel, Dhillon & Ren, ETNA 3, 1995); a zero
squared off-diagonal splits the matrix; the count is scale-invariant, and a
shift within rounding of an eigenvalue is decided by the sign of the computed
pivot, as in LAPACK's dstebz.  All routines are pure.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

_LIBS_DIR = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
_LIB_PREFIX = "libscipy_openblas64_"
_P = ctypes.c_void_p

ABSTOL = 1e-12  # dstebz's absolute tolerance for every lambda_max
SOLVER = {"lambda_max": f"dstebz, RANGE='I', IL=IU=n, ABSTOL={ABSTOL!r}", "spectra": "dsterf"}


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


def counts_at_or_below(diags, offdiags, shifts) -> np.ndarray:
    """Number of eigenvalues at or below each shift, for a (r, n) batch.

    shifts has shape (r,), one shift per matrix, or (k, r), k shifts per
    matrix; the counts have the shape of shifts.

    Negated LDL^T pivots of T - x, with no guard (Kahan 1966; Demmel, Dhillon
    & Ren, ETNA 3, 1995): q_1 = x - a_1, q_i = (x - a_i) - b_{i-1}^2/q_{i-1};
    the count is n minus the number of q with the sign bit set.  The shift is
    taken as x + 0.0, so -0.0 acts as +0.0, and a +0 pivot counts as "at or
    below": the next q is -inf and the one after it sees a -0 term, so a
    shift exactly on an eigenvalue counts it once: for [[0, 1], [1, 0]] the
    count is 1 at x = -1 and 2 at x = 1.  Where b_{i-1}^2 is 0 (exact, or
    underflowed) the term is 0, not 0/0: the matrix splits there.  The count
    is exact for a matrix within a few ulps of T, entry by entry, so it is
    scale-invariant; where x lies within rounding of an eigenvalue, the sign
    of the computed pivot decides, as in LAPACK's dstebz.
    """
    d, e = _batch(diags, offdiags)
    x = np.asarray(shifts, dtype=np.float64) + 0.0
    if x.ndim not in (1, 2) or x.shape[-1] != d.shape[0]:
        raise ValueError(f"need (r,) or (k, r) shifts for r = {d.shape[0]} matrices, got {x.shape}")
    q, term, sign = x - d[:, 0], np.empty(x.shape), np.empty(x.shape, dtype=bool)
    negative = np.signbit(q).astype(np.int64)
    with np.errstate(divide="ignore", over="ignore"):  # a +0 pivot gives -inf, a tiny one may too
        for a, b in zip(d.T[1:], e.T):
            b2 = b * b
            np.divide(b2, q if b2.all() else np.where(b2 != 0, q, 1.0), out=term)
            np.subtract(x, a, out=q)
            q -= term
            negative += np.signbit(q, out=sign)
    return d.shape[1] - negative


def gershgorin(diags, offdiags) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), two (r,) arrays: per matrix of a (r, n) batch, an interval containing its spectrum."""
    d, e = _batch(diags, offdiags)
    e, radius = np.abs(e), np.zeros_like(d)
    radius[:, :-1] += e
    radius[:, 1:] += e
    return (d - radius).min(axis=1), (d + radius).max(axis=1)


def lambda_max_batch(diags, offdiags) -> np.ndarray:
    """Largest eigenvalue of each matrix in a (replicas, n) batch, by dstebz at ABSTOL."""
    _, dstebz, _ = library()
    d, e = _batch(diags, offdiags)
    r, n = d.shape
    out = np.empty(r)
    # integers N, IL, IU, M, NSPLIT, INFO; reals VL = VU (unused with RANGE='I'), ABSTOL
    ints, reals = np.array([n, n, n, 0, 0, 0], dtype=np.int64), np.array([0.0, ABSTOL])
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


def batch_spectra(diags, offdiags) -> np.ndarray:
    """Ascending full spectra of a (replicas, n) batch by dsterf, shape (replicas, n)."""
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


def counts_abs_at_or_above(diags, offdiags, t: float) -> np.ndarray:
    """Per-matrix number of eigenvalues with |lambda| >= t, from one count at -t and t."""
    d, e = _batch(diags, offdiags)
    tt = np.full(d.shape[0], float(t))
    below, at_or_below = counts_at_or_below(d, e, np.stack((-tt, tt)))
    return d.shape[1] - at_or_below + below
