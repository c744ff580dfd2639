"""Symmetric tridiagonal eigensolver: the largest eigenvalue and full spectra
by LAPACK, Sturm counts and Gershgorin brackets.

lambda_max is LAPACK's dstebz (bisection, RANGE='I', IL=IU=n) with ABSTOL =
tol, a required argument (campaigns pass experiments.ABSTOL), and a full
spectrum is dsterf (Pal-Walker-Kahan QL/QR), which reads no tolerance; both
come from the OpenBLAS that the numpy wheel ships (`_lapack`).  Each matrix
of a batch is solved on its own, so a row's result does not depend on what
else sits in the batch.

One shifted LDL^T recurrence (`_sturm_counts`) counts the eigenvalues at or
below a shift, for a batch of matrices with one or several shifts each; it
serves `sturm_count` and `counts_abs_at_or_above`, and the tests use it to
check the LAPACK results independently.  All routines are pure.
"""

from __future__ import annotations

import numpy as np

from . import _lapack
from .sampler import TridiagonalMatrix

_EPS = float(np.finfo(float).eps)


def _as_batch(tri: TridiagonalMatrix):
    """The matrix as a one-row (diags, offdiags) batch."""
    return np.asarray(tri.diag, float)[None, :], np.asarray(tri.offdiag, float)[None, :]


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
    diags, offdiags = _as_batch(tri)
    return int(_sturm_counts(diags, offdiags**2, np.array([float(x)]))[0])


def gershgorin(tri: TridiagonalMatrix) -> tuple[float, float]:
    """Interval [lo, hi] containing the whole spectrum."""
    diag, off = np.asarray(tri.diag, float), np.abs(np.asarray(tri.offdiag, float))
    r = np.zeros_like(diag)
    r[:-1] += off
    r[1:] += off
    return float((diag - r).min()), float((diag + r).max())


def _check_tol(tol):
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def lambda_max_batch(diags, offdiags, tol: float) -> np.ndarray:
    """Largest eigenvalue of each matrix in a (replicas, n) batch, by dstebz
    with ABSTOL = tol."""
    _check_tol(tol)
    return _lapack.largest_eigenvalues(diags, offdiags, tol)


def lambda_max(tri: TridiagonalMatrix, tol: float) -> float:
    """Largest eigenvalue; |result - true| <= tol."""
    return float(lambda_max_batch(*_as_batch(tri), tol)[0])


def full_spectrum(tri: TridiagonalMatrix) -> np.ndarray:
    """All n eigenvalues by dsterf, sorted nondecreasing."""
    return _lapack.spectra(*_as_batch(tri))[0]


def batch_spectra(diags, offdiags) -> np.ndarray:
    """Full spectra for a (replicas, n) batch by dsterf; returns (replicas, n)
    sorted."""
    return _lapack.spectra(diags, offdiags)


def counts_abs_at_or_above(diags, offdiags, t: float) -> np.ndarray:
    """Per-matrix number of eigenvalues with |lambda| >= t, via two counts."""
    diags = np.asarray(diags, float)
    b2s = np.asarray(offdiags, float) ** 2
    tt = np.full(diags.shape[0], float(t))
    above = diags.shape[1] - _sturm_counts(diags, b2s, tt)
    below = _sturm_counts(diags, b2s, -tt)
    return above + below
