"""Symmetric tridiagonal eigensolver: Sturm counts, Gershgorin brackets and
bisection, for the largest eigenvalue or the full spectrum.

One shifted LDL^T recurrence (`_sturm_counts`) counts the eigenvalues at or
below a shift, for a batch of matrices with one or several shifts each.  One
bisection loop (`_bisect`) finds the k-th eigenvalue of each lane, with the
rule "the k-th eigenvalue lies below mid iff count >= k": lambda_max is
target n, a full spectrum is targets 1..n.  A lane stops once its bracket is
no wider than tol, or once its midpoint equals an end of the bracket (tol
below the float spacing), so every lane's trajectory is independent of what
else sits in the batch.

Bisection is used instead of QR because the experiments mostly need one
eigenvalue per replica and bit-reproducible results matter more than the
constant factor.  All routines are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import TridiagonalMatrix

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenvalues with the bisection tolerance and iteration count."""

    eigenvalues: np.ndarray
    tol: float
    iterations: int


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


def _bisect(diags, b2s, lo, hi, targets, tol):
    """Per-lane bisection for the targets-th eigenvalue (1-based, ascending).

    lo and hi bracket each lane, shape (r,) or (r, k) as the shifts of
    `_sturm_counts`; targets broadcasts against them.  Returns the midpoints
    of the final brackets and the number of Sturm sweeps.
    """
    iterations = 0
    while True:
        mid = 0.5 * (lo + hi)
        active = ((hi - lo) > tol) & (lo < mid) & (mid < hi)
        if not active.any():
            return mid, iterations
        reached = _sturm_counts(diags, b2s, mid) >= targets
        hi = np.where(active & reached, mid, hi)
        lo = np.where(active & ~reached, mid, lo)
        iterations += 1


def sturm_count(tri: TridiagonalMatrix, x: float) -> int:
    """Number of eigenvalues of tri at or below x.

    A shift exactly on an eigenvalue counts it: for [[0, 1], [1, 0]] the
    count is 1 at x = -1 and 2 at x = 1.
    """
    diags, offdiags = _as_batch(tri)
    return int(_sturm_counts(diags, offdiags**2, np.array([float(x)]))[0])


def batch_gershgorin(diags, offdiags):
    r = np.zeros_like(diags)
    r[:, :-1] += np.abs(offdiags)
    r[:, 1:] += np.abs(offdiags)
    return (diags - r).min(axis=1), (diags + r).max(axis=1)


def gershgorin(tri: TridiagonalMatrix) -> tuple[float, float]:
    """Interval [lo, hi] containing the whole spectrum."""
    lo, hi = batch_gershgorin(*_as_batch(tri))
    return float(lo[0]), float(hi[0])


def default_tol(lo: float, hi: float) -> float:
    return 1e-10 * max(1.0, hi - lo)


def _setup(diags, offdiags, tol):
    """Float arrays, squared off-diagonals, Gershgorin brackets and tol."""
    if tol is not None and tol <= 0:
        raise ValueError("tol must be positive")
    diags = np.asarray(diags, float)
    offdiags = np.asarray(offdiags, float)
    lo, hi = batch_gershgorin(diags, offdiags)
    if tol is None:
        tol = default_tol(float(lo.min()), float(hi.max()))
    return diags, offdiags**2, lo, hi, tol


def lambda_max_batch(diags, offdiags, tol: float | None = None) -> np.ndarray:
    """Largest eigenvalue of each matrix in a (replicas, n) batch."""
    diags, b2s, lo, hi, tol = _setup(diags, offdiags, tol)
    return _bisect(diags, b2s, lo, hi, diags.shape[1], tol)[0]


def lambda_max(tri: TridiagonalMatrix, tol: float | None = None) -> float:
    """Largest eigenvalue via Sturm bisection; |result - true| <= tol."""
    return float(lambda_max_batch(*_as_batch(tri), tol)[0])


def _spectra(diags, offdiags, tol):
    """Sorted (replicas, n) spectra, the tol used and the Sturm sweep count.

    The k-th eigenvalue (k = 1..n) is located where the Sturm count first
    reaches k; the n bisections of a matrix run in lockstep.
    """
    diags, b2s, lo, hi, tol = _setup(diags, offdiags, tol)
    n = diags.shape[1]
    lo = np.repeat(lo[:, None], n, axis=1)
    hi = np.repeat(hi[:, None], n, axis=1)
    vals, iterations = _bisect(diags, b2s, lo, hi, np.arange(1, n + 1), tol)
    return np.sort(vals, axis=1), tol, iterations


def full_spectrum(tri: TridiagonalMatrix, tol: float | None = None) -> SpectrumResult:
    """All n eigenvalues by per-index bisection, sorted nondecreasing."""
    vals, tol, iterations = _spectra(*_as_batch(tri), tol)
    return SpectrumResult(eigenvalues=vals[0], tol=tol, iterations=iterations)


def batch_spectra(diags, offdiags, tol: float | None = None) -> np.ndarray:
    """Full spectra for a (replicas, n) batch; returns (replicas, n) sorted."""
    return _spectra(diags, offdiags, tol)[0]


def counts_abs_at_or_above(diags, offdiags, t: float) -> np.ndarray:
    """Per-matrix number of eigenvalues with |lambda| >= t, via two counts."""
    diags = np.asarray(diags, float)
    b2s = np.asarray(offdiags, float) ** 2
    tt = np.full(diags.shape[0], float(t))
    above = diags.shape[1] - _sturm_counts(diags, b2s, tt)
    below = _sturm_counts(diags, b2s, -tt)
    return above + below
