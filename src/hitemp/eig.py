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

The Sturm recurrence is a Python loop over n whose numpy calls cost about
the same for one shift per matrix as for a few hundred, so one sweep counts
at the midpoints of several bisection levels at once (multisection).  The
tree midpoints are the same floats that level-by-level bisection would
compute, and each shift's count is independent of the other shifts of the
sweep, so the results and level counts are bit-identical to bisecting one
level per sweep.

Bisection is used instead of QR because the experiments mostly need one
eigenvalue per replica and bit-reproducible results matter more than the
constant factor.  All routines are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import TridiagonalMatrix

_EPS = float(np.finfo(float).eps)
# Shifts per Sturm sweep below which a sweep costs about as much as one with a
# single shift: the numpy call overhead of the loop over n dominates there.
_SWEEP_SHIFTS = 256


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


def _frontier(lo, hi, active):
    """The distinct brackets of the active lanes of each row.

    lo, hi and active are (r, k) lane arrays.  Returns the (r, u) brackets,
    padded with [0, 0] in rows that have fewer than u, each lane's slot in
    its row (0 for an inactive lane) and whether any two active lanes share
    a bracket.  With one lane per row the lanes are the frontier.
    """
    r, k = lo.shape
    if k == 1:
        return lo, hi, np.zeros((r, 1), np.int64), False
    rows, lanes = np.nonzero(active)
    blo, bhi = lo[rows, lanes], hi[rows, lanes]
    order = np.lexsort((bhi, blo, rows))
    rows, lanes, blo, bhi = rows[order], lanes[order], blo[order], bhi[order]
    new = np.ones(rows.size, bool)
    new[1:] = (rows[1:] != rows[:-1]) | (blo[1:] != blo[:-1]) | (bhi[1:] != bhi[:-1])
    group = np.cumsum(new) - 1
    per_row = np.bincount(rows[new], minlength=r)
    slot = group - (np.cumsum(per_row) - per_row)[rows]
    slots = np.zeros((r, k), np.int64)
    slots[rows, lanes] = slot
    f_lo = np.zeros((r, per_row.max()))
    f_hi = np.zeros_like(f_lo)
    f_lo[rows[new], slot[new]] = blo[new]
    f_hi[rows[new], slot[new]] = bhi[new]
    return f_lo, f_hi, slots, not new.all()


def _tree_midpoints(lo, hi, depth):
    """Midpoints of the first depth bisection levels below each (r, u) bracket.

    Returns (r, u * (2**depth - 1)) shifts, each bracket's tree in heap
    order: node h has children 2h + 1 (lower half) and 2h + 2 (upper half).
    """
    lo, hi = lo[:, :, None], hi[:, :, None]
    mids = []
    for _ in range(depth):
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        lo = np.stack([lo, mid], axis=-1).reshape(*mid.shape[:2], -1)
        hi = np.stack([mid, hi], axis=-1).reshape(lo.shape)
    return np.concatenate(mids, axis=-1).reshape(lo.shape[0], -1)


def _plan_sweep(diags, b2s, lo, hi, active):
    """Sturm counts for the next levels of every lane, in one call.

    Returns (counts, roots, depth): the counts at the tree midpoints of
    `_tree_midpoints`, the column of each lane's tree root in counts and the
    number of levels they settle.  The depth is the largest m with
    r * u * (2**m - 1) <= max(_SWEEP_SHIFTS, r * k), for u brackets and k
    lanes per row.  With depth 1 and no shared bracket, counts is None: the
    lanes are counted at their own midpoints, one level of plain bisection.
    """
    r = lo.shape[0]
    lanes_shape = lo.shape
    lo, hi, active = lo.reshape(r, -1), hi.reshape(r, -1), active.reshape(r, -1)
    f_lo, f_hi, slots, shared = _frontier(lo, hi, active)
    room = max(_SWEEP_SHIFTS, lo.size) // (r * f_lo.shape[1])
    depth = (room + 1).bit_length() - 1
    if depth == 1 and not shared:
        return None, None, 1
    counts = _sturm_counts(diags, b2s, _tree_midpoints(f_lo, f_hi, depth))
    return counts, (slots * (2**depth - 1)).reshape(lanes_shape), depth


def _bisect(diags, b2s, lo, hi, targets, tol):
    """Per-lane bisection for the targets-th eigenvalue (1-based, ascending).

    lo and hi bracket each lane, shape (r,) or (r, k) as the shifts of
    `_sturm_counts`; targets and tol broadcast against them.  Returns the
    midpoints of the final brackets and the number of bisection levels.

    One Sturm sweep settles several levels (multisection, after Lo, Philippe
    & Sameh, SIAM J. Sci. Stat. Comput. 8, 1987): below each distinct bracket
    of the active lanes it counts at the midpoints of the next levels of the
    bisection tree, and the lanes then walk down that tree one level at a
    time.  A tree midpoint is computed as 0.5 * (lo + hi) from the same
    bracket the lane holds at that level, and a shift's count does not
    depend on the other shifts of the call, so every lane sees the same
    midpoints and counts, stops at the same level and returns the same
    value as with one sweep per level; the level count is the same too.
    """
    iterations = level = depth = 0
    while True:
        mid = 0.5 * (lo + hi)
        active = ((hi - lo) > tol) & (lo < mid) & (mid < hi)
        if not active.any():
            return mid, iterations
        if level == depth:
            counts, roots, depth = _plan_sweep(diags, b2s, lo, hi, active)
            level, node = 0, 0
        if counts is None:
            reached = _sturm_counts(diags, b2s, mid) >= targets
        else:
            at = np.take_along_axis(counts, (roots + node).reshape(len(counts), -1), axis=1)
            reached = at.reshape(roots.shape) >= targets
        upper = active & ~reached
        hi = np.where(active & reached, mid, hi)
        lo = np.where(upper, mid, lo)
        node = 2 * node + 1 + upper
        level += 1
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


def default_tol(lo, hi):
    """The tol used when none is given, from a bracket [lo, hi] (or arrays of them)."""
    return 1e-10 * np.maximum(1.0, hi - lo)


def _setup(diags, offdiags, tol):
    """Float arrays, squared off-diagonals, Gershgorin brackets and a tol per matrix.

    The default tol of a matrix comes from its own bracket, so that a lane's
    result does not depend on the other matrices of the batch.
    """
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    diags = np.asarray(diags, float)
    offdiags = np.asarray(offdiags, float)
    lo, hi = batch_gershgorin(diags, offdiags)
    tol = default_tol(lo, hi) if tol is None else np.full(lo.shape, float(tol))
    return diags, offdiags**2, lo, hi, tol


def lambda_max_batch(diags, offdiags, tol: float | None = None) -> np.ndarray:
    """Largest eigenvalue of each matrix in a (replicas, n) batch."""
    diags, b2s, lo, hi, tol = _setup(diags, offdiags, tol)
    return _bisect(diags, b2s, lo, hi, diags.shape[1], tol)[0]


def lambda_max(tri: TridiagonalMatrix, tol: float | None = None) -> float:
    """Largest eigenvalue via Sturm bisection; |result - true| <= tol."""
    return float(lambda_max_batch(*_as_batch(tri), tol)[0])


def _spectra(diags, offdiags, tol):
    """Sorted (replicas, n) spectra, the tol of each matrix and the level count.

    The k-th eigenvalue (k = 1..n) is located where the Sturm count first
    reaches k; the n bisections of a matrix run in lockstep.
    """
    diags, b2s, lo, hi, tol = _setup(diags, offdiags, tol)
    n = diags.shape[1]
    lo = np.repeat(lo[:, None], n, axis=1)
    hi = np.repeat(hi[:, None], n, axis=1)
    vals, iterations = _bisect(diags, b2s, lo, hi, np.arange(1, n + 1), tol[:, None])
    return np.sort(vals, axis=1), tol, iterations


def full_spectrum(tri: TridiagonalMatrix, tol: float | None = None) -> SpectrumResult:
    """All n eigenvalues by per-index bisection, sorted nondecreasing."""
    vals, tol, iterations = _spectra(*_as_batch(tri), tol)
    return SpectrumResult(eigenvalues=vals[0], tol=float(tol[0]), iterations=iterations)


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
