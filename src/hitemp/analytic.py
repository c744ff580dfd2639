"""Semicircle law, logarithmic potentials, the largest-particle rate function
and the empirical-measure energy functional.

Closed forms only; the quadrature twins of the log potential and of J, which
criterion 1 checks them against, live in `acceptance`.  Extended-real results
are returned as explicit +-inf markers and never fed back into arithmetic.
"""

from __future__ import annotations

import math

import numpy as np


def semicircle_cdf(x):
    """Distribution function: 1/2 + x*sqrt(4-x^2)/(4*pi) + asin(x/2)/pi."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -2.0, 2.0)
    out = 0.5 + xc * np.sqrt(4.0 - xc**2) / (4.0 * math.pi) + np.arcsin(xc / 2.0) / math.pi
    out = np.where(x <= -2.0, 0.0, np.where(x >= 2.0, 1.0, out))
    return float(out) if out.ndim == 0 else out


def semicircle_cdf_antiderivative(x):
    """Antiderivative of the cdf, normalized so it vanishes at -2.

    Used by the exact piecewise Wasserstein computation: polynomial plus
    arcsine terms, S(x) = x/2 - (4-x^2)^(3/2)/(12*pi)
    + (x*asin(x/2) + sqrt(4-x^2))/pi on [-2,2], S(-2)=0, S(2)=2.
    """
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -2.0, 2.0)
    s = (
        xc / 2.0
        - (4.0 - xc**2) ** 1.5 / (12.0 * math.pi)
        + (xc * np.arcsin(xc / 2.0) + np.sqrt(4.0 - xc**2)) / math.pi
    )
    s = np.where(x < -2.0, 0.0, s)
    s = np.where(x > 2.0, 2.0 + (x - 2.0), s)  # cdf is 1 beyond the edge
    return float(s) if s.ndim == 0 else s


def log_potential_semicircle(x: float) -> float:
    """Integral of log|x - y| against the semicircle law, in closed form.

    x^2/4 - 1/2 inside [-2, 2]; outside, u + e^(-2u)/2 with u = acosh(|x|/2),
    a sum of positive terms, so that no digits cancel at large |x|.
    """
    ax = abs(float(x))
    if ax <= 2.0:
        return ax * ax / 4.0 - 0.5
    u = math.acosh(ax / 2.0)
    return u + math.exp(-2.0 * u) / 2.0


_EDGE_SERIES = [math.comb(2 * k, k) * (-1) ** (k + 1) / ((2 * k - 1) * 16.0 ** k) * 3 / (2 * k + 3)
                for k in range(27, -1, -1)]  # d_27..d_0 of rate_J's series, enough for t < 1


def rate_J(x: float) -> float:
    """Large-deviation rate of the largest particle at speed n*beta: +inf below
    2, x*sqrt(x^2-4)/4 - log((x + sqrt(x^2-4))/2) = -phi - 1/2 above, for phi =
    log_potential_semicircle(x) - x^2/4.  For t = x - 2 < 1, where that form
    cancels (by up to 13 ulp at t = 1/4), the integral of sqrt(y (4 + y))/2
    over [0, t] term by term: (2/3) t^(3/2) sum_k d_k t^k, d_k = binom(1/2, k)
    4^-k 3/(2k+3), which is exactly 0 at the edge.  +inf once x^2/4 overflows."""
    x = float(x)
    if x < 2.0:
        return math.inf
    t = x - 2.0
    if t < 1.0:
        return t * math.sqrt(t) * float(np.polyval(_EDGE_SERIES, t)) / 1.5
    root = math.sqrt(x * x - 4.0)
    if root == math.inf:  # x^2 overflowed; J = x^2/4 - log(x) - 1/2 - O(x^-2) rounds to x^2/4
        return x * (x / 4.0)
    return x * root / 4.0 - math.log((x + root) / 2.0)


_PAIR_SCRATCH = 32768  # doubles in _offdiag_log_mean's gap buffer (256 KB)


def _offdiag_log_mean(atoms: np.ndarray) -> float:
    """Mean of log|x_i - x_j| over ordered off-diagonal pairs of sorted atoms.

    Row blocks [lo, hi) against the columns lo+1..m-1 fill one scratch buffer
    with the gaps x_j - x_i; the entries with j <= i at a block's left edge
    are set to 1, so their log adds 0.  -inf (as a marker) if two atoms
    coincide exactly, which for sorted atoms means two neighbours do.
    """
    m = atoms.size
    if np.any(atoms[1:] == atoms[:-1]):
        return -math.inf
    buf = np.empty(max(m - 1, _PAIR_SCRATCH))
    total, lo = 0.0, 0
    while lo < m - 1:
        width = m - 1 - lo
        hi = min(m - 1, lo + max(1, _PAIR_SCRATCH // width))
        gaps = buf[:(hi - lo) * width].reshape(hi - lo, width)
        np.subtract(atoms[lo + 1:], atoms[lo:hi, None], out=gaps)
        gaps[:, :hi - lo][np.tri(hi - lo, k=-1, dtype=bool)] = 1.0
        total += float(np.sum(np.log(gaps, out=gaps)))
        lo = hi
    return 2.0 * total / (m * (m - 1.0))


def energy_I(mu) -> tuple[float, float]:
    """Energy functional of a DiscreteMeasure over off-diagonal atom pairs, as
    the pair (normalized, paper).

    "paper" evaluates mean[(x^2+y^2)/2] - mean[log|x-y|]/2 - 3/8, which takes
    the value 3/4 at the semicircle law; "normalized" replaces (x^2+y^2)/2 by
    (x^2+y^2)/8, so the semicircle sits at 0.  Both come from the measure's
    sorted atoms, one second moment m2 and one pair pass, and differ by
    (3/4)*m2.  Diagonal pairs are excluded and the double sum is divided by
    m(m-1).  Coincident atoms make the log term -inf, so both results are the
    +inf marker.
    """
    atoms = mu.atoms
    if atoms.size < 2:
        raise ValueError("energy_I needs a measure with at least 2 atoms")
    m2 = float(np.mean(atoms**2))
    log_mean = _offdiag_log_mean(atoms)
    if log_mean == -math.inf:
        return math.inf, math.inf
    return m2 / 4.0 - 0.5 * log_mean - 0.375, m2 - 0.5 * log_mean - 0.375
