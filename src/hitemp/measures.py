"""Empirical spectral measures and their distances to the semicircle law.

The Wasserstein-1 distance is the area between distribution functions, which
in one dimension is exact and O(m): the empirical CDF is flat between atoms
and the semicircle CDF integrates in closed form (polynomial plus arcsine
terms), so each cell contributes an explicit expression once the single
crossing point, if any, is located by monotone bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import (
    semicircle_cdf,
    semicircle_cdf_antiderivative,
)
from .quadrature import adaptive_quad


@dataclass(frozen=True)
class DiscreteMeasure:
    """Equal-weight atoms, kept sorted."""

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.sort(np.asarray(self.atoms, dtype=float))
        if atoms.ndim != 1 or atoms.size < 1:
            raise ValueError("a discrete measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "atoms", atoms)

    @property
    def m(self) -> int:
        return self.atoms.size


def _cdf_inverse(probs: np.ndarray, lo, hi) -> np.ndarray:
    """Monotone bisection inverse of the semicircle CDF on the bracket
    [lo, hi], which broadcasts against probs."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = semicircle_cdf(mid) < probs
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def semicircle_quantile_measure(m: int) -> DiscreteMeasure:
    """Midpoint-quantile discretization of the semicircle law.

    Atoms at F^-1((j - 1/2)/m), which keeps them away from the edge-density
    blow-up at +-2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    probs = (np.arange(m) + 0.5) / m
    return DiscreteMeasure(_cdf_inverse(probs, -2.0, 2.0))


def w1_to_semicircle(mu: DiscreteMeasure, method: str = "closed_form") -> float:
    """L1 Wasserstein distance between mu and the semicircle law.

    Exact piecewise evaluation of int |F_mu - F_sigma| dx.  The quadrature
    method integrates every cell numerically instead and exists as a
    cross-check / fallback.
    """
    a = mu.atoms
    m = a.size
    edges = np.concatenate(([min(a[0], -2.0)], a, [max(a[-1], 2.0)]))
    left = edges[:-1]
    right = edges[1:]
    c = np.arange(m + 1) / m

    if method == "quadrature":
        total = 0.0
        for lo, hi, cc in zip(left, right, c):
            if hi > lo:
                total += adaptive_quad(lambda x, cc=cc: abs(cc - semicircle_cdf(x)), lo, hi, 1e-10)
        return total
    if method != "closed_form":
        raise ValueError(f"unknown method {method!r}")

    # flat semicircle CDF outside [-2, 2]
    below_len = np.clip(np.minimum(right, -2.0) - left, 0.0, None)
    above_len = np.clip(right - np.maximum(left, 2.0), 0.0, None)
    total = float(np.sum(c * below_len) + np.sum((1.0 - c) * above_len))

    lo = np.maximum(left, -2.0)
    hi = np.minimum(right, 2.0)
    live = hi > lo
    lo, hi, cc = lo[live], hi[live], c[live]
    f_lo = semicircle_cdf(lo)
    f_hi = semicircle_cdf(hi)
    s_lo = semicircle_cdf_antiderivative(lo)
    s_hi = semicircle_cdf_antiderivative(hi)

    crossing = (f_lo < cc) & (cc < f_hi)
    plain = ~crossing
    total += float(np.sum(np.abs((s_hi - s_lo) - cc * (hi - lo))[plain]))

    if crossing.any():
        target = cc[crossing]
        xc = _cdf_inverse(target, lo[crossing], hi[crossing])
        s_c = semicircle_cdf_antiderivative(xc)
        left_part = target * (xc - lo[crossing]) - (s_c - s_lo[crossing])
        right_part = (s_hi[crossing] - s_c) - target * (hi[crossing] - xc)
        total += float(np.sum(np.abs(left_part) + np.abs(right_part)))
    return total


def ks_to_semicircle(mu: DiscreteMeasure) -> float:
    """Two-sided Kolmogorov-Smirnov distance sup |F_mu - F_sigma|."""
    a = mu.atoms
    m = a.size
    f = semicircle_cdf(a)
    j = np.arange(1, m + 1)
    d_plus = float(np.max(j / m - f))
    d_minus = float(np.max(f - (j - 1) / m))
    return max(d_plus, d_minus, 0.0)
