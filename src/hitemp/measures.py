"""Empirical spectral measures and their distances to the semicircle law.

The Wasserstein-1 distance is the area between distribution functions,
W1 = int |F_mu - F| dx, exact and O(m) in one dimension. With g = F_mu - F,
|g| = 2 g_+ - g and int g dx = -mean(atoms), so

    W1 = mean(atoms) + 2 sum_k int_{a_k}^{a_{k+1}} (k/m - F)_+ dx,

where cell k runs from atom a_k to a_{k+1}, and the last one to
max(a_m, 2). F rises through each cell, so (k/m - F)_+ is positive up to
the point x_k where F reaches k/m, and the cell contributes
k/m (x_k - a_k) - (S(x_k) - S(a_k)) with S the closed-form antiderivative
of F. x_k is found by monotone bisection only in the cells where F
crosses k/m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import semicircle_cdf, semicircle_cdf_antiderivative


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


def _cdf_inverse(probs: np.ndarray, lo, hi) -> np.ndarray:
    """Monotone bisection inverse of the semicircle CDF on the bracket
    [lo, hi], which broadcasts against probs."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = semicircle_cdf(mid) < probs
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def w1_to_semicircle(mu: DiscreteMeasure) -> float:
    """L1 Wasserstein distance between mu and the semicircle law, by the
    identity in the module docstring."""
    a = mu.atoms
    m = a.size
    hi = np.append(a[1:], max(a[-1], 2.0))
    c = np.arange(1, m + 1) / m
    f_lo = semicircle_cdf(a)
    x = np.where(f_lo >= c, a, hi)
    cross = (f_lo < c) & (c < semicircle_cdf(hi))
    if cross.any():
        x[cross] = _cdf_inverse(c[cross], a[cross], hi[cross])
    s = semicircle_cdf_antiderivative
    return float(np.mean(a) + 2.0 * np.sum(c * (x - a) - (s(x) - s(a))))


def ks_to_semicircle(mu: DiscreteMeasure) -> float:
    """Two-sided Kolmogorov-Smirnov distance sup |F_mu - F_sigma|."""
    a = mu.atoms
    m = a.size
    f = semicircle_cdf(a)
    j = np.arange(1, m + 1)
    d_plus = float(np.max(j / m - f))
    d_minus = float(np.max(f - (j - 1) / m))
    return max(d_plus, d_minus, 0.0)
