"""Independent reference computations for the benchmark's output checks.

Nothing here imports hitemp: eigenvalues come from LAPACK through scipy, J
from mpmath quadrature, the Selberg integral from scipy's log-gamma, W1 from a
midpoint rule on a grid refined at every atom, and the energy from a dense
pair sum.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import gammaln

W1_STEP = 1e-5  # grid step of the W1 quadrature; its error is below 1e-7 for m <= 4000


def lambda_max(diag, offdiag) -> float:
    n = len(diag)
    return float(eigvalsh_tridiagonal(diag, offdiag, select="i", select_range=(n - 1, n - 1))[0])


def spectrum(diag, offdiag) -> np.ndarray:
    """All eigenvalues, ascending."""
    return eigvalsh_tridiagonal(diag, offdiag)


def rate_J(x: float) -> float:
    """J(x) = integral from 2 to x of sqrt(y^2 - 4)/2 dy, by tanh-sinh quadrature."""
    with mpmath.workdps(30):
        return float(mpmath.quad(lambda y: mpmath.sqrt(y * y - 4) / 2, [2, x]))


def log_Z(n: int, alpha: float, beta: float) -> float:
    """log of Mehta's integral of exp(-(alpha/2) sum l^2) prod |l_i - l_j|^beta:
    (2 pi)^(n/2) alpha^(-n/2 - beta n (n-1)/4) prod_j Gamma(1 + j beta/2)/Gamma(1 + beta/2)."""
    j = np.arange(1, n + 1)
    return ((-n / 2 - beta * n * (n - 1) / 4) * math.log(alpha) + n / 2 * math.log(2 * math.pi)
            + float(np.sum(gammaln(1 + j * beta / 2))) - n * float(gammaln(1 + beta / 2)))


def log_tail_bound(n: int, alpha: float, beta: float, t: float) -> float:
    """log[2^(n beta + 3/2) / (alpha^(3/2) t) * Z_{n-1, alpha-beta/4} / Z_{n, alpha}
    * exp(-alpha t^2 / 4)]."""
    return ((n * beta + 1.5) * math.log(2) - 1.5 * math.log(alpha) - math.log(t)
            + log_Z(n - 1, alpha - beta / 4, beta) - log_Z(n, alpha, beta) - alpha * t * t / 4)


def semicircle_cdf(x):
    x = np.clip(np.asarray(x, float), -2.0, 2.0)
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4 * math.pi) + np.arcsin(x / 2) / math.pi


def w1_to_semicircle(atoms) -> float:
    """Integral of |F_mu - F_sigma| by the midpoint rule.

    The grid holds every atom, so F_mu is constant on each cell and only the
    kink of |.| at a crossing costs accuracy: at most h^2/(4 pi) per cell.
    """
    a = np.sort(np.asarray(atoms, float))
    lo, hi = min(a[0], -2.0), max(a[-1], 2.0)
    grid = np.linspace(lo, hi, int((hi - lo) / W1_STEP) + 2)
    pts = np.unique(np.concatenate([grid, a, [-2.0, 2.0]]))
    mid = 0.5 * (pts[:-1] + pts[1:])
    f_mu = np.searchsorted(a, mid, side="right") / a.size
    return float(np.sum(np.abs(f_mu - semicircle_cdf(mid)) * np.diff(pts)))


def ks_to_semicircle(atoms) -> float:
    a = np.sort(np.asarray(atoms, float))
    f = semicircle_cdf(a)
    i = np.arange(1, a.size + 1)
    return float(max(np.max(i / a.size - f), np.max(f - (i - 1) / a.size), 0.0))


def energies(atoms) -> tuple[float, float]:
    """(normalized, paper) energies: mean over pairs i != j of
    (x^2+y^2)/8 resp. (x^2+y^2)/2, minus log|x-y|/2, minus 3/8."""
    a = np.asarray(atoms, float)
    m = a.size
    gaps = np.abs(a[:, None] - a[None, :])
    np.fill_diagonal(gaps, 1.0)
    log_mean = float(np.sum(np.log(gaps))) / (m * (m - 1))
    m2 = float(np.mean(a * a))
    return m2 / 4 - log_mean / 2 - 0.375, m2 - log_mean / 2 - 0.375
