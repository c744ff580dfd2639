"""Reference routes that only the tests use, each independent of the package
path it checks: the Philox stream of one block, the log-space chi variate,
the semicircle's midpoint-quantile measure, W1 by adaptive quadrature and the
three-particle partition function on a Gauss-Hermite grid.

Named so that it cannot shadow perfbench's oracles.py or checks.py when one
pytest session puts both directories on sys.path.
"""

from __future__ import annotations

import math

import numpy as np

from hitemp.analytic import semicircle_cdf
from hitemp.measures import DiscreteMeasure, _cdf_inverse
from hitemp.quadrature import adaptive_quad


def block_stream(key: int, b: int) -> np.random.Generator:
    """Block b of the cell keyed `key`, as STREAM_CONTRACT states it:
    Philox keyed with key + b * 2^64, from its first draw."""
    return np.random.Generator(np.random.Philox(key=key + b * 2**64))


def log_chi(k, rng: np.random.Generator, size=None):
    """log of a chi(k) variate, exact for every shape k > 0.

    chi(k)^2 is Gamma(k/2, scale 2).  The Gamma(k/2) variate is obtained by
    the shape boost G_a = G_{a+1} * U^(1/a) with a = k/2, taken in log space
    so the U^(2/k) factor cannot underflow before it has to.
    """
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr <= 0) or not np.all(np.isfinite(k_arr)):
        raise ValueError("chi requires every shape k > 0")
    scalar = k_arr.ndim == 0 and size is None
    if size is not None:
        k_arr = np.broadcast_to(k_arr, (size,) if np.isscalar(size) else size)
    elif k_arr.ndim == 0:
        k_arr = k_arr.reshape(())
    g_boost = rng.standard_gamma(np.atleast_1d(k_arr) / 2.0 + 1.0)
    # log U with U ~ Uniform(0,1]: log1p(-random()) never hits -inf
    log_u = np.log1p(-rng.random(g_boost.shape))
    log_g = np.log(g_boost) + (2.0 / np.atleast_1d(k_arr)) * log_u
    out = 0.5 * (math.log(2.0) + log_g)
    out = out.reshape(k_arr.shape)
    return float(out) if scalar else out


def semicircle_quantile_measure(m: int) -> DiscreteMeasure:
    """Midpoint-quantile discretization of the semicircle law.

    Atoms at F^-1((j - 1/2)/m), which keeps them away from the edge-density
    blow-up at +-2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    probs = (np.arange(m) + 0.5) / m
    return DiscreteMeasure(_cdf_inverse(probs, -2.0, 2.0))


def w1_quadrature(mu: DiscreteMeasure) -> float:
    """int |F_mu - F_sigma| dx, integrated numerically on every cell between
    atoms (and out to +-2), where F_mu is the constant c."""
    a = mu.atoms
    edges = np.concatenate(([min(a[0], -2.0)], a, [max(a[-1], 2.0)]))
    total = 0.0
    for lo, hi, c in zip(edges[:-1], edges[1:], np.arange(a.size + 1) / a.size):
        if hi > lo:
            total += adaptive_quad(lambda x, c=c: abs(c - semicircle_cdf(x)), lo, hi, 1e-10)
    return total


def log_z3_hermite_oracle(alpha: float, beta: float) -> float:
    """log of the three-particle partition function for even integer beta
    via tensor Gauss-Hermite, exact because |Delta|^beta is a polynomial."""
    if beta != int(beta) or int(beta) % 2:
        raise ValueError("Hermite oracle needs even integer beta")
    deg = 3 * int(beta) // 2 + 2
    nodes, weights = np.polynomial.hermite.hermgauss(deg * 2)
    # physicists' rule integrates exp(-x^2); rescale to exp(-alpha/2 x^2)
    scale = math.sqrt(2.0 / alpha)
    x = nodes * scale
    w = weights * scale
    total = 0.0
    for i, xi in enumerate(x):
        for j, xj in enumerate(x):
            d_ij = abs(xi - xj) ** beta
            for k, xk in enumerate(x):
                total += w[i] * w[j] * w[k] * d_ij * abs(xi - xk) ** beta * abs(xj - xk) ** beta
    return math.log(total)
