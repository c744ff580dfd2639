"""Log-space Selberg partition functions, the two partition-ratio
asymptotics, the two-point inequality behind the tail bound, and the tail
bound itself.

Everything lives in log space: the partition function grows superexponentially
and is never exponentiated.  Log-gamma values come from libm's `math.lgamma`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

_LOG_2PI = math.log(2.0 * math.pi)
_HALF_LOG_2PI = 0.5 * _LOG_2PI


def log_Z(n: int, alpha: float, beta: float) -> float:
    """log of the partition function of the n-particle ensemble.

    Selberg's evaluation:
    (-n/2 - beta*n*(n-1)/4) * log(alpha) + log(n!) + (n/2) * log(2*pi)
    + sum_{j=1..n} [log Gamma(j*beta/2) - log Gamma(beta/2)].
    """
    if n < 1:
        raise ValueError(f"log_Z requires n >= 1, got {n}")
    if alpha <= 0 or beta <= 0:
        raise ValueError("log_Z requires alpha > 0 and beta > 0")
    half_b = 0.5 * beta
    gamma_sum = sum(math.lgamma(j * half_b) for j in range(1, n + 1)) - n * math.lgamma(half_b)
    return (
        (-0.5 * n - beta * n * (n - 1) / 4.0) * math.log(alpha)
        + math.lgamma(n + 1.0)
        + 0.5 * n * _LOG_2PI
        + gamma_sum
    )


def _log_ratio_base(n: int, alpha: float, beta: float) -> float:
    """log of Z_{n-1, alpha}/Z_{n, alpha} in the algebraically reduced form
    -log n - log(2*pi)/2 + logGamma(beta/2) - logGamma(n*beta/2)
    + (1/2 + beta*(n-1)/2) * log(alpha),
    which avoids the catastrophic cancellation of the naive difference.
    """
    if n < 2:
        raise ValueError(f"ratio requires n >= 2, got {n}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    return (
        -math.log(n)
        - _HALF_LOG_2PI
        + math.lgamma(0.5 * beta)
        - math.lgamma(0.5 * n * beta)
        + (0.5 + 0.5 * beta * (n - 1)) * math.log(alpha)
    )


def exact_log_ratio_shift(n: int, beta: float) -> float:
    """log of Z_{n-1}/Z_n at the common scale alpha = n*beta/2."""
    return _log_ratio_base(n, 0.5 * n * beta, beta)


def asymptotic_log_ratio_shift(n: int, beta: float) -> float:
    """Limit form of the same log-ratio: n*beta/2 - log(2*pi)."""
    return 0.5 * n * beta - _LOG_2PI


def exact_log_ratio_perturbed(n: int, alpha: float, beta: float) -> float:
    """log of Z_{n-1, alpha - beta/4} / Z_{n, alpha}.

    Reduced form: the equal-scale ratio at alpha plus the scale-perturbation
    term (-(n-1)/2 - beta*(n-1)*(n-2)/4) * log(1 - beta/(4*alpha)).
    """
    if alpha - beta / 4.0 <= 0:
        raise ValueError("requires alpha - beta/4 > 0")
    extra = (-(n - 1) / 2.0 - beta * (n - 1) * (n - 2) / 4.0) * math.log1p(-beta / (4.0 * alpha))
    return _log_ratio_base(n, alpha, beta) + extra


def asymptotic_log_ratio_perturbed(n: int, beta: float) -> float:
    """Limit form at alpha = n*beta/2: 1/4 + (5/8)*n*beta - log(2*pi)."""
    return 0.25 + 0.625 * n * beta - _LOG_2PI


class RatioComparison(NamedTuple):
    """Exact vs asymptotic log partition ratio at one (n, beta)."""

    lemma: str  # "shift" | "perturbed"
    n: int
    beta: float
    exact_log_ratio: float
    asymptotic_log_ratio: float

    @property
    def gap(self) -> float:
        return self.exact_log_ratio - self.asymptotic_log_ratio


def compare_ratios(n: int, beta: float) -> tuple[RatioComparison, RatioComparison]:
    """Both lemma comparisons at alpha = n*beta/2."""
    shift = RatioComparison(
        "shift", n, beta,
        exact_log_ratio_shift(n, beta),
        asymptotic_log_ratio_shift(n, beta),
    )
    pert = RatioComparison(
        "perturbed", n, beta,
        exact_log_ratio_perturbed(n, 0.5 * n * beta, beta),
        asymptotic_log_ratio_perturbed(n, beta),
    )
    return shift, pert


def technical_gap(a: float, b: float, beta: float) -> float:
    """Log-space slack of |a+b|^beta <= 2^beta * exp(beta*(a^2+b^2)/8).

    Returns beta*log(2) + beta*(a^2+b^2)/8 - beta*log|a+b|, which is
    nonnegative; a + b = 0 makes the left side vanish, so the slack is the
    +inf marker.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    s = abs(a + b)
    if s == 0.0:
        return math.inf
    return beta * (math.log(2.0) + (a * a + b * b) / 8.0 - math.log(s))


def log_tail_bound(n: int, alpha: float, beta: float, t: float) -> float:
    """log of the largest-particle tail bound

    P(|lambda_1| >= t) <= 2^(n*beta + 3/2) / (alpha^(3/2) * t)
                          * Z_{n-1, alpha-beta/4} / Z_{n, alpha}
                          * exp(-alpha * t^2 / 4).
    """
    if n < 2:
        raise ValueError(f"tail bound requires n >= 2, got {n}")
    if t <= 0:
        raise ValueError("t must be positive")
    if alpha - beta / 4.0 <= 0:
        raise ValueError("tail bound requires alpha - beta/4 > 0")
    return (
        (n * beta + 1.5) * math.log(2.0)
        - 1.5 * math.log(alpha)
        - math.log(t)
        + exact_log_ratio_perturbed(n, alpha, beta)
        - alpha * t * t / 4.0
    )
