"""Ensemble parameters, temperature schedules and regime diagnostics.

The ensemble of interest is the Gaussian beta-ensemble with joint density
proportional to exp(-(alpha/2) sum lambda_i^2) * prod |lambda_i - lambda_j|^beta,
simulated in the high-temperature window where beta shrinks with n but
n*beta still grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class EnsembleParams:
    """Particle count n, inverse temperature beta and Gaussian scale alpha."""

    n: int
    beta: float
    alpha: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be a positive finite real, got {self.beta!r}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha!r}")


def make_params(n: int, beta: float, plus_one_alpha: bool = False) -> EnsembleParams:
    """Build ensemble parameters with the canonical scale alpha = n*beta/2.

    With ``plus_one_alpha`` the scale becomes 1 + n*beta/2, the variant under
    which the asymptotic second moment of the spectral measure is exactly 1.
    """
    alpha = n * beta / 2.0
    if plus_one_alpha:
        alpha = 1.0 + alpha
    return EnsembleParams(n=n, beta=float(beta), alpha=alpha)


class RegimeReport(NamedTuple):
    """Diagnostics for the window log(n)/n << beta << 1/log(n) at concrete n."""

    n: int
    beta: float
    n_beta: float
    beta_log_n: float
    log_n_over_n_beta: float
    inside_window: bool


def regime_report(params: EnsembleParams) -> RegimeReport:
    """Report n*beta, beta*log(n), log(n)/(n*beta) and a window indicator.

    The asymptotic conditions are replaced by the concrete-n proxies
    n*beta > log(n) and beta*log(n) < 1.
    """
    log_n = math.log(params.n)
    n_beta = params.n * params.beta
    return RegimeReport(
        n=params.n,
        beta=params.beta,
        n_beta=n_beta,
        beta_log_n=params.beta * log_n,
        log_n_over_n_beta=log_n / n_beta,
        inside_window=(n_beta > log_n) and (params.beta * log_n < 1.0),
    )


@dataclass(frozen=True)
class RegimeSchedule:
    """A rule n -> beta(n) with coefficient c > 0 (the CLI's --c), by kind:
    "inverse_log_power" c/(log n)^p, exponent p >= 1 (--schedule invlogsq is
    p = 2, invlog takes --p); "power_decay" c*n^(-gamma), exponent
    0 < gamma < 1 (power, --gamma); "constant" c, exponent 0 (const)."""

    kind: str
    c: float
    exponent: float = 0.0

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c) and math.isfinite(self.exponent)):
            raise ValueError(f"schedule needs a finite coefficient c > 0 and a finite exponent, got {self!r}")
        if self.kind == "inverse_log_power" and self.exponent < 1:
            raise ValueError("inverse_log_power requires exponent p >= 1")
        if self.kind == "power_decay" and not 0 < self.exponent < 1:
            raise ValueError("power_decay requires 0 < gamma < 1")
        if self.kind not in ("inverse_log_power", "power_decay", "constant"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    def beta(self, n: int) -> float:
        if n < 2:
            raise ValueError(f"schedules are defined for n >= 2, got {n}")
        if self.kind == "inverse_log_power":
            return self.c / math.log(n) ** self.exponent
        if self.kind == "power_decay":
            return self.c * float(n) ** (-self.exponent)
        return self.c

    @staticmethod
    def constant(c: float) -> "RegimeSchedule":
        return RegimeSchedule("constant", c)

    @staticmethod
    def from_dict(d: dict) -> "RegimeSchedule":
        """Reads kind, c and exponent; other keys (a 0.4.0 manifest's name) are ignored."""
        missing = [key for key in ("kind", "c") if key not in d]
        if missing:
            raise ValueError(f"schedule lacks key(s) {', '.join(map(repr, missing))}")
        if not all(type(d.get(key, 0.0)) in (int, float) for key in ("c", "exponent")):  # not bool
            raise ValueError(f"schedule 'c' and 'exponent' must be numbers, got {d!r}")
        return RegimeSchedule(d["kind"], float(d["c"]), float(d.get("exponent", 0.0)))
