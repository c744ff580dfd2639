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

    @property
    def n_beta(self) -> float:
        return self.n * self.beta


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
    """A named rule n -> beta(n).

    Supported forms: c/(log n)^p with p >= 1, c*n^(-gamma) with 0 < gamma < 1,
    and the constant schedule.
    """

    name: str
    kind: str  # "inverse_log_power" | "power_decay" | "constant"
    c: float
    exponent: float = 0.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"schedule coefficient must be positive, got {self.c!r}")
        if self.kind == "inverse_log_power":
            if self.exponent < 1:
                raise ValueError("inverse_log_power requires exponent p >= 1")
        elif self.kind == "power_decay":
            if not (0 < self.exponent < 1):
                raise ValueError("power_decay requires 0 < gamma < 1")
        elif self.kind != "constant":
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    def beta(self, n: int) -> float:
        if n < 2:
            raise ValueError(f"schedules are defined for n >= 2, got {n}")
        if self.kind == "inverse_log_power":
            return self.c / math.log(n) ** self.exponent
        if self.kind == "power_decay":
            return self.c * float(n) ** (-self.exponent)
        return self.c

    # common constructions
    @staticmethod
    def inverse_log_power(c: float, p: float) -> "RegimeSchedule":
        return RegimeSchedule(f"invlog{p:g}", "inverse_log_power", c, p)

    @staticmethod
    def inverse_log_squared(c: float = 1.0) -> "RegimeSchedule":
        return RegimeSchedule("invlogsq", "inverse_log_power", c, 2.0)

    @staticmethod
    def power_decay(c: float, gamma: float) -> "RegimeSchedule":
        return RegimeSchedule(f"pow{gamma:g}", "power_decay", c, gamma)

    @staticmethod
    def constant(c: float) -> "RegimeSchedule":
        return RegimeSchedule(f"const{c:g}", "constant", c)

    @staticmethod
    def from_dict(d: dict) -> "RegimeSchedule":
        missing = [key for key in ("name", "kind", "c") if key not in d]
        if missing:
            raise ValueError(f"schedule lacks key(s) {', '.join(map(repr, missing))}")
        if not isinstance(d["name"], str):
            raise ValueError(f"schedule 'name' must be a string, got {d['name']!r}")
        if not all(type(d.get(key, 0.0)) in (int, float) for key in ("c", "exponent")):  # not bool
            raise ValueError(f"schedule 'c' and 'exponent' must be numbers, got {d!r}")
        return RegimeSchedule(d["name"], d["kind"], float(d["c"]), float(d.get("exponent", 0.0)))
