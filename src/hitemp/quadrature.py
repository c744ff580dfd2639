"""Adaptive Gauss-Kronrod quadrature used by the analytic-side oracles.

A 7/15-point Gauss-Kronrod rule drives greedy interval subdivision; known
integrand singularities are passed as split points so the subdivision never
straddles them.
"""

from __future__ import annotations

import heapq

import numpy as np

# 15-point Kronrod nodes on [-1, 1] and weights; the embedded 7-point Gauss
# rule uses the odd-indexed nodes.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_MAX_SUBDIVISIONS = 4000  # interval splits before the estimate is returned as is


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 estimate on [a, b] and |K15 - G7| error estimate."""
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + h * _XK
    y = np.array([f(v) for v in x], dtype=float)
    k15 = h * float(np.dot(_WK, y))
    g7 = h * float(np.dot(_WG, y[1::2]))
    return k15, abs(k15 - g7)


def adaptive_quad(f, a: float, b: float, tol: float = 1e-12, points=()) -> float:
    """Integrate f over [a, b] adaptively, splitting at interior `points`, to an
    error estimate of at most tol * max(1, |integral|).

    Integrable singularities listed in `points` become interval endpoints, so
    the rule never evaluates exactly there (endpoint node values would be
    +-inf; the open Kronrod nodes avoid a and b).
    """
    if b <= a:
        if b == a:
            return 0.0
        raise ValueError("integration limits must satisfy a < b")
    cuts = sorted({a, b, *(p for p in points if a < p < b)})

    heap = []  # (-error, index, lo, hi, estimate)
    total = 0.0
    err = 0.0
    serial = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        est, e = _gk15(f, lo, hi)
        total += est
        err += e
        heapq.heappush(heap, (-e, serial, lo, hi, est))
        serial += 1

    splits = 0
    while err > tol * max(1.0, abs(total)) and splits < _MAX_SUBDIVISIONS:
        neg_e, _, lo, hi, est = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        l_est, l_err = _gk15(f, lo, mid)
        r_est, r_err = _gk15(f, mid, hi)
        total += l_est + r_est - est
        err += l_err + r_err - (-neg_e)
        heapq.heappush(heap, (-l_err, serial, lo, mid, l_est))
        serial += 1
        heapq.heappush(heap, (-r_err, serial, mid, hi, r_est))
        serial += 1
        splits += 1
    return total
