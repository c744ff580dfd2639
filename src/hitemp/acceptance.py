"""Acceptance suite: one callable per criterion, each with pinned parameters
and tolerances, plus an orchestrator that prints one PASS/FAIL line each.

Every criterion checks an implementation against an independent route:
closed forms against adaptive quadrature, LAPACK spectra against
characteristic-polynomial roots, Monte Carlo against exact identities or
analytic bounds.  The oracles of that route live here: the quadrature twins
of the log potential and of J (criterion 1), the two-particle partition
function by nested quadrature (criterion 2) and characteristic-polynomial
roots (criterion 4).  Criteria 5 and 6 gather their one statistic each with
experiments._gather; 7-9 run the CLI's campaigns.  Runs are seeded and do not
depend on the worker count, which defaults to ExperimentConfig.workers;
criterion 10 checks 1 against 2.
"""

from __future__ import annotations

import math
import os
import tempfile
import time

import numpy as np

from . import cli, eig
from .analytic import log_potential_semicircle, rate_J
from .experiments import CheckResult, ExperimentConfig, _gather, run_esd_check, run_tail_sweep, run_tailbound_check
from .model import RegimeSchedule
from .partition import compare_ratios, log_Z, technical_gap
from .quadrature import adaptive_quad


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def charpoly_eigenvalues(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Spectrum from the explicitly expanded characteristic polynomial.

    Three-term recurrence in coefficient space,
    p_k = (a_k - x) p_{k-1} - b_{k-1}^2 p_{k-2}, then companion-matrix roots.
    Independent of the LAPACK and Sturm-count paths it cross-checks.
    """
    from numpy.polynomial import polynomial as P

    p_prev = np.array([1.0])
    p = np.array([diag[0], -1.0])
    for k in range(1, diag.size):
        term = P.polymul(np.array([diag[k], -1.0]), p)
        term[: p_prev.size] -= offdiag[k - 1] ** 2 * p_prev
        p_prev, p = p, term
    roots = np.polynomial.polynomial.polyroots(p)
    return np.sort(roots.real)


def log_potential_semicircle_quad(x: float) -> float:
    """Quadrature twin of analytic.log_potential_semicircle.

    After y = 2 sin(theta) the integrand is log|x - 2 sin(theta)| weighted by
    (2/pi) cos^2(theta), which absorbs the square-root edge factor; the
    remaining log singularity at theta = asin(x/2) is handled by an explicit
    split.
    """
    x = float(x)

    def integrand(theta):
        diff = x - 2.0 * math.sin(theta)
        if diff == 0.0:
            return 0.0  # removable in the integral; node never lands here after split
        return math.log(abs(diff)) * (2.0 / math.pi) * math.cos(theta) ** 2

    points = ()
    if abs(x) < 2.0:
        points = (math.asin(x / 2.0),)
    return adaptive_quad(integrand, -math.pi / 2.0, math.pi / 2.0, 1e-11, points=points)


def rate_J_quad(x: float) -> float:
    """Quadrature twin of analytic.rate_J: -phi(x, sigma) - 1/2 with the
    integral done numerically."""
    x = float(x)
    if x < 2.0:
        return math.inf
    return x * x / 4.0 - 0.5 - log_potential_semicircle_quad(x)


def log_z2_quadrature_oracle(alpha: float, beta: float) -> float:
    """log of the two-particle partition function by nested adaptive
    quadrature with a split at the |l1 - l2| kink."""
    lim = math.sqrt(2.0 * 700.0 / alpha)  # exp(-alpha/2 x^2) below 1e-304 outside
    lim = min(lim, 12.0 / math.sqrt(alpha) + 8.0)

    def inner(l1: float) -> float:
        f = lambda l2: math.exp(-0.5 * alpha * l2 * l2) * abs(l1 - l2) ** beta
        return adaptive_quad(f, -lim, lim, 1e-12, points=(l1,))

    outer = lambda l1: math.exp(-0.5 * alpha * l1 * l1) * inner(l1)
    return math.log(adaptive_quad(outer, -lim, lim, 1e-11))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1_rate_exactness(**_) -> CheckResult:
    ok = rate_J(2.0) == 0.0
    worst = 0.0
    for x in (2.01, 2.5, 3.0, 5.0):
        worst = max(worst,
                    abs(log_potential_semicircle(x) - log_potential_semicircle_quad(x)),
                    abs(rate_J(x) - rate_J_quad(x)))
    ok = ok and worst <= 1e-8
    return CheckResult("rate-function exactness", ok,
                       f"J(2)={rate_J(2.0)!r}, worst closed-vs-quadrature gap {worst:.2e} (tol 1e-8)")


def criterion_2_selberg(**_) -> CheckResult:
    gauss_gap = max(abs(log_Z(1, a, b) - 0.5 * math.log(2.0 * math.pi / a))
                    for a, b in ((1.0, 1.0), (5.0, 0.1)))
    quad_gap = abs(log_Z(2, 2.0, 1.0) - log_z2_quadrature_oracle(2.0, 1.0))
    ok = gauss_gap <= 1e-12 and quad_gap <= 1e-6
    return CheckResult("Selberg partition correctness", ok,
                       f"n=1 gap {gauss_gap:.2e} (tol 1e-12), n=2 quadrature gap {quad_gap:.2e} (tol 1e-6)")


def criterion_3_ratio_asymptotics(**_) -> CheckResult:
    gaps = {"shift": [], "perturbed": []}
    for n in (10**3, 10**4, 10**5, 10**6):
        beta = 1.0 / math.log(n) ** 2
        s, p = compare_ratios(n, beta)
        gaps["shift"].append(abs(s.gap))
        gaps["perturbed"].append(abs(p.gap))
    ok = all(
        all(b < a for a, b in zip(seq, seq[1:])) and seq[-1] <= 0.05
        for seq in gaps.values())
    return CheckResult("partition-ratio asymptotics", ok,
                       f"shift gaps {[f'{g:.4f}' for g in gaps['shift']]}, "
                       f"perturbed gaps {[f'{g:.4f}' for g in gaps['perturbed']]} (final <= 0.05)")


def criterion_4_eigensolver_oracle(**_) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=40404))
    worst_eig = 0.0
    count_mismatches = 0
    for _i in range(50):
        diag = rng.normal(size=8)
        offdiag = np.abs(rng.normal(size=7))
        ours = eig.batch_spectra(diag[None], offdiag[None])[0]
        oracle = charpoly_eigenvalues(diag, offdiag)
        worst_eig = max(worst_eig, float(np.max(np.abs(ours - oracle))))
        (lo,), (hi,) = eig.gershgorin(diag[None], offdiag[None])
        shifts = []
        while len(shifts) < 20:
            s = rng.uniform(lo - 0.5, hi + 0.5)
            if np.min(np.abs(oracle - s)) > 1e-6:  # stay off root neighborhoods
                shifts.append(s)
        shifts = np.array(shifts)[:, None]  # (20, 1): twenty shifts of one matrix
        counts = eig.counts_at_or_below(diag[None], offdiag[None], shifts)[:, 0]
        count_mismatches += int(np.sum(counts != np.sum(oracle < shifts, axis=1)))
    ok = worst_eig <= 1e-9 and count_mismatches == 0
    return CheckResult("eigensolver oracle equivalence", ok,
                       f"worst eigenvalue gap {worst_eig:.2e} (tol 1e-9), "
                       f"{count_mismatches} Sturm count mismatches over 1000 shifts")


def criterion_5_trace_identity(workers=ExperimentConfig.workers, quick=False, **_) -> CheckResult:
    replicas = 200 if quick else 2000
    cfg = ExperimentConfig(
        schedule=RegimeSchedule.constant(0.05), n_values=(500,), replicas=replicas,
        master_seed=50505, workers=workers)

    def second_moment(diags, offs):  # (1/n) sum lambda_i^2 = (sum d^2 + 2 sum e^2)/n, exactly
        return (np.sum(diags**2, axis=1) + 2.0 * np.sum(offs**2, axis=1)) / diags.shape[1]

    (vals,) = _gather(second_moment, cfg)
    params = cfg.params_for(500)
    exact = (1.0 + params.beta * (500 - 1) / 2.0) / params.alpha  # Dumitriu & Edelman 2002
    mean, stderr = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicas))
    z = (mean - exact) / stderr
    return CheckResult("trace identity Monte Carlo", abs(z) <= 4.0,
                       f"mean={mean:.6f} exact={exact:.6f} z={z:.2f} (|z| <= 4, {replicas} replicas)")


def criterion_6_convergence(workers=ExperimentConfig.workers, quick=False, **_) -> CheckResult:
    replicas = 100 if quick else 500
    cfg = ExperimentConfig(
        schedule=RegimeSchedule.constant(0.1), n_values=(500, 2000), replicas=replicas,
        master_seed=60606, workers=workers)

    def far_from_2(diags, offs):  # |lambda_max - 2| > 0.15: count(1.85) = n or count(2.15) < n
        n = diags.shape[1]
        low, high = eig.counts_at_or_below(diags, offs, np.repeat([[1.85], [2.15]], len(diags), 1))
        return (low == n) | (high < n)

    fracs = {n: float(np.mean(far)) for n, far in zip(cfg.n_values, _gather(far_from_2, cfg))}
    ok = fracs[2000] <= 0.05 and fracs[2000] <= fracs[500]
    return CheckResult("convergence in probability", ok,
                       f"frac(|lmax-2|>0.15): n=500 {fracs[500]:.3f}, n=2000 {fracs[2000]:.3f} "
                       f"(<= 0.05 and monotone)")


def criterion_7_ldp_rate(workers=ExperimentConfig.workers, quick=False, **_) -> CheckResult:
    replicas = 5000 if quick else 100_000
    cfg = ExperimentConfig(
        schedule=RegimeSchedule.constant(0.05), n_values=(200, 400), replicas=replicas,
        x_grid=(2.5,), master_seed=70707, workers=workers)
    by_n = {r.n: r for r in run_tail_sweep(cfg).rows}
    j = rate_J(2.5)
    err200 = abs(by_n[200].j_hat - j)
    err400 = abs(by_n[400].j_hat - j)
    ok = err200 / j <= 0.5 and err400 < err200
    return CheckResult("empirical LDP rate", ok,
                       f"J(2.5)={j:.4f}; j_hat n=200 {by_n[200].j_hat:.4f} (rel {err200 / j:.2f} <= 0.5), "
                       f"n=400 {by_n[400].j_hat:.4f}; |err| shrinks: {err400 < err200}")


def criterion_8_tail_bound(workers=ExperimentConfig.workers, quick=False, **_) -> CheckResult:
    replicas = 5000 if quick else 100_000
    cfg = ExperimentConfig(
        schedule=RegimeSchedule.constant(0.2), n_values=(50,), replicas=replicas,
        t_grid=(2.5, 3.0), master_seed=80808, workers=workers)
    report = run_tailbound_check(cfg)
    ok = all(r.passed for r in report.rows)
    detail = "; ".join(
        f"t={r.t:g}: q_hat={r.q_hat:.3g} <= bound {math.exp(r.log_bound):.3g}" for r in report.rows)
    return CheckResult("tail-bound validity", ok, detail)


def criterion_9_esd_convergence(workers=ExperimentConfig.workers, quick=False, **_) -> CheckResult:
    replicas = 6 if quick else 50
    cfg = ExperimentConfig(
        schedule=RegimeSchedule.constant(0.1), n_values=(250, 1000, 4000), replicas=replicas,
        master_seed=90909, workers=workers)
    report = run_esd_check(cfg)
    w1 = [r.w1_mean for r in report.rows]
    energy = report.rows[-1].energy_norm
    ok = all(b < a for a, b in zip(w1, w1[1:])) and w1[-1] <= 0.05 and abs(energy) <= 0.02
    return CheckResult("ESD convergence", ok,
                       f"W1 means {[f'{v:.4f}' for v in w1]} (decreasing, final <= 0.05); "
                       f"energy(normalized) at n=4000 {energy:.4f} (|.| <= 0.02)")


def criterion_10_property_suite(quick=False, **_) -> CheckResult:
    rng = np.random.Generator(np.random.Philox(key=101010))

    triples = 10_000 if quick else 100_000
    a = rng.normal(0.0, 3.0, size=triples)
    b = rng.normal(0.0, 3.0, size=triples)
    betas = rng.uniform(0.0, 2.0, size=triples)
    betas[betas == 0.0] = 1.0
    neg = sum(1 for i in range(triples) if technical_gap(a[i], b[i], betas[i]) < 0.0)

    mono_bad = 0
    for _i in range(1000):
        n = int(rng.integers(2, 12))
        diag, offdiag = rng.normal(size=(1, n)), np.abs(rng.normal(size=(1, n - 1)))
        (lo,), (hi,) = eig.gershgorin(diag, offdiag)
        x, y = sorted(rng.uniform(lo - 1.0, hi + 1.0, size=2))
        cx, cy = eig.counts_at_or_below(diag, offdiag, [[x], [y]])[:, 0]
        mono_bad += int(cx > cy)

    argv = ["sweep", "--schedule", "const", "--c", "0.1", "--n", "100",
            "--replicas", "60", "--x", "2.2,2.4", "--seed", "1234"]
    outputs, codes = [], []
    for w in ("1", "2"):
        with tempfile.NamedTemporaryFile(suffix=".csv", delete=False) as tmp:
            path = tmp.name
        codes.append(cli.main(argv + ["--workers", w, "--out", path]))
        with open(path, "rb") as fh:
            outputs.append(fh.read())
        os.unlink(path)
    identical = outputs[0] == outputs[1]

    ok = neg == 0 and mono_bad == 0 and identical and codes == [0, 0]
    return CheckResult("inequality/monotonicity/determinism suite", ok,
                       f"{neg} negative gaps over {triples} triples; {mono_bad} Sturm monotonicity "
                       f"violations; worker-count CSV identical: {identical}"
                       + ("" if codes == [0, 0] else f"; sweep exit codes {codes} (not 0)"))


_CRITERIA = (
    criterion_1_rate_exactness,
    criterion_2_selberg,
    criterion_3_ratio_asymptotics,
    criterion_4_eigensolver_oracle,
    criterion_5_trace_identity,
    criterion_6_convergence,
    criterion_7_ldp_rate,
    criterion_8_tail_bound,
    criterion_9_esd_convergence,
    criterion_10_property_suite,
)


def run_all(workers: int = ExperimentConfig.workers, quick: bool = False, log=None) -> list:
    """Run all criteria in order, optionally logging one line per criterion."""
    results = []
    for index, fn in enumerate(_CRITERIA, 1):
        t0 = time.perf_counter()
        res = fn(workers=workers, quick=quick)
        results.append(res)
        if log is not None:
            status = "PASS" if res.passed else "FAIL"
            log(f"[{status}] criterion {index}: {res.name} — {res.detail} ({time.perf_counter() - t0:.1f}s)")
    return results
