import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitemp.acceptance import log_z2_quadrature_oracle
from hitemp.partition import (
    asymptotic_log_ratio_perturbed,
    asymptotic_log_ratio_shift,
    compare_ratios,
    exact_log_ratio_perturbed,
    exact_log_ratio_shift,
    log_Z,
    log_tail_bound,
    technical_gap,
)
from reference_oracles import log_z3_hermite_oracle


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (5.0, 0.1)])
def test_log_z_single_particle_gaussian(alpha, beta):
    # the interaction product is empty at n=1: plain Gaussian integral
    assert abs(log_Z(1, alpha, beta) - 0.5 * math.log(2 * math.pi / alpha)) <= 1e-12


def test_log_z_two_particles_against_quadrature():
    assert abs(log_Z(2, 2.0, 1.0) - log_z2_quadrature_oracle(2.0, 1.0)) <= 1e-6


def test_log_z_three_particles_against_hermite_grid():
    # |Delta|^2 is a polynomial, so the tensor Gauss-Hermite grid is exact
    assert abs(log_Z(3, 1.0, 2.0) - log_z3_hermite_oracle(1.0, 2.0)) <= 1e-3
    # frozen closed form for the same point: log(12) + 1.5*log(2*pi)
    assert log_Z(3, 1.0, 2.0) == pytest.approx(5.2417222494020185, rel=1e-14)


def test_log_z_validation():
    with pytest.raises(ValueError):
        log_Z(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        log_Z(3, -1.0, 1.0)
    with pytest.raises(ValueError):
        log_Z(3, 1.0, 0.0)


def test_log_z_decreasing_in_alpha():
    for n, beta in ((3, 0.5), (10, 0.1), (40, 1.0)):
        vals = [log_Z(n, a, beta) for a in (0.5, 1.0, 2.0, 5.0, 10.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_shift_ratio_reduced_matches_naive():
    n, beta = 50, 0.2
    naive = log_Z(n - 1, n * beta / 2, beta) - log_Z(n, n * beta / 2, beta)
    assert abs(exact_log_ratio_shift(n, beta) - naive) <= 1e-8


def test_perturbed_ratio_reduced_matches_naive():
    n, alpha, beta = 50, 5.0, 0.2
    naive = log_Z(n - 1, alpha - beta / 4, beta) - log_Z(n, alpha, beta)
    assert abs(exact_log_ratio_perturbed(n, alpha, beta) - naive) <= 1e-8


def _mp_log_ratio(n, alpha, beta, perturbed):
    # the reduced forms of both ratios, at 50 digits on the same float inputs
    with mpmath.workdps(50):
        n_, a, b = mpmath.mpf(n), mpmath.mpf(alpha), mpmath.mpf(beta)
        base = (-mpmath.log(n_) - mpmath.log(2 * mpmath.pi) / 2 + mpmath.loggamma(b / 2)
                - mpmath.loggamma(n_ * b / 2) + (0.5 + b * (n_ - 1) / 2) * mpmath.log(a))
        if perturbed:
            base += (-(n_ - 1) / 2 - b * (n_ - 1) * (n_ - 2) / 4) * mpmath.log(1 - b / (4 * a))
        return float(base)


@pytest.mark.parametrize("n", [2, 50, 10**3, 10**4, 10**6])
@pytest.mark.parametrize("beta", [1e-6, None, 0.2, 2.0])
def test_log_ratios_match_mpmath(n, beta):
    # math.lgamma feeds both ratios; the invlogsq point (beta = None) is the
    # partition subcommand's schedule
    beta = 1.0 / math.log(max(n, 3)) ** 2 if beta is None else beta
    alpha = 0.5 * n * beta
    for got, perturbed in ((exact_log_ratio_shift(n, beta), False),
                           (exact_log_ratio_perturbed(n, alpha, beta), True)):
        want = _mp_log_ratio(n, alpha, beta, perturbed)
        scale = math.lgamma(0.5 * beta) + abs(math.lgamma(0.5 * n * beta)) + 1.0
        assert abs(got - want) <= 8 * 2.0**-52 * max(abs(want), scale)


def test_shift_gap_small_and_shrinking():
    gaps = []
    for n in (10**3, 10**4, 10**5, 10**6):
        beta = 1.0 / math.log(n) ** 2
        gaps.append(abs(exact_log_ratio_shift(n, beta) - asymptotic_log_ratio_shift(n, beta)))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.05


def test_perturbed_gap_small_and_shrinking():
    gaps = []
    for n in (10**3, 10**4, 10**5, 10**6):
        beta = 1.0 / math.log(n) ** 2
        gaps.append(abs(exact_log_ratio_perturbed(n, n * beta / 2, beta)
                        - asymptotic_log_ratio_perturbed(n, beta)))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.05


def test_compare_ratios_record():
    shift, pert = compare_ratios(1000, 0.01)
    assert shift.lemma == "shift" and pert.lemma == "perturbed"
    assert math.isfinite(shift.gap) and math.isfinite(pert.gap)


def test_ratio_validation():
    with pytest.raises(ValueError):
        exact_log_ratio_shift(1, 0.5)
    with pytest.raises(ValueError):
        exact_log_ratio_perturbed(10, 0.1, 0.5)  # alpha <= beta/4


def test_technical_gap_examples():
    assert technical_gap(0.0, 0.0, 1.0) == math.inf
    # a=b=2, beta=1: bound 2e vs value 4, slack log(2e/4) = 1 - log(2)
    assert technical_gap(2.0, 2.0, 1.0) == pytest.approx(1 - math.log(2.0), rel=1e-14)
    assert technical_gap(2.0, 2.0, 1.0) > 0


def test_technical_gap_random_triples():
    rng = np.random.Generator(np.random.Philox(key=5150))
    a = rng.normal(0, 3, size=20000)
    b = rng.normal(0, 3, size=20000)
    betas = rng.uniform(1e-12, 2.0, size=20000)
    assert all(technical_gap(a[i], b[i], betas[i]) >= 0.0 for i in range(20000))


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-20, 20), b=st.floats(-20, 20),
       beta=st.floats(1e-6, 4.0))
def test_technical_gap_property(a, b, beta):
    assert technical_gap(a, b, beta) >= 0.0


def test_technical_gap_validation():
    with pytest.raises(ValueError):
        technical_gap(1.0, 1.0, 0.0)


def test_tail_bound_decreasing_in_t():
    vals = [log_tail_bound(50, 5.0, 0.2, t) for t in (2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_tail_bound_validation():
    with pytest.raises(ValueError):
        log_tail_bound(50, 0.04, 0.2, 3.0)  # beta/4 >= alpha
    with pytest.raises(ValueError):
        log_tail_bound(50, 5.0, 0.2, 0.0)
    with pytest.raises(ValueError):
        log_tail_bound(1, 5.0, 0.2, 3.0)


def test_union_bound_surrogate_strictly_decreasing():
    # (log n + log tail bound)/(n*beta) at alpha = n*beta/2 keeps falling in M
    n, beta = 10**4, 0.01
    alpha = n * beta / 2
    vals = [(math.log(n) + log_tail_bound(n, alpha, beta, M)) / (n * beta)
            for M in range(3, 21)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
