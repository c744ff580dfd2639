import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from hitemp import analytic
from hitemp.analytic import (
    energy_I,
    evaluate_rate,
    log_potential_semicircle,
    log_potential_semicircle_quad,
    rate_J,
    rate_J_quad,
    semicircle_cdf,
)
from hitemp.quadrature import adaptive_quad
from reference_oracles import semicircle_quantile_measure


def semicircle_pdf(x):
    """The semicircle density sqrt(4 - x^2)/(2*pi) on [-2, 2], zero outside."""
    return math.sqrt(4.0 - x * x) / (2.0 * math.pi) if abs(x) <= 2.0 else 0.0


def test_pdf_values():
    assert semicircle_pdf(0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert semicircle_pdf(2.0) == 0.0
    assert semicircle_pdf(-2.0) == 0.0
    assert semicircle_pdf(2.5) == 0.0


def test_pdf_integrates_to_one():
    total = adaptive_quad(lambda x: semicircle_pdf(x), -2.0, 2.0, 1e-12)
    assert abs(total - 1.0) <= 1e-10


def test_cdf_values():
    assert semicircle_cdf(0.0) == 0.5
    assert semicircle_cdf(2.0) == 1.0
    assert semicircle_cdf(-2.0) == 0.0
    assert semicircle_cdf(-3.0) == 0.0 and semicircle_cdf(3.0) == 1.0


def test_cdf_matches_pdf_quadrature_at_one():
    total = adaptive_quad(lambda x: semicircle_pdf(x), -2.0, 1.0, 1e-12)
    assert abs(semicircle_cdf(1.0) - total) <= 1e-10
    # frozen 40-digit reference: 1/2 + sqrt(3)/(4 pi) + asin(1/2)/pi
    assert semicircle_cdf(1.0) == pytest.approx(0.8044988905221147, rel=1e-14)


@pytest.mark.parametrize("x", [0.0, 2.0, 10.0])
def test_log_potential_closed_vs_quadrature(x):
    assert abs(log_potential_semicircle(x) - log_potential_semicircle_quad(x)) <= 1e-8


def test_log_potential_inside_values():
    assert log_potential_semicircle(0.0) == pytest.approx(-0.5, abs=1e-15)
    assert log_potential_semicircle(2.0) == pytest.approx(0.5, abs=1e-15)


def test_log_potential_grid_agreement():
    # 50 points in [-5, 5], keeping 1e-3 clear of the edge +-2 where the
    # quadrature itself degrades
    grid = [x for x in np.linspace(-5.0, 5.0, 50)
            if abs(abs(x) - 2.0) > 1e-3]
    for x in grid:
        assert abs(log_potential_semicircle(x) - log_potential_semicircle_quad(x)) <= 1e-8


def test_phi_semicircle_at_edge():
    assert evaluate_rate(2.0).phi == pytest.approx(-0.5, abs=1e-15)


def test_rate_j_edge_and_divergence():
    assert rate_J(2.0) == 0.0
    assert rate_J(1.9) == math.inf
    assert rate_J_quad(1.9) == math.inf


def test_rate_j_at_three():
    # closed form 3*sqrt(5)/4 - log((3+sqrt(5))/2) = 0.71462733300563538...
    assert rate_J(3.0) == pytest.approx(0.7146273330056354, rel=1e-14)
    assert abs(rate_J(3.0) - rate_J_quad(3.0)) <= 1e-8


def _mp_rate_and_potential(x):
    """J(x) = (sinh 2u - 2u)/2 and the log potential u + e^(-2u)/2 outside
    [-2, 2], u = acosh(|x|/2), at 50 digits."""
    with mpmath.workdps(50):
        u = mpmath.acosh(abs(mpmath.mpf(x)) / 2)
        return float((mpmath.sinh(2 * u) - 2 * u) / 2), float(u + mpmath.exp(-2 * u) / 2)


def test_rate_j_against_mpmath_from_the_edge_to_1e150():
    # x*sqrt(x^2-4)/4 - log(...) cancelled as x -> 2: relative error 4.9e-2 at
    # 2 + 1e-10, and 79 times too large at 2 + 1e-12
    xs = [2.0 + d for d in np.logspace(-14, 0, 120)] + list(np.logspace(0.31, 150, 120))
    for x in xs + [2.05, 2.15, 2.25, 2.3, 2.5, 3.0]:
        want = _mp_rate_and_potential(x)[0]
        assert abs(rate_J(x) - want) <= 1e-14 * want, x


def test_rate_j_within_4_ulp_where_the_closed_form_cancels():
    # the closed form, once used from x = 2.25, was off by up to 12.8 ulp here
    rng = np.random.Generator(np.random.Philox(key=2253))
    with mpmath.workdps(40):
        for x in rng.uniform(2.25, 3.0, size=400):
            u = mpmath.acosh(mpmath.mpf(x) / 2)
            want = (mpmath.sinh(2 * u) - 2 * u) / 2
            assert abs(rate_J(x) - want) <= 4 * math.ulp(float(want)), x


def test_rate_j_overflows_to_inf_not_nan():
    # x*x overflowed, and inf - log(inf) gave nan
    assert rate_J(2.6e154) == pytest.approx(1.69e308, rel=1e-15)  # x^2 overflows, J does not
    assert rate_J(2.7e154) == rate_J(1e200) == rate_J(1.7e308) == math.inf
    assert evaluate_rate(1e200).phi == evaluate_rate(-1e200).phi == -math.inf


def test_log_potential_against_mpmath_up_to_1e300():
    # x^2/4 - 1/2 - J cancelled for large |x|: 0.0 at 1e10, where it is 23.03
    for x in np.concatenate([np.logspace(0.31, 300, 200), -np.logspace(0.31, 300, 50)]):
        want = _mp_rate_and_potential(x)[1]
        assert abs(log_potential_semicircle(x) - want) <= 1e-15 * want, x


def test_rate_j_strictly_increasing_and_nonnegative():
    grid = np.linspace(2.0, 10.0, 60)
    vals = [rate_J(x) for x in grid]
    assert all(v >= 0.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_phi_semicircle_strictly_decreasing_past_edge():
    grid = np.linspace(2.0, 10.0, 60)
    vals = [evaluate_rate(x).phi for x in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_evaluate_rate_provenance():
    ev_c = evaluate_rate(2.5, "closed_form")
    ev_q = evaluate_rate(2.5, "quadrature")
    assert ev_c.method == "closed_form" and ev_q.method == "quadrature"
    assert ev_c.J == pytest.approx(ev_q.J, abs=1e-8)
    assert ev_c.J == pytest.approx(-ev_c.phi - 0.5, abs=1e-14)
    assert evaluate_rate(1.0).J == math.inf
    with pytest.raises(ValueError):
        evaluate_rate(2.5, "guesswork")


def test_energy_normalized_vanishes_at_semicircle_discretization():
    mu = semicircle_quantile_measure(2000)
    assert abs(energy_I(mu)[0]) <= 5e-3


def test_energy_paper_variant_offset_at_semicircle():
    # the verbatim functional sits at 3/4, not 0, on the semicircle
    mu = semicircle_quantile_measure(2000)
    assert energy_I(mu)[1] == pytest.approx(0.75, abs=5e-3)


def test_energy_two_atoms():
    # 2/8 - log(2)/2 - 3/8 = -0.47157359027997265...
    val = energy_I(np.array([-1.0, 1.0]))[0]
    assert val == pytest.approx(-0.4715735902799727, rel=1e-14)


def test_energy_validation_and_markers():
    with pytest.raises(ValueError):
        energy_I(np.array([0.5]))
    assert energy_I(np.array([1.0, 1.0])) == (math.inf, math.inf)


def _dense_log_mean(atoms):
    # every ordered pair i != j, one row of |a_i - a_j| at a time, no blocking
    total = 0.0
    for i in range(atoms.size):
        gaps = np.abs(atoms[i] - atoms)
        gaps[i] = 1.0
        total += float(np.sum(np.log(gaps)))
    return total / (atoms.size * (atoms.size - 1.0))


def _test_atoms(m, seed):
    # atoms of both signs; from m = 4 on, one pair 1e-12 apart
    if m == 2:
        return np.array([1.5, -0.5])
    if m == 3:
        return np.array([0.75, -2.25, 1.0])
    atoms = np.random.default_rng(seed).uniform(-3.0, 2.0, m)
    atoms[m // 2] = atoms[m // 3] + 1e-12
    return atoms


@pytest.mark.parametrize("scratch", [analytic._PAIR_SCRATCH, 64])
@pytest.mark.parametrize("m", [2, 3, 127, 128, 129, 181, 182, 183, 255, 256, 257, 2000, 4097])
def test_offdiag_log_mean_matches_dense_pair_sum(m, scratch, monkeypatch):
    # scratch 64 puts one row per block from m = 66 on, wider than the buffer
    monkeypatch.setattr(analytic, "_PAIR_SCRATCH", scratch)
    atoms = _test_atoms(m, seed=m)
    want = _dense_log_mean(atoms)
    assert abs(want) > 0.05
    got = analytic._offdiag_log_mean(np.sort(atoms))
    assert got == pytest.approx(want, rel=1e-13)
    # energy_I sorts unsorted input itself
    m2 = float(np.mean(atoms**2))
    normalized, paper = energy_I(atoms)
    assert normalized == pytest.approx(m2 / 4.0 - 0.5 * want - 0.375, rel=1e-13)
    assert paper == pytest.approx(m2 - 0.5 * want - 0.375, rel=1e-13)


@pytest.mark.parametrize("where", ["same block", "adjacent blocks", "last row"])
def test_offdiag_log_mean_coincident_atoms_are_the_inf_marker(where):
    m = 2000
    rows = analytic._PAIR_SCRATCH // (m - 1)  # rows in the first block
    i = {"same block": 3, "adjacent blocks": rows - 1, "last row": m - 2}[where]
    atoms = np.sort(np.random.default_rng(5).uniform(-3.0, 2.0, m))
    atoms[i + 1] = atoms[i]
    shuffled = np.random.default_rng(6).permutation(atoms)
    with np.errstate(all="raise"):  # the marker comes before any log(0)
        assert analytic._offdiag_log_mean(atoms) == -math.inf
        assert energy_I(shuffled) == (math.inf, math.inf)


def test_offdiag_log_mean_memory_stays_at_the_scratch_buffer():
    # numpy reports its buffers to tracemalloc.  At m = 4097 an m x m gap
    # matrix would be 134 MB; the scratch buffer is 256 KB, plus up to 128 KB
    # of numpy's own ufunc buffers for the broadcast subtraction, and a fresh
    # 256 KB temporary per block would cross the bound
    atoms = np.sort(np.random.default_rng(8).uniform(-3.0, 2.0, 4097))
    tracemalloc.start()
    try:
        analytic._offdiag_log_mean(atoms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * analytic._PAIR_SCRATCH
