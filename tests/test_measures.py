import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitemp import eig
from hitemp.measures import DiscreteMeasure, ks_to_semicircle, w1_to_semicircle
from hitemp.model import make_params
from hitemp.sampler import SeededStream, sample_matrix
from reference_oracles import semicircle_quantile_measure, w1_quadrature


def test_measure_sorts_input():
    mu = DiscreteMeasure(np.array([2.0, -1.0, 0.5]))
    assert np.array_equal(mu.atoms, [-1.0, 0.5, 2.0])


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([1.0, np.nan]))


def test_second_moment_of_quantile_grid():
    mu = semicircle_quantile_measure(4000)
    assert abs(np.mean(mu.atoms**2) - 1.0) <= 1e-3


def test_w1_quantile_grid_small_and_shrinking():
    vals = [w1_to_semicircle(semicircle_quantile_measure(m)) for m in (100, 400, 1600)]
    assert vals[0] > vals[1] > vals[2]
    assert w1_to_semicircle(semicircle_quantile_measure(2000)) <= 2e-3


def test_w1_single_atom_closed_form():
    # int |1_{x>=0} - F(x)| dx = 2 int_0^2 (1 - F) = 8/(3*pi) = 0.84882636315677512...
    mu = DiscreteMeasure(np.array([0.0]))
    assert w1_to_semicircle(mu) == pytest.approx(0.8488263631567751, rel=1e-12)


# Each case reaches a different part of the closed form: cells reaching past -2
# or 2, cells of length 0, and the last cell, which ends at max(a_m, 2).
W1_CASES = {
    "normal23": np.random.default_rng(4).normal(size=23) * 1.4,
    "all_below": [-5.0, -3.5, -2.5, -2.1],
    "all_above": [2.1, 2.6, 3.0, 4.2],
    "straddles_both": [-3.0, -2.5, -1.0, 0.3, 1.9, 2.4, 3.3],
    "ties": [-1.0, -1.0, 0.5, 0.5, 0.5, 1.2],
    "m1": [0.7],
    "m2": [-0.4, 2.6],
}


@pytest.mark.parametrize("atoms", W1_CASES.values(), ids=W1_CASES.keys())
def test_w1_quadrature_fallback_agrees(atoms):
    mu = DiscreteMeasure(np.asarray(atoms))
    a = w1_to_semicircle(mu)
    b = w1_quadrature(mu)
    assert a == pytest.approx(b, abs=1e-7)


def _w1_mpmath(atoms) -> mpmath.mpf:
    """int |F_mu - F| dx in 40 digits, cell by cell: each cell's |c - F| is
    integrated by mp.quad, split at +-2 and at the crossing F = c, which
    mp.findroot finds."""
    with mpmath.workdps(40):
        def cdf(x):
            if x <= -2:
                return mpmath.mpf(0)
            if x >= 2:
                return mpmath.mpf(1)
            return 0.5 + x * mpmath.sqrt(4 - x * x) / (4 * mpmath.pi) + mpmath.asin(x / 2) / mpmath.pi

        a = [mpmath.mpf(float(v)) for v in np.sort(atoms)]
        edges = [min(a[0], -2)] + a + [max(a[-1], 2)]
        total = mpmath.mpf(0)
        for k in range(len(a) + 1):
            lo, hi, c = edges[k], edges[k + 1], mpmath.mpf(k) / len(a)
            if hi <= lo:
                continue
            cuts = [p for p in (-2, 2) if lo < p < hi]
            if cdf(lo) < c < cdf(hi):
                bracket = (max(lo, -2), min(hi, 2))
                cuts.append(mpmath.findroot(lambda x: cdf(x) - c, bracket, solver="anderson"))
            total += mpmath.quad(lambda x: abs(c - cdf(x)), [lo, *sorted(cuts), hi])
        return total


def test_w1_matches_40_digit_reference():
    # 40 atoms, three below -2 and two above 2; the quadrature check above
    # works at 1e-7 and cannot see the last digits
    atoms = np.random.default_rng(1).normal(size=40) * 1.3
    assert (atoms < -2).sum() == 3 and (atoms > 2).sum() == 2
    ref = _w1_mpmath(atoms)
    assert abs(w1_to_semicircle(DiscreteMeasure(atoms)) - ref) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(shift=st.floats(-0.5, 0.5), seed=st.integers(0, 10**6))
def test_w1_translation_bound(shift, seed):
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(-2.5, 2.5, size=17)
    base = w1_to_semicircle(DiscreteMeasure(atoms))
    moved = w1_to_semicircle(DiscreteMeasure(atoms + shift))
    assert abs(moved - base) <= abs(shift) + 1e-9


def test_ks_quantile_grid():
    assert ks_to_semicircle(semicircle_quantile_measure(2000)) <= 1e-3


def test_ks_single_atom_and_nonnegative():
    assert ks_to_semicircle(DiscreteMeasure(np.array([0.0]))) == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(5):
        mu = DiscreteMeasure(rng.normal(size=11))
        assert ks_to_semicircle(mu) >= 0.0


def test_w1_of_sampled_ensembles_improves_with_n(workers):
    # median over 50 replicas: the n=2000 spectrum sits closer to the
    # semicircle than the n=250 spectrum at the same temperature
    replicas = 50
    med = {}
    for n in (250, 2000):
        params = make_params(n, 0.1)
        vals = np.empty(replicas)
        chunk = 25
        for s0 in range(0, replicas, chunk):
            cnt = min(chunk, replicas - s0)
            diags = np.empty((cnt, n))
            offs = np.empty((cnt, n - 1))
            for j in range(cnt):
                m = sample_matrix(params, SeededStream(1234 + n, s0 + j))
                diags[j] = m.diag
                offs[j] = m.offdiag
            spectra = eig.batch_spectra(diags, offs)
            for j in range(cnt):
                vals[s0 + j] = w1_to_semicircle(DiscreteMeasure(spectra[j]))
        med[n] = float(np.median(vals))
    assert med[2000] < med[250]
