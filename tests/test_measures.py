import math

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
    assert mu.m == 3


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


def test_w1_quadrature_fallback_agrees():
    rng = np.random.default_rng(4)
    mu = DiscreteMeasure(rng.normal(size=23) * 1.4)
    a = w1_to_semicircle(mu)
    b = w1_quadrature(mu)
    assert a == pytest.approx(b, abs=1e-7)


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
