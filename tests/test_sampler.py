import math

import numpy as np
import pytest
from scipy.special import gammainc

from hitemp import eig
from hitemp.model import make_params
from hitemp.sampler import (
    SeededStream,
    TridiagonalMatrix,
    dump_matrix,
    load_matrix,
    log_chi,
    sample_matrix,
)


def _trace_h2(tri):
    # sum diag^2 + 2 sum offdiag^2, the trace of the square
    return float(np.dot(tri.diag, tri.diag) + 2.0 * np.dot(tri.offdiag, tri.offdiag))


def test_gaussian_moments():
    draws = SeededStream(11, 0).rng.standard_normal(10**6)
    assert abs(draws.mean()) < 4e-3          # 3-4 stderr of the mean at N=1e6
    assert abs(draws.var() - 1.0) < 6e-3     # ~3 stderr of the variance


def test_gaussian_determinism():
    a = SeededStream(42, 7).rng.standard_normal(100)
    b = SeededStream(42, 7).rng.standard_normal(100)
    assert np.array_equal(a, b)


def test_streams_differ():
    a = SeededStream(42, 0).rng.standard_normal(100)
    b = SeededStream(42, 1).rng.standard_normal(100)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("k", [0.05, 3.0])
def test_chi_second_moment(k):
    # E[chi(k)^2] = k
    sq = np.exp(log_chi(k, SeededStream(12, 0), size=10**6)) ** 2
    stderr = sq.std(ddof=1) / 1000.0
    assert abs(sq.mean() - k) < 3 * stderr


def test_chi_mean_k2():
    # E[chi(2)] = sqrt(2)*Gamma(1.5)/Gamma(1) = sqrt(pi/2) = 1.2533141373155002...
    draws = np.exp(log_chi(2.0, SeededStream(13, 0), size=10**6))
    stderr = draws.std(ddof=1) / 1000.0
    assert abs(draws.mean() - 1.2533141373155002) < 3 * stderr


def test_chi_rejects_bad_shape():
    with pytest.raises(ValueError):
        log_chi(0.0, SeededStream(1, 0))
    with pytest.raises(ValueError):
        log_chi(-1.0, SeededStream(1, 0))


def test_chi_scalar_shape():
    val = np.exp(log_chi(0.5, SeededStream(14, 0)))
    assert isinstance(val, float) and val >= 0.0


@pytest.mark.parametrize("k", [0.02, 0.5, 1.0, 4.0])
def test_chi_distribution_ks(k):
    # one-sample KS at level 1e-3 against the Gamma-based CDF
    # P(chi(k) <= t) = P(k/2, t^2/2) via the regularized incomplete gamma
    n = 10**5
    draws = np.sort(np.exp(log_chi(k, SeededStream(15, int(k * 100)), size=n)))
    cdf = gammainc(k / 2.0, draws * draws / 2.0)
    steps = np.arange(n + 1) / n
    ks = max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1]))
    critical = math.sqrt(-math.log(0.0005) / 2.0) / math.sqrt(n)
    assert ks < critical


def test_log_chi_tiny_shape_stays_finite():
    # k = 0.002 drives U^(2/k) through ~1e-300 territory; log space keeps it usable
    lx = log_chi(0.002, SeededStream(16, 0), size=10**4)
    assert np.all(np.isfinite(lx))
    assert lx.min() < -50.0  # mass genuinely piles up near zero


def test_sample_matrix_entry_construction():
    # entries are g/sqrt(alpha) on the diagonal and chi(j*beta) variates,
    # j = n-1..1, scaled by 1/sqrt(2*alpha) off it, drawn normals-then-chi;
    # the in-place path must match the log_chi construction bit for bit
    for n in (2, 50, 400):
        params = make_params(n, 0.37)
        tri = sample_matrix(params, SeededStream(77, 3))
        twin = SeededStream(77, 3)
        g = twin.rng.standard_normal(n)
        lx = log_chi(np.arange(n - 1, 0, -1, dtype=float) * 0.37, twin)
        assert np.array_equal(tri.diag, g / math.sqrt(params.alpha))
        assert np.array_equal(tri.offdiag, np.exp(lx - 0.5 * math.log(2 * params.alpha)))


def test_sample_matrix_bit_identical():
    params = make_params(40, 0.2)
    a = sample_matrix(params, SeededStream(5, 9))
    b = sample_matrix(params, SeededStream(5, 9))
    assert np.array_equal(a.diag, b.diag) and np.array_equal(a.offdiag, b.offdiag)


def test_trace_second_moment_monte_carlo():
    # E[(1/n) sum lambda_i^2] = (1 + beta*(n-1)/2)/alpha from E g^2 = 1,
    # E X_j^2 = j*beta; checked over 1e4 replicas at n=100, beta=0.1
    params = make_params(100, 0.1)
    replicas = 10**4
    vals = np.empty(replicas)
    for r in range(replicas):
        vals[r] = _trace_h2(sample_matrix(params, SeededStream(99, r))) / params.n
    exact = (1 + params.beta * (params.n - 1) / 2) / params.alpha
    stderr = vals.std(ddof=1) / math.sqrt(replicas)
    assert abs(vals.mean() - exact) < 4 * stderr


def test_reversal_symmetry_of_spectrum():
    tri = sample_matrix(make_params(60, 0.3), SeededStream(21, 0))
    tol = 1e-12
    a = eig.full_spectrum(tri, tol).eigenvalues
    b = eig.full_spectrum(TridiagonalMatrix(tri.diag[::-1], tri.offdiag[::-1]), tol).eigenvalues
    assert np.max(np.abs(a - b)) <= 10 * tol


def test_second_moment_identity_vs_solver():
    # sum lambda^2 equals sum diag^2 + 2 sum offdiag^2 for every realization
    for r in range(5):
        tri = sample_matrix(make_params(50, 0.25), SeededStream(31, r))
        spec = eig.full_spectrum(tri, 1e-12)
        lhs = float(np.sum(spec.eigenvalues**2))
        assert abs(lhs - _trace_h2(tri)) <= 1e-8 * abs(_trace_h2(tri))


def test_matrix_validation():
    with pytest.raises(ValueError):
        TridiagonalMatrix(np.array([1.0]), np.array([]))
    with pytest.raises(ValueError):
        TridiagonalMatrix(np.array([1.0, 2.0]), np.array([-0.5]))
    with pytest.raises(ValueError):
        TridiagonalMatrix(np.array([1.0, np.inf]), np.array([0.5]))
    with pytest.raises(ValueError):
        TridiagonalMatrix(np.array([1.0, 2.0, 3.0]), np.array([0.5]))


def test_dump_load_round_trip(tmp_path):
    tri = sample_matrix(make_params(12, 0.4), SeededStream(3, 0))
    path = tmp_path / "matrix.txt"
    dump_matrix(tri, path)
    back = load_matrix(path)
    assert np.array_equal(back.diag, tri.diag)
    assert np.array_equal(back.offdiag, tri.offdiag)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "12" and len(lines) == 3


@pytest.mark.parametrize("text", ["3\n", "3\n1 2 3\n", ""], ids=["header", "no_offdiag", "empty"])
def test_load_matrix_rejects_truncated_dump(tmp_path, text):
    path = tmp_path / "short.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_matrix(path)
