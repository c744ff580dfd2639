import math

import numpy as np
import pytest
from scipy.special import gammainc

from hitemp import eig
from hitemp.model import make_params
from hitemp.sampler import (
    STREAM_CONTRACT,
    SeededStream,
    TridiagonalMatrix,
    block_rows,
    cell_key,
    dump_matrix,
    load_matrix,
    sample_matrix,
    sample_rows,
)
from hitemp.quadrature import adaptive_quad
from reference_oracles import block_stream, log_chi


def _trace_h2(tri):
    # sum diag^2 + 2 sum offdiag^2, the trace of the square
    return float(np.dot(tri.diag, tri.diag) + 2.0 * np.dot(tri.offdiag, tri.offdiag))


def test_gaussian_moments():
    # the diagonals times sqrt(alpha) are N(0, 1): 1000 replicas of n = 1000
    params = make_params(1000, 0.1)
    draws = sample_rows(params, 11, 0, 1000)[0].ravel() * math.sqrt(params.alpha)
    assert abs(draws.mean()) < 4e-3          # 3-4 stderr of the mean at N=1e6
    assert abs(draws.var() - 1.0) < 6e-3     # ~3 stderr of the variance


def test_gaussian_determinism():
    params = make_params(100, 0.1)
    a, b = sample_rows(params, 42, 7, 3), sample_rows(params, 42, 7, 3)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_streams_differ():
    # rows of one block, the first rows of two blocks and two keys' rows differ
    params = make_params(100, 0.1)
    rows = block_rows(100)
    diags = sample_rows(params, 42, 0, rows + 1)[0]
    assert not np.array_equal(diags[0], diags[1])
    assert not np.array_equal(diags[0], diags[rows])
    assert not np.array_equal(diags[0], sample_rows(params, 43, 0, 1)[0][0])


@pytest.mark.parametrize("k", [0.05, 3.0])
def test_chi_second_moment(k):
    # E[chi(k)^2] = k
    sq = np.exp(log_chi(k, block_stream(12, 0), size=10**6)) ** 2
    stderr = sq.std(ddof=1) / 1000.0
    assert abs(sq.mean() - k) < 3 * stderr


def test_chi_mean_k2():
    # E[chi(2)] = sqrt(2)*Gamma(1.5)/Gamma(1) = sqrt(pi/2) = 1.2533141373155002...
    draws = np.exp(log_chi(2.0, block_stream(13, 0), size=10**6))
    stderr = draws.std(ddof=1) / 1000.0
    assert abs(draws.mean() - 1.2533141373155002) < 3 * stderr


def test_chi_rejects_bad_shape():
    with pytest.raises(ValueError):
        log_chi(0.0, block_stream(1, 0))
    with pytest.raises(ValueError):
        log_chi(-1.0, block_stream(1, 0))


def test_chi_scalar_shape():
    val = np.exp(log_chi(0.5, block_stream(14, 0)))
    assert isinstance(val, float) and val >= 0.0


@pytest.mark.parametrize("k", [0.02, 0.5, 1.0, 4.0])
def test_chi_distribution_ks(k):
    # one-sample KS at level 1e-3 against the Gamma-based CDF
    # P(chi(k) <= t) = P(k/2, t^2/2) via the regularized incomplete gamma
    n = 10**5
    draws = np.sort(np.exp(log_chi(k, block_stream(15, int(k * 100)), size=n)))
    cdf = gammainc(k / 2.0, draws * draws / 2.0)
    steps = np.arange(n + 1) / n
    ks = max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1]))
    critical = math.sqrt(-math.log(0.0005) / 2.0) / math.sqrt(n)
    assert ks < critical


def test_log_chi_tiny_shape_stays_finite():
    # k = 0.002 drives U^(2/k) through ~1e-300 territory; log space keeps it usable
    lx = log_chi(0.002, block_stream(16, 0), size=10**4)
    assert np.all(np.isfinite(lx))
    assert lx.min() < -50.0  # mass genuinely piles up near zero


def test_sample_matrix_entry_construction():
    # replica r is row r mod B of the Philox block r // B, B = block_rows(n):
    # entries are g/sqrt(alpha) on the diagonal and chi(j*beta) variates,
    # j = n-1..1, scaled by 1/sqrt(2*alpha) off it, the block drawing all its
    # normals, then its chi variates; the in-place path must match the
    # log_chi construction bit for bit
    for n, r in ((2, 3), (50, 3), (50, 43), (400, 3), (400, 9)):
        params = make_params(n, 0.37)
        rows = block_rows(n)
        tri = sample_matrix(params, SeededStream(77, r))
        twin = block_stream(77, r // rows)
        g = twin.standard_normal((rows, n))
        lx = log_chi(np.arange(n - 1, 0, -1, dtype=float) * 0.37, twin, size=(rows, n - 1))
        assert np.array_equal(tri.diag, g[r % rows] / math.sqrt(params.alpha))
        assert np.array_equal(tri.offdiag, np.exp(lx[r % rows] - 0.5 * math.log(2 * params.alpha)))
    # above n = 1024 a block is one replica: replica r is the per-replica
    # stream r of 0.3.0, n normals then the n-1 chi variates
    params = make_params(1500, 0.37)
    assert block_rows(1500) == 1
    tri = sample_matrix(params, SeededStream(77, 3))
    twin = block_stream(77, 3)
    g = twin.standard_normal(1500)
    lx = log_chi(np.arange(1499, 0, -1, dtype=float) * 0.37, twin)
    assert np.array_equal(tri.diag, g / math.sqrt(params.alpha))
    assert np.array_equal(tri.offdiag, np.exp(lx - 0.5 * math.log(2 * params.alpha)))


def test_cell_key_is_the_contracts_hash():
    # the first clause of STREAM_CONTRACT, written out: seeds are taken mod 2^64
    assert STREAM_CONTRACT.startswith(
        "cell key = SeedSequence((master_seed mod 2^64, n)).generate_state(1, uint64)[0]; ")
    for seed in (-1, 0, 2**64 - 1, 2**64 + 5):
        for n in (2, 200, 4000):
            key = cell_key(seed, n)
            assert type(key) is int
            assert key == np.random.SeedSequence((seed % 2**64, n)).generate_state(1, np.uint64)[0]


def test_sample_matrix_bit_identical():
    params = make_params(40, 0.2)
    stream = SeededStream(5, 9)
    a = sample_matrix(params, stream)
    b = sample_matrix(params, SeededStream(5, 9))
    c = sample_matrix(params, stream)
    assert np.array_equal(a.diag, b.diag) and np.array_equal(a.offdiag, b.offdiag)
    # a stream is only its address: sampling neither consumes nor extends it
    assert np.array_equal(a.diag, c.diag) and np.array_equal(a.offdiag, c.offdiag)
    assert vars(stream) == {"master_seed": 5, "stream_index": 9}


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
    a, b = eig.batch_spectra([tri.diag, tri.diag[::-1]], [tri.offdiag, tri.offdiag[::-1]])
    assert np.max(np.abs(a - b)) <= 1e-11


def _n2_tail(x, beta):
    """Exact P(lambda_max >= x) at n = 2, where alpha = beta.  u = (l1 + l2)/sqrt(2)
    ~ N(0, 1/alpha) is independent of v = |l1 - l2|/sqrt(2), whose density is
    prop. to v^beta e^(-alpha v^2/2), and lambda_max = (u + v)/sqrt(2); in
    w = v sqrt(alpha) the law depends on x only through s = x sqrt(alpha)."""
    s = math.sqrt(2.0 * beta) * x
    norm = 0.5 * math.gamma((beta + 1) / 2) * 2 ** ((beta + 1) / 2)
    mass = adaptive_quad(lambda w: w**beta * math.exp(-w * w / 2) * 0.5 * math.erfc((s - w) / math.sqrt(2)),
                         0.0, 40.0, points=(s,) if 0.0 < s < 40.0 else ())
    return mass / norm


@pytest.mark.parametrize("beta, seed", [(0.01, 7001), (0.1, 7002), (1.0, 7003)])
def test_sampled_lambda_max_follows_the_exact_law_at_n_2(beta, seed):
    # Dumitriu-Edelman at the smallest n: sampler and dstebz against the
    # joint eigenvalue density.  One seed per beta, since one key gives the
    # same normals to every beta and one fluctuation would show at all three
    replicas = 100_000
    assert _n2_tail(-40.0 / math.sqrt(beta), beta) == pytest.approx(1.0, abs=1e-10)
    lam = np.sort(eig.lambda_max_batch(*sample_rows(make_params(2, beta), seed, 0, replicas)))
    for x in np.array([0.0, 1.0, 2.0, 3.0]) / math.sqrt(beta):
        p = _n2_tail(x, beta)
        assert abs(np.mean(lam >= x) - p) <= 4 * math.sqrt(p * (1 - p) / replicas), x
    # Dvoretzky-Kiefer-Wolfowitz: sup |F_hat - F| exceeds eps with probability
    # at most 2 exp(-2 N eps^2) = 1e-6
    xs = np.linspace(-4.0, 5.0, 50) / math.sqrt(beta)
    cdf = np.array([1.0 - _n2_tail(x, beta) for x in xs])
    gap = np.max(np.abs(np.searchsorted(lam, xs) / replicas - cdf))
    assert gap <= math.sqrt(math.log(2e6) / (2 * replicas))


def test_second_moment_identity_vs_solver():
    # sum lambda^2 equals sum diag^2 + 2 sum offdiag^2 for every realization
    for r in range(5):
        tri = sample_matrix(make_params(50, 0.25), SeededStream(31, r))
        lhs = float(np.sum(eig.batch_spectra(tri.diag[None], tri.offdiag[None])**2))
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
