import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitemp import eig
from hitemp.acceptance import charpoly_eigenvalues
from hitemp.sampler import SeededStream, TridiagonalMatrix, sample_matrix
from hitemp.model import make_params


def tri(diag, offdiag):
    return TridiagonalMatrix(np.asarray(diag, float), np.asarray(offdiag, float))


def one(diag, offdiag):
    """A batch of one matrix: (1, n) diagonals and (1, n - 1) off-diagonals."""
    return np.asarray(diag, float)[None], np.asarray(offdiag, float)[None]


def test_sturm_count_diagonal_matrix():
    assert eig.counts_at_or_below(*one([1.0, 2.0, 3.0], [0.0, 0.0]), [2.5])[0] == 2


def test_sturm_count_outside_gershgorin():
    d, o = one([1.0, -2.0, 0.5], [0.3, 1.1])
    (lo,), (hi,) = eig.gershgorin(d, o)
    got = eig.counts_at_or_below(d, o, [[lo - 1e-9], [hi + 1e-9]])
    assert got[:, 0].tolist() == [0, 3]


def test_sturm_count_two_by_two():
    # eigenvalues +-1; a shift exactly on an eigenvalue gives the "<= x" count.
    # Its zero pivot divides to -inf inside the count, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eig.counts_at_or_below(*one([0.0, 0.0], [1.0]), [[0.0], [-1.0], [1.0]])
        assert got[:, 0].tolist() == [1, 1, 2]
        assert eig.counts_at_or_below(*one([1.0, 2.0, 3.0], [0.0, 0.0]), [2.0])[0] == 2
        for off in (0.0, 1e-300):
            assert eig.counts_at_or_below([[2.0, 1.0]], [[off]], [[1.0], [2.0]])[:, 0].tolist() == [1, 2]
        # a subnormal pivot overflows the next term to -inf, as a zero one does
        assert eig.counts_at_or_below([[5e-324, 0.0]], [[1.0]], [0.0]).tolist() == [1]
    # x - a at x = -0.0, a = 0.0 is -0.0, whose sign bit would miss the eigenvalue 0
    assert eig.counts_at_or_below([[0.0, 5.0]], [[0.0]], [-0.0]).tolist() == [1]


def test_sturm_count_stability_at_coincident_shift():
    # a shift landing exactly on an eigenvalue must stay between the counts
    # a hair below and above it (the safeguarded pivot counts it as "<=")
    h = 1e-9
    below, at, above = eig.counts_at_or_below(*one([1.0, 2.0, 3.0], [0.0, 0.0]), [[2.0 - h], [2.0], [2.0 + h]])[:, 0]
    assert below <= at <= above


def test_gershgorin_examples():
    # one interval per matrix of the batch
    lo, hi = eig.gershgorin([[5.0, 5.0], [0.0, 0.0]], [[0.0], [1.0]])
    assert lo.tolist() == [5.0, -1.0] and hi.tolist() == [5.0, 1.0]
    lo, hi = eig.gershgorin(*one([1.0, 2.0, 3.0], [1.0, 1.0]))
    assert (lo.tolist(), hi.tolist()) == ([0.0], [4.0])


def test_lambda_max_two_by_two():
    assert eig.lambda_max_batch(*one([0.0, 0.0], [1.0]))[0] == pytest.approx(1.0, abs=1e-12)


def test_lambda_max_three_by_three():
    # characteristic polynomial lambda^3 - 2 lambda = 0 -> extremes +-sqrt(2)
    got = eig.lambda_max_batch(*one([0.0, 0.0, 0.0], [1.0, 1.0]))[0]
    assert got == pytest.approx(math.sqrt(2), abs=1e-11)


def test_lambda_max_matches_charpoly_oracle():
    rng = np.random.Generator(np.random.Philox(key=8))
    for _ in range(10):
        diag = rng.normal(size=8)
        off = np.abs(rng.normal(size=7))
        oracle = charpoly_eigenvalues(diag, off)
        assert eig.lambda_max_batch(*one(diag, off))[0] == pytest.approx(oracle[-1], abs=1e-9)


def test_full_spectrum_diagonal():
    got = eig.batch_spectra(*one([3.0, 1.0, 2.0], [0.0, 0.0]))[0]
    assert got == pytest.approx([1.0, 2.0, 3.0], abs=1e-11)


def test_full_spectrum_two_by_two():
    got = eig.batch_spectra(*one([0.0, 0.0], [1.0]))[0]
    assert got == pytest.approx([-1.0, 1.0], abs=1e-11)


def test_full_spectrum_trace_conservation():
    t = sample_matrix(make_params(80, 0.2), SeededStream(1, 0))
    tol = 1e-11
    spec = eig.batch_spectra(*one(t.diag, t.offdiag))[0]
    norm = max(np.max(np.abs(t.diag)), np.max(t.offdiag))
    assert abs(spec.sum() - t.diag.sum()) <= t.n * tol + 1e-10 * norm
    assert np.all(np.diff(spec) >= 0)
    (lo,), (hi,) = eig.gershgorin(*one(t.diag, t.offdiag))
    assert spec[0] >= lo - tol and spec[-1] <= hi + tol


def test_consistency_count_at_lambda_max():
    t = sample_matrix(make_params(30, 0.4), SeededStream(2, 0))
    lm = eig.lambda_max_batch(*one(t.diag, t.offdiag))
    assert eig.counts_at_or_below(*one(t.diag, t.offdiag), lm + 2 * eig.ABSTOL)[0] == t.n


def _cubic_eigenvalues(d0, d1, d2, e0, e1):
    """Closed-form roots of the 3x3 characteristic polynomial, integer entries.

    Exact integer discriminant logic resolves multiple roots (where the
    trigonometric formula is ill-conditioned); simple roots use the standard
    trigonometric solution of the depressed cubic.
    """
    a2 = -(d0 + d1 + d2)
    a1 = d0 * d1 + d0 * d2 + d1 * d2 - e0 * e0 - e1 * e1
    a0 = -(d0 * d1 * d2 - d0 * e1 * e1 - d2 * e0 * e0)
    disc = 18 * a2 * a1 * a0 - 4 * a2**3 * a0 + a2 * a2 * a1 * a1 - 4 * a1**3 - 27 * a0 * a0
    d_zero = a2 * a2 - 3 * a1
    if disc == 0:
        if d_zero == 0:
            return np.full(3, -a2 / 3.0)
        double = (9 * a0 - a2 * a1) / (2.0 * d_zero)
        simple = (4 * a2 * a1 - 9 * a0 - a2**3) / float(d_zero)
        return np.sort([double, double, simple])
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    m = 2.0 * math.sqrt(-p / 3.0)
    theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
    shift = -a2 / 3.0
    roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift for k in range(3)]
    return np.sort(roots)


def test_all_integer_three_by_three_against_cubic_formula():
    vals = range(-2, 3)
    for d0, d1, d2 in itertools.product(vals, repeat=3):
        for e0, e1 in itertools.product((0, 1, 2), repeat=2):
            got = eig.batch_spectra(*one([d0, d1, d2], [e0, e1]))[0]
            want = _cubic_eigenvalues(d0, d1, d2, e0, e1)
            assert np.max(np.abs(got - want)) <= 1e-9, (d0, d1, d2, e0, e1)


@settings(max_examples=60, deadline=None)
@given(
    diag=st.lists(st.floats(-5, 5), min_size=2, max_size=10),
    seed=st.integers(0, 2**31),
    x=st.floats(-8, 8),
    y=st.floats(-8, 8),
)
def test_sturm_monotone_in_shift(diag, seed, x, y):
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.0, 3.0, size=len(diag) - 1)
    lo, hi = eig.counts_at_or_below(*one(diag, off), [[min(x, y)], [max(x, y)]])[:, 0]
    assert lo <= hi


def test_batch_lane_independence():
    # a lane's result must not depend on what else is in the batch
    rng = np.random.Generator(np.random.Philox(key=78))
    diags = rng.normal(size=(5, 9))
    offs = np.abs(rng.normal(size=(5, 8)))
    full = eig.lambda_max_batch(diags, offs)
    solo = eig.lambda_max_batch(diags[2:3], offs[2:3])
    assert full[2] == solo[0]


def _sampled_batch(r, n, seed, beta=0.2):
    mats = [sample_matrix(make_params(n, beta), SeededStream(seed, i)) for i in range(r)]
    return np.array([m.diag for m in mats]), np.array([m.offdiag for m in mats])


def _normal_batch(r, n, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.normal(size=(r, n)), np.abs(rng.normal(size=(r, n - 1)))


@pytest.mark.parametrize("diags, offs, row", [
    (*_normal_batch(5, 9, 78), 2),
    # 300 rows settle one level per Sturm sweep, the solo row eight
    (*_sampled_batch(300, 20, 79), 123),
])
def test_batch_lane_independence_all_entry_points(diags, offs, row):
    # a lane's result must not depend on what else is in the batch
    solo = (diags[row:row + 1], offs[row:row + 1])
    assert eig.lambda_max_batch(diags, offs)[row] == eig.lambda_max_batch(*solo)[0]
    assert np.array_equal(eig.batch_spectra(diags, offs)[row], eig.batch_spectra(*solo)[0])
    shifts = np.repeat(np.linspace(-3.0, 3.0, 7)[:, None], len(diags), axis=1)
    assert np.array_equal(eig.counts_at_or_below(diags, offs, shifts)[:, row],
                          eig.counts_at_or_below(*solo, shifts[:, row:row + 1])[:, 0])
    assert eig.counts_abs_at_or_above(diags, offs, 1.5)[row] == eig.counts_abs_at_or_above(*solo, 1.5)[0]


def _check_against_counts(diags, offs, tol):
    # the Sturm recurrence is independent of LAPACK: lambda_max must sit within
    # tol of the n-th count step, and each spectrum must step through 1..n
    n = diags.shape[1]
    lm = eig.lambda_max_batch(diags, offs)
    assert np.all(eig.counts_at_or_below(diags, offs, lm + tol) == n)
    assert np.all(eig.counts_at_or_below(diags, offs, lm - tol) <= n - 1)
    spectra = eig.batch_spectra(diags, offs)
    assert np.all(np.diff(spectra, axis=1) >= 0)
    distinct = spectra[:, 1:] > spectra[:, :-1]
    counts = eig.counts_at_or_below(diags, offs, 0.5 * (spectra[:, 1:] + spectra[:, :-1]).T).T
    k = np.broadcast_to(np.arange(1, n), counts.shape)
    assert np.array_equal(counts[distinct], k[distinct])
    norm = np.max(np.abs(diags), axis=1) + 2 * np.max(offs, axis=1, initial=0.0)
    assert np.all(np.abs(spectra.sum(axis=1) - diags.sum(axis=1)) <= 1e-13 * n * norm)


@pytest.mark.parametrize("tol", [eig.ABSTOL])  # the window of the count check
@pytest.mark.parametrize("r", [1, 3, 40])
@pytest.mark.parametrize("n", [50, 400])
def test_lapack_results_match_sturm_counts(r, n, tol):
    # beta -> 0 makes chi shapes near 0: at 1e-3 and 1e-4 some off-diagonals
    # are exactly 0 and the squares of others underflow
    for beta in (0.2, 1e-3, 1e-4):
        _check_against_counts(*_sampled_batch(r, n, 11 + r, beta), tol)


@pytest.mark.parametrize("off", [0.0, 1e-300])
def test_zero_pivot_then_zero_squared_offdiagonal(off):
    # at shift 2 the first pivot is exactly 0 and the next squared off-diagonal
    # is 0 too; a recurrence without a pivot guard gets 0/0 and counts 1
    diags, offs = np.array([[2.0, 1.0]]), np.array([[off]])
    assert eig.counts_at_or_below(diags, offs, [2.0])[0] == 2
    assert eig.lambda_max_batch(diags, offs)[0] == 2.0
    assert np.array_equal(eig.batch_spectra(diags, offs)[0], [1.0, 2.0])


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_repeated_eigenvalues(scale):
    diags, offs = scale * np.array([[1.0, 1.0, 1.0, 2.0]]), np.zeros((1, 3))
    assert eig.lambda_max_batch(diags, offs)[0] == 2.0 * scale
    assert np.array_equal(eig.batch_spectra(diags, offs)[0], scale * np.array([1.0, 1.0, 1.0, 2.0]))
    if scale == 1.0:  # at 2e6 ABSTOL is below the float spacing and leaves no room either side
        _check_against_counts(diags, offs, eig.ABSTOL)


def _bisect_one_level(diags, offs, lo, hi, targets):
    """Halve each bracket on its Sturm count until no double lies strictly inside;
    brackets of shape (r,) or (k, r), as counts_at_or_below takes shifts."""
    while True:
        mid = 0.5 * (lo + hi)
        active = (lo < mid) & (mid < hi)
        if not active.any():
            return mid
        reached = eig.counts_at_or_below(diags, offs, mid) >= targets
        hi = np.where(active & reached, mid, hi)
        lo = np.where(active & ~reached, mid, lo)


@pytest.mark.parametrize("r", [1, 3])
def test_multisection_matches_one_level_below_float_spacing(r):
    # named for the multisection solver that LAPACK replaced: dstebz, where
    # ABSTOL is below the float spacing, and dsterf must agree with a one-level
    # Sturm bisection run to adjacent doubles, to within n*eps*||T||.  lambda_max
    # is checked on the batch scaled by 1e6, where the spacing at the top
    # exceeds ABSTOL; the spectra at unit scale and at 2^-40, 1e6 and 2^40, since
    # the count is scale-invariant
    diags, offs = _sampled_batch(r, 12, 13)
    n = diags.shape[1]
    big_d, big_o = 1e6 * diags, 1e6 * offs
    lo, hi = eig.gershgorin(big_d, big_o)
    bound = n * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
    lm = _bisect_one_level(big_d, big_o, lo, hi, n)
    assert np.all(np.abs(eig.lambda_max_batch(big_d, big_o) - lm) <= bound)
    for scale in (1.0, 2.0**-40, 1e6, 2.0**40):
        d, o = scale * diags, scale * offs
        lo, hi = eig.gershgorin(d, o)
        bound = n * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
        spectra = np.sort(_bisect_one_level(d, o, np.repeat(lo[None], n, axis=0),
                                            np.repeat(hi[None], n, axis=0), np.arange(1, n + 1)[:, None]).T, axis=1)
        assert np.all(np.abs(eig.batch_spectra(d, o) - spectra) <= bound[:, None]), scale


def test_missing_library_is_a_runtime_error(tmp_path, monkeypatch):
    # no silent fallback: an OSError would read as a usage error (exit 2)
    real_dir = eig._LIBS_DIR
    monkeypatch.setattr(eig, "_LIBS_DIR", str(tmp_path))
    eig.library.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=f"no libscipy_openblas64_.*in {re.escape(str(tmp_path))}"):
            eig.lambda_max_batch(np.zeros((1, 2)), np.ones((1, 1)))
        # a library without the routines: numpy's own libquadmath, renamed
        quadmath = next(f for f in os.listdir(real_dir) if f.startswith("libquadmath"))
        fake = tmp_path / "libscipy_openblas64_-fake.so"
        fake.write_bytes((Path(real_dir) / quadmath).read_bytes())
        with pytest.raises(RuntimeError, match=f"{re.escape(str(fake))} lacks the symbol scipy_dstebz_64_"):
            eig.batch_spectra(np.zeros((1, 2)), np.ones((1, 1)))
    finally:
        eig.library.cache_clear()


def test_counts_abs_at_or_above():
    t = tri([1.0, 2.0, 3.0], [0.0, 0.0])
    d = t.diag[None, :]
    o = t.offdiag[None, :]
    assert eig.counts_abs_at_or_above(d, o, 2.5)[0] == 1
    assert eig.counts_abs_at_or_above(d, o, 0.5)[0] == 3
    assert eig.counts_abs_at_or_above(d, o, 10.0)[0] == 0


def test_counts_at_k_shifts_are_k_calls_at_one_shift():
    rng = np.random.Generator(np.random.Philox(key=77))
    diags, offs = rng.normal(size=(6, 12)), np.abs(rng.normal(size=(6, 11)))
    shifts = rng.uniform(-4.0, 4.0, size=(5, 6))
    got = eig.counts_at_or_below(diags, offs, shifts)
    assert got.shape == (5, 6)
    assert np.array_equal(got, [eig.counts_at_or_below(diags, offs, s) for s in shifts])
    for s in (0.5, 1.5, 2.5):
        tt = np.full(6, s)
        want = 12 - eig.counts_at_or_below(diags, offs, tt) + eig.counts_at_or_below(diags, offs, -tt)
        assert np.array_equal(eig.counts_abs_at_or_above(diags, offs, s), want)
    # the tie rule: a shift exactly on an eigenvalue (+-1) counts it
    assert eig.counts_at_or_below([[0.0, 0.0]], [[1.0]], [[-1.0], [1.0]]).tolist() == [[1], [2]]
    with pytest.raises(ValueError, match=re.escape("need (r,) or (k, r) shifts for r = 6 matrices, got (6, 5)")):
        eig.counts_at_or_below(diags, offs, shifts.T)


@pytest.mark.parametrize("offs", [np.array([[0.0, 0.0, 5.0]]), np.zeros((1, 1)), np.zeros((2, 2)), np.zeros(2)],
                         ids=lambda offs: str(offs.shape))
def test_batch_entry_points_reject_a_mis_shaped_batch(offs):
    # counts_abs_at_or_above dropped a surplus off-diagonal: diag (1, 2, 3) with
    # off-diagonal (0, 0, 5) counted 1 eigenvalue at or above 2.5
    diags = np.array([[1.0, 2.0, 3.0]])
    message = re.escape(f"need (r, n) diagonals and (r, n - 1) off-diagonals, got (1, 3) and {offs.shape}")
    for solve in (eig.lambda_max_batch, eig.batch_spectra,
                  lambda d, o: eig.counts_at_or_below(d, o, [2.5]),
                  lambda d, o: eig.counts_abs_at_or_above(d, o, 2.5)):
        with pytest.raises(ValueError, match=message):
            solve(diags, offs)


_BELOW_FLOAT_SPACING = textwrap.dedent("""
    import sys
    import numpy as np
    from hitemp import eig
    from hitemp.acceptance import charpoly_eigenvalues
    from hitemp.model import make_params
    from hitemp.sampler import SeededStream, TridiagonalMatrix, dump_matrix, sample_matrix

    t = TridiagonalMatrix(np.array([0.3, 1.7, -0.4]), np.array([1.0, 0.5]))
    got = eig.batch_spectra(t.diag[None], t.offdiag[None])[0]
    assert np.max(np.abs(got - charpoly_eigenvalues(t.diag, t.offdiag))) <= 1e-12
    mats = [sample_matrix(make_params(40, 0.3), SeededStream(3, r)) for r in range(4)]
    diags = np.array([m.diag for m in mats])
    offs = np.array([m.offdiag for m in mats])
    for scale in (1e6, 1e9, 1e12):  # ABSTOL is below the float spacing of lambda_max
        big_d, big_o = scale * diags, scale * offs
        norm = np.max(np.abs(big_d), axis=1) + 2 * np.max(big_o, axis=1)
        got = eig.lambda_max_batch(big_d, big_o)
        assert np.all(np.abs(got - eig.batch_spectra(big_d, big_o)[:, -1]) <= 40 * np.finfo(float).eps * norm)
    dump_matrix(mats[0], sys.argv[1])
""")


def test_tol_below_float_spacing_terminates(tmp_path):
    # an ABSTOL no bracket of doubles can reach must stop at adjacent doubles; run
    # in a child process so that a solver that never stops fails on a timeout
    src = os.path.dirname(os.path.dirname(eig.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    dump = str(tmp_path / "m.txt")
    solver = subprocess.run([sys.executable, "-c", _BELOW_FLOAT_SPACING, dump], env=env, timeout=60)
    assert solver.returncode == 0
    cli = subprocess.run([sys.executable, "-m", "hitemp.cli", "eig", "--matrix", dump],
                         env=env, capture_output=True, text=True, timeout=60)
    assert cli.returncode == 0
    assert len(cli.stdout.split()) == 40
