"""Random generation of the tridiagonal beta-ensemble matrix.

The n-particle ensemble with scale alpha is realized as the symmetric
tridiagonal matrix with diagonal g_i / sqrt(alpha), g_i ~ N(0,1), and
off-diagonal X_{n-i} / sqrt(2*alpha), X_j ~ chi(j*beta), all entries
independent.  In the high-temperature regime the chi shapes j*beta sit far
below 1, so chi variates are produced in log space: numpy's C gamma sampler
(Marsaglia-Tsang) draws G_{k/2+1}, whose shape is at least 1, and the exact
shape boost log G_{k/2} = log G_{k/2+1} + (2/k) log U takes it down to k/2
without underflow.  Entries are exponentiated only when the matrix is formed.

This module owns the seed namespace, STREAM_CONTRACT: the cell key of
(master_seed, n), the cell's Philox blocks b < 2^63 (higher b are reserved) and
replica r's address, row r mod B(n) of block r // B(n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import EnsembleParams

_U64 = (1 << 64) - 1
_SCRATCH_ELEMS = 65536  # uniforms per sub-block: a whole chunk's would raise peak RSS

# recorded in run manifests; outputs under another contract are not comparable
STREAM_CONTRACT = (
    "cell key = SeedSequence((master_seed mod 2^64, n)).generate_state(1, uint64)[0]; "
    "B = max(1, 2048 // n); block b = Philox(key = cell key + b * 2^64): standard_normal((B, n)), "
    "standard_gamma(j*beta/2 + 1) for j = n-1..1 broadcast to (B, n-1), random((B, n-1)); "
    "replica r = row r mod B of block r // B")


def cell_key(master_seed: int, n: int) -> int:
    """The key of cell n, a 64-bit hash of (master_seed mod 2^64, n); master_seed + n gave
    seed 1 at n=400 and seed 201 at n=200 the same key.  Called in the workers, not the
    campaign process: the first SeedSequence imports numpy.random, about 5.6 MB of RSS."""
    return int(np.random.SeedSequence((master_seed & _U64, n)).generate_state(1, np.uint64)[0])


class SeededStream:
    """A reproducible variate stream addressed by (master_seed, stream_index).

    Backed by the counter-based Philox generator keyed with the 128-bit value
    master_seed + stream_index * 2^64, so distinct stream indices select
    distinct cipher keys and are non-overlapping by construction.  A stream
    instance is stateful and must not be shared across threads.  sample_matrix
    reads the pair as (cell key, replica r) and draws from the stream of r's
    block, SeededStream(master_seed, r // B(n)); it does not consume this rng,
    which is built on first use.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        if stream_index < 0:
            raise ValueError(f"stream_index must be nonnegative, got {stream_index}")
        self.master_seed = int(master_seed) & _U64
        self.stream_index = int(stream_index)

    @functools.cached_property
    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.master_seed + (self.stream_index << 64)))

    def __repr__(self):
        return f"SeededStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


def log_chi(k, stream: SeededStream, size=None):
    """log of a chi(k) variate, exact for every shape k > 0.

    chi(k)^2 is Gamma(k/2, scale 2).  The Gamma(k/2) variate is obtained by
    the shape boost G_a = G_{a+1} * U^(1/a) with a = k/2, taken in log space
    so the U^(2/k) factor cannot underflow before it has to.
    """
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr <= 0) or not np.all(np.isfinite(k_arr)):
        raise ValueError("chi requires every shape k > 0")
    scalar = k_arr.ndim == 0 and size is None
    if size is not None:
        k_arr = np.broadcast_to(k_arr, (size,) if np.isscalar(size) else size)
    elif k_arr.ndim == 0:
        k_arr = k_arr.reshape(())
    g_boost = stream.rng.standard_gamma(np.atleast_1d(k_arr) / 2.0 + 1.0)
    # log U with U ~ Uniform(0,1]: log1p(-random()) never hits -inf
    log_u = np.log1p(-stream.rng.random(g_boost.shape))
    log_g = np.log(g_boost) + (2.0 / np.atleast_1d(k_arr)) * log_u
    out = 0.5 * (math.log(2.0) + log_g)
    out = out.reshape(k_arr.shape)
    return float(out) if scalar else out


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix stored as diagonal and off-diagonal arrays."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        if diag.ndim != 1 or diag.size < 2:
            raise ValueError("diag must be a 1-d array of length >= 2")
        if offdiag.shape != (diag.size - 1,):
            raise ValueError("offdiag must have length n-1")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
            raise ValueError("matrix entries must be finite")
        if np.any(offdiag < 0):
            raise ValueError("offdiag entries must be nonnegative (scaled chi variates)")

    @property
    def n(self) -> int:
        return self.diag.size


def block_rows(n: int) -> int:
    """B(n), the replicas of a cell that share one Philox stream; 1 for n > 1024."""
    return max(1, 2048 // n)


def sample_rows(params: EnsembleParams, key: int, start: int, count: int):
    """Replicas start..start+count-1 of the cell keyed `key`: (diags, offdiags)
    of shapes (count, n) and (count, n-1).

    Block b of the cell is the stream SeededStream(key, b).  It draws
    standard_normal((B, n)), standard_gamma(j*beta/2 + 1) for j = n-1..1
    broadcast to (B, n-1), then random((B, n-1)); replica r is row r mod B of
    block r // B, B = block_rows(n).  Every block the range touches is drawn
    whole, so a row does not depend on the range.  Per sub-block of at most
    _SCRATCH_ELEMS uniforms, log_chi's arithmetic runs in place, bit-identical.
    """
    n, alpha, B = params.n, params.alpha, block_rows(params.n)
    shapes = np.arange(n - 1, 0, -1, dtype=float) * params.beta  # j*beta, j = n-1..1
    boost = shapes / 2.0 + 1.0
    first = start // B
    rows = (-(-(start + count) // B) - first) * B
    diags, offs = np.empty((rows, n)), np.empty((rows, n - 1))
    # Philox is counter-based: a pristine state re-keyed to (key, b) is block b
    bitgen = np.random.Philox(key=int(key) & _U64)
    rng, state = np.random.Generator(bitgen), bitgen.state
    per = B * max(1, _SCRATCH_ELEMS // (B * n))
    u = np.empty((min(per, rows), n - 1))
    for lo in range(0, rows, per):
        d, off, v = diags[lo:lo + per], offs[lo:lo + per], u[:rows - lo]
        for j in range(0, len(d), B):
            state["state"]["key"][1] = first + (lo + j) // B
            bitgen.state = state
            rng.standard_normal(out=d[j:j + B])
            rng.standard_gamma(boost, out=off[j:j + B])
            rng.random(out=v[j:j + B])
        np.divide(d, math.sqrt(alpha), out=d)
        np.log1p(np.negative(v, out=v), out=v)  # log U, U ~ Uniform(0, 1]
        v *= 2.0 / shapes
        np.log(off, out=off)
        off += v
        off += math.log(2.0)
        off *= 0.5
        off -= 0.5 * math.log(2.0 * alpha)
        np.exp(off, out=off)
    skip = start - first * B
    return diags[skip:skip + count], offs[skip:skip + count]


def sample_matrix(params: EnsembleParams, stream: SeededStream) -> TridiagonalMatrix:
    """Replica r = stream.stream_index of the cell keyed stream.master_seed:
    row r mod B(n) of block r // B(n) (sample_rows).  diag[i] = g/sqrt(alpha);
    offdiag[0..n-2] = X_{n-1},...,X_1 scaled by 1/sqrt(2*alpha), X_j ~ chi(j*beta)."""
    diags, offs = sample_rows(params, stream.master_seed, stream.stream_index, 1)
    return TridiagonalMatrix(diags[0], offs[0])


def dump_matrix(tri: TridiagonalMatrix, path) -> None:
    """Write the plain-text dump: n, then diag, then offdiag, 17 sig digits."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{tri.n}\n")
        fh.write(" ".join(f"{v:.17g}" for v in tri.diag) + "\n")
        fh.write(" ".join(f"{v:.17g}" for v in tri.offdiag) + "\n")


def load_matrix(path) -> TridiagonalMatrix:
    """Read a matrix written by dump_matrix."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if len(lines) < 3:
        raise ValueError(f"{path}: a matrix dump needs three lines: n, diag and offdiag")
    n = int(lines[0].strip())
    diag = np.array([float(v) for v in lines[1].split()], dtype=float)
    offdiag = np.array([float(v) for v in lines[2].split()], dtype=float)
    if diag.size != n:
        raise ValueError(f"dump header says n={n} but diag has {diag.size} entries")
    return TridiagonalMatrix(diag, offdiag)
