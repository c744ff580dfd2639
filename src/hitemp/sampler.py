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
(master_seed, n), the cell's Philox blocks b < 2^63 (sample_rows, the one place
that keys a block, refuses higher b) and replica r's address, row r mod B(n) of
block r // B(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    seed 1 at n=400 and seed 201 at n=200 the same key.  Called where a chunk is sampled, so
    the parent of forked workers never makes the first SeedSequence, which imports
    numpy.random (about 5.6 MB of RSS); at one worker the campaign process samples."""
    return int(np.random.SeedSequence((master_seed & _U64, n)).generate_state(1, np.uint64)[0])


class SeededStream(NamedTuple):
    """The address of one replica, (master_seed, stream_index), which sample_matrix reads as
    (cell key, replica r): row r mod B(n) of Philox block r // B(n) (STREAM_CONTRACT), drawn
    afresh by each call; it holds no generator.  sample_rows masks the key, refuses b >= 2^63."""

    master_seed: int
    stream_index: int = 0


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
    """Replicas start..start+count-1 of the cell keyed `key`, (diags, offdiags) of shapes
    (count, n) and (count, n-1); a replica below 0 or past block 2^63 - 1 is a ValueError.

    Block b of the cell is the Philox stream keyed key + b * 2^64.  It draws
    standard_normal((B, n)), standard_gamma(j*beta/2 + 1) for j = n-1..1
    broadcast to (B, n-1), then random((B, n-1)); replica r is row r mod B of
    block r // B, B = block_rows(n).  Every block the range touches is drawn
    whole, so a row does not depend on the range.  Per sub-block of at most
    _SCRATCH_ELEMS uniforms, the log-space chi arithmetic runs in place.
    """
    n, alpha, B = params.n, params.alpha, block_rows(params.n)
    if start < 0 or start + count > B << 63:
        raise ValueError(f"replicas {start}..{start + count - 1} must lie in 0..{(B << 63) - 1}, blocks b < 2^63 of {B} rows")
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
    row r mod B(n) of block r // B(n), drawn by sample_rows, so the same address
    gives the same matrix every time.  diag[i] = g/sqrt(alpha); offdiag[0..n-2]
    = X_{n-1},...,X_1 scaled by 1/sqrt(2*alpha), X_j ~ chi(j*beta)."""
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
