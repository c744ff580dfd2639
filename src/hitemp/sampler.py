"""Random generation of the tridiagonal beta-ensemble matrix.

The n-particle ensemble with scale alpha is realized as the symmetric
tridiagonal matrix with diagonal g_i / sqrt(alpha), g_i ~ N(0,1), and
off-diagonal X_{n-i} / sqrt(2*alpha), X_j ~ chi(j*beta), all entries
independent.  In the high-temperature regime the chi shapes j*beta sit far
below 1, so chi variates are produced in log space: numpy's C gamma sampler
(Marsaglia-Tsang) draws G_{k/2+1}, whose shape is at least 1, and the exact
shape boost log G_{k/2} = log G_{k/2+1} + (2/k) log U takes it down to k/2
without underflow.  Entries are exponentiated only when the matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EnsembleParams

_U64 = (1 << 64) - 1


class SeededStream:
    """A reproducible variate stream addressed by (master_seed, stream_index).

    Backed by the counter-based Philox generator keyed with the 128-bit value
    master_seed + stream_index * 2^64, so distinct stream indices select
    distinct cipher keys and are non-overlapping by construction.  A stream
    instance is stateful and must not be shared across threads; streams with
    different indices may be consumed concurrently.  This is the public
    per-replica handle, the one perfbench rebuilds matrices from; campaigns
    draw the same streams by re-keying one Philox per block of replicas
    (experiments._sample_block).
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        if stream_index < 0:
            raise ValueError(f"stream_index must be nonnegative, got {stream_index}")
        self.master_seed = int(master_seed) & _U64
        self.stream_index = int(stream_index)
        key = self.master_seed + (self.stream_index << 64)
        self.rng = np.random.Generator(np.random.Philox(key=key))

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


def _chi_shapes(n: int, beta: float) -> np.ndarray:
    """The chi shapes j*beta of offdiag[0..n-2], j = n-1..1."""
    return np.arange(n - 1, 0, -1, dtype=float) * beta


def _scale_entries(diag, off, u, shapes, alpha: float) -> None:
    """In place, on one row or a block of rows: N(0,1) draws in diag, G_{k/2+1}
    in off and random() in u, k = shapes, become g/sqrt(alpha) and
    X_k/sqrt(2*alpha) by log_chi's arithmetic, without its shape checks."""
    np.divide(diag, math.sqrt(alpha), out=diag)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u *= 2.0 / shapes
    np.log(off, out=off)
    off += u
    off += math.log(2.0)
    off *= 0.5
    off -= 0.5 * math.log(2.0 * alpha)
    np.exp(off, out=off)


def sample_matrix(params: EnsembleParams, stream: SeededStream) -> TridiagonalMatrix:
    """Draw one tridiagonal realization of the ensemble.

    diag[i] = g/sqrt(alpha); offdiag[0..n-2] = X_{n-1},...,X_1 scaled by
    1/sqrt(2*alpha), with X_j ~ chi(j*beta).  The draw order (n normals, the
    n-1 boosted gammas, then the n-1 uniforms) is part of the reproducibility
    contract.  The entries come from _scale_entries, which campaigns apply
    to blocks of rows, bit-identical to building the matrix from log_chi.
    """
    n, alpha, beta = params.n, params.alpha, params.beta
    rng = stream.rng
    shapes = _chi_shapes(n, beta)
    diag = rng.standard_normal(n)
    off = rng.standard_gamma(shapes / 2.0 + 1.0)
    u = rng.random(n - 1)
    _scale_entries(diag, off, u, shapes, alpha)
    return TridiagonalMatrix(diag, off)


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
