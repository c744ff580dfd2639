"""Monte Carlo campaigns confronting simulation with the analytic statements:
the trace identity, the empirical tail rate against the rate function, the
partition-function tail bound and empirical-measure convergence.

The seed namespace is sampler's (STREAM_CONTRACT): replica r of a cell is row
r mod B(n) of the Philox block r // B(n) keyed by sampler.cell_key.  Chunks are
a fixed function of (replicas, n), and the solver treats each matrix of a batch
on its own, so outputs are byte-identical for any worker count.  A cell is cut
into a multiple of 8 near-equal chunks of whole blocks, each sampled array
within 2^17 float64 (1 MiB), so a worker's memory does not grow with the
replica count; a chunk of at most one block is ceil(replicas / 8) rows, so a
campaign of up to 8 replicas runs one-replica chunks.  A campaign
reduces a statistic fn(diags, offs): for each chunk of `count` replicas of size
n, `_gather` samples their (count, n) and (count, n - 1) arrays, in replica
order, and fn returns `count` rows.  Several workers are W forked children,
one set per campaign, filling one shared buffer: child k runs chunks k, k + W,
...  The fields of TailRow, TailboundRow and EsdRow are the CLI's CSV columns.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import eig
from .analytic import energy_I, rate_J
from .measures import DiscreteMeasure, ks_to_semicircle, w1_to_semicircle
from .model import EnsembleParams, RegimeSchedule, make_params
from .partition import log_tail_bound
from .sampler import SeededStream, block_rows, cell_key, sample_matrix, sample_rows

_CHUNK_ELEMS = 1 << 17  # float64 per sampled array of a chunk, unless it is one block
_MIN_CHUNKS = 8  # worker-count independent chunk granularity
_LOG_MAX = math.log(sys.float_info.max)  # exp of a larger log bound overflows; the bound is inf


def _integer(name: str, value) -> int:
    """value as an int; a bool or a value with a fractional part is a ValueError."""
    if isinstance(value, bool) or not (isinstance(value, int) or float(value).is_integer()):
        raise ValueError(f"{name} must be integers, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo campaign; its fields and defaults are the CLI's config keys and defaults."""

    schedule: RegimeSchedule
    n_values: tuple
    replicas: int = 1000
    x_grid: tuple = ()
    t_grid: tuple = ()
    master_seed: int = 20260101
    workers: int = 1
    plus_one_alpha: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(_integer("n_values", n) for n in self.n_values))
        for name in ("replicas", "master_seed", "workers"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("x_grid", "t_grid"):  # json reads 1e999 as inf
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
            if not all(map(math.isfinite, getattr(self, name))):
                raise ValueError(f"{name} values must be finite, got {getattr(self, name)!r}")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")

    def params_for(self, n: int) -> EnsembleParams:
        return make_params(n, self.schedule.beta(n), plus_one_alpha=self.plus_one_alpha)

    def cell_seed(self, n: int) -> int:
        return cell_key(self.master_seed, n)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class Report(NamedTuple):
    """A campaign's records, one per CSV row, and its pass/fail checks."""

    rows: list
    checks: list


# ---------------------------------------------------------------------------
# replica chunking, per-replica statistics and workers
# ---------------------------------------------------------------------------

def _chunks(replicas: int, n: int):
    """(start, count) of each chunk of a cell, in order.  The cell's Philox blocks
    are spread evenly over the fewest pieces, a multiple of _MIN_CHUNKS, that keep
    each sampled array within _CHUNK_ELEMS, so no block is drawn twice and workers
    get equal shares.  Where a piece would be at most one block, chunks are
    ceil(replicas / pieces) rows and may cut blocks: campaigns of up to 8 replicas
    run one-replica chunks, which perfbench traces through sample_matrix.  1 MiB
    keeps tail_bound at 8 count calls per t; 2^16 made 16, each about 0.5 ms of
    numpy overhead."""
    rows = block_rows(n)
    blocks = -(-replicas // rows)
    pieces = _MIN_CHUNKS * -(-blocks // (_MIN_CHUNKS * max(1, _CHUNK_ELEMS // (rows * n))))
    if replicas <= pieces * rows:
        size = -(-replicas // pieces)
        return [(s, min(size, replicas - s)) for s in range(0, replicas, size)]
    edges = [min(rows * (k * blocks // pieces), replicas) for k in range(pieces + 1)]
    return [(a, b - a) for a, b in zip(edges, edges[1:])]


def _sample_block(cfg: ExperimentConfig, n: int, start: int, count: int):
    """Rows j of (diags, offs) are sample_matrix(params, SeededStream(cell key, start + j)):
    whole Philox blocks drawn by sampler.sample_rows, sliced at the chunk's edges."""
    params, seed = cfg.params_for(n), cfg.cell_seed(n)
    if count == 1:  # perfbench traces sample_matrix
        tri = sample_matrix(params, SeededStream(seed, start))
        return tri.diag[None], tri.offdiag[None]
    return sample_rows(params, seed, start, count)


def _moments(diags, offs):
    """Per replica, (1/n) sum lambda_i^2 by the trace identity and
    (1/n) sum lambda_i = (1/n) trace, as two columns."""
    second = (np.sum(diags**2, axis=1) + 2.0 * np.sum(offs**2, axis=1)) / diags.shape[1]
    return np.column_stack((second, np.mean(diags, axis=1)))


def _abs_tail(diags, offs, t_grid):
    """Per replica, #{i: |lambda_i| >= t}/n for each t of t_grid, as columns."""
    return np.column_stack([eig.counts_abs_at_or_above(diags, offs, t) / diags.shape[1] for t in t_grid])


def _measure_stats(diags, offs):
    """Per replica, W1 and KS to the semicircle and energy_I's two values."""
    spectra = eig.batch_spectra(diags, offs)
    out = np.empty((len(spectra), 4))
    for j, spectrum in enumerate(spectra):
        mu = DiscreteMeasure(spectrum)
        out[j, 0] = w1_to_semicircle(mu)
        out[j, 1] = ks_to_semicircle(mu)
        out[j, 2:] = energy_I(mu)
    return out


def _gather(fn, cfg: ExperimentConfig, n_values, row_shape=()) -> list:
    """fn(diags, offs) over the replica chunks of each n in n_values: one array per
    n, rows of shape row_shape in replica order.  fn gets a chunk's (count, n) and
    (count, n - 1) arrays, sampled here, and returns `count` rows.  W = min(workers,
    chunks) forked children fill one shared buffer; child k runs chunks k, k + W, ..."""
    list(map(cfg.params_for, n_values))  # a bad size or schedule raises here, not in a child
    cells = [[(n, s, c) for s, c in _chunks(cfg.replicas, n)] for n in n_values]
    if cfg.workers <= 1 or max(map(len, cells)) <= 1:
        return [np.concatenate([fn(*_sample_block(cfg, *chunk)) for chunk in chunks]) for chunks in cells]
    import mmap  # the one-worker path needs no shared buffer
    chunks = [(i, chunk) for i, cell in enumerate(cells) for chunk in cell]
    shape = (len(cells), cfg.replicas, *row_shape)
    rows = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)
    w, pids = min(cfg.workers, len(chunks)), []
    try:
        for k in range(w):
            pids.append(os.fork() or _work(fn, cfg, chunks[k::w], rows))  # a child never returns
    finally:
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in pids)
    if failed:
        raise RuntimeError(f"{failed} of {len(pids)} campaign workers failed; see their tracebacks")
    return list(rows)


def _work(fn, cfg, chunks, rows):
    """A forked child: runs its share of the chunks; leaves only by os._exit."""
    try:
        for i, (n, start, count) in chunks:
            rows[i, start:start + count] = fn(*_sample_block(cfg, n, start, count))
        os._exit(0)
    except BaseException:
        import traceback
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(1)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

class MomentRow(NamedTuple):
    n: int
    moment: int  # 2: (1/n) sum lambda_i^2; 1: (1/n) sum lambda_i, exact 0
    beta: float
    alpha: float
    mean: float
    stderr: float
    exact: float
    z_score: float


def run_moment_check(cfg: ExperimentConfig) -> Report:
    """Compare the Monte Carlo means of (1/n) sum lambda_i^2 and (1/n) sum
    lambda_i with their exact values: per n, a moment-2 row, then a moment-1 row.

    The per-replica statistics are evaluated through the trace identities
    sum lambda^2 = sum diag^2 + 2 sum offdiag^2 and sum lambda = sum diag,
    which hold exactly for every tridiagonal realization; the exact
    expectations are (1 + beta*(n-1)/2)/alpha and 0.
    """
    if cfg.replicas < 2:
        raise ValueError("moment check needs replicas >= 2 for a standard error")
    rows, checks = [], []
    for n, cell in zip(cfg.n_values, _gather(_moments, cfg, cfg.n_values, (2,))):
        params = cfg.params_for(n)
        second = (1.0 + params.beta * (n - 1) / 2.0) / params.alpha
        for moment, vals, exact, name in ((2, cell[:, 0], second, "second"), (1, cell[:, 1], 0.0, "first")):
            mean = float(vals.mean())
            stderr = float(vals.std(ddof=1) / math.sqrt(cfg.replicas))
            z = (mean - exact) / stderr if stderr > 0 else 0.0
            rows.append(MomentRow(n, moment, params.beta, params.alpha, mean, stderr, exact, z))
            checks.append(CheckResult(f"{name}_moment_within_4_stderr[n={n}]", abs(z) <= 4.0,
                                      f"mean={mean:.6g} exact={exact:.6g} z={z:.2f}"))
    return Report(rows, checks)


class TailRow(NamedTuple):
    """One (n, beta, x) cell of the tail sweep."""

    n: int
    beta: float
    x: float
    p_hat: float
    stderr: float
    j_hat: float          # -log(p_hat)/(n*beta); +inf marker when p_hat = 0
    j_theory: float
    rel_err: float        # (j_hat - j_theory)/j_theory; nan marker when undefined


def run_tail_sweep(cfg: ExperimentConfig) -> Report:
    """Estimate P(lambda_max >= x) and the finite-n rate surrogate j_hat; no checks."""
    if not cfg.x_grid:
        raise ValueError("tail sweep needs a nonempty x_grid")
    if any(x <= 2.0 for x in cfg.x_grid):
        raise ValueError("x_grid values must exceed the bulk edge 2")
    rows = []
    for n, lam in zip(cfg.n_values, _gather(eig.lambda_max_batch, cfg, cfg.n_values)):
        beta = cfg.schedule.beta(n)
        nb = n * beta
        for x in cfg.x_grid:
            p_hat = float(np.mean(lam >= x))
            stderr = math.sqrt(p_hat * (1 - p_hat) / cfg.replicas)
            j_theory = rate_J(x)
            if p_hat > 0.0:
                j_hat = -math.log(p_hat) / nb
                rel = (j_hat - j_theory) / j_theory
            else:
                j_hat = math.inf   # undersampled-tail marker
                rel = math.nan
            rows.append(TailRow(n, beta, x, p_hat, stderr, j_hat, j_theory, rel))
    return Report(rows, [])


class TailboundRow(NamedTuple):
    n: int
    beta: float
    t: float
    q_hat: float
    stderr: float
    log_bound: float
    passed: bool


def run_tailbound_check(cfg: ExperimentConfig) -> Report:
    """Empirical q(t) = E[#{i: |lambda_i| >= t}]/n against the analytic bound.

    By exchangeability q(t) equals P(|lambda_1| >= t), the quantity the bound
    controls.
    """
    if not cfg.t_grid:
        raise ValueError("tail-bound check needs a nonempty t_grid")
    if not all(t > 0.0 for t in cfg.t_grid):
        raise ValueError("t_grid values must be positive")
    rows, checks = [], []
    tails = _gather(lambda diags, offs: _abs_tail(diags, offs, cfg.t_grid), cfg, cfg.n_values, (len(cfg.t_grid),))
    for n, fracs in zip(cfg.n_values, tails):
        params = cfg.params_for(n)
        for j, t in enumerate(cfg.t_grid):
            col = fracs[:, j]
            q_hat = float(col.mean())
            stderr = float(col.std(ddof=1) / math.sqrt(cfg.replicas)) if cfg.replicas > 1 else 0.0
            lb = log_tail_bound(n, params.alpha, params.beta, t)
            bound = math.exp(lb) if lb <= _LOG_MAX else math.inf
            ok = q_hat <= bound + 3.0 * stderr
            rows.append(TailboundRow(n, params.beta, t, q_hat, stderr, lb, ok))
            checks.append(CheckResult(
                f"tail_bound_respected[n={n},t={t:g}]", ok, f"q_hat={q_hat:.3g} bound={bound:.3g}"))
    return Report(rows, checks)


class EsdRow(NamedTuple):
    n: int
    beta: float
    w1_mean: float
    ks_mean: float
    energy_norm: float
    energy_paper: float


def run_esd_check(cfg: ExperimentConfig) -> Report:
    """Empirical-spectral-measure convergence diagnostics along the schedule."""
    rows = []
    for n, stats in zip(cfg.n_values, _gather(_measure_stats, cfg, cfg.n_values, (4,))):
        params = cfg.params_for(n)
        rows.append(EsdRow(
            n, params.beta,
            float(stats[:, 0].mean()), float(stats[:, 1].mean()),
            float(stats[:, 2].mean()), float(stats[:, 3].mean())))
    w1_seq = [r.w1_mean for r in rows]
    checks = [CheckResult(
        "w1_strictly_decreasing_in_n",
        all(b < a for a, b in zip(w1_seq, w1_seq[1:])),
        f"{[f'{v:.4f}' for v in w1_seq]}")]
    return Report(rows, checks)
