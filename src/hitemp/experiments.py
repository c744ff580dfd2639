"""Monte Carlo campaigns confronting simulation with the analytic statements:
the trace identity, the empirical tail rate against the rate function, the
partition-function tail bound and empirical-measure convergence, plus the
per-replica largest eigenvalues behind the concentration at 2.

Replica r always consumes stream_index = r of the cell's seed, chunks are a
fixed function of (replicas, n), and the solver treats each matrix of a batch
on its own, so outputs are byte-identical for any worker count.  All
cells of a campaign are gathered through one process pool.

A chunk is sampled by one Philox generator re-keyed to (cell key, r) for
replica r, with sample_matrix's entry arithmetic done once per sub-block.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import eig
from .analytic import energy_I, rate_J
from .measures import DiscreteMeasure, ks_to_semicircle, w1_to_semicircle
from .model import EnsembleParams, RegimeSchedule, make_params
from .partition import log_tail_bound
from .sampler import _U64, SeededStream, _chi_shapes, _scale_entries, sample_matrix

_CHUNK_ELEMS = 2_000_000
_MIN_TASKS = 8  # worker-count independent task granularity
_SCRATCH_ELEMS = 65536  # uniforms per sub-block: a whole chunk's would raise peak RSS

# recorded in run manifests; outputs under another contract are not comparable
STREAM_CONTRACT = (
    "cell key = SeedSequence((master_seed mod 2^64, n)).generate_state(1, uint64)[0]; "
    "replica r = Philox(key = cell key + r * 2^64); per matrix: standard_normal(n), "
    "standard_gamma(j*beta/2 + 1) for j = n-1..1, random(n-1)")


@dataclass(frozen=True)
class ExperimentConfig:
    """Immutable description of one Monte Carlo campaign."""

    schedule: RegimeSchedule
    n_values: tuple
    replicas: int
    x_grid: tuple = ()
    t_grid: tuple = ()
    master_seed: int = 20260101
    # dstebz's ABSTOL for lambda_max; dsterf, which solves spectra, takes none
    solver_tol: float = 1e-12
    workers: int = 1
    plus_one_alpha: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "x_grid", tuple(float(x) for x in self.x_grid))
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not (math.isfinite(self.solver_tol) and self.solver_tol > 0):
            raise ValueError(f"solver_tol must be finite and positive, got {self.solver_tol!r}")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")

    def params_for(self, n: int) -> EnsembleParams:
        return make_params(n, self.schedule.beta(n), plus_one_alpha=self.plus_one_alpha)

    def cell_seed(self, n: int) -> int:
        # a 64-bit hash of (master_seed, n); master_seed + n gave seed 1 at
        # n=400 and seed 201 at n=200 the same key.  Called in the worker
        # tasks, not the campaign process: the first SeedSequence imports
        # numpy.random, about 5.6 MB of RSS
        seq = np.random.SeedSequence((self.master_seed & _U64, n))
        return int(seq.generate_state(1, np.uint64)[0])

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule.to_dict(),
            "n_values": list(self.n_values),
            "replicas": self.replicas,
            "x_grid": list(self.x_grid),
            "t_grid": list(self.t_grid),
            "master_seed": self.master_seed,
            "solver_tol": self.solver_tol,
            "workers": self.workers,
            "plus_one_alpha": self.plus_one_alpha,
        }


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# replica chunking and worker tasks
# ---------------------------------------------------------------------------

def _chunks(replicas: int, n: int):
    size = max(1, min(_CHUNK_ELEMS // max(n, 1), math.ceil(replicas / _MIN_TASKS)))
    return [(s, min(size, replicas - s)) for s in range(0, replicas, size)]


def _sample_block(cfg: ExperimentConfig, n: int, start: int, count: int):
    """Rows j of (diags, offs) are sample_matrix(params, SeededStream(cell key, start + j))."""
    params, seed = cfg.params_for(n), cfg.cell_seed(n)
    if count == 1:  # one generator either way; perfbench traces sample_matrix
        tri = sample_matrix(params, SeededStream(seed, start))
        return tri.diag[None], tri.offdiag[None]
    # Philox is counter-based: a pristine state re-keyed to (cell key, r) is stream r
    bitgen = np.random.Philox(key=seed)
    rng, state = np.random.Generator(bitgen), bitgen.state
    shapes = _chi_shapes(n, params.beta)
    gamma_shapes = shapes / 2.0 + 1.0
    diags, offs = np.empty((count, n)), np.empty((count, n - 1))
    rows = max(1, _SCRATCH_ELEMS // n)
    u = np.empty((min(rows, count), n - 1))
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        for j in range(lo, hi):
            state["state"]["key"][1] = start + j
            bitgen.state = state
            rng.standard_normal(out=diags[j])
            rng.standard_gamma(gamma_shapes, out=offs[j])
            rng.random(out=u[j - lo])
        _scale_entries(diags[lo:hi], offs[lo:hi], u[:hi - lo], shapes, params.alpha)
    return diags, offs


# A task is (cfg, n, start, count): replicas start..start+count-1 of size n.

def _task_lambda_max(task):
    diags, offs = _sample_block(*task)
    return eig.lambda_max_batch(diags, offs, task[0].solver_tol)


def _task_moments(task):
    """Per replica, (1/n) sum lambda_i^2 by the trace identity and
    (1/n) sum lambda_i = (1/n) trace, as two columns."""
    n = task[1]
    diags, offs = _sample_block(*task)
    second = (np.sum(diags**2, axis=1) + 2.0 * np.sum(offs**2, axis=1)) / n
    return np.column_stack((second, np.mean(diags, axis=1)))


def _task_abs_tail(task):
    cfg, n, _, count = task
    diags, offs = _sample_block(*task)
    out = np.empty((count, len(cfg.t_grid)))
    for j, t in enumerate(cfg.t_grid):
        out[:, j] = eig.counts_abs_at_or_above(diags, offs, t) / n
    return out


def _task_measure_stats(task):
    cfg, _, _, count = task
    diags, offs = _sample_block(*task)
    spectra = eig.batch_spectra(diags, offs, cfg.solver_tol)
    out = np.empty((count, 4))
    for j in range(count):
        mu = DiscreteMeasure(spectra[j])
        out[j, 0] = w1_to_semicircle(mu)
        out[j, 1] = ks_to_semicircle(mu)
        out[j, 2] = energy_I(mu, "normalized")
        out[j, 3] = energy_I(mu, "paper")
    return out


def _gather(fn, cfg: ExperimentConfig, n_values) -> list:
    """fn over the replica chunks of each n in n_values: one array per n, rows
    in replica order.  All chunks of the call share one process pool."""
    cells = [[(cfg, n, s, c) for s, c in _chunks(cfg.replicas, n)] for n in n_values]
    if cfg.workers <= 1 or max(map(len, cells)) <= 1:
        return [np.concatenate([fn(t) for t in tasks]) for tasks in cells]
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return [np.concatenate(list(pool.map(fn, tasks))) for tasks in cells]


def lambda_max_sample(cfg: ExperimentConfig, n: int) -> np.ndarray:
    """Per-replica largest eigenvalues for one ensemble size, replica order."""
    return _gather(_task_lambda_max, cfg, (n,))[0]


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentRow:
    n: int
    beta: float
    alpha: float
    mean: float
    stderr: float
    exact: float
    z_score: float


@dataclass(frozen=True)
class MomentReport:
    rows: list
    first_moment_rows: list
    checks: list


def run_moment_check(cfg: ExperimentConfig) -> MomentReport:
    """Compare the Monte Carlo mean of (1/n) sum lambda_i^2 with its exact value.

    The per-replica statistic is evaluated through the trace identity
    sum lambda^2 = sum diag^2 + 2 sum offdiag^2, which holds exactly for every
    tridiagonal realization; the exact expectation is (1 + beta*(n-1)/2)/alpha.
    """
    rows, first_rows, checks = [], [], []
    for n, cell in zip(cfg.n_values, _gather(_task_moments, cfg, cfg.n_values)):
        vals, firsts = cell.T
        params = cfg.params_for(n)
        exact = (1.0 + params.beta * (n - 1) / 2.0) / params.alpha
        mean = float(vals.mean())
        stderr = float(vals.std(ddof=1) / math.sqrt(cfg.replicas))
        z = (mean - exact) / stderr if stderr > 0 else 0.0
        rows.append(MomentRow(n, params.beta, params.alpha, mean, stderr, exact, z))
        checks.append(CheckResult(
            f"second_moment_within_4_stderr[n={n}]", abs(z) <= 4.0,
            f"mean={mean:.6g} exact={exact:.6g} z={z:.2f}"))

        fmean = float(firsts.mean())
        fse = float(firsts.std(ddof=1) / math.sqrt(cfg.replicas))
        fz = fmean / fse if fse > 0 else 0.0
        first_rows.append(MomentRow(n, params.beta, params.alpha, fmean, fse, 0.0, fz))
        checks.append(CheckResult(
            f"first_moment_within_4_stderr[n={n}]", abs(fz) <= 4.0,
            f"mean={fmean:.3g} z={fz:.2f}"))
    return MomentReport(rows, first_rows, checks)


@dataclass(frozen=True)
class TailRow:
    """One (n, beta, x) cell of the tail sweep."""

    n: int
    beta: float
    x: float
    p_hat: float
    stderr: float
    j_hat: float          # -log(p_hat)/(n*beta); +inf marker when p_hat = 0
    j_theory: float
    rel_err: float        # (j_hat - j_theory)/j_theory; nan marker when undefined
    wilson_low: float | None = None
    wilson_high: float | None = None


def _wilson(p_hat: float, r: int, z: float = 1.959963984540054):
    denom = 1.0 + z * z / r
    center = (p_hat + z * z / (2 * r)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / r + z * z / (4 * r * r)) / denom
    return center - half, center + half


def default_x_grid(n: int, beta: float, candidates=(2.1, 2.2, 2.3, 2.4, 2.5, 2.75, 3.0)) -> tuple:
    """Default sweep grid, capped so target tails stay observable:
    keep x with J(x)*n*beta <= 9."""
    nb = n * beta
    return tuple(x for x in candidates if rate_J(x) * nb <= 9.0)


def run_tail_sweep(cfg: ExperimentConfig) -> list[TailRow]:
    """Estimate P(lambda_max >= x) and the finite-n rate surrogate j_hat."""
    if not cfg.x_grid:
        raise ValueError("tail sweep needs a nonempty x_grid")
    if any(x <= 2.0 for x in cfg.x_grid):
        raise ValueError("x_grid values must exceed the bulk edge 2")
    rows = []
    for n, lam in zip(cfg.n_values, _gather(_task_lambda_max, cfg, cfg.n_values)):
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
            wl, wh = (None, None)
            if p_hat < 1e-3:
                wl, wh = _wilson(p_hat, cfg.replicas)
            rows.append(TailRow(n, beta, x, p_hat, stderr, j_hat, j_theory, rel, wl, wh))
    return rows


@dataclass(frozen=True)
class TailboundRow:
    n: int
    beta: float
    t: float
    q_hat: float
    stderr: float
    log_bound: float
    passed: bool


@dataclass(frozen=True)
class TailboundReport:
    rows: list
    checks: list


def run_tailbound_check(cfg: ExperimentConfig) -> TailboundReport:
    """Empirical q(t) = E[#{i: |lambda_i| >= t}]/n against the analytic bound.

    By exchangeability q(t) equals P(|lambda_1| >= t), the quantity the bound
    controls.
    """
    if not cfg.t_grid:
        raise ValueError("tail-bound check needs a nonempty t_grid")
    rows, checks = [], []
    for n, fracs in zip(cfg.n_values, _gather(_task_abs_tail, cfg, cfg.n_values)):
        params = cfg.params_for(n)
        for j, t in enumerate(cfg.t_grid):
            col = fracs[:, j]
            q_hat = float(col.mean())
            stderr = float(col.std(ddof=1) / math.sqrt(cfg.replicas)) if cfg.replicas > 1 else 0.0
            lb = log_tail_bound(n, params.alpha, params.beta, t)
            ok = q_hat <= math.exp(lb) + 3.0 * stderr
            rows.append(TailboundRow(n, params.beta, t, q_hat, stderr, lb, ok))
            checks.append(CheckResult(
                f"tail_bound_respected[n={n},t={t:g}]", ok,
                f"q_hat={q_hat:.3g} bound={math.exp(lb):.3g}"))
    return TailboundReport(rows, checks)


@dataclass(frozen=True)
class EsdRow:
    n: int
    beta: float
    w1_mean: float
    ks_mean: float
    energy_norm_mean: float
    energy_paper_mean: float


@dataclass(frozen=True)
class EsdReport:
    rows: list
    checks: list


def run_esd_check(cfg: ExperimentConfig) -> EsdReport:
    """Empirical-spectral-measure convergence diagnostics along the schedule."""
    rows = []
    for n, stats in zip(cfg.n_values, _gather(_task_measure_stats, cfg, cfg.n_values)):
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
    return EsdReport(rows, checks)
