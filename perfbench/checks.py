"""Checks of a campaign's CSV (and, for a traced campaign, of the arrays the
solver returned) against oracles.py on matrices rebuilt through hitemp's
public sampler, plus per-workload properties that hold for any seed.

Every check returns a list of failures (cell, message); cell is the CSV row
index the failure belongs to, or None for the whole campaign.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from hitemp import ExperimentConfig, RegimeSchedule, SeededStream, sample_matrix

HEADERS = {
    "sweep": ["n", "beta", "x", "p_hat", "stderr", "j_hat", "j_theory", "rel_err"],
    "esd": ["n", "beta", "w1_mean", "ks_mean", "energy_norm", "energy_paper"],
    "tail": ["n", "beta", "t", "q_hat", "stderr", "log_bound", "pass"],
}
EIG_TOL = 1e-10    # solver tolerance is 1e-12; LAPACK is accurate to ~1e-15
TIE = 1e-9         # an eigenvalue this close to a threshold may count either way
REL = 1e-12        # relative tolerance of values recomputed from the same inputs
W1_TOL = 1e-7
ENERGY_TOL = 1e-8


def _close(got: float, want: float, rel: float = REL, abs_tol: float = 1e-15) -> bool:
    if math.isinf(want) or math.isnan(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= max(abs_tol, rel * abs(want))


class Reference:
    """Rebuilds a workload's matrices (replica r of size n is stream r of the
    cell seed) and caches their LAPACK eigenvalues."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.cfg = ExperimentConfig(schedule=RegimeSchedule.constant(workload.beta),
                                    n_values=workload.n_values, replicas=workload.replicas,
                                    master_seed=seed)
        self._matrices, self._lmax, self._spectra = {}, {}, {}

    def matrices(self, n: int) -> list:
        if n not in self._matrices:
            params, key = self.cfg.params_for(n), self.cfg.cell_seed(n)
            self._matrices[n] = [sample_matrix(params, SeededStream(key, r))
                                 for r in range(self.workload.replicas)]
        return self._matrices[n]

    def lambda_max(self, n: int) -> np.ndarray:
        if n not in self._lmax:
            self._lmax[n] = np.array([oracles.lambda_max(m.diag, m.offdiag) for m in self.matrices(n)])
        return self._lmax[n]

    def spectra(self, n: int) -> np.ndarray:
        if n not in self._spectra:
            self._spectra[n] = np.array([oracles.spectrum(m.diag, m.offdiag) for m in self.matrices(n)])
        return self._spectra[n]

    def abs_counts(self, n: int, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-replica #{|lambda| >= t}: (certain, possible) given ties."""
        mag = np.abs(self.spectra(n))
        return np.sum(mag >= t + TIE, axis=1), np.sum(mag >= t - TIE, axis=1)


def parse_csv(text: str, command: str) -> list:
    lines = text.rstrip("\n").split("\n")
    if lines[0].split(",") != HEADERS[command]:
        raise ValueError(f"unexpected header {lines[0]!r}")
    return [line.split(",") for line in lines[1:]]


def expected_cells(workload) -> list:
    if workload.command == "esd":
        return [(n, None) for n in workload.n_values]
    return [(n, g) for n in workload.n_values for g in workload.grid]


def check_csv(workload, ref: Reference, text: str) -> list:
    """Every CSV value against its oracle."""
    try:
        rows = parse_csv(text, workload.command)
    except (ValueError, IndexError) as exc:
        return [(None, f"unreadable CSV: {exc}")]
    cells = expected_cells(workload)
    if len(rows) != len(cells):
        return [(None, f"{len(rows)} rows, expected {len(cells)}")]
    check_row = {"sweep": _sweep_row, "esd": _esd_row, "tail": _tail_row}[workload.command]
    fails = []
    for i, ((n, g), row) in enumerate(zip(cells, rows)):
        try:
            vals = [v if v in ("true", "false") else float(v) for v in row]
        except ValueError:
            fails.append((i, f"unparsable row {row}"))
            continue
        if vals[0] != n or vals[1] != workload.beta or (g is not None and vals[2] != g):
            fails.append((i, f"row {row[:3]} is not cell (n={n}, beta={workload.beta}, {g})"))
            continue
        fails += [(i, f"n={n} {g}: {msg}") for msg in check_row(workload, ref, n, g, vals)]
    return fails


def check_properties(workload, text: str) -> list:
    """The workload's statistical properties; call after check_csv passed."""
    return PROPERTIES[workload.name](workload, parse_csv(text, workload.command))


def _sweep_row(workload, ref, n, x, vals):
    _, beta, _, p_hat, stderr, j_hat, j_theory, rel_err = vals
    r = workload.replicas
    lam = ref.lambda_max(n)
    hits = p_hat * r
    if not (abs(hits - round(hits)) < 1e-6
            and np.sum(lam >= x + TIE) <= round(hits) <= np.sum(lam >= x - TIE)):
        return [f"p_hat={p_hat} but LAPACK gives {np.sum(lam >= x)}/{r}"]
    fails = []
    if not _close(stderr, math.sqrt(p_hat * (1 - p_hat) / r)):
        fails.append(f"stderr={stderr}")
    j = oracles.rate_J(x)
    if not _close(j_theory, j):
        fails.append(f"j_theory={j_theory}, quadrature gives {j}")
    want_j_hat = -math.log(p_hat) / (n * beta) if p_hat > 0 else math.inf
    if not _close(j_hat, want_j_hat):
        fails.append(f"j_hat={j_hat}, expected {want_j_hat}")
    want_rel = (want_j_hat - j) / j if p_hat > 0 else math.nan
    if not _close(rel_err, want_rel, rel=1e-9, abs_tol=1e-12):
        fails.append(f"rel_err={rel_err}, expected {want_rel}")
    return fails


def _esd_row(workload, ref, n, _, vals):
    w1, ks, e_norm, e_paper = vals[2:]
    spectra = ref.spectra(n)
    want_w1 = float(np.mean([oracles.w1_to_semicircle(s) for s in spectra]))
    want_ks = float(np.mean([oracles.ks_to_semicircle(s) for s in spectra]))
    want_e = np.mean([oracles.energies(s) for s in spectra], axis=0)
    fails = []
    if abs(w1 - want_w1) > W1_TOL:
        fails.append(f"w1_mean={w1}, quadrature gives {want_w1}")
    if abs(ks - want_ks) > EIG_TOL:
        fails.append(f"ks_mean={ks}, expected {want_ks}")
    if abs(e_norm - want_e[0]) > ENERGY_TOL or abs(e_paper - want_e[1]) > ENERGY_TOL:
        fails.append(f"energies=({e_norm}, {e_paper}), pair sum gives {tuple(want_e)}")
    return fails


def _tail_row(workload, ref, n, t, vals):
    _, beta, _, q_hat, stderr, log_bound, passed = vals
    r = workload.replicas
    sure, maybe = ref.abs_counts(n, t)
    fails = []
    q_lo, q_hi = float(np.mean(sure / n)), float(np.mean(maybe / n))
    if not (q_lo - 1e-15 <= q_hat <= q_hi + 1e-15):
        fails.append(f"q_hat={q_hat}, LAPACK gives {q_lo}")
    if np.array_equal(sure, maybe) and not _close(stderr, float(np.std(sure / n, ddof=1)) / math.sqrt(r), rel=1e-9):
        fails.append(f"stderr={stderr}")
    want_lb = oracles.log_tail_bound(n, n * beta / 2, beta, t)
    if not _close(log_bound, want_lb, rel=0.0, abs_tol=1e-10):
        fails.append(f"log_bound={log_bound}, Selberg sums give {want_lb}")
    if passed != ("true" if q_hat <= math.exp(want_lb) + 3 * stderr else "false"):
        fails.append(f"pass={passed} disagrees with q_hat, stderr and the bound")
    return fails


# -- properties: true for any seed, up to the odds given in README.md

def _p_hat_falls_in_x(workload, rows):
    fails = []
    for i, n in enumerate(workload.n_values):
        block = range(i * len(workload.grid), (i + 1) * len(workload.grid))
        p = [float(rows[k][3]) for k in block]
        if any(b > a for a, b in zip(p, p[1:])):
            fails.append((block[-1], f"p_hat increases in x at n={n}: {p}"))
    return fails


def _at_largest_grid_value(workload, rows, k):
    return {int(row[0]): float(row[k]) for row in rows if float(row[2]) == workload.grid[-1]}


def _ldp_sweep(workload, rows):
    """At the largest x, |j_hat - J|/J <= 0.5 at the first n and shrinks at the second."""
    fails = _p_hat_falls_in_x(workload, rows)
    err = {n: abs(e) for n, e in _at_largest_grid_value(workload, rows, 7).items()}
    small, large = workload.n_values[:2]
    if not err[small] <= 0.5:
        fails.append((None, f"|j_hat - J|/J = {err[small]} > 0.5 at n={small}"))
    if not err[large] < err[small]:
        fails.append((None, f"|j_hat - J|/J does not shrink from n={small} to {large}: {err}"))
    return fails


def _edge_large_n(workload, rows):
    """At the largest x, p_hat <= 0.05 at the first n and does not increase in n."""
    fails = _p_hat_falls_in_x(workload, rows)
    p = list(_at_largest_grid_value(workload, rows, 3).values())
    if not p[0] <= 0.05:
        fails.append((None, f"p_hat = {p[0]} > 0.05 at n={workload.n_values[0]}"))
    if any(b > a for a, b in zip(p, p[1:])):
        fails.append((None, f"p_hat at the largest x increases in n: {p}"))
    return fails


def _esd_spectra(workload, rows):
    w1 = [float(row[2]) for row in rows]
    fails = []
    if any(not b < a for a, b in zip(w1, w1[1:])):
        fails.append((None, f"W1 does not decrease strictly in n: {w1}"))
    if not abs(float(rows[-1][4])) <= 0.02:
        fails.append((None, f"|energy_norm| = {rows[-1][4]} > 0.02 at the largest n"))
    return fails


def _tail_bound(workload, rows):
    return [(k, f"pass={row[6]}") for k, row in enumerate(rows) if row[6] != "true"]


PROPERTIES = {"ldp_sweep": _ldp_sweep, "edge_large_n": _edge_large_n,
              "esd_spectra": _esd_spectra, "tail_bound": _tail_bound}


def _cells_of_n(workload, n) -> list:
    return [i for i, (m, _) in enumerate(expected_cells(workload)) if m == n]


def check_captures(workload, ref: Reference, captured) -> list:
    """Check the arrays a traced campaign's solver calls returned, in call
    order: lambda_max, spectra (with the trace identity) and |lambda| >= t counts."""
    fails = []
    if "lambda_max" in captured:
        got = captured["lambda_max"]
        for k, n in enumerate(workload.n_values):
            part = got[k * workload.replicas:(k + 1) * workload.replicas]
            err = np.max(np.abs(part - ref.lambda_max(n))) if part.size == workload.replicas else math.inf
            if not err <= EIG_TOL:
                fails += [(i, f"lambda_max at n={n} off LAPACK by {err:.3g}") for i in _cells_of_n(workload, n)]
    for n in workload.n_values:
        key = f"spectra_{n}"
        if key not in captured:
            continue
        got, want = captured[key], ref.spectra(n)
        if got.shape != want.shape:
            fails += [(i, f"{got.shape} spectra at n={n}") for i in _cells_of_n(workload, n)]
            continue
        err = np.max(np.abs(got - want))
        if not err <= EIG_TOL:
            fails += [(i, f"spectra at n={n} off LAPACK by {err:.3g}") for i in _cells_of_n(workload, n)]
        h2 = np.array([m.diag @ m.diag + 2 * m.offdiag @ m.offdiag for m in ref.matrices(n)])
        resid = np.max(np.abs(np.sum(got * got, axis=1) - h2) / h2)
        if not resid <= 1e-9:
            fails += [(i, f"sum lambda^2 off the trace identity by {resid:.3g} at n={n}")
                      for i in _cells_of_n(workload, n)]
    if "abs_counts" in captured:
        got, at = captured["abs_counts"], captured["abs_counts_t"]
        for i, (n, t) in enumerate(expected_cells(workload)):
            sure, maybe = ref.abs_counts(n, t)
            part = got[at == t]  # one size per tail workload, so t picks the cell
            if not (part.shape == sure.shape and np.all((sure <= part) & (part <= maybe))):
                fails.append((i, f"|lambda| >= {t} counts disagree with LAPACK at n={n}"))
    return fails
