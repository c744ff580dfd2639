"""The benchmark's workloads: one `hitemp` subcommand each, with a constant
beta schedule, fixed sizes and grids, and a replica count chosen so that the
property checks in checks.py hold for any seed.

Stdlib only: the campaign process imports this module while its set-up time
is being measured.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One CLI campaign; `grid` holds the x values (sweep) or t values (tail)."""

    name: str
    command: str  # "sweep" | "esd" | "tail"
    beta: float
    n_values: tuple
    grid: tuple
    workers: int
    replicas: int

    @property
    def grid_flag(self):
        return {"sweep": "--x", "tail": "--t", "esd": None}[self.command]

    @property
    def cells(self) -> int:
        """Rows of the campaign's CSV: one per (n, grid value), or per n."""
        return len(self.n_values) * max(1, len(self.grid))

    @property
    def matrices(self) -> int:
        return len(self.n_values) * self.replicas

    def argv(self, seed: int, out: str, workers: int | None = None) -> list:
        argv = [self.command, "--schedule", "const", "--c", repr(self.beta),
                "--n", ",".join(str(n) for n in self.n_values)]
        if self.grid_flag:
            argv += [self.grid_flag, ",".join(repr(v) for v in self.grid)]
        argv += ["--replicas", str(self.replicas), "--seed", str(seed),
                 "--workers", str(self.workers if workers is None else workers),
                 "--out", out]
        return argv


# Replica counts: ldp_sweep needs 4000 so that |j_hat - J|/J at n=400 sits
# about five standard errors below its value at n=200; esd_spectra needs 3 so
# that the mean W1 at n=2000 falls below the one at n=1000 on all but ~1e-5 of
# seeds.  edge_large_n and esd_spectra cost a fixed Python loop per chunk, and
# a campaign makes one chunk per replica up to 8, so their counts stay small.
WORKLOADS = {w.name: w for w in (
    Workload("ldp_sweep", "sweep", 0.05, (200, 400), (2.3, 2.5), workers=2, replicas=4000),
    Workload("edge_large_n", "sweep", 0.1, (2000, 4000), (2.05, 2.15), workers=1, replicas=1),
    Workload("esd_spectra", "esd", 0.1, (250, 1000, 2000), (), workers=1, replicas=3),
    Workload("tail_bound", "tail", 0.2, (50,), (2.5, 3.0), workers=2, replicas=20000),
)}
