"""Campaign benchmark for hitemp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of workloads.py through the public CLI, `hitemp.cli.main`,
each campaign in a fresh interpreter (child.py), for S seconds of whole
campaigns.  The seed is the campaign's master seed.  Every campaign's CSV is
checked against independent oracles (checks.py), and the last line of
standard output is one JSON object: correct, attempted and failed campaign
cells, and the metrics.

--trace 0 reports the end-to-end metrics at the workload's worker count.
--trace 1 alternates untraced and traced campaigns at --workers 1 and
reports per-layer metrics from the traced ones (tracing.py) and the tracing
overhead.  Run files go to .perfbench_runs/ at the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 5          # extra set-ups per timed run, for a steadier setup_s median
CHILD_TIMEOUT_S = 60          # a traced pair of hung campaigns still ends within 180 s

END_TO_END = {"matrices_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchmarkError(Exception):
    """The program could not be set up or run at all; no result is printed."""


def _spawn(rundir: Path, tag: str, job: dict):
    """Run child.py on job; return its result dict, or None if it failed."""
    job = dict(job, result=str(rundir / f"{tag}.result.json"),
               spans=str(rundir / f"{tag}.spans.json"), captured=str(rundir / f"{tag}.npz"),
               samples=str(rundir / f"{tag}.speed.txt"))
    job_path = rundir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path), repr(spawned)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        err = b"timed out"
    finally:
        try:  # the campaign's own workers are in its session
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    result_path = Path(job["result"])
    if proc.returncode != 0 or not result_path.is_file():
        sys.stderr.write(f"[{tag}] campaign process failed ({proc.returncode}): "
                         f"{err.decode(errors='replace')[-2000:]}\n")
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_campaigns(workload, seed: int, seconds: float, trace: bool, rundir: Path):
    """Set-up probes, then whole campaigns until `seconds` have passed.

    Returns (set-up probe results, [(tag, traced, result or None)]).
    """
    base = {"workload": dataclasses.asdict(workload), "seed": seed, "workers": workload.workers,
            "trace": False, "setup_only": True, "out": ""}
    if _spawn(rundir, "warmup", base) is None:  # also fills the bytecode caches
        raise BenchmarkError("hitemp.cli cannot be imported")
    setups = [] if trace else [_spawn(rundir, f"setup{k}", base) for k in range(SETUP_PROBES)]
    setups = [r for r in setups if r is not None]
    campaigns = []
    deadline = time.monotonic() + seconds
    while True:
        for traced in ((False, True) if trace else (False,)):
            tag = f"campaign{len(campaigns)}"
            job = dict(base, setup_only=False, trace=traced, out=str(rundir / f"{tag}.csv"),
                       workers=1 if trace else workload.workers)
            campaigns.append((tag, traced, _spawn(rundir, tag, job)))
        if time.monotonic() >= deadline:
            return setups, campaigns


def check_campaigns(workload, seed: int, campaigns, rundir: Path):
    """Returns (correct, failed cells, messages).  Campaigns of one run share
    their seed, so every CSV must equal the first one byte for byte."""
    import numpy as np

    import checks

    ref = checks.Reference(workload, seed)
    first_text, first_fails = None, []
    correct, failed, messages = True, 0, []
    for tag, traced, res in campaigns:
        csv_path = rundir / f"{tag}.csv"
        if res is None or res["exit_code"] != 0 or not csv_path.is_file():
            failed += workload.cells
            messages.append(f"[{tag}] exit code {None if res is None else res['exit_code']}")
            continue
        text = csv_path.read_text(encoding="ascii")
        if first_text is None:
            first_text = text
            first_fails = checks.check_csv(workload, ref, text) or checks.check_properties(workload, text)
        fails = list(first_fails) if text == first_text else [(None, "CSV differs from the first campaign's")]
        if traced:
            with np.load(rundir / f"{tag}.npz") as captured:
                fails += checks.check_captures(workload, ref, dict(captured))
        cells = {cell for cell, _ in fails}
        failed += workload.cells if None in cells else len(cells)
        correct = correct and not fails
        messages += [f"[{tag}] {msg}" for _, msg in fails]
    return correct, failed, messages


def end_to_end_metrics(workload, setups, campaigns) -> dict:
    """Times are scaled to the reference machine speed (speed.py).  Throughput
    and CPU are taken over all of the run's campaigns together; set-up time
    and memory are per-process medians."""
    from speed import REF_KERNEL_S

    ok = [res for _, _, res in campaigns if res is not None and res["exit_code"] == 0]
    scale = [REF_KERNEL_S / r["kernel_s"] for r in ok]
    values = {
        "matrices_per_s": workload.matrices * len(ok) / sum(r["wall_s"] * k for r, k in zip(ok, scale)),
        "cpu_s": sum(r["cpu_s"] * k for r, k in zip(ok, scale)) / len(ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] * REF_KERNEL_S / r["setup_kernel_s"]
                                     for r in setups + ok),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(campaigns, rundir: Path) -> dict:
    """Medians over the traced campaigns; the overhead is the median excess
    of a traced campaign's wall time over the untraced one just before it."""
    from tracing import UNITS, layer_metrics

    pairs = [(campaigns[k][2], campaigns[k + 1]) for k in range(0, len(campaigns), 2)]
    pairs = [(plain, tag, res) for plain, (tag, _, res) in pairs
             if plain is not None and res is not None and plain["exit_code"] == res["exit_code"] == 0]
    if not pairs:
        raise BenchmarkError("no traced campaign finished")
    layers = [layer_metrics(json.loads((rundir / f"{tag}.spans.json").read_text(encoding="utf-8")))
              for _, tag, _ in pairs]
    out = {name: {"value": statistics.median_low(m[name] for m in layers),
                  "unit": UNITS[name.rsplit(".", 1)[1]]} for name in layers[0]}
    out["trace.overhead_s"] = {"value": statistics.median_low(
        res["wall_s"] - plain["wall_s"] for plain, _, res in pairs), "unit": "s"}
    return out


def measure(workload, seed: int, seconds: float, trace: bool, rundir: Path) -> dict:
    setups, campaigns = run_campaigns(workload, seed, seconds, trace, rundir)
    if not any(res is not None and res["exit_code"] == 0 for _, _, res in campaigns):
        raise BenchmarkError("no campaign finished")
    correct, failed, messages = check_campaigns(workload, seed, campaigns, rundir)
    for msg in messages:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    metrics = (per_layer_metrics(campaigns, rundir) if trace
               else end_to_end_metrics(workload, setups, campaigns))
    result = {"correct": correct, "attempted": len(campaigns) * workload.cells,
              "failed": failed, "metrics": metrics}
    (rundir / "report.json").write_text(json.dumps(
        {"result": result, "campaigns": campaigns, "setups": setups, "messages": messages}, indent=1),
        encoding="utf-8")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hitemp" / "cli.py").is_file():
        print(f"perfbench: no hitemp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rundir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), rundir)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
