"""Tests of the benchmark itself, on shrunken workloads: every oracle check
passes the program's real output and rejects a slightly wrong value, the
property checks flag a broken trend, and a traced campaign yields every
per-layer metric that BENCHMARK.json names."""

import json
from dataclasses import replace

import numpy as np
import pytest

import checks
import run
from hitemp import cli
from workloads import WORKLOADS

SEED = 7
SMALL = {
    "ldp_sweep": dict(n_values=(20, 40), replicas=40),
    "edge_large_n": dict(n_values=(30, 60), replicas=2),
    "esd_spectra": dict(n_values=(10, 20, 40), replicas=2),
    "tail_bound": dict(n_values=(12,), replicas=40),
}


def small(name):
    return replace(WORKLOADS[name], workers=1, **SMALL[name])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """name -> (run directory, campaigns) of one untraced and one traced campaign."""
    out = {}
    for name in SMALL:
        rundir = tmp_path_factory.mktemp(name)
        out[name] = rundir, run.run_campaigns(small(name), SEED, 0.0, True, rundir)[1]
    return out


def bump(text, row, column, delta) -> str:
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("name, row, column, delta", [
    ("ldp_sweep", 1, 3, 1 / 40),        # p_hat one hit off the LAPACK count
    ("ldp_sweep", 0, 6, 1e-6),          # j_theory
    ("ldp_sweep", 2, 5, 1e-6),          # j_hat
    ("esd_spectra", 2, 2, 1e-4),        # W1
    ("esd_spectra", 1, 3, 1e-6),        # KS
    ("esd_spectra", 0, 4, 1e-6),        # energy, normalized
    ("esd_spectra", 2, 5, 1e-6),        # energy, paper
    ("tail_bound", 0, 5, 1e-6),         # log_bound
    ("tail_bound", 0, 3, 1e-3),         # q_hat
])
def test_csv_checks_reject_a_wrong_value(name, row, column, delta, tmp_path):
    workload = small(name)
    ref = checks.Reference(workload, SEED)
    out = tmp_path / "out.csv"
    assert cli.main(workload.argv(SEED, str(out))) == 0
    text = out.read_text()
    assert checks.check_csv(workload, ref, text) == []
    fails = checks.check_csv(workload, ref, bump(text, row, column, delta))
    assert [cell for cell, _ in fails] == [row]


def _captured(traced, name):
    rundir, campaigns = traced[name]
    tag = next(tag for tag, is_traced, _ in campaigns if is_traced)
    with np.load(rundir / f"{tag}.npz") as cap:
        return dict(cap)


@pytest.mark.parametrize("name, key, index, delta", [
    ("ldp_sweep", "lambda_max", 17, 1e-6),
    ("edge_large_n", "lambda_max", 3, 1e-6),
    ("esd_spectra", "spectra_20", (1, 5), 1e-6),
    ("tail_bound", "abs_counts", 9, 1),
])
def test_capture_checks_reject_a_wrong_value(traced, name, key, index, delta):
    workload = small(name)
    ref = checks.Reference(workload, SEED)
    captured = _captured(traced, name)
    assert checks.check_captures(workload, ref, captured) == []
    captured[key][index] += delta
    assert checks.check_captures(workload, ref, captured) != []


def test_trace_identity_is_checked(traced):
    workload = small("esd_spectra")
    captured = _captured(traced, "esd_spectra")
    captured["spectra_40"][0] *= 1 + 1e-8
    fails = checks.check_captures(workload, checks.Reference(workload, SEED), captured)
    assert any("trace identity" in msg for _, msg in fails)


def test_properties_flag_a_broken_trend():
    header = ",".join(checks.HEADERS["esd"]) + "\n"
    esd = WORKLOADS["esd_spectra"]
    good = header + "250,0.1,0.04,0,0.001,0\n1000,0.1,0.009,0,0.001,0\n2000,0.1,0.006,0,0.001,0\n"
    assert checks.check_properties(esd, good) == []
    assert checks.check_properties(esd, good.replace("0.006", "0.0095"))
    assert checks.check_properties(esd, good.replace("0.006,0,0.001", "0.006,0,0.03"))
    tail = WORKLOADS["tail_bound"]
    row = "50,0.2,2.5,0,0,0,{}\n50,0.2,3.0,0,0,0,true\n"
    assert checks.check_properties(tail, ",".join(checks.HEADERS["tail"]) + "\n" + row.format("true")) == []
    assert checks.check_properties(tail, ",".join(checks.HEADERS["tail"]) + "\n" + row.format("false"))


def test_traced_run_reports_every_per_layer_metric(traced):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    exercised = set()
    for name, (rundir, campaigns) in traced.items():
        workload = small(name)
        assert [res["exit_code"] for _, _, res in campaigns] == [0, 0]
        assert checks.check_csv(workload, checks.Reference(workload, SEED),
                                (rundir / "campaign1.csv").read_text()) == []
        metrics = run.per_layer_metrics(campaigns, rundir)
        assert {k: v["unit"] for k, v in metrics.items()} == want
        exercised |= {k for k, v in metrics.items() if v["value"] > 0}
    assert exercised >= set(want) - {"trace.overhead_s"}  # every layer runs somewhere


def test_timed_run_samples_speed_in_every_worker(tmp_path):
    # long enough (about 1 s) for each worker to take several 100 ms samples
    workload = replace(WORKLOADS["ldp_sweep"], n_values=(100, 200), replicas=3000)
    setups, campaigns = run.run_campaigns(workload, SEED, 0.0, False, tmp_path)
    (tag, _, res), = campaigns
    assert res["exit_code"] == 0 and res["kernel_s"] > 0
    pids = {line.split()[0] for line in (tmp_path / f"{tag}.speed.txt").read_text().splitlines()}
    assert len(pids) >= 2  # the campaign's pool workers sample too
    metrics = run.end_to_end_metrics(workload, setups, campaigns)
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
