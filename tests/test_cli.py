import dataclasses
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from hitemp import cli, eig, experiments, sampler
from hitemp.cli import main
from hitemp.model import RegimeSchedule
from hitemp.sampler import load_matrix


# the per-replica layout that 0.3.0 manifests record
V030_STREAM_CONTRACT = (
    "cell key = SeedSequence((master_seed mod 2^64, n)).generate_state(1, uint64)[0]; "
    "replica r = Philox(key = cell key + r * 2^64); per matrix: standard_normal(n), "
    "standard_gamma(j*beta/2 + 1) for j = n-1..1, random(n-1)")


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_rate_grid(tmp_path):
    out = tmp_path / "rate.csv"
    assert run_cli("rate", "--x", "2:0.1:3", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["x", "J", "phi"]
    assert len(rows) == 11
    assert float(rows[0][1]) == 0.0  # J(2) = 0
    # no point passes stop, and a span short of an integer by rounding reaches it
    assert cli._parse_grid("0:1:3.6") == [0.0, 1.0, 2.0, 3.0]
    assert len(cli._parse_grid("2.1:0.1:2.5")) == 5
    assert len(cli._parse_grid("2.05:0.05:2.5")) == 10
    assert len(cli._parse_grid(f"0:1:{cli._MAX_GRID_POINTS - 1}")) == cli._MAX_GRID_POINTS
    # J = -phi - 1/2 row by row
    for row in rows:
        assert float(row[1]) == pytest.approx(-float(row[2]) - 0.5, abs=1e-12)


def test_rate_quadrature_method(tmp_path):
    out = tmp_path / "rate_q.csv"
    assert run_cli("rate", "--x", "2.5,3", "--method", "quadrature", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert float(rows[1][1]) == pytest.approx(0.7146273330056354, abs=1e-8)


def test_partition_rows(tmp_path):
    out = tmp_path / "part.csv"
    assert run_cli("partition", "--schedule", "invlogsq", "--c", "1",
                   "--n", "1e3,1e4,1e5,1e6", "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["lemma", "n", "beta", "exact", "asymptotic", "gap"]
    assert len(rows) == 8  # 4 sizes per lemma
    assert [r[0] for r in rows] == ["shift"] * 4 + ["perturbed"] * 4
    gaps = [abs(float(r[5])) for r in rows[:4]]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("n", [200, 1500])
def test_sample_dumps_the_campaign_replica(tmp_path, n):
    # --seed is the master seed: the dump is replica 3 of the cell (seed 7, n),
    # as a campaign samples it.  B(200) = 10, B(1500) = 1
    dump = tmp_path / "m.txt"
    assert run_cli("sample", "--n", str(n), "--beta", "0.05", "--seed", "7", "--stream", "3",
                   "--out", str(dump)) == 0
    cfg = experiments.ExperimentConfig(schedule=RegimeSchedule.constant(0.05), n_values=(n,), master_seed=7)
    diags, offs = experiments._sample_block(cfg, n, 0, 4)
    tri = load_matrix(dump)
    assert np.array_equal(tri.diag, diags[3]) and np.array_equal(tri.offdiag, offs[3])


def test_sample_then_eig_round_trip(tmp_path):
    dump = tmp_path / "m.txt"
    assert run_cli("sample", "--n", "16", "--beta", "0.3", "--seed", "5",
                   "--out", str(dump)) == 0
    spectrum_file = tmp_path / "spectrum.txt"
    assert run_cli("eig", "--matrix", str(dump), "--out", str(spectrum_file)) == 0
    got = np.array([float(v) for v in spectrum_file.read_text().split()])
    tri = load_matrix(dump)
    want = eig.batch_spectra(tri.diag[None], tri.offdiag[None])[0]
    assert np.array_equal(got, want)
    assert got.size == 16


def test_sweep_csv_schema_and_determinism(tmp_path):
    args = ["sweep", "--schedule", "const", "--c", "0.1", "--n", "100",
            "--replicas", "80", "--x", "2.2,2.4", "--seed", "99"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--workers", "1", "--out", str(out1)) == 0
    assert run_cli(*args, "--workers", "2", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header == ["n", "beta", "x", "p_hat", "stderr", "j_hat", "j_theory", "rel_err"]
    assert len(rows) == 2


@pytest.mark.parametrize("command, flags, header", [
    ("sweep", ["--x", "2.3"], "n,beta,x,p_hat,stderr,j_hat,j_theory,rel_err"),
    ("tail", ["--t", "2.5"], "n,beta,t,q_hat,stderr,log_bound,pass"),
    ("esd", [], "n,beta,w1_mean,ks_mean,energy_norm,energy_paper"),
])
def test_campaign_headers_are_the_record_fields(tmp_path, command, flags, header):
    # the headers perfbench/checks.py pins; the rows are the records themselves
    out = tmp_path / "out.csv"
    assert run_cli(command, "--schedule", "const", "--c", "0.2", "--n", "30", "--replicas", "4",
                   "--seed", "3", "--workers", "1", "--out", str(out), *flags) == 0
    assert out.read_text().split("\n")[0] == header


def test_importing_the_cli_loads_no_process_pool_and_starts_no_thread():
    # campaigns fork their workers: a pool's import costs some 30 modules and
    # 1.9 MB of RSS.  OpenBLAS's worker thread spun 50-60 ms of CPU
    code = ("import os, sys, hitemp.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)),\n"
            "      len(os.listdir('/proc/self/task')))\n")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 1\n"


def test_csv_is_locale_independent(tmp_path):
    out = tmp_path / "rate.csv"
    run_cli("rate", "--x", "2:0.25:3", "--out", str(out))
    raw = out.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("ascii")
    for token in text.split("\n")[1].split(","):
        assert float(token) is not None  # parses with '.' decimals


def test_manifest_round_trip(tmp_path, capsys):
    out1 = tmp_path / "s1.csv"
    manifest = tmp_path / "run.json"
    assert run_cli("sweep", "--schedule", "const", "--c", "0.1", "--n", "60,120",
                   "--replicas", "50", "--x", "2.3", "--seed", "321",
                   "--workers", "1", "--out", str(out1), "--manifest", str(manifest)) == 0
    meta = json.loads(manifest.read_text())
    assert meta["master_seed"] == 321
    assert meta["tool_version"] == "0.4.0"
    assert meta["python"] == platform.python_version()
    assert meta["numpy"] == np.__version__
    assert meta["platform"] == platform.platform()
    assert meta["nproc"] == os.cpu_count()
    assert meta["stream_contract"] == sampler.STREAM_CONTRACT
    assert "SeedSequence((master_seed mod 2^64, n))" in meta["stream_contract"]
    assert "B = max(1, 2048 // n)" in meta["stream_contract"]
    assert meta["solver"] == {"lambda_max": "dstebz, RANGE='I', IL=IU=n, ABSTOL=1e-12",
                              "spectra": "dsterf",
                              "library": os.path.basename(eig.library()[0])}
    assert meta["config"]["replicas"] == 50
    assert meta["outputs"] == [str(out1)]
    assert meta["sha256"] == {str(out1): hashlib.sha256(out1.read_bytes()).hexdigest()}
    # replaying the manifest reproduces the run byte for byte
    out2 = tmp_path / "s2.csv"
    assert run_cli("sweep", "--config", str(manifest), "--workers", "1",
                   "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # 0.2.0's "m_grid" and 0.3.0's "solver_tol" are no config keys: the manifests
    # that wrote them are refused for their stream contract, and a config block
    # copied out of one would replay under other streams
    old_manifest, out5 = tmp_path / "run_0.3.0.json", tmp_path / "s5.csv"
    config = tmp_path / "cfg.json"
    for key, value in (("m_grid", []), ("solver_tol", 1e-12)):
        config.write_text(json.dumps(dict(meta["config"], **{key: value})))
        assert run_cli("sweep", "--config", str(config), "--workers", "1",
                       "--out", str(out5)) == 2
        assert f"unknown config key(s) {key!r}" in capsys.readouterr().err
        assert not out5.exists()
    # a manifest of another stream contract, or one that records none, would
    # replay its config into other matrices: refused, naming both contracts
    for contract in (V030_STREAM_CONTRACT, None):
        meta["stream_contract"] = contract
        if contract is None:
            del meta["stream_contract"]
        old_manifest.write_text(json.dumps(meta))
        assert run_cli("sweep", "--config", str(old_manifest), "--workers", "1",
                       "--out", str(out5)) == 2
        err = capsys.readouterr().err
        assert repr(contract) in err and repr(sampler.STREAM_CONTRACT) in err
        assert not out5.exists()
    # a hand-written config carries no contract and loads as before
    config.write_text(json.dumps(meta["config"]))
    assert run_cli("sweep", "--config", str(config), "--workers", "1",
                   "--out", str(out5)) == 0
    assert out1.read_bytes() == out5.read_bytes()


def test_flag_overrides_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "schedule": {"kind": "constant", "c": 0.1, "exponent": 0.0},
        "n_values": [60], "replicas": 40, "master_seed": 111,
    }))
    base, override, direct = (tmp_path / f"{k}.csv" for k in ("base", "override", "direct"))
    assert run_cli("sweep", "--config", str(config), "--x", "2.3",
                   "--workers", "1", "--out", str(base)) == 0
    assert run_cli("sweep", "--config", str(config), "--x", "2.3", "--seed", "222",
                   "--workers", "1", "--out", str(override)) == 0
    assert run_cli("sweep", "--schedule", "const", "--c", "0.1", "--n", "60",
                   "--replicas", "40", "--x", "2.3", "--seed", "222",
                   "--workers", "1", "--out", str(direct)) == 0
    assert override.read_bytes() == direct.read_bytes()
    assert override.read_bytes() != base.read_bytes()


def _campaign_actions(command):
    parser = cli._build_parser(command)
    return parser._subparsers._group_actions[0].choices[command]._actions


@pytest.mark.parametrize("command", ["sweep", "tail", "esd"])
def test_campaign_flags_and_config_keys_are_the_config_fields(command):
    # one statement of a campaign's inputs: a field added on one side only fails here
    fields = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}
    assert set(cli._CONFIG_TYPES) == fields
    cli_only = {"help", "config", "out", "summary", "manifest", "schedule", "c", "p", "gamma"}
    dests = {action.dest for action in _campaign_actions(command)}
    assert dests - cli_only <= fields
    assert {"n_values", "replicas", "master_seed", "workers", "plus_one_alpha"} <= dests


def test_zero_and_false_flags_are_given_values(tmp_path, capsys):
    # a merge that kept only truthy flags would run --seed 0 at the config's
    # seed and --workers 0 on the config's two workers
    config = tmp_path / "cfg.json"
    schedule = {"kind": "constant", "c": 0.1, "exponent": 0.0}
    config.write_text(json.dumps({"schedule": schedule, "n_values": [60], "replicas": 40,
                                  "master_seed": 111, "workers": 2}))
    over, direct, out = (tmp_path / f"{k}.csv" for k in ("over", "direct", "out"))
    assert run_cli("sweep", "--config", str(config), "--x", "2.3", "--seed", "0",
                   "--workers", "1", "--out", str(over)) == 0
    assert run_cli("sweep", "--schedule", "const", "--c", "0.1", "--n", "60", "--replicas", "40",
                   "--x", "2.3", "--seed", "0", "--workers", "1", "--out", str(direct)) == 0
    assert over.read_bytes() == direct.read_bytes()
    assert run_cli("sweep", "--config", str(config), "--x", "2.3", "--workers", "0",
                   "--out", str(out)) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()
    # an absent store_true flag leaves the config's true in place
    config.write_text(json.dumps({"schedule": schedule, "n_values": [60], "plus_one_alpha": True}))
    cfg = cli._experiment_config(cli._build_parser().parse_args(["tail", "--config", str(config)]))
    assert cfg.plus_one_alpha is True


@pytest.mark.parametrize("command, shown", [
    ("sweep", ["[--n N]", "[--seed SEED]", "[--x X]"]), ("tail", ["[--n N]", "[--seed SEED]", "[--t T]"])])
def test_campaign_usage_names_the_flags_not_the_fields(capsys, command, shown):
    with pytest.raises(SystemExit):
        run_cli(command, "--help")
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert all(flag in usage for flag in shown)
    assert not any(field in usage.upper() for field in ("N_VALUES", "MASTER_SEED", "_GRID"))


def test_tail_subcommand_with_summary(tmp_path):
    out = tmp_path / "tail.csv"
    summary = tmp_path / "summary.json"
    code = run_cli("tail", "--schedule", "const", "--c", "0.2", "--n", "50",
                   "--replicas", "200", "--t", "3,10", "--seed", "8",
                   "--workers", "1", "--out", str(out), "--summary", str(summary))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["n", "beta", "t", "q_hat", "stderr", "log_bound", "pass"]
    assert [r[6] for r in rows] == ["true", "true"]
    payload = json.loads(summary.read_text())
    assert payload["passed"] is True
    assert len(payload["checks"]) == 2


def test_tail_bound_beyond_the_float_range_reads_inf(tmp_path):
    # log_bound = 1274.1: exp of it overflows a float, so the bound is inf and
    # holds, and the campaign writes its CSV instead of raising OverflowError
    out, summary = tmp_path / "tail.csv", tmp_path / "summary.json"
    code = run_cli("tail", "--schedule", "const", "--c", "1", "--n", "1000", "--t", "0.5",
                   "--replicas", "2", "--workers", "1", "--out", str(out), "--summary", str(summary))
    assert code == 0
    _, rows = read_csv(out)
    assert float(rows[0][5]) > math.log(sys.float_info.max) and rows[0][6] == "true"
    assert json.loads(summary.read_text())["checks"][0]["detail"].endswith(" bound=inf")


def test_esd_subcommand(tmp_path):
    out = tmp_path / "esd.csv"
    code = run_cli("esd", "--schedule", "const", "--c", "0.1", "--n", "80,320",
                   "--replicas", "6", "--seed", "2", "--workers", "2", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["n", "beta", "w1_mean", "ks_mean", "energy_norm", "energy_paper"]
    assert float(rows[1][2]) < float(rows[0][2])


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("rate")  # --x is required
    assert exc.value.code == 2
    # config errors are reported as exit code 2, not tracebacks
    assert run_cli("sweep", "--schedule", "const", "--c", "0.1",
                   "--x", "2.3", "--out", str(tmp_path / "x.csv")) == 2  # missing --n
    assert run_cli("sweep", "--config", str(tmp_path / "missing.json"),
                   "--x", "2.3") == 2
    assert run_cli("sweep", "--schedule", "upward", "--n", "50", "--x", "2.3") == 2
    assert run_cli("sample", "--n", "1", "--beta", "0.5",
                   "--out", str(tmp_path / "m.txt")) == 2  # n >= 2


@pytest.mark.parametrize("sizes", ["200.7", "60,200.5", "inf", "nan"])
def test_non_integral_sizes_are_usage_errors(tmp_path, capsys, sizes):
    # int(float(p)) ran "--n 200.7" at n = 200 and exited 0
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--schedule", "const", "--c", "0.1", "--n", sizes, "--replicas", "20",
                "--x", "2.3", "--workers", "1", "--out", str(out))
    assert exc.value.code == 2
    assert "argument --n:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("sweep", "--x"), ("tail", "--t"), ("rate", "--x")])
@pytest.mark.parametrize("grid", ["nan", "2.3,inf", "-inf", "2:nan:3", "2:0.1:inf"])
def test_non_finite_grid_values_are_usage_errors(tmp_path, capsys, command, flag, grid):
    # "tail --t nan" exited 1 with a NaN row, "sweep --x inf" 0 with j_theory = nan
    out = tmp_path / "out.csv"
    campaign = [] if command == "rate" else [
        "--schedule", "const", "--c", "0.2", "--n", "50", "--replicas", "20", "--workers", "1"]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, f"{flag}={grid}", *campaign, "--out", str(out))
    assert exc.value.code == 2
    assert f"argument {flag}: grid values must be finite" in capsys.readouterr().err
    assert not out.exists()


_BAD_GRIDS = [
    ("-1e308:1e-300:1e308", f"has more than {cli._MAX_GRID_POINTS} points"),
    ("2:1e-12:3", f"has more than {cli._MAX_GRID_POINTS} points"),
    ("3:1:2", "stops below its start"), ("1:0:2", "has a step <= 0"),
    ("1:2", "is not 'start:step:stop'"), ("1:2:3:4", "is not 'start:step:stop'"),
    ("2,x", "holds a value that is not a number"), ("1.5,2:0.1:3", "holds a value that is not a number"),
]


@pytest.mark.parametrize("grid, fault", _BAD_GRIDS, ids=[grid for grid, _ in _BAD_GRIDS])
def test_oversized_grids_are_usage_errors(tmp_path, capsys, grid, fault):
    # the first overflowed in int(round(...)) and ended in a traceback, the
    # second asked for 10^12 points; the malformed ones printed "invalid
    # _parse_grid value", which names a private function and not the fault
    out = tmp_path / "rate.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("rate", f"--x={grid}", "--out", str(out))
    assert exc.value.code == 2
    assert f"argument --x: grid {grid!r} {fault}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, rows", [("-3:0.5:3", 13), ("-3,-2.1", 2), ("-.5,1", 2)])
def test_rate_takes_a_grid_that_starts_with_a_minus_sign(tmp_path, grid, rows):
    # argparse took these for options: "argument --x: expected one argument"
    out = tmp_path / "rate.csv"
    assert run_cli("rate", "--x", grid, "--out", str(out)) == 0
    assert len(read_csv(out)[1]) == rows


@pytest.mark.parametrize("command, flag, fault", [
    ("sweep", "--x", "x_grid values must exceed the bulk edge 2"),
    ("tail", "--t", "t_grid values must be positive")])
def test_campaigns_take_a_grid_that_starts_with_a_minus_sign(tmp_path, capsys, command, flag, fault):
    # the grid reaches the campaign, whose own check refuses it
    out = tmp_path / "out.csv"
    assert run_cli(command, flag, "-3:1:3", "--schedule", "const", "--c", "0.1", "--n", "30",
                   "--replicas", "4", "--workers", "1", "--out", str(out)) == 2
    assert f"hitemp: error: {fault}" in capsys.readouterr().err
    assert not out.exists()


def test_a_flag_after_a_grid_flag_is_still_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("rate", "--x", "--out", str(tmp_path / "f"))
    assert exc.value.code == 2
    assert "argument --x: expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("command, sizes", [("sweep", "abc"), ("partition", "1e3x")])
def test_sizes_that_are_not_numbers_are_usage_errors(capsys, command, sizes):
    # float(p) raised a ValueError, which argparse reported as "invalid _parse_n_list value"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--schedule", "const", "--n", sizes)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --n: sizes must be integers, got {sizes!r}" in err
    assert "_parse_n_list" not in err


def test_sweep_takes_no_summary(tmp_path, capsys):
    # sweep has no pass/fail checks: its --summary was accepted and wrote nothing
    summary = tmp_path / "s.json"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--schedule", "const", "--c", "0.2", "--n", "30", "--replicas", "5",
                "--x", "2.3", "--workers", "1", "--summary", str(summary))
    assert exc.value.code == 2
    assert "unrecognized arguments: --summary" in capsys.readouterr().err
    assert not summary.exists()


def test_non_integral_config_sizes_are_usage_errors(tmp_path, capsys):
    # int(n) ran "n_values": [30.7] at n = 30 and exited 0
    config, out = tmp_path / "cfg.json", tmp_path / "sweep.csv"
    campaign = ["sweep", "--config", str(config), "--schedule", "const", "--c", "0.2",
                "--replicas", "5", "--x", "2.3", "--workers", "1", "--out", str(out)]
    config.write_text(json.dumps({"n_values": [30.7]}))
    assert run_cli(*campaign) == 2
    assert "n_values must be integers, got 30.7" in capsys.readouterr().err
    assert not out.exists()
    config.write_text(json.dumps({"n_values": [30.0]}))
    assert run_cli(*campaign) == 0
    assert read_csv(out)[1][0][0] == "30"


@pytest.mark.parametrize("key, value, code", [
    ("replicas", 20.7, 2), ("master_seed", 3.9, 2), ("workers", 1.5, 2),
    ("replicas", True, 2), ("replicas", 20.0, 0)], ids=repr)
def test_non_integral_config_counts_are_usage_errors(tmp_path, capsys, key, value, code):
    # int(...) ran "replicas": 20.7 as 20 replicas and exited 0
    config, out, manifest = tmp_path / "cfg.json", tmp_path / "tail.csv", tmp_path / "run.json"
    config.write_text(json.dumps({"replicas": 20, "master_seed": 3, "workers": 1, key: value}))
    assert run_cli("tail", "--config", str(config), "--schedule", "const", "--c", "0.2",
                   "--n", "30", "--t", "2.5", "--out", str(out),
                   "--manifest", str(manifest)) == code
    if code == 2:
        assert f"{key} must be integers, got {value!r}" in capsys.readouterr().err
        assert not out.exists()
    else:  # recorded as the integer 20, which json.loads would not tell from 20.0
        assert f'"{key}": 20,' in manifest.read_text()


def _exit_texts(capsys, parse):
    with pytest.raises(SystemExit) as exc:
        parse()
    return (*capsys.readouterr(), exc.value.code)


@pytest.mark.parametrize("argv", [["--help"], [], ["frobnicate"], ["sweep", "--bogus"],
                                  ["sweep", "foo"], ["rate"]]
                         + [[name, "--help"] for name in cli.COMMANDS], ids=repr)
def test_lazy_parser_matches_the_full_parser(capsys, argv):
    full = _exit_texts(capsys, lambda: cli._build_parser().parse_args(argv))
    assert _exit_texts(capsys, lambda: run_cli(*argv)) == full


def test_main_builds_only_the_invoked_subcommand(monkeypatch, capsys):
    build, built = cli._build_parser, []
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command) or build(command))
    assert run_cli("rate", "--x", "2.5") == 0
    with pytest.raises(SystemExit):
        run_cli("frobnicate")
    assert built == ["rate", None]
    with pytest.raises(SystemExit) as exc:  # the rate parser knows no other subcommand
        build("rate").parse_args(["eig", "--matrix", "m.txt"])
    assert exc.value.code == 2
    assert "invalid choice: 'eig'" in capsys.readouterr().err


def test_campaign_runners_are_looked_up_on_cli_at_call_time(tmp_path, monkeypatch):
    # perfbench's tracer wraps these names on the cli module; a handler that
    # bound them at import time would run past its wrappers
    ran = []
    for name in ("run_tail_sweep", "run_esd_check", "run_tailbound_check"):
        monkeypatch.setattr(cli, name, lambda cfg, real=getattr(cli, name), name=name:
                            ran.append(name) or real(cfg))
    campaign = ["--schedule", "const", "--c", "0.2", "--n", "40", "--replicas", "8",
                "--seed", "3", "--workers", "1"]
    assert run_cli("sweep", *campaign, "--x", "2.3", "--out", str(tmp_path / "sweep.csv")) == 0
    assert run_cli("esd", *campaign, "--out", str(tmp_path / "esd.csv")) == 0
    assert run_cli("tail", *campaign, "--t", "3", "--out", str(tmp_path / "tail.csv")) == 0
    assert ran == ["run_tail_sweep", "run_esd_check", "run_tailbound_check"]


@pytest.mark.parametrize("argv", [
    ["eig", "--matrix", "m.txt"],
    ["tail", "--schedule", "const", "--n", "30", "--t", "2.5"],
    ["sweep", "--schedule", "const", "--n", "30", "--x", "2.3"],
    ["esd", "--schedule", "const", "--n", "30"],
], ids=lambda argv: argv[0])
def test_tol_is_an_unrecognized_argument(tmp_path, capsys, argv):
    # dsterf reads no tolerance and lambda_max is solved at the fixed ABSTOL
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--tol", "1e-12", "--out", str(out))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --tol 1e-12" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_sweep_rejects_a_non_finite_tol(tmp_path, capsys, tol):
    # a non-finite ABSTOL once reached dstebz through sweep --tol; no value reaches it now
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--schedule", "const", "--c", "0.1", "--n", "60",
                "--replicas", "20", "--x", "2.3", "--tol", tol, "--workers", "1",
                "--out", str(out))
    assert exc.value.code == 2
    assert f"unrecognized arguments: --tol {tol}" in capsys.readouterr().err
    assert not out.exists()


def test_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text("[1, 2]")
    # every required flag is given, so only the file's shape is at fault
    assert run_cli("sweep", "--config", str(config), "--schedule", "const", "--c", "0.1",
                   "--n", "60", "--replicas", "20", "--x", "2.3", "--workers", "1",
                   "--out", str(tmp_path / "sweep.csv")) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_eig_on_header_only_dump_is_a_usage_error(tmp_path, capsys):
    dump = tmp_path / "short.txt"
    dump.write_text("3\n")
    assert run_cli("eig", "--matrix", str(dump)) == 2
    assert "hitemp: error:" in capsys.readouterr().err


def test_parallel_campaign_keeps_numpy_random_out_of_the_parent(tmp_path):
    # the cell keys are derived in the workers: the first SeedSequence would
    # import numpy.random (about 5.6 MB) into the campaign process; importing
    # scipy.linalg alone would add about 26 MB, and a process pool some 30
    # modules and 1.8 MB, which every forked worker would inherit
    code = (
        "import sys\n"
        "from hitemp.cli import main\n"
        "rc = main(['tail', '--schedule', 'const', '--c', '0.2', '--n', '50', '--replicas', '400',\n"
        "           '--t', '2.5', '--seed', '3', '--workers', '2', '--out', sys.argv[1]])\n"
        "assert rc == 0, rc\n"
        "assert 'numpy.random' not in sys.modules\n"
        "assert 'scipy' not in sys.modules\n"
        "assert not {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "tail.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "tail.csv").read_text().count("\n") == 2


@pytest.mark.parametrize("key, value", [
    ("replicas", None), ("n_values", 30), ("n_values", [None]), ("x_grid", 2.3), ("t_grid", [True]),
    ("schedule", 5), ("schedule", None), ("schedule", {"name": "c", "kind": "constant", "c": None}),
    ("x_grid", [math.nan]), ("t_grid", [math.inf]), ("schedule", {"name": "c", "kind": "constant", "c": True}),
], ids=repr)
def test_config_values_of_the_wrong_json_type_are_usage_errors(tmp_path, capsys, key, value):
    # each one ended in a TypeError traceback and exit 1; the last three, which
    # the flags reject, wrote a nan row, an inf row, and ran at beta = 1
    message = ("schedule 'c' and 'exponent' must be numbers" if isinstance(value, dict)
               else f"holds {json.dumps(value[0])}, which is not a JSON number"
               if value in ([math.nan], [math.inf])
               else f"config key {key!r} has the wrong JSON type: {value!r}")
    config, out = tmp_path / "cfg.json", tmp_path / "sweep.csv"
    config.write_text(json.dumps({"schedule": {"kind": "constant", "c": 0.2},
                                  "n_values": [30], key: value}))
    assert run_cli("sweep", "--config", str(config), "--replicas", "5", "--x", "2.3",
                   "--workers", "1", "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_0_4_0_schedule_name_replays_byte_identically(tmp_path):
    # 0.4.0 manifests record a "name" in the schedule block; it is read past
    direct, replay, manifest = tmp_path / "direct.csv", tmp_path / "replay.csv", tmp_path / "run.json"
    assert run_cli("sweep", "--schedule", "invlogsq", "--c", "0.5", "--n", "40,80", "--replicas", "30",
                   "--x", "2.3", "--seed", "5", "--workers", "1", "--out", str(direct),
                   "--manifest", str(manifest)) == 0
    meta = json.loads(manifest.read_text())
    assert meta["config"]["schedule"] == {"c": 0.5, "exponent": 2.0, "kind": "inverse_log_power"}
    meta["config"]["schedule"]["name"] = "invlogsq"
    manifest.write_text(json.dumps(meta))
    assert run_cli("sweep", "--config", str(manifest), "--workers", "1", "--out", str(replay)) == 0
    assert replay.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("name", list(cli._SCHEDULES))
def test_every_schedule_name_round_trips_through_its_dict(name):
    args = cli._build_parser().parse_args(["partition", "--schedule", name, "--c", "0.3", "--p", "1.5",
                                           "--gamma", "0.4", "--n", "10"])
    sched = cli._schedule_from_args(args, {})
    assert sched.kind == cli._SCHEDULES[name][0]
    assert RegimeSchedule.from_dict(dataclasses.asdict(sched)) == sched


@pytest.mark.parametrize("bad", [["--c", "nan"], ["--c", "inf"], ["--schedule", "invlog", "--p", "nan"]],
                         ids=" ".join)
def test_partition_refuses_non_finite_schedules(tmp_path, capsys, bad):
    # each wrote nan rows and exited 0: partition builds no EnsembleParams
    out = tmp_path / "part.csv"
    assert run_cli("partition", "--schedule", "const", "--n", "100,1000", *bad, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "schedule needs a finite coefficient c > 0 and a finite exponent" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("sweep", "x_grid"), ("tail", "t_grid")])
def test_config_grids_must_be_finite(tmp_path, capsys, command, key):
    # json reads 1e999 as inf: sweep wrote an x=inf row, tail a t=inf row, both exit 0
    config, out, manifest = tmp_path / "cfg.json", tmp_path / "out.csv", tmp_path / "run.json"
    config.write_text('{"n_values": [30], "replicas": 5, "%s": [2.5, 1e999]}' % key)
    assert run_cli(command, "--config", str(config), "--schedule", "const", "--c", "0.2",
                   "--workers", "1", "--out", str(out), "--manifest", str(manifest)) == 2
    assert f"{key} values must be finite, got (2.5, inf)" in capsys.readouterr().err
    assert not out.exists() and not manifest.exists()


def test_config_errors_name_the_missing_key(tmp_path, capsys, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"schedule": {"c": 0.1}, "n_values": [60]}))
    assert run_cli("sweep", "--config", str(config), "--x", "2.3") == 2
    assert "schedule lacks key(s) 'kind'" in capsys.readouterr().err

    # a KeyError inside a handler is a bug, not a usage error
    def broken(x, method):
        raise KeyError("internal")
    monkeypatch.setattr(cli, "evaluate_rate", broken)
    with pytest.raises(KeyError):
        run_cli("rate", "--x", "2.5")


def test_unknown_config_keys_are_usage_errors(tmp_path, capsys):
    # "replica" for "replicas" used to run the default 1000 replicas and exit 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"replica": 5}))
    out = tmp_path / "tail.csv"
    assert run_cli("tail", "--config", str(config), "--schedule", "const", "--c", "0.2",
                   "--n", "20", "--t", "3", "--workers", "1", "--out", str(out)) == 2
    assert "unknown config key(s) 'replica'" in capsys.readouterr().err
    assert not out.exists()


def test_esd_output_is_independent_of_worker_count(tmp_path):
    # spectra are solved in the forked workers at 2 workers, in-process at 1
    outs = [tmp_path / f"esd{w}.csv" for w in (1, 2, 3)]
    for w, out in zip((1, 2, 3), outs):
        assert run_cli("esd", "--schedule", "const", "--c", "0.1", "--n", "40,120",
                       "--replicas", "16", "--seed", "5", "--workers", str(w),
                       "--out", str(out)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_tail_output_is_independent_of_worker_count(tmp_path):
    # 1200 replicas make 8 chunks of 150 rows; at n = 600 each chunk spans two
    # sub-blocks of the block sampler's uniform scratch (109 rows).  t = 1.5
    # sits in the bulk, so q_hat and stderr depend on every sampled matrix
    outs = [tmp_path / f"tail{w}.csv" for w in (1, 2, 3)]
    for w, out in zip((1, 2, 3), outs):
        assert run_cli("tail", "--schedule", "const", "--c", "0.2", "--n", "60,600",
                       "--t", "1.5,2.5", "--replicas", "1200", "--seed", "11",
                       "--workers", str(w), "--out", str(out)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("bad", [["--n", "1", "--c", "0.2"], ["--n", "0", "--c", "0.2"],
                                 ["--n", "40", "--c", "nan"], ["--n", "40", "--c", "inf"]], ids=" ".join)
@pytest.mark.parametrize("command", ["sweep", "tail", "esd"])
def test_bad_sizes_and_schedules_exit_two_at_any_worker_count(tmp_path, capsys, command, bad,
                                                              workers):
    # the parent checks every cell's parameters before it forks, so the
    # ValueError is a usage error there too, not a failed worker
    grid = {"sweep": ["--x", "2.3"], "tail": ["--t", "2.5"], "esd": []}[command]
    out = tmp_path / "out.csv"
    assert run_cli(command, "--schedule", "const", *bad, "--replicas", "16", "--seed", "3",
                   *grid, "--workers", workers, "--out", str(out)) == 2
    assert "hitemp: error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, env", [(["--workers", "0"], None), (["--workers", "-1"], None),
                                       ([], "0"), ([], "two")], ids=repr)
def test_check_rejects_a_bad_worker_count_before_any_criterion(capsys, monkeypatch, flag, env):
    # --workers 0 ran on every core through run_all's `workers or cpu_count`,
    # and --workers -1 failed only at criterion 5, after criteria 1-4 had run
    monkeypatch.delenv("HITEMP_WORKERS", raising=False)
    if env is not None:
        monkeypatch.setenv("HITEMP_WORKERS", env)
    assert run_cli("check", "--quick", *flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("HITEMP_WORKERS must be an integer, got 'two'" if env == "two"
            else "workers must be >= 1") in captured.err


def test_inf_and_nan_markers_render(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--schedule", "const", "--c", "0.1", "--n", "60",
                   "--replicas", "30", "--x", "3.9", "--seed", "4",
                   "--workers", "1", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert rows[0][5] == "inf"   # j_hat marker at p_hat = 0
    assert rows[0][7] == "nan"   # rel_err marker


def test_rate_rows_past_overflow_are_inf_not_nan(tmp_path):
    # x*x overflowed at 1e200 and the row read nan,nan
    out = tmp_path / "rate.csv"
    assert run_cli("rate", "--x", "1e200,-1e200", "--out", str(out)) == 0
    assert [row[1:] for row in read_csv(out)[1]] == [["inf", "-inf"]] * 2


def test_seventeen_digit_round_trip(tmp_path):
    out = tmp_path / "rate.csv"
    run_cli("rate", "--x", "2.1,2.7", "--out", str(out))
    _, rows = read_csv(out)
    from hitemp.analytic import rate_J
    assert float(rows[0][1]) == rate_J(2.1)
    assert float(rows[1][1]) == rate_J(2.7)
