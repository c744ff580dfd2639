import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hitemp import _lapack, cli, eig
from hitemp.cli import main
from hitemp.sampler import load_matrix


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


def test_sample_then_eig_round_trip(tmp_path):
    dump = tmp_path / "m.txt"
    assert run_cli("sample", "--n", "16", "--beta", "0.3", "--seed", "5",
                   "--out", str(dump)) == 0
    spectrum_file = tmp_path / "spectrum.txt"
    assert run_cli("eig", "--matrix", str(dump), "--out", str(spectrum_file)) == 0
    got = np.array([float(v) for v in spectrum_file.read_text().split()])
    want = eig.full_spectrum(load_matrix(dump)).eigenvalues
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


def test_csv_is_locale_independent(tmp_path):
    out = tmp_path / "rate.csv"
    run_cli("rate", "--x", "2:0.25:3", "--out", str(out))
    raw = out.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("ascii")
    for token in text.split("\n")[1].split(","):
        assert float(token) is not None  # parses with '.' decimals


def test_manifest_round_trip(tmp_path):
    out1 = tmp_path / "s1.csv"
    manifest = tmp_path / "run.json"
    assert run_cli("sweep", "--schedule", "const", "--c", "0.1", "--n", "60,120",
                   "--replicas", "50", "--x", "2.3", "--seed", "321",
                   "--workers", "1", "--out", str(out1), "--manifest", str(manifest)) == 0
    meta = json.loads(manifest.read_text())
    assert meta["master_seed"] == 321
    assert meta["tool_version"] == "0.3.0"
    assert "SeedSequence((master_seed mod 2^64, n))" in meta["stream_contract"]
    assert meta["solver"] == {"lambda_max": "dstebz, RANGE='I', IL=IU=n, ABSTOL=1e-12",
                              "spectra": "dsterf",
                              "library": os.path.basename(_lapack.library()[0])}
    assert meta["config"]["replicas"] == 50
    assert str(out1) in meta["outputs"]
    # replaying the manifest reproduces the run byte for byte
    out2 = tmp_path / "s2.csv"
    assert run_cli("sweep", "--config", str(manifest), "--workers", "1",
                   "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # manifests written by 0.2.0 carry an "m_grid" that no campaign reads
    meta["config"]["m_grid"] = []
    old_manifest = tmp_path / "run_0.2.0.json"
    old_manifest.write_text(json.dumps(meta))
    out3 = tmp_path / "s3.csv"
    assert run_cli("sweep", "--config", str(old_manifest), "--workers", "1",
                   "--out", str(out3)) == 0
    assert out1.read_bytes() == out3.read_bytes()


def test_flag_overrides_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "schedule": {"name": "const0.1", "kind": "constant", "c": 0.1, "exponent": 0.0},
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


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_eig_rejects_a_non_finite_tol(tmp_path, capsys, tol):
    # a NaN tol fails every comparison, so a "tol <= 0" check lets it through
    dump = tmp_path / "m.txt"
    assert run_cli("sample", "--n", "5", "--beta", "0.3", "--seed", "5", "--out", str(dump)) == 0
    assert run_cli("eig", "--matrix", str(dump), "--tol", tol) == 2
    captured = capsys.readouterr()
    assert "hitemp: error:" in captured.err and captured.out == ""


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_sweep_rejects_a_non_finite_tol(tmp_path, capsys, tol):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--schedule", "const", "--c", "0.1", "--n", "60",
                   "--replicas", "20", "--x", "2.3", "--tol", tol, "--workers", "1",
                   "--out", str(out)) == 2
    assert "hitemp: error:" in capsys.readouterr().err
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
    # scipy.linalg alone would add about 26 MB
    code = (
        "import sys\n"
        "from hitemp.cli import main\n"
        "rc = main(['tail', '--schedule', 'const', '--c', '0.2', '--n', '50', '--replicas', '400',\n"
        "           '--t', '2.5', '--seed', '3', '--workers', '2', '--out', sys.argv[1]])\n"
        "assert rc == 0, rc\n"
        "assert 'numpy.random' not in sys.modules\n"
        "assert 'scipy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "tail.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "tail.csv").read_text().count("\n") == 2


def test_config_errors_name_the_missing_key(tmp_path, capsys, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"schedule": {"name": "c", "c": 0.1}, "n_values": [60]}))
    assert run_cli("sweep", "--config", str(config), "--x", "2.3") == 2
    assert "schedule lacks key(s) 'kind'" in capsys.readouterr().err

    # a KeyError inside a handler is a bug, not a usage error
    def broken(args):
        raise KeyError("internal")
    monkeypatch.setattr(cli, "_cmd_rate", broken)
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
    outs = [tmp_path / f"esd{w}.csv" for w in (1, 2)]
    for w, out in zip((1, 2), outs):
        assert run_cli("esd", "--schedule", "const", "--c", "0.1", "--n", "40,120",
                       "--replicas", "16", "--seed", "5", "--workers", str(w),
                       "--out", str(out)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_tail_output_is_independent_of_worker_count(tmp_path):
    # 1200 replicas make 8 chunks of 150 rows; at n = 600 each chunk spans two
    # sub-blocks of the block sampler's uniform scratch (109 rows).  t = 1.5
    # sits in the bulk, so q_hat and stderr depend on every sampled matrix
    outs = [tmp_path / f"tail{w}.csv" for w in (1, 2)]
    for w, out in zip((1, 2), outs):
        assert run_cli("tail", "--schedule", "const", "--c", "0.2", "--n", "60,600",
                       "--t", "1.5,2.5", "--replicas", "1200", "--seed", "11",
                       "--workers", str(w), "--out", str(out)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_inf_and_nan_markers_render(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--schedule", "const", "--c", "0.1", "--n", "60",
                   "--replicas", "30", "--x", "3.9", "--seed", "4",
                   "--workers", "1", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert rows[0][5] == "inf"   # j_hat marker at p_hat = 0
    assert rows[0][7] == "nan"   # rel_err marker


def test_seventeen_digit_round_trip(tmp_path):
    out = tmp_path / "rate.csv"
    run_cli("rate", "--x", "2.1,2.7", "--out", str(out))
    _, rows = read_csv(out)
    from hitemp.analytic import rate_J
    assert float(rows[0][1]) == rate_J(2.1)
    assert float(rows[1][1]) == rate_J(2.7)
