import dataclasses
import itertools
import json
import math
import os

import numpy as np
import pytest

from hitemp import cli, eig, experiments, sampler
from hitemp.analytic import energy_I, rate_J
from hitemp.experiments import (
    ExperimentConfig,
    _sample_block,
    run_esd_check,
    run_moment_check,
    run_tail_sweep,
    run_tailbound_check,
)
from hitemp.model import RegimeSchedule, make_params
from hitemp.partition import log_tail_bound
from hitemp.sampler import SeededStream, block_rows, sample_matrix
from reference_oracles import semicircle_quantile_measure


def cfg_with(**kw):
    base = dict(schedule=RegimeSchedule.constant(0.1), n_values=(100,), replicas=50,
                master_seed=424242, workers=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_with(replicas=0)
    with pytest.raises(ValueError):
        cfg_with(workers=0)
    with pytest.raises(ValueError):
        cfg_with(n_values=())
    # every cell's parameters are built at construction, before any _gather
    with pytest.raises(ValueError, match="n >= 2, got 1"):
        ExperimentConfig(schedule=RegimeSchedule.constant(0.1), n_values=(30, 1))
    with pytest.raises(ValueError, match="beta must be a positive finite real, got 0.0"):
        ExperimentConfig(schedule=RegimeSchedule("power_decay", 1e-320, 0.9), n_values=(10**6,))


def test_config_round_trip(tmp_path):
    # manifests record dataclasses.asdict(cfg); the CLI's config reader reads it back
    cfg = cfg_with(x_grid=(2.2, 2.4), t_grid=(3.0,), plus_one_alpha=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert cli._experiment_config(cli._build_parser().parse_args(
        ["tail", "--config", str(path)])) == cfg


def test_cell_seeds_do_not_alias_across_campaigns():
    # master_seed + n gave seed 1 at n=400 and seed 201 at n=200 the same key,
    # hence the same first replica
    a, b = cfg_with(master_seed=1), cfg_with(master_seed=201)
    assert a.cell_seed(400) == sampler.cell_key(1, 400) != sampler.cell_key(201, 200) == b.cell_seed(200)
    first_a = sample_matrix(a.params_for(400), SeededStream(a.cell_seed(400), 0))
    first_b = sample_matrix(b.params_for(200), SeededStream(b.cell_seed(200), 0))
    assert not np.array_equal(first_a.diag[:200], first_b.diag)
    assert 0 <= a.cell_seed(400) < 2**64
    # seeds are taken mod 2^64, as SeededStream takes them
    assert sampler.cell_key(-1, 50) == sampler.cell_key(2**64 - 1, 50)


def test_sample_block_rows_are_sample_matrix():
    # every row is its replica as sample_matrix draws it: n = 2; 200 rows at
    # n = 700 span three sub-blocks of the 65536-element uniform scratch;
    # nonzero starts; master seed 3 has cell keys >= 2^63 at n = 2 and 700
    cases = ((424242, 30, 5, 4), (3, 2, 0, 6), (3, 700, 11, 200))
    assert all(cfg_with(master_seed=3).cell_seed(n) >= 2**63 for n in (2, 700))
    assert 200 > 2 * (sampler._SCRATCH_ELEMS // 700)
    for plus_one_alpha in (False, True):
        for seed, n, start, count in cases:
            cfg = cfg_with(schedule=RegimeSchedule.constant(0.2), master_seed=seed,
                           plus_one_alpha=plus_one_alpha)
            diags, offs = _sample_block(cfg, n, start, count)
            assert diags.shape == (count, n) and offs.shape == (count, n - 1)
            for j in range(count):
                tri = sample_matrix(cfg.params_for(n), SeededStream(cfg.cell_seed(n), start + j))
                assert np.array_equal(diags[j], tri.diag) and np.array_equal(offs[j], tri.offdiag)
    # overlapping ranges agree row for row, so no generator state carries
    # from one Philox block to the next
    cfg = cfg_with(master_seed=3)
    diags, offs = _sample_block(cfg, 700, 0, 200)
    for start, count in ((1, 1), (50, 120), (199, 1)):
        d, o = _sample_block(cfg, 700, start, count)
        assert np.array_equal(d, diags[start:start + count])
        assert np.array_equal(o, offs[start:start + count])


def test_replicas_are_independent_across_blocks():
    # at n = 50 a Philox block holds B = 40 replicas; ranges that start or end
    # inside a block, or straddle one or more block edges, give each replica
    # its own row, whichever range it is drawn in.  Above n = 1024 a block is
    # one replica
    assert [block_rows(n) for n in (2, 50, 200, 400, 1024)] == [1024, 40, 10, 5, 2]
    assert all(block_rows(n) == 1 for n in (1025, 1500, 2000, 2048, 4000, 10**6))
    cfg = cfg_with(schedule=RegimeSchedule.constant(0.2), master_seed=17)
    params, key = cfg.params_for(50), cfg.cell_seed(50)
    for start, count in ((0, 40), (0, 41), (39, 2), (13, 27), (13, 28), (25, 100), (79, 3), (120, 2)):
        diags, offs = _sample_block(cfg, 50, start, count)
        assert diags.shape == (count, 50) and offs.shape == (count, 49)
        for j in range(count):
            tri = sample_matrix(params, SeededStream(key, start + j))
            assert np.array_equal(diags[j], tri.diag) and np.array_equal(offs[j], tri.offdiag)
    # rows of different blocks, and of one block, are different draws
    diags, _ = _sample_block(cfg, 50, 0, 80)
    assert len({row.tobytes() for row in diags}) == 80


def _chunk_rule(replicas, n):
    """The chunks of a cell, checked: they tile [0, replicas) in order; one longer
    than a Philox block starts and ends on block edges (or at the cell's end), so
    no block is drawn twice, and holds at most 2^17 float64 per sampled array;
    such chunks come in a multiple of 8 that differ by at most one block; up to
    8 replicas make one-replica chunks."""
    chunks, rows = experiments._chunks(replicas, n), block_rows(n)
    ends = list(itertools.accumulate(count for _, count in chunks))
    assert [start for start, _ in chunks] == [0] + ends[:-1] and ends[-1] == replicas
    assert all(count > 0 for _, count in chunks)
    for start, count in chunks:
        if count > rows:
            assert start % rows == 0 and ((start + count) % rows == 0 or start + count == replicas)
            assert count * n <= 2**17
    if max(count for _, count in chunks) > rows:
        assert len(chunks) % 8 == 0 and all(count > rows for _, count in chunks)
        assert max(count for _, count in chunks[:-1]) - min(count for _, count in chunks[:-1]) <= rows
    if replicas <= 8:
        assert chunks == [(r, 1) for r in range(replicas)]
    return chunks


_WORKLOAD_SHAPES = [(4000, 200), (4000, 400), (1, 2000), (1, 4000),
                    (3, 250), (3, 1000), (3, 2000), (20000, 50)]
_CRITERIA_SHAPES = [  # criteria 5-9, full size then quick
    (2000, 500), (500, 500), (500, 2000), (100_000, 200), (100_000, 400), (100_000, 50),
    (50, 250), (50, 1000), (50, 4000),
    (200, 500), (100, 500), (100, 2000), (5000, 200), (5000, 400), (5000, 50),
    (6, 250), (6, 1000), (6, 4000)]
_PERFBENCH_SHAPES = [(40, 20), (40, 40), (2, 30), (2, 60), (2, 10), (2, 20), (2, 40), (40, 12)]


def test_chunks_are_whole_blocks_within_one_mib():
    for replicas, n in _WORKLOAD_SHAPES + _CRITERIA_SHAPES + _PERFBENCH_SHAPES:
        _chunk_rule(replicas, n)
    assert _chunk_rule(4001, 200)[-1] == (3500, 501)  # the last of 51 blocks is one row
    # ldp_sweep: 8 x 500 rows at n = 200, 16 x 250 at n = 400; tail_bound: 8
    # chunks of 62 or 63 blocks of 40, where chunks of 2,500 rows cut 4 blocks
    assert _chunk_rule(4000, 200) == [(s, 500) for s in range(0, 4000, 500)]
    assert _chunk_rule(4000, 400) == [(s, 250) for s in range(0, 4000, 250)]
    assert [count for _, count in _chunk_rule(20000, 50)] == [2480, 2520] * 4
    # edge_large_n and esd_spectra keep one-replica chunks
    assert all(_chunk_rule(r, n) == [(s, 1) for s in range(r)] for r, n in _WORKLOAD_SHAPES[2:7])


def test_tail_campaign_byte_identical_at_1_2_and_3_workers(tmp_path):
    # 130 replicas at n = 50: chunks of 17 rows cut Philox blocks of 40 at
    # their edges, and 130 is not a multiple of 40
    outs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"tail{workers}.csv"
        assert cli.main(["tail", "--schedule", "const", "--c", "0.2", "--n", "50,60",
                         "--t", "2.5,3", "--replicas", "130", "--seed", "5",
                         "--workers", str(workers), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert 130 % block_rows(50) and _chunk_rule(130, 50)[0] == (0, 17)
    assert outs[0] == outs[1] == outs[2]


def _moment_rows_from_separate_blocks(cfg):
    # the reference: each moment from its own pass over the replicas
    rows = []
    for n in cfg.n_values:
        chunks = [_sample_block(cfg, n, s, c) for s, c in experiments._chunks(cfg.replicas, n)]
        second = np.concatenate(
            [(np.sum(d**2, axis=1) + 2.0 * np.sum(o**2, axis=1)) / n for d, o in chunks])
        first = np.concatenate([np.mean(d, axis=1) for d, _ in chunks])
        rows.append([(float(v.mean()), float(v.std(ddof=1) / math.sqrt(cfg.replicas)))
                     for v in (second, first)])
    return rows


def test_moment_rows_match_separate_passes(workers):
    cfg = cfg_with(n_values=(40, 90), replicas=20000, workers=workers)
    report = run_moment_check(cfg)
    second, first = ([r for r in report.rows if r.moment == m] for m in (2, 1))
    got = [[(r.mean, r.stderr), (f.mean, f.stderr)] for r, f in zip(second, first)]
    assert got == _moment_rows_from_separate_blocks(cfg)


def test_one_set_of_forked_workers_per_campaign(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    # two cells of 8 chunks each share one set of min(workers, chunks) children
    cfg = cfg_with(n_values=(30, 60), replicas=16, workers=2, x_grid=(2.3,), t_grid=(2.5,))
    assert len(_chunk_rule(16, 30)) == len(_chunk_rule(16, 60)) == 8
    rows = run_tail_sweep(cfg).rows
    assert len(forks) == 2
    report = run_tailbound_check(cfg)
    assert len(forks) == 4
    assert rows == run_tail_sweep(dataclasses.replace(cfg, workers=1)).rows
    assert report == run_tailbound_check(dataclasses.replace(cfg, workers=1))
    assert len(forks) == 4
    # five workers for three chunks fork three children
    few = cfg_with(n_values=(30,), replicas=3, workers=5)
    assert len(_chunk_rule(3, 30)) == 3
    (lam,) = experiments._gather(eig.lambda_max_batch, few)
    assert len(forks) == 7
    (lam1,) = experiments._gather(eig.lambda_max_batch, dataclasses.replace(few, workers=1))
    assert np.array_equal(lam, lam1)


def test_a_failing_worker_fails_the_campaign(tmp_path, monkeypatch, capfd):
    # the children inherit the patched solver; each prints its traceback and
    # exits 1, and the parent reaps them all before it raises
    def broken(diags, offs):
        raise ArithmeticError("solver failed in a worker")

    monkeypatch.setattr(eig, "lambda_max_batch", broken)
    out = tmp_path / "sweep.csv"
    with pytest.raises(RuntimeError, match="campaign workers failed"):
        cli.main(["sweep", "--schedule", "const", "--c", "0.1", "--n", "30,60", "--replicas", "16",
                  "--x", "2.3", "--seed", "3", "--workers", "2", "--out", str(out)])
    err = capfd.readouterr().err
    assert "Traceback" in err and "ArithmeticError: solver failed in a worker" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not out.exists()


def _pid_rows(diags, offs):
    return np.full(len(diags), os.getpid(), float)


@pytest.mark.parametrize("workers", [2, 3])
def test_each_forked_worker_runs_a_fixed_share_of_the_chunks(workers):
    # chunk j of all cells' chunks in turn runs in child j mod W, however long each chunk takes
    cfg = cfg_with(n_values=(30, 60), replicas=16, workers=workers)
    cells = experiments._gather(_pid_rows, cfg)
    chunks = [(cell, s, c) for cell, n in enumerate(cfg.n_values) for s, c in experiments._chunks(16, n)]
    assert len(chunks) == 16
    pids = [cells[cell][s] for cell, s, _ in chunks[:workers]]
    assert len(set(pids)) == workers and os.getpid() not in pids
    for j, (cell, s, c) in enumerate(chunks):
        assert np.all(cells[cell][s:s + c] == pids[j % workers])


def test_one_worker_runs_every_chunk_in_the_campaign_process():
    cfg = cfg_with(n_values=(30, 60), replicas=16, workers=1)
    assert all(np.all(cell == os.getpid()) for cell in experiments._gather(_pid_rows, cfg))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_statistic_gets_the_sampled_rows_in_replica_order(workers):
    # the identity statistic returns the cell's replicas 0..129 as one
    # sample_rows call draws them: chunks of 17 rows cut Philox blocks of 40
    cfg = cfg_with(n_values=(50,), replicas=130, workers=workers)
    assert 130 % block_rows(50) and _chunk_rule(130, 50)[0] == (0, 17)
    (got,) = experiments._gather(lambda diags, offs: diags, cfg, (50,))
    want = sampler.sample_rows(cfg.params_for(50), cfg.cell_seed(50), 0, 130)[0]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("statistic", ["lambda_max", "tail"])
def test_a_statistic_does_not_depend_on_the_chunk_budget(workers, statistic, monkeypatch):
    # 2,000 replicas at n = 50, blocks of 40 rows: at the default budget the
    # chunks are 6 or 7 blocks, at two blocks 1 or 2 blocks, at one block 36 rows
    fn, shape = {"lambda_max": (eig.lambda_max_batch, ()),
                 "tail": (lambda diags, offs: experiments._abs_tail(diags, offs, (2.5, 3.0)), (2,))}[statistic]
    cfg = cfg_with(schedule=RegimeSchedule.constant(0.2), n_values=(50,), replicas=2000, workers=workers)
    (want,) = experiments._gather(fn, cfg, shape)
    for blocks, size in ((2, 80), (1, 36)):
        monkeypatch.setattr(experiments, "_CHUNK_ELEMS", blocks * block_rows(50) * 50)
        assert max(count for _, count in experiments._chunks(2000, 50)) == size
        (got,) = experiments._gather(fn, cfg, shape)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_statistic_comes_back_as_float64_rows_at_any_worker_count(workers):
    # criterion 6's far_from_2 form returns bool; one worker concatenated it as bool
    cfg = cfg_with(n_values=(30, 60), replicas=16, workers=workers)
    cells = experiments._gather(lambda diags, offs: eig.lambda_max_batch(diags, offs) > 2.0, cfg)
    assert [(cell.dtype, cell.shape) for cell in cells] == [(np.float64, (16,))] * 2


@pytest.mark.parametrize("workers, error", [(1, ValueError), (2, RuntimeError)])
def test_rows_that_are_not_of_row_shape_fail_at_any_worker_count(workers, error):
    # _moments returns two columns per replica; one worker concatenated them unchecked
    with pytest.raises(error):
        experiments._gather(experiments._moments, cfg_with(n_values=(30,), replicas=16, workers=workers))


def test_a_failing_share_fails_the_campaign(capfd, monkeypatch):
    # odd chunks are share 1 of 2: one child fails, the other finishes its share.
    # The stubbed sampler fills each chunk's diagonals with the chunk's index
    def index_rows(cfg, n, start, count):
        index = experiments._chunks(cfg.replicas, n).index((start, count))
        return np.full((count, n), float(index)), np.zeros((count, n - 1))

    def odd_chunks_fail(diags, offs):
        if diags[0, 0] % 2:
            raise ArithmeticError("odd chunk")
        return np.zeros(len(diags))

    monkeypatch.setattr(experiments, "_sample_block", index_rows)
    cfg = cfg_with(n_values=(30, 60), replicas=16, workers=2)
    assert [len(_chunk_rule(16, n)) for n in cfg.n_values] == [8, 8]
    with pytest.raises(RuntimeError, match="^1 of 2 campaign workers failed"):
        experiments._gather(odd_chunks_fail, cfg)
    assert capfd.readouterr().err.count("ArithmeticError: odd chunk") == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_moment_check_canonical_alpha():
    cfg = cfg_with(n_values=(500,), replicas=400, schedule=RegimeSchedule.constant(0.05))
    report = run_moment_check(cfg)
    row = report.rows[0]
    assert row.exact == pytest.approx(1.078, rel=1e-12)  # (1 + 0.05*499/2)/12.5
    assert abs(row.z_score) <= 4.0
    assert all(c.passed for c in report.checks)


def test_moment_check_plus_one_alpha():
    cfg = cfg_with(n_values=(200,), replicas=400, plus_one_alpha=True)
    report = run_moment_check(cfg)
    row = report.rows[0]
    n, beta = 200, 0.1
    assert row.exact == pytest.approx((1 + beta * (n - 1) / 2) / (1 + n * beta / 2), rel=1e-12)
    assert abs(row.z_score) <= 4.0


def test_moment_check_needs_two_replicas():
    # one replica has no standard error: std(ddof=1) was nan, and z read 0, a pass
    with pytest.raises(ValueError, match="replicas >= 2"):
        run_moment_check(cfg_with(n_values=(50,), replicas=1))
    assert all(math.isfinite(r.z_score) for r in run_moment_check(cfg_with(n_values=(50,), replicas=2)).rows)


def test_plus_one_alpha_second_moment_tends_to_one():
    # (1 + beta(n-1)/2)/(1 + n*beta/2) -> 1; the defect is exactly (beta/2)/(1+n*beta/2)
    for n in (10**3, 10**6):
        beta = 0.1
        exact = (1 + beta * (n - 1) / 2) / (1 + n * beta / 2)
        assert abs(exact - 1.0) == pytest.approx((beta / 2) / (1 + n * beta / 2), rel=1e-9)
    assert abs((1 + 0.1 * (10**6 - 1) / 2) / (1 + 10**6 * 0.1 / 2) - 1.0) < 1e-6


def test_first_moment_centered():
    report = run_moment_check(cfg_with(replicas=500))
    assert all(abs(r.z_score) <= 4.0 for r in report.rows if r.moment == 1)


def test_tail_sweep_rows_and_invariants():
    cfg = cfg_with(n_values=(80, 40), replicas=200, x_grid=(2.4, 2.2))
    rows = run_tail_sweep(cfg).rows
    # rows ordered by (n as configured, then x as configured)
    assert [(r.n, r.x) for r in rows] == [(80, 2.4), (80, 2.2), (40, 2.4), (40, 2.2)]
    for r in rows:
        assert r.stderr == pytest.approx(math.sqrt(r.p_hat * (1 - r.p_hat) / cfg.replicas), rel=1e-12)
        assert r.j_theory == rate_J(r.x)
        if r.p_hat > 0:
            assert r.j_hat == pytest.approx(-math.log(r.p_hat) / (r.n * r.beta), rel=1e-12)


def test_tail_sweep_undersampled_marker():
    cfg = cfg_with(replicas=40, x_grid=(3.8,))
    row = run_tail_sweep(cfg).rows[0]
    assert row.p_hat == 0.0
    assert row.j_hat == math.inf
    assert math.isnan(row.rel_err)


def test_tail_sweep_validation():
    with pytest.raises(ValueError):
        run_tail_sweep(cfg_with(x_grid=()))
    with pytest.raises(ValueError):
        run_tail_sweep(cfg_with(x_grid=(1.9,)))


def test_edge_rate_is_near_zero():
    # P(lambda_max >= 2) is order one, so -log(p)/(n*beta) sits near J(2) = 0
    cfg = cfg_with(n_values=(200,), replicas=400, schedule=RegimeSchedule.constant(0.1))
    (lam,) = experiments._gather(eig.lambda_max_batch, cfg)
    p_edge = float(np.mean(lam >= 2.0))
    assert 0.2 <= p_edge <= 1.0
    assert -math.log(p_edge) / 20.0 <= 0.05


def test_convergence_checks():
    # lambda_max concentrates at the bulk edge 2: the fraction of replicas
    # with |lambda_max - 2| > eps falls in n and is nested in eps, and the
    # median moves toward 2
    cfg = cfg_with(n_values=(100, 400), replicas=300)
    lams = experiments._gather(eig.lambda_max_batch, cfg)
    eps_values = (0.1, 0.15, 0.2)
    fractions = [[float(np.mean(np.abs(lam - 2.0) > eps)) for eps in eps_values] for lam in lams]
    for small_n, large_n in zip(fractions[0], fractions[1]):
        assert large_n <= small_n
    for row in fractions:
        assert all(b <= a for a, b in zip(row, row[1:]))
    meds = [float(np.median(lam)) for lam in lams]
    assert abs(meds[1] - 2.0) < abs(meds[0] - 2.0)


def _skewness(x):
    d = x - x.mean()
    return float(np.mean(d**3) / np.mean(d**2) ** 1.5)


def test_lambda_max_skewness_grows_as_beta_falls_at_fixed_n_beta(workers):
    # At n*beta = 40 the law of lambda_max leans from Tracy-Widom (skewness
    # 0.29 for TW_1) towards Gumbel (1.14) as beta falls. At this seed the
    # skewness reads 0.695 +- 0.036 at (2000, 0.02) and 0.387 +- 0.048 at
    # (100, 0.4), with bootstrap standard errors: a margin of 5.1 combined
    # standard errors. 4,000 replicas per cell keep it above 4.
    rng = np.random.default_rng(0)
    skew, se = [], []
    for n, beta in ((2000, 0.02), (100, 0.4)):
        cfg = cfg_with(n_values=(n,), replicas=4000, schedule=RegimeSchedule.constant(beta),
                       master_seed=11, workers=workers)
        (lam,) = experiments._gather(eig.lambda_max_batch, cfg)
        skew.append(_skewness(lam))
        se.append(np.std([_skewness(lam[i]) for i in rng.integers(0, lam.size, (200, lam.size))], ddof=1))
    assert skew[0] - skew[1] > 4.0 * math.hypot(*se)


def test_tailbound_far_threshold_trivial():
    cfg = cfg_with(n_values=(50,), replicas=100, schedule=RegimeSchedule.constant(0.2),
                   t_grid=(3.0, 10.0))
    report = run_tailbound_check(cfg)
    far = report.rows[-1]
    assert far.t == 10.0 and far.q_hat == 0.0 and far.passed
    assert all(r.passed for r in report.rows)


def test_tailbound_validation(monkeypatch):
    # every bad grid fails before a chunk is sampled: tail --t 0 sampled and
    # counted every replica, then failed in log_tail_bound
    def no_sampling(*chunk):
        raise AssertionError("a chunk was sampled")
    monkeypatch.setattr(experiments, "_sample_block", no_sampling)
    for t_grid in [(), (0.0,), (2.5, -1.0), (math.nan,)]:
        with pytest.raises(ValueError):
            run_tailbound_check(cfg_with(t_grid=t_grid))


def test_tightness_scan_surrogate_slope():
    # the union-bound surrogate (log n + log tail bound)/(n*beta) at
    # alpha = n*beta/2 falls between grid points by (M2^2 - M1^2)/8 up to the
    # subdominant log(M2/M1)/(n*beta) term; 10% agreement at n*beta = 100
    n = 10**4
    beta = RegimeSchedule.constant(0.01).beta(n)
    ms = [float(m) for m in range(3, 21)]
    surr = [(math.log(n) + log_tail_bound(n, n * beta / 2, beta, m)) / (n * beta) for m in ms]
    for m1, m2, s1, s2 in zip(ms, ms[1:], surr, surr[1:]):
        expected = (m2 * m2 - m1 * m1) / 8.0
        assert abs((s1 - s2) - expected) <= 0.1 * expected


def test_tightness_nested_events():
    lam = experiments._gather(eig.lambda_max_batch, cfg_with(replicas=2000))[0]
    assert np.mean(lam > 3.0) <= np.mean(lam > 2.5)


def test_lambda_max_dominates_mean():
    params = make_params(50, 0.2)
    for r in range(100):
        tri = sample_matrix(params, SeededStream(31337, r))
        assert eig.lambda_max_batch(tri.diag[None], tri.offdiag[None])[0] >= float(np.mean(tri.diag)) - eig.ABSTOL


def test_worker_count_invariance():
    cfg1 = cfg_with(replicas=64, x_grid=(2.3,), workers=1)
    cfg2 = cfg_with(replicas=64, x_grid=(2.3,), workers=2)
    rows1 = run_tail_sweep(cfg1).rows
    rows2 = run_tail_sweep(cfg2).rows
    assert rows1 == rows2
    assert np.array_equal(*(experiments._gather(eig.lambda_max_batch, cfg)[0] for cfg in (cfg1, cfg2)))


def test_estimator_sanity_against_doubled_run():
    # the reported band p_hat +- 3*stderr (stderr combining both runs) must
    # cover a doubled-replica reference in >= 19 of 20 seeded repetitions
    n, beta, x = 100, 0.1, 2.3
    covered = 0
    for rep in range(20):
        small = cfg_with(n_values=(n,), replicas=1500, master_seed=9000 + rep)
        big = cfg_with(n_values=(n,), replicas=3000, master_seed=7500 + rep)
        p_small = float(np.mean(experiments._gather(eig.lambda_max_batch, small)[0] >= x))
        p_big = float(np.mean(experiments._gather(eig.lambda_max_batch, big)[0] >= x))
        se_small = math.sqrt(p_small * (1 - p_small) / 1500)
        se_big = math.sqrt(p_big * (1 - p_big) / 3000)
        band = 3.0 * math.sqrt(se_small**2 + se_big**2)
        covered += abs(p_small - p_big) <= band
    assert covered >= 19


def test_energy_variant_difference_identity():
    # paper minus normalized equals (3/8) * mean of (x^2 + y^2) over pairs,
    # i.e. (3/4) * second moment, for any measure
    mu = semicircle_quantile_measure(300)
    normalized, paper = energy_I(mu)
    diff = paper - normalized
    m2 = float(np.mean(mu.atoms**2))
    assert diff == pytest.approx(0.75 * m2, rel=1e-12)


def test_esd_report_small_scale(workers):
    cfg = cfg_with(n_values=(80, 320), replicas=6, workers=workers)
    report = run_esd_check(cfg)
    assert [r.n for r in report.rows] == [80, 320]
    assert report.rows[1].w1_mean < report.rows[0].w1_mean
    assert all(c.passed for c in report.checks)
    for r in report.rows:
        assert r.energy_paper > r.energy_norm
