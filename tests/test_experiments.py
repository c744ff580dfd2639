import json
import math

import numpy as np
import pytest

from hitemp import cli, eig, experiments
from hitemp.analytic import energy_I, rate_J
from hitemp.experiments import (
    ExperimentConfig,
    _sample_block,
    default_x_grid,
    lambda_max_sample,
    run_esd_check,
    run_moment_check,
    run_tail_sweep,
    run_tailbound_check,
)
from hitemp.measures import semicircle_quantile_measure
from hitemp.model import RegimeSchedule, make_params
from hitemp.partition import log_tail_bound
from hitemp.sampler import SeededStream, sample_matrix


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
    for bad_tol in (0.0, -1e-12, math.nan, math.inf):
        with pytest.raises(ValueError):
            cfg_with(solver_tol=bad_tol)
    with pytest.raises(ValueError):
        cfg_with(n_values=())


def test_config_round_trip(tmp_path):
    # manifests record to_dict(); the CLI's config reader reads it back
    cfg = cfg_with(x_grid=(2.2, 2.4), t_grid=(3.0,), plus_one_alpha=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert cli._experiment_config(cli._build_parser().parse_args(
        ["tail", "--config", str(path)])) == cfg


def test_cell_seeds_do_not_alias_across_campaigns():
    # master_seed + n gave seed 1 at n=400 and seed 201 at n=200 the same key,
    # hence the same first replica
    a, b = cfg_with(master_seed=1), cfg_with(master_seed=201)
    assert a.cell_seed(400) != b.cell_seed(200)
    first_a = sample_matrix(a.params_for(400), SeededStream(a.cell_seed(400), 0))
    first_b = sample_matrix(b.params_for(200), SeededStream(b.cell_seed(200), 0))
    assert not np.array_equal(first_a.diag[:200], first_b.diag)
    assert 0 <= a.cell_seed(400) < 2**64
    # seeds are taken mod 2^64, as SeededStream takes them
    assert cfg_with(master_seed=-1).cell_seed(50) == cfg_with(master_seed=2**64 - 1).cell_seed(50)


def test_sample_block_rows_are_sample_matrix():
    # every row is its replica's own stream: n = 2; 200 rows at n = 700 span
    # three sub-blocks of the 65536-element uniform scratch; nonzero starts;
    # master seed 3 has cell keys >= 2^63 at n = 2 and 700
    cases = ((424242, 30, 5, 4), (3, 2, 0, 6), (3, 700, 11, 200))
    assert all(cfg_with(master_seed=3).cell_seed(n) >= 2**63 for n in (2, 700))
    assert 200 > 2 * (experiments._SCRATCH_ELEMS // 700)
    for plus_one_alpha in (False, True):
        for seed, n, start, count in cases:
            cfg = cfg_with(schedule=RegimeSchedule.constant(0.2), master_seed=seed,
                           plus_one_alpha=plus_one_alpha)
            diags, offs = _sample_block(cfg, n, start, count)
            assert diags.shape == (count, n) and offs.shape == (count, n - 1)
            for j in range(count):
                tri = sample_matrix(cfg.params_for(n), SeededStream(cfg.cell_seed(n), start + j))
                assert np.array_equal(diags[j], tri.diag) and np.array_equal(offs[j], tri.offdiag)
    # overlapping blocks agree row for row, so no generator state carries
    # from one replica to the next
    cfg = cfg_with(master_seed=3)
    diags, offs = _sample_block(cfg, 700, 0, 200)
    for start, count in ((1, 1), (50, 120), (199, 1)):
        d, o = _sample_block(cfg, 700, start, count)
        assert np.array_equal(d, diags[start:start + count])
        assert np.array_equal(o, offs[start:start + count])


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
    got = [[(r.mean, r.stderr), (f.mean, f.stderr)]
           for r, f in zip(report.rows, report.first_moment_rows)]
    assert got == _moment_rows_from_separate_blocks(cfg)


def test_one_process_pool_per_campaign(monkeypatch):
    built = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    cfg = cfg_with(n_values=(30, 60), replicas=16, workers=2, x_grid=(2.3,), t_grid=(2.5,))
    run_tail_sweep(cfg)
    run_tailbound_check(cfg)
    assert len(built) == 2


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


def test_plus_one_alpha_second_moment_tends_to_one():
    # (1 + beta(n-1)/2)/(1 + n*beta/2) -> 1; the defect is exactly (beta/2)/(1+n*beta/2)
    for n in (10**3, 10**6):
        beta = 0.1
        exact = (1 + beta * (n - 1) / 2) / (1 + n * beta / 2)
        assert abs(exact - 1.0) == pytest.approx((beta / 2) / (1 + n * beta / 2), rel=1e-9)
    assert abs((1 + 0.1 * (10**6 - 1) / 2) / (1 + 10**6 * 0.1 / 2) - 1.0) < 1e-6


def test_first_moment_centered():
    report = run_moment_check(cfg_with(replicas=500))
    assert all(abs(r.z_score) <= 4.0 for r in report.first_moment_rows)


def test_tail_sweep_rows_and_invariants():
    cfg = cfg_with(n_values=(80, 40), replicas=200, x_grid=(2.4, 2.2))
    rows = run_tail_sweep(cfg)
    # rows ordered by (n as configured, then x as configured)
    assert [(r.n, r.x) for r in rows] == [(80, 2.4), (80, 2.2), (40, 2.4), (40, 2.2)]
    for r in rows:
        assert r.stderr == pytest.approx(math.sqrt(r.p_hat * (1 - r.p_hat) / cfg.replicas), rel=1e-12)
        assert r.j_theory == rate_J(r.x)
        if r.p_hat > 0:
            assert r.j_hat == pytest.approx(-math.log(r.p_hat) / (r.n * r.beta), rel=1e-12)


def test_tail_sweep_undersampled_marker():
    cfg = cfg_with(replicas=40, x_grid=(3.8,))
    row = run_tail_sweep(cfg)[0]
    assert row.p_hat == 0.0
    assert row.j_hat == math.inf
    assert math.isnan(row.rel_err)
    assert row.wilson_low is not None and row.wilson_high > 0.0


def test_tail_sweep_validation():
    with pytest.raises(ValueError):
        run_tail_sweep(cfg_with(x_grid=()))
    with pytest.raises(ValueError):
        run_tail_sweep(cfg_with(x_grid=(1.9,)))


def test_default_x_grid_caps_rare_tails():
    grid = default_x_grid(200, 0.05)  # n*beta = 10
    assert grid and all(rate_J(x) * 10 <= 9.0 for x in grid)
    assert 3.0 in grid                           # J(3)*10 ~ 7.1 still observable
    assert 3.0 not in default_x_grid(400, 0.05)  # J(3)*20 ~ 14.3 is not
    assert len(default_x_grid(4000, 0.1)) < len(grid)


def test_edge_rate_is_near_zero():
    # P(lambda_max >= 2) is order one, so -log(p)/(n*beta) sits near J(2) = 0
    lam = lambda_max_sample(cfg_with(n_values=(200,), replicas=400,
                                     schedule=RegimeSchedule.constant(0.1)), 200)
    p_edge = float(np.mean(lam >= 2.0))
    assert 0.2 <= p_edge <= 1.0
    assert -math.log(p_edge) / 20.0 <= 0.05


def test_convergence_checks():
    # lambda_max concentrates at the bulk edge 2: the fraction of replicas
    # with |lambda_max - 2| > eps falls in n and is nested in eps, and the
    # median moves toward 2
    cfg = cfg_with(n_values=(100, 400), replicas=300)
    lams = [lambda_max_sample(cfg, n) for n in cfg.n_values]
    eps_values = (0.1, 0.15, 0.2)
    fractions = [[float(np.mean(np.abs(lam - 2.0) > eps)) for eps in eps_values] for lam in lams]
    for small_n, large_n in zip(fractions[0], fractions[1]):
        assert large_n <= small_n
    for row in fractions:
        assert all(b <= a for a, b in zip(row, row[1:]))
    meds = [float(np.median(lam)) for lam in lams]
    assert abs(meds[1] - 2.0) < abs(meds[0] - 2.0)


def test_tailbound_far_threshold_trivial():
    cfg = cfg_with(n_values=(50,), replicas=100, schedule=RegimeSchedule.constant(0.2),
                   t_grid=(3.0, 10.0))
    report = run_tailbound_check(cfg)
    far = report.rows[-1]
    assert far.t == 10.0 and far.q_hat == 0.0 and far.passed
    assert all(r.passed for r in report.rows)


def test_tailbound_validation():
    with pytest.raises(ValueError):
        run_tailbound_check(cfg_with(t_grid=()))


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
    lam = lambda_max_sample(cfg_with(replicas=2000), 100)
    assert np.mean(lam > 3.0) <= np.mean(lam > 2.5)


def test_lambda_max_dominates_mean():
    params = make_params(50, 0.2)
    for r in range(100):
        tri = sample_matrix(params, SeededStream(31337, r))
        assert eig.lambda_max(tri, 1e-10) >= float(np.mean(tri.diag)) - 1e-10


def test_worker_count_invariance():
    cfg1 = cfg_with(replicas=64, x_grid=(2.3,), workers=1)
    cfg2 = cfg_with(replicas=64, x_grid=(2.3,), workers=2)
    rows1 = run_tail_sweep(cfg1)
    rows2 = run_tail_sweep(cfg2)
    assert rows1 == rows2
    assert np.array_equal(lambda_max_sample(cfg1, 100), lambda_max_sample(cfg2, 100))


def test_estimator_sanity_against_doubled_run():
    # the reported band p_hat +- 3*stderr (stderr combining both runs) must
    # cover a doubled-replica reference in >= 19 of 20 seeded repetitions
    n, beta, x = 100, 0.1, 2.3
    covered = 0
    for rep in range(20):
        small = cfg_with(n_values=(n,), replicas=1500, master_seed=9000 + rep)
        big = cfg_with(n_values=(n,), replicas=3000, master_seed=7500 + rep)
        p_small = float(np.mean(lambda_max_sample(small, n) >= x))
        p_big = float(np.mean(lambda_max_sample(big, n) >= x))
        se_small = math.sqrt(p_small * (1 - p_small) / 1500)
        se_big = math.sqrt(p_big * (1 - p_big) / 3000)
        band = 3.0 * math.sqrt(se_small**2 + se_big**2)
        covered += abs(p_small - p_big) <= band
    assert covered >= 19


def test_energy_variant_difference_identity():
    # paper minus normalized equals (3/8) * mean of (x^2 + y^2) over pairs,
    # i.e. (3/4) * second moment, for any measure
    mu = semicircle_quantile_measure(300)
    diff = energy_I(mu, "paper") - energy_I(mu, "normalized")
    m2 = float(np.mean(mu.atoms**2))
    assert diff == pytest.approx(0.75 * m2, rel=1e-12)


def test_esd_report_small_scale(workers):
    cfg = cfg_with(n_values=(80, 320), replicas=6, workers=workers)
    report = run_esd_check(cfg)
    assert [r.n for r in report.rows] == [80, 320]
    assert report.rows[1].w1_mean < report.rows[0].w1_mean
    assert all(c.passed for c in report.checks)
    for r in report.rows:
        assert r.energy_paper_mean > r.energy_norm_mean
