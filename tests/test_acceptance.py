"""Acceptance gate: every criterion at its stated parameters and tolerance.

Each test prints one PASS/FAIL line (visible with -s or via `hitemp check`)
and fails the suite if its criterion does not hold.
"""

import pytest

from hitemp import acceptance
from hitemp.experiments import CheckResult, ExperimentConfig


def _run(fn, workers):
    result = fn(workers=workers)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name} — {result.detail}")
    assert result.passed is True, f"{result.name} failed: {result.detail}"


def test_criterion_01_rate_function_exactness(workers):
    _run(acceptance.criterion_1_rate_exactness, workers)


def test_criterion_02_selberg_correctness(workers):
    _run(acceptance.criterion_2_selberg, workers)


def test_criterion_03_ratio_asymptotics(workers):
    _run(acceptance.criterion_3_ratio_asymptotics, workers)


def test_criterion_04_eigensolver_oracle(workers):
    _run(acceptance.criterion_4_eigensolver_oracle, workers)


def test_criterion_05_trace_identity(workers):
    _run(acceptance.criterion_5_trace_identity, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_criterion_05_numbers_at_quick(workers):
    assert acceptance.criterion_5_trace_identity(workers=workers, quick=True) == CheckResult(
        "trace identity Monte Carlo", True, "mean=1.078285 exact=1.078000 z=0.20 (|z| <= 4, 200 replicas)")


def test_criterion_06_convergence_in_probability(workers):
    _run(acceptance.criterion_6_convergence, workers)


def test_criterion_07_empirical_ldp_rate(workers):
    _run(acceptance.criterion_7_ldp_rate, workers)


def test_criterion_08_tail_bound_validity(workers):
    _run(acceptance.criterion_8_tail_bound, workers)


def test_criterion_09_esd_convergence(workers):
    _run(acceptance.criterion_9_esd_convergence, workers)


def test_criterion_10_property_and_determinism_suite(workers):
    _run(acceptance.criterion_10_property_suite, workers)


def test_criterion_10_fails_on_a_non_zero_exit_code(monkeypatch):
    # a bare assert raised an AssertionError out of `hitemp check`, and python -O strips it
    monkeypatch.setattr(acceptance.cli, "main", lambda argv: 1)
    result = acceptance.criterion_10_property_suite(quick=True)
    assert result.passed is False
    assert result.detail.endswith("; sweep exit codes [1, 1] (not 0)")


def test_campaign_criteria_default_to_the_config_worker_count(monkeypatch):
    # criteria 5-9 and run_all defaulted to one worker, a campaign to the core count
    configs, gather = [], acceptance._gather

    def recording_gather(fn, cfg, row_shape=()):
        configs.append(cfg)
        return gather(fn, cfg, row_shape)

    monkeypatch.setattr(acceptance, "_gather", recording_gather)
    assert acceptance.criterion_5_trace_identity(quick=True).passed is True
    assert [cfg.workers for cfg in configs] == [ExperimentConfig.workers]
