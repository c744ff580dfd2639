import dataclasses
import math

import pytest

from hitemp.model import EnsembleParams, RegimeSchedule, make_params, regime_report


def test_make_params_canonical_alpha():
    assert make_params(4, 0.5).alpha == 1.0
    assert make_params(1000, 0.01).alpha == 5.0


def test_make_params_is_pure():
    assert make_params(17, 0.3) == make_params(17, 0.3)


def test_make_params_plus_one_flag():
    p = make_params(100, 0.1, plus_one_alpha=True)
    assert p.alpha == 1.0 + 100 * 0.1 / 2.0


@pytest.mark.parametrize("n,beta", [(1, 0.5), (0, 0.1), (5, 0.0), (5, -1.0)])
def test_make_params_rejects_bad_input(n, beta):
    with pytest.raises(ValueError):
        make_params(n, beta)


def test_ensemble_params_validation():
    with pytest.raises(ValueError):
        EnsembleParams(n=2, beta=0.1, alpha=-1.0)
    with pytest.raises(ValueError):
        EnsembleParams(n=2, beta=float("nan"), alpha=1.0)


def test_regime_report_inside_window():
    # frozen 40-digit reference values: ln(22026) = 9.999978852724889...
    rep = regime_report(make_params(22026, 0.01))
    assert rep.beta_log_n == pytest.approx(0.09999978852724889, rel=1e-12)
    assert rep.n_beta == pytest.approx(220.26, rel=1e-12)
    assert rep.log_n_over_n_beta == pytest.approx(0.045400793846930397, rel=1e-12)
    assert rep.inside_window


def test_regime_report_outside_window_hot():
    # ln(100) = 4.605170185988091... so beta*log(n) > 1
    rep = regime_report(make_params(100, 1.0))
    assert rep.beta_log_n == pytest.approx(4.605170185988091, rel=1e-12)
    assert not rep.inside_window


def test_regime_report_boundary_small_n():
    # n*beta = 0.6 <= ln(2): the n*beta > log(n) proxy fails
    rep = regime_report(make_params(2, 0.3))
    assert rep.n_beta <= math.log(2)
    assert not rep.inside_window


def test_inverse_log_squared_schedule_monotonicity():
    sched = RegimeSchedule("inverse_log_power", 1.0, 2.0)
    ns = [10**k for k in range(3, 10)]
    beta_log_n = [sched.beta(n) * math.log(n) for n in ns]
    log_over_nbeta = [math.log(n) / (n * sched.beta(n)) for n in ns]
    assert all(b < a for a, b in zip(beta_log_n, beta_log_n[1:]))
    assert all(b < a for a, b in zip(log_over_nbeta, log_over_nbeta[1:]))


@pytest.mark.parametrize("sched", [
    RegimeSchedule("inverse_log_power", 0.5, 2.0),
    RegimeSchedule("inverse_log_power", 2.0, 1.0),
    RegimeSchedule("power_decay", 1.0, 0.5),
    RegimeSchedule.constant(0.1),
])
def test_schedules_positive(sched):
    for n in (2, 10, 1000, 10**6):
        assert sched.beta(n) > 0


def test_schedule_validation():
    with pytest.raises(ValueError):
        RegimeSchedule("inverse_log_power", 1.0, 0.5)  # p < 1
    with pytest.raises(ValueError):
        RegimeSchedule("power_decay", 1.0, 1.5)  # gamma >= 1
    with pytest.raises(ValueError):
        RegimeSchedule("constant", -0.1)
    with pytest.raises(ValueError):
        RegimeSchedule("nope", 1.0)
    # a nan or inf passed c <= 0 and p < 1, and `partition` wrote nan rows from it
    for c, exponent in [(math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            RegimeSchedule("inverse_log_power", c, exponent)


def test_schedule_dict_round_trip():
    sched = RegimeSchedule("power_decay", 0.7, 0.3)
    assert dataclasses.asdict(sched) == {"kind": "power_decay", "c": 0.7, "exponent": 0.3}
    assert RegimeSchedule.from_dict(dataclasses.asdict(sched)) == sched
    # the name that 0.4.0 manifests record is read past, like any other key
    assert RegimeSchedule.from_dict({"name": "pow0.3", "kind": "power_decay", "c": 0.7,
                                     "exponent": 0.3}) == sched
