import math

import numpy as np
import pytest
from helpers import backaction_rates

from squeezed_readout import (
    NumericalError,
    ProbeState,
    SystemParams,
    ValidationError,
    backaction_report,
    total_t1,
)


def _with_coupling(g_s: float, delta: float, **kwargs) -> SystemParams:
    return SystemParams(chi_s=1.0, kappa=2.0, g_s=g_s, delta=delta, **kwargs)


def _report(params: SystemParams, r: float = 0.0):
    # an undisplaced probe keeps the photon ratio far below the threshold
    return backaction_report(ProbeState(r=r), params)


def _induced_rate(params: SystemParams, r: float) -> float:
    return 1.0 / _report(params, r).t1_induced


def test_purcell_rate_values():
    assert _report(_with_coupling(0.1, 10.0)).gamma_purcell == pytest.approx(
        2e-4, rel=1e-12
    )
    # coupling as large as the detuning returns the bare cavity rate
    assert _report(_with_coupling(5.0, 5.0)).gamma_purcell == pytest.approx(
        2.0, rel=1e-12
    )


def test_purcell_rate_scaling():
    base = _report(_with_coupling(0.3, 7.0)).gamma_purcell
    assert _report(_with_coupling(0.3, 14.0)).gamma_purcell == pytest.approx(
        base / 4.0, rel=1e-12
    )
    assert _report(_with_coupling(0.3, -7.0)).gamma_purcell == pytest.approx(
        base, rel=1e-15
    )


def test_purcell_rate_requires_coupling_parameters():
    with pytest.raises(ValidationError, match="g_s and delta"):
        _report(SystemParams(chi_s=1.0, kappa=2.0))


def test_induced_rate_squeezing_enhancement():
    # kappa = 2 and a unit detuning put gamma_pu at 2 g_s^2
    params = _with_coupling(math.sqrt(0.5 * 3.1e-4), 1.0)
    gamma = _report(params).gamma_purcell
    assert _report(params).t1_induced == 1.0 / (2.0 * gamma)
    assert _induced_rate(params, 1.0) == pytest.approx(
        7.524391382167263 * gamma, rel=1e-12
    )
    rng = np.random.default_rng(30)
    for _ in range(10):
        r = float(rng.uniform(0.0, 2.0))
        assert _induced_rate(params, r) / (2.0 * gamma) == pytest.approx(
            math.cosh(2.0 * r), rel=1e-12
        )
    rates = [_induced_rate(params, r) for r in (0.0, 0.5, 1.0, 1.5)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_induced_rate_validation():
    with pytest.raises(ValidationError, match="r must"):
        total_t1(_with_coupling(1.0, 1.0), -0.5)


def test_t2_penalty_values():
    params = _with_coupling(0.1, 10.0)
    assert _report(params, 0.0).t2_penalty_factor == 1.0
    assert _report(params, 0.85).t2_penalty_factor == pytest.approx(
        5.473947391727201, rel=1e-12
    )
    assert _report(params, 1.0).t2_penalty_factor == pytest.approx(
        7.389056098930650, rel=1e-12
    )


def test_critical_photon_check():
    params = _with_coupling(1.0, 2.0)
    assert backaction_report(ProbeState(alpha=0.1), params).n_critical == 1.0
    params = _with_coupling(1.0, 100.0)
    probe = ProbeState(alpha=math.sqrt(30.0), r=0.85, theta_xi=math.pi)
    report = backaction_report(probe, params)
    assert report.n_critical == 2500.0
    assert report.photon_ratio == pytest.approx(
        (30.0 + math.sinh(0.85) ** 2) / 2500.0, rel=1e-12
    )
    assert report.nondemolition_ok


def test_critical_photon_check_warns_when_marginal():
    params = _with_coupling(1.0, 100.0)
    probe = ProbeState(alpha=math.sqrt(30.0), r=0.85, theta_xi=math.pi)
    with pytest.warns(UserWarning, match="critical photon"):
        report = backaction_report(probe, params, ratio_max=1e-3)
    assert not report.nondemolition_ok
    with pytest.raises(ValidationError, match="ratio_max"):
        backaction_report(probe, params, ratio_max=0.0)


def test_photon_ratio_scales_with_coupling():
    probe = ProbeState(alpha=3.0)
    ratio_1 = backaction_report(probe, _with_coupling(0.01, 1.0)).photon_ratio
    ratio_2 = backaction_report(probe, _with_coupling(0.02, 1.0)).photon_ratio
    assert ratio_2 == pytest.approx(4.0 * ratio_1, rel=1e-12)


def test_total_t1():
    plain = SystemParams(chi_s=1.0, kappa=2.0, t1_intrinsic=100.0)
    assert total_t1(plain, 1.3) == 100.0
    # coupling chosen so the induced rate equals the intrinsic rate
    params = _with_coupling(0.05, 1.0, t1_intrinsic=100.0)
    assert _report(params).gamma_purcell == pytest.approx(5e-3, rel=1e-12)
    assert total_t1(params, 0.0) == pytest.approx(50.0, rel=1e-12)
    weak = _with_coupling(1e-9, 1.0, t1_intrinsic=100.0)
    assert total_t1(weak, 0.0) == pytest.approx(100.0, rel=1e-10)


def test_backaction_report_consistency():
    params = _with_coupling(1.0, 100.0, t1_intrinsic=2827.4333882308138)
    probe = ProbeState(alpha=math.sqrt(30.0), r=0.85, theta_xi=math.pi)
    report = backaction_report(probe, params)
    gamma, induced = backaction_rates(params, probe.r)
    assert report.gamma_purcell == pytest.approx(gamma, rel=1e-15)
    assert report.t1_induced * induced == pytest.approx(1.0, rel=1e-15)
    assert report.t2_penalty_factor == pytest.approx(
        5.473947391727201, rel=1e-12
    )
    assert report.nondemolition_ok
    assert report.photon_ratio < 0.1


def test_large_squeezing_is_a_numerical_error():
    # cosh 2r overflows a double above r = 355.2, e^{2r} already above 354.9
    params = _with_coupling(0.01, 1.0)
    with pytest.raises(NumericalError, match="cosh 2r overflows"):
        total_t1(params, 400.0)
    with pytest.raises(NumericalError, match="cosh 2r overflows"):
        backaction_report(ProbeState(alpha=10.0, r=400.0), params)
    with pytest.raises(NumericalError, match=r"e\^\{2r\} overflows"):
        backaction_report(ProbeState(alpha=10.0, r=355.0), params)


@pytest.mark.parametrize(
    ("gs_over_delta", "fragment"),
    [
        (1e200, "Purcell rate"),
        (1e154, "Purcell rate"),
        (1e-160, "induced T1 overflows"),
        (1e-200, "induced T1 overflows"),
    ],
)
def test_coupling_out_of_double_range_is_a_numerical_error(gs_over_delta, fragment):
    params = _with_coupling(gs_over_delta, 1.0)
    with pytest.raises(NumericalError, match=fragment):
        backaction_report(ProbeState(alpha=10.0, r=0.74), params)
    if gs_over_delta > 1.0:
        with pytest.raises(NumericalError, match=fragment):
            total_t1(params, 0.74)
    else:
        # an induced rate that underflows leaves the intrinsic T1
        assert total_t1(params, 0.74) == 1.0 / (1.0 / params.t1_intrinsic)


def test_report_fields_stay_finite_at_the_edges_of_the_range():
    # a large coupling puts n_c below one photon; the ratio overflows
    # before the Purcell rate does
    params = _with_coupling(1e150, 1.0)
    with pytest.warns(UserWarning, match="critical photon"):
        report = backaction_report(ProbeState(alpha=10.0), params)
    assert all(
        math.isfinite(value)
        for value in (
            report.gamma_purcell,
            report.t1_induced,
            report.n_critical,
            report.photon_ratio,
        )
    )
    with pytest.raises(NumericalError, match="occupation over the critical"):
        backaction_report(ProbeState(alpha=1e5), params)


def test_total_t1_whose_rate_overflows_is_a_numerical_error():
    # 1/T1 overflows, and 1/(inf + rate) would read 0.0
    params = _with_coupling(0.01, 1.0, t1_intrinsic=1e-310)
    with pytest.raises(NumericalError) as excinfo:
        total_t1(params, 0.74)
    assert str(excinfo.value) == "t1_intrinsic is too small: 1/T1 overflows"
