import math

import numpy as np
import pytest

from squeezed_readout import (
    NumericalError,
    ProbeState,
    SystemParams,
    ValidationError,
    backaction_report,
    critical_photon_check,
    induced_t1_inverse,
    purcell_rate,
    t2_penalty,
    total_t1,
)


def _with_coupling(g_s: float, delta: float, **kwargs) -> SystemParams:
    return SystemParams(chi_s=1.0, kappa=2.0, g_s=g_s, delta=delta, **kwargs)


def test_purcell_rate_values():
    assert purcell_rate(_with_coupling(0.1, 10.0)) == pytest.approx(2e-4, rel=1e-12)
    # coupling as large as the detuning returns the bare cavity rate
    assert purcell_rate(_with_coupling(5.0, 5.0)) == pytest.approx(2.0, rel=1e-12)


def test_purcell_rate_scaling():
    base = purcell_rate(_with_coupling(0.3, 7.0))
    assert purcell_rate(_with_coupling(0.3, 14.0)) == pytest.approx(
        base / 4.0, rel=1e-12
    )
    assert purcell_rate(_with_coupling(0.3, -7.0)) == pytest.approx(base, rel=1e-15)


def test_purcell_rate_requires_coupling_parameters():
    with pytest.raises(ValidationError, match="g_s and delta"):
        purcell_rate(SystemParams(chi_s=1.0, kappa=2.0))


def test_induced_rate_squeezing_enhancement():
    gamma = 3.1e-4
    assert induced_t1_inverse(0.0, gamma) == 2.0 * gamma
    assert induced_t1_inverse(1.0, gamma) == pytest.approx(
        7.524391382167263 * gamma, rel=1e-12
    )
    rng = np.random.default_rng(30)
    for _ in range(10):
        r = float(rng.uniform(0.0, 2.0))
        assert induced_t1_inverse(r, gamma) / (2.0 * gamma) == pytest.approx(
            math.cosh(2.0 * r), rel=1e-12
        )
    rates = [induced_t1_inverse(r, gamma) for r in (0.0, 0.5, 1.0, 1.5)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_induced_rate_validation():
    with pytest.raises(ValidationError, match="gamma_pu"):
        induced_t1_inverse(0.5, -1.0)
    with pytest.raises(ValidationError, match="r must"):
        induced_t1_inverse(-0.5, 1.0)


def test_t2_penalty_values():
    assert t2_penalty(0.0) == 1.0
    assert t2_penalty(0.85) == pytest.approx(5.473947391727201, rel=1e-12)
    assert t2_penalty(1.0) == pytest.approx(7.389056098930650, rel=1e-12)


def test_critical_photon_check():
    params = _with_coupling(1.0, 2.0)
    n_c, _, _ = critical_photon_check(ProbeState(alpha=0.1), params)
    assert n_c == 1.0
    params = _with_coupling(1.0, 100.0)
    probe = ProbeState(alpha=math.sqrt(30.0), r=0.85, theta_xi=math.pi)
    n_c, ratio, ok = critical_photon_check(probe, params)
    assert n_c == 2500.0
    assert ratio == pytest.approx(
        (30.0 + math.sinh(0.85) ** 2) / 2500.0, rel=1e-12
    )
    assert ok


def test_critical_photon_check_warns_when_marginal():
    params = _with_coupling(1.0, 100.0)
    probe = ProbeState(alpha=math.sqrt(30.0), r=0.85, theta_xi=math.pi)
    with pytest.warns(UserWarning, match="critical photon"):
        _, _, ok = critical_photon_check(probe, params, ratio_max=1e-3)
    assert not ok
    with pytest.raises(ValidationError, match="ratio_max"):
        critical_photon_check(probe, params, ratio_max=0.0)


def test_photon_ratio_scales_with_coupling():
    probe = ProbeState(alpha=3.0)
    _, ratio_1, _ = critical_photon_check(probe, _with_coupling(0.01, 1.0))
    _, ratio_2, _ = critical_photon_check(probe, _with_coupling(0.02, 1.0))
    assert ratio_2 == pytest.approx(4.0 * ratio_1, rel=1e-12)


def test_total_t1():
    plain = SystemParams(chi_s=1.0, kappa=2.0, t1_intrinsic=100.0)
    assert total_t1(plain, 1.3) == 100.0
    # coupling chosen so the induced rate equals the intrinsic rate
    params = _with_coupling(0.05, 1.0, t1_intrinsic=100.0)
    assert purcell_rate(params) == pytest.approx(5e-3, rel=1e-12)
    assert total_t1(params, 0.0) == pytest.approx(50.0, rel=1e-12)
    weak = _with_coupling(1e-9, 1.0, t1_intrinsic=100.0)
    assert total_t1(weak, 0.0) == pytest.approx(100.0, rel=1e-10)


def test_backaction_report_consistency():
    params = _with_coupling(1.0, 100.0, t1_intrinsic=2827.4333882308138)
    probe = ProbeState(alpha=math.sqrt(30.0), r=0.85, theta_xi=math.pi)
    report = backaction_report(probe, params)
    assert report.gamma_purcell == pytest.approx(purcell_rate(params), rel=1e-15)
    assert report.t1_induced * induced_t1_inverse(
        probe.r, report.gamma_purcell
    ) == pytest.approx(1.0, rel=1e-15)
    assert report.t2_penalty_factor == pytest.approx(
        5.473947391727201, rel=1e-12
    )
    assert report.nondemolition_ok
    assert report.photon_ratio < 0.1


def test_large_squeezing_is_a_numerical_error():
    # cosh 2r and e^{2r} overflow a double above r = 355
    with pytest.raises(NumericalError, match="cosh 2r overflows"):
        induced_t1_inverse(400.0, 1e-4)
    with pytest.raises(NumericalError, match=r"e\^\{2r\} overflows"):
        t2_penalty(400.0)
    params = _with_coupling(0.01, 1.0)
    with pytest.raises(NumericalError, match="cosh 2r overflows"):
        total_t1(params, 400.0)
    with pytest.raises(NumericalError, match="cosh 2r overflows"):
        backaction_report(ProbeState(alpha=10.0, r=400.0), params)
