import math
import sys

import numpy as np
import pytest
from helpers import (
    envelopes,
    mp_integrals,
    propagator,
    quad_first_integrals,
    quad_signal_coefficients,
    rel_err,
    rotated_coefficients,
)
from scipy.integrate import simpson

from squeezed_readout import NumericalError, SystemParams, ValidationError, optimal_squeezing
from squeezed_readout import dynamics
from squeezed_readout.dynamics import _response

# all six coefficients at the matched point kappa = 2, chi_s = 1,
# t = 0.6729291463989336, frozen from the adaptive-quadrature oracle
T_REF = 0.6729291463989336
F_REF = 0.4595095582675465
G_REF = 0.14150506788814027
A_REF = 0.31800449037940626
B_REF = 0.07191452024324674
SMALL_F_REF = 0.39898537384431304
SMALL_G_REF = 0.3180044903794063


@pytest.fixture(scope="module")
def params():
    return SystemParams(chi_s=1.0, kappa=2.0)


def test_everything_vanishes_at_time_zero(params):
    assert envelopes(0.0, params) == (1.0, 0.0)
    assert _response(params.kappa, 0.0) == (0.0, 0.0, 0.0, 0.0)


def test_reference_point_values(params):
    f, g = envelopes(T_REF, params)
    assert f == pytest.approx(SMALL_F_REF, rel=1e-13)
    assert g == pytest.approx(SMALL_G_REF, rel=1e-13)
    big_f, big_g, a_coef, b_coef = _response(params.kappa, T_REF)
    assert big_f == pytest.approx(F_REF, rel=1e-12)
    assert big_g == pytest.approx(G_REF, rel=1e-12)
    assert a_coef == pytest.approx(A_REF, rel=1e-12)
    assert b_coef == pytest.approx(B_REF, rel=1e-12)


def test_structural_identities_at_equal_damping_and_rotation(params):
    # kappa = 2 chi_s makes a = b: then A = e^{-t} sin t = g and
    # B = t - F - G exactly
    for t in (0.3, T_REF, 1.7, 2.9):
        f, g = envelopes(t, params)
        big_f, big_g, a_coef, b_coef = _response(params.kappa, t)
        assert a_coef == pytest.approx(g, rel=1e-12)
        assert b_coef == pytest.approx(t - big_f - big_g, rel=1e-11)


def test_first_integrals_match_quadrature_on_random_grid():
    # each drawn (kappa, chi_s, t) at chi_s = 1: kappa/chi_s and chi_s*t
    # keep |zt| and arg z
    rng = np.random.default_rng(7)
    for _ in range(30):
        chi = float(rng.uniform(0.25, 4.0))
        kappa = chi * float(rng.uniform(0.5, 4.0))
        t = float(rng.uniform(0.05, 3.0)) / chi
        kappa, t = kappa / chi, chi * t
        big_f, big_g, _, _ = _response(kappa, t)
        ref_f, ref_g = quad_first_integrals(0.5 * kappa, 1.0, t)
        assert rel_err(big_f, ref_f) < 1e-10
        assert rel_err(big_g, ref_g) < 1e-10


def test_signal_coefficients_match_double_integral_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        chi = float(rng.uniform(0.25, 4.0))
        kappa = chi * float(rng.uniform(0.5, 4.0))
        t = float(rng.uniform(0.05, 3.0)) / chi
        kappa, t = kappa / chi, chi * t
        a_coef, b_coef = _response(kappa, t)[2:]
        ref_a, ref_b = quad_signal_coefficients(kappa, 1.0, t)
        assert rel_err(a_coef, ref_a) < 1e-9
        assert rel_err(b_coef, ref_b) < 1e-9


def test_signal_coefficients_match_simpson_on_dense_grid(params):
    # independent route: Simpson integration of F itself
    t = 1.3
    grid = np.linspace(0.0, t, 4001)
    big_f_values = [_response(params.kappa, float(s))[0] for s in grid]
    int_f = simpson(big_f_values, x=grid)
    a_coef = _response(params.kappa, t)[2]
    assert a_coef == pytest.approx(t - params.kappa * int_f, abs=1e-8)


def test_derivatives_of_first_integrals_are_envelopes(params):
    h = 1e-6
    for t in (0.2, 0.9, 2.4):
        f, g = envelopes(t, params)
        fp = _response(params.kappa, t + h)
        fm = _response(params.kappa, t - h)
        assert (fp[0] - fm[0]) / (2.0 * h) == pytest.approx(f, abs=1e-6)
        assert (fp[1] - fm[1]) / (2.0 * h) == pytest.approx(g, abs=1e-6)


def test_rate_time_homogeneity():
    rng = np.random.default_rng(9)
    base = SystemParams(chi_s=1.0, kappa=2.0)
    for _ in range(20):
        lam = float(rng.uniform(0.1, 10.0))
        t = float(rng.uniform(0.05, 3.0))
        scaled = SystemParams(chi_s=1.0 / lam, kappa=2.0 / lam)
        assert envelopes(lam * t, scaled) == pytest.approx(
            envelopes(t, base), rel=1e-12
        )


def test_long_time_limits(params):
    big_f, big_g, _, _ = _response(params.kappa, 50.0)
    a, b = 0.5 * params.kappa, params.chi_s
    f_inf, g_inf = a / (a * a + b * b), b / (a * a + b * b)
    assert f_inf == pytest.approx(0.5, rel=1e-15)
    assert g_inf == pytest.approx(0.5, rel=1e-15)
    assert big_f == pytest.approx(f_inf, rel=1e-12)
    assert big_g == pytest.approx(g_inf, rel=1e-12)
    f, g = envelopes(50.0, params)
    assert abs(f) < 1e-20 and abs(g) < 1e-20


def test_envelopes_bounded_by_damping():
    rng = np.random.default_rng(10)
    for _ in range(50):
        kappa = float(rng.uniform(0.2, 5.0))
        t = float(rng.uniform(0.0, 5.0))
        params = SystemParams(chi_s=float(rng.uniform(0.2, 3.0)), kappa=kappa)
        f, g = envelopes(t, params)
        bound = math.exp(-0.5 * kappa * t) * (1.0 + 1e-14)
        assert abs(f) <= bound
        assert abs(g) <= bound
        assert f * f + g * g == pytest.approx(math.exp(-kappa * t), rel=1e-12)


# |zt| = t·|κ/2 − iχs| on both sides of the seam at 0.7, where the φ₂
# series hands over to the closed forms, and at the matched point (0.95)
_SEAM_RADII = (0.69, 0.7, 0.71, 0.95)


def _assert_response_matches_mpmath(a, b, t):
    a, t = a / b, b * t  # at b = 1: the same |zt| and arg z
    ref_f, ref_g, _, _, ref_a, ref_b = mp_integrals(a, 1.0, t)
    response = _response(2.0 * a, t)
    for value, reference in zip(response, (ref_f, ref_g, ref_a, ref_b)):
        assert rel_err(value, reference) < 1e-14, (a, t)


def test_tiny_time_series_matches_arbitrary_precision():
    # tiny times, the larger of a·t and b·t at 9e-3, and |zt| around the seam
    for a, b in ((1.0, 1.0), (0.5, 1.0), (2.0, 0.7), (1.0, 3.5)):
        radius = math.hypot(a, b)
        times = (1e-9, 1e-6, 2e-5, 9e-3 / max(a, b), *(w / radius for w in _SEAM_RADII))
        for t in times:
            _assert_response_matches_mpmath(a, b, t)


def test_series_to_closed_form_crossover_is_continuous():
    # |zt| = 0.7 ± 1%: the φ₂ series below, the closed forms above
    a = b = 1.0
    for w in (0.693, 0.707):
        _assert_response_matches_mpmath(a, b, w / math.hypot(a, b))


def test_series_holds_1e14_where_t_cubed_nears_the_double_floor():
    # deep in the φ₂ series, down to t = 1e-102, where ∫G ≈ t³/6 is near the
    # smallest normal double, all four integrals and A, B hold 1e-14
    for a in (0.5, 1.0, 3.0):
        for t in (1e-20, 1e-50, 1e-100, 1e-102):
            ref = mp_integrals(a, 1.0, t)
            values = dynamics._integrals(a, t) + _response(2.0 * a, t)[2:]
            assert min(map(abs, ref)) > sys.float_info.min, (a, t)
            for value, reference in zip(values, ref):
                assert rel_err(value, reference, sys.float_info.min) < 1e-14, (a, t)


def _seam_points(rng, n, lo, hi):
    """n (a, b, t): |zt| log-uniform on [lo, hi], arg z uniform, t in [0.1, 10]."""
    radius = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    angle = rng.uniform(0.0, 0.5 * math.pi, n)
    t = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
    a, b = radius * np.cos(angle) / t, radius * np.sin(angle) / t
    return [(float(x), float(y), float(s)) for x, y, s in zip(a, b, t)]


def test_integrals_hold_1e14_on_both_sides_of_the_seam():
    # 5,000 points: 2,000 within a factor 2 of the old switch at a·t, b·t
    # = 1e-2, 2,000 with |zt| in [0.4, 1.1] and 1,000 deep in the series;
    # F is held to |F + iG|: near a zero of F its relative error is the
    # problem's own conditioning
    rng = np.random.default_rng(22)
    points = (
        _seam_points(rng, 2000, 5e-3, 2e-2)
        + _seam_points(rng, 2000, 0.4, 1.1)
        + _seam_points(rng, 1000, 1e-12, 0.4)
    )
    for a, b, t in points:
        a, t = a / b, b * t  # at b = 1: the same |zt| and arg z
        big_f, big_g, int_f, int_g = dynamics._integrals(a, t)
        ref_f, ref_g, ref_int_f, ref_int_g = mp_integrals(a, 1.0, t)[:4]
        assert abs(big_f - ref_f) < 1e-14 * math.hypot(ref_f, ref_g), (a, t)
        assert rel_err(big_g, ref_g) < 1e-14, (a, t)
        assert rel_err(int_f, ref_int_f) < 1e-14, (a, t)
        assert rel_err(int_g, ref_int_g) < 1e-14, (a, t)


def test_propagator_properties(params):
    assert np.allclose(propagator(0.0, params, +1), np.eye(2))
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = float(rng.uniform(0.0, 4.0))
        plus = propagator(t, params, +1)
        minus = propagator(t, params, -1)
        assert np.linalg.det(plus) == pytest.approx(math.exp(-params.kappa * t), rel=1e-12)
        assert np.linalg.det(minus) == pytest.approx(math.exp(-params.kappa * t), rel=1e-12)
        assert np.array_equal(plus.T, minus)
    f, g = envelopes(0.7, params)
    assert propagator(0.7, params, +1)[0, 1] == -g
    assert propagator(0.7, params, +1)[1, 0] == g


def test_propagator_rejects_bad_sigma(params):
    with pytest.raises(ValidationError, match="sigma"):
        propagator(0.1, params, 0)
    with pytest.raises(ValidationError, match="sigma"):
        propagator(0.1, params, 2)


def test_rotated_coefficients_special_angles():
    a_coef, b_coef = 0.318, 0.0719
    assert rotated_coefficients(a_coef, b_coef, 0.0) == (b_coef, a_coef)
    b_rot, a_rot = rotated_coefficients(a_coef, b_coef, math.pi)
    assert b_rot == pytest.approx(-b_coef, rel=1e-12)
    assert a_rot == pytest.approx(-a_coef, rel=1e-12)
    b_rot, a_rot = rotated_coefficients(a_coef, b_coef, 0.5 * math.pi)
    assert b_rot == pytest.approx(a_coef, rel=1e-12)
    assert a_rot == pytest.approx(-b_coef, rel=1e-12, abs=1e-15)


def test_rotated_coefficients_preserve_magnitude():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a_coef = float(rng.normal())
        b_coef = float(rng.normal())
        delta = float(rng.uniform(-7.0, 7.0))
        b_rot, a_rot = rotated_coefficients(a_coef, b_coef, delta)
        assert a_rot**2 + b_rot**2 == pytest.approx(
            a_coef**2 + b_coef**2, rel=1e-12
        )


def test_negative_time_rejected(params):
    with pytest.raises(ValidationError, match="t must"):
        envelopes(-0.1, params)
    with pytest.raises(ValidationError, match="t must"):
        _response(params.kappa, -0.1)
    with pytest.raises(ValidationError, match="t must"):
        propagator(-0.1, params, +1)


@pytest.mark.parametrize(
    "t,params,message",
    [
        # the denominator (kappa/2)^2 + chi_s^2 overflows past kappa/2 ≈ 1.3e154
        # chi_s, where every integral would come out 0, A = t and B = 0
        # (mpmath: A = -0.5, B = 2e-200 at kappa = 1e200)
        (0.5, SystemParams(kappa=1e200), "(kappa/2)^2 + chi_s^2 overflows"),
        # the internal time chi_s*t is past the double range
        (1.7e308, SystemParams(chi_s=1e300, kappa=1e-8), "chi_s*t is too large"),
        # (kappa/2)*t overflows in the closed forms: ∫F is inf and A = -inf
        (1e300, SystemParams(kappa=1e10), "got A = -inf and B = 4e+290"),
    ],
    ids=["denominator-overflows-kappa", "rotation-overflows", "a-overflows"],
)
def test_coefficients_past_the_double_range_are_a_numerical_error(t, params, message):
    with pytest.raises(NumericalError) as excinfo:
        optimal_squeezing(t, params)
    assert str(excinfo.value) == f"response coefficients overflow: {message}"
