import dataclasses
import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from conftest import PHI_DEFAULT
from helpers import evaluation, input_covariance, input_means, mp_outcome_variance
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezed_readout import (
    NumericalError,
    ProbeState,
    ReadoutError,
    SweepFixed,
    SystemParams,
    UndefinedPointError,
    ValidationError,
    fidelity,
    from_experimental,
    optimal_squeezing,
    optimal_time_estimate,
    phase_matching_residual,
    readout_point,
    snr,
)
from squeezed_readout.dynamics import _response
from squeezed_readout.metrics import _evaluate, _fields

# frozen figures of merit at the matched point (kappa = 2 chi_s,
# t = 0.714 us, alpha = 10, r = 0.74, theta_xi = pi, phi = pi/2),
# cross-checked against the quadrature oracle and Monte Carlo sampling
MEAN_MINUS_REF = 1.0170248985955395
VAR_MATCHED_REF = 0.08066281613305373
VAR_ANTIMATCHED_REF = 0.28050420873705134
VAR_COHERENT_REF = 0.11094245665595688
SNR_MATCHED_REF = 3.580922280271772
SNR_COHERENT_REF = 3.0533929332750276
CONTRAST_REF = 2.034049797191079
R_STAR_REF = 0.7432936542503789
FIDELITY_REF = 0.9995386643242705


def test_mean_vanishes_without_displacement(t_matched, params_k2):
    probe = ProbeState(alpha=0.0, r=0.74)
    point = readout_point(t_matched, probe, params_k2, 0.5 * math.pi)
    assert point.mean_plus == point.mean_minus == 0.0


def test_mean_outcomes_at_matched_point(t_matched, probe_matched, params_k2):
    point = readout_point(t_matched, probe_matched, params_k2, 0.5 * math.pi)
    plus, minus = point.mean_plus, point.mean_minus
    assert plus == pytest.approx(-MEAN_MINUS_REF, rel=1e-12)
    assert minus == pytest.approx(MEAN_MINUS_REF, rel=1e-12)
    # the separation is carried entirely by the B coefficient
    b_coef = _response(params_k2.kappa, t_matched)[3]
    assert minus == pytest.approx(math.sqrt(2.0) * 10.0 * b_coef, rel=1e-12)


def test_displacement_along_p_gives_no_separation(t_matched, params_k2):
    probe = ProbeState(alpha=10.0, theta_alpha=0.5 * math.pi, r=0.74, theta_xi=math.pi)
    point = readout_point(t_matched, probe, params_k2, 0.5 * math.pi)
    assert point.mean_plus == pytest.approx(point.mean_minus, abs=1e-12)
    assert point.contrast == 0.0


def test_measurement_mean_reduces_to_integrated_signal_mean(t_matched, params_k2):
    # at phi = pi/2 the mean is the integrated signal A<P> - sigma B<Q>
    a_coef, b_coef = _response(params_k2.kappa, t_matched)[2:]
    rng = np.random.default_rng(20)
    for _ in range(10):
        probe = ProbeState(
            alpha=float(rng.uniform(0.0, 8.0)),
            theta_alpha=float(rng.uniform(-3.0, 3.0)),
            r=float(rng.uniform(0.0, 1.5)),
            theta_xi=float(rng.uniform(-3.0, 3.0)),
        )
        mq, mp = input_means(probe.alpha, probe.theta_alpha)
        point = readout_point(t_matched, probe, params_k2, 0.5 * math.pi)
        for sigma, mean in ((+1, point.mean_plus), (-1, point.mean_minus)):
            assert mean == pytest.approx(
                a_coef * mp - sigma * b_coef * mq,
                rel=1e-12,
                abs=1e-14,
            )


def test_contrast_frozen_value_and_periodicity(t_matched, probe_matched, params_k2):
    value = readout_point(t_matched, probe_matched, params_k2, PHI_DEFAULT).contrast
    assert value == pytest.approx(CONTRAST_REF, rel=1e-10)
    shifted = readout_point(
        t_matched, probe_matched, params_k2, PHI_DEFAULT + math.pi
    ).contrast
    assert shifted == pytest.approx(value, rel=1e-12)


def _gap_points():
    """(alpha, theta_alpha, phi): random phases, and theta_alpha − phi within 1e-12 of 0 and π."""
    rng = np.random.default_rng(21)
    points = [
        (float(alpha), float(theta_alpha), float(phi))
        for alpha, theta_alpha, phi in rng.uniform((0.0, -3.0, -3.0), (8.0, 3.0, 3.0), (200, 3))
    ]
    for phi in (0.3, 1.0, -2.2):
        for d in rng.uniform(-1e-12, 1e-12, 20):
            points += [(10.0, phi + d, phi), (10.0, phi + math.pi + d, phi)]
    return points


@pytest.mark.parametrize("t", [0.5, 3.0])
def test_mean_gap_equals_the_contrast(t, params_k2):
    # the means are along ± across, each rounded once, and the contrast is
    # 2·|across|: the exact gap is off by at most half an ulp of each mean
    for alpha, theta_alpha, phi in _gap_points():
        probe = ProbeState(alpha=alpha, theta_alpha=theta_alpha, r=0.74, theta_xi=1.1)
        point = readout_point(t, probe, params_k2, phi)
        gap = abs(Fraction(point.mean_plus) - Fraction(point.mean_minus))
        ulp = math.ulp(max(abs(point.mean_plus), abs(point.mean_minus)))
        assert abs(gap - Fraction(point.contrast)) <= Fraction(1.5) * Fraction(ulp), (
            alpha, theta_alpha, phi
        )


_MEAN_POINTS = [(phi, phi + d) for phi in (0.3, 1.0, -2.2) for d in (1e-3, 1e-5, 1e-9)]


@pytest.mark.parametrize(
    ("phi", "theta_alpha"), [*_MEAN_POINTS, (0.0, 0.0), (0.0, 0.5 * math.pi)]
)
def test_means_match_50_digit_arithmetic(phi, theta_alpha, params_k2):
    # on the model's A and B: m± = √2α·(A·cos(θα − φ) ± B·sin(θα − φ)),
    # where θα − φ is exact in the double subtraction here
    probe = ProbeState(alpha=10.0, theta_alpha=theta_alpha, r=0.74, theta_xi=1.1)
    assert Fraction(probe.theta_alpha) - Fraction(phi) == Fraction(probe.theta_alpha - phi)
    model = evaluation(3.0, probe, params_k2, phi)
    with mpmath.workdps(50):
        diff = mpmath.mpf(probe.theta_alpha) - mpmath.mpf(phi)
        root = mpmath.sqrt(2) * probe.alpha
        along = root * model.a_coef * mpmath.cos(diff)
        across = root * model.b_coef * mpmath.sin(diff)
        bound = 4.0 * _EPS * float(abs(along) + abs(across))
        for mean, exact in ((model.mean_plus, along + across), (model.mean_minus, along - across)):
            assert abs(mean - exact) <= bound, (mean, exact)


@pytest.mark.parametrize("t", [1, np.float64(1.0), np.int64(1), Fraction(1)], ids=repr)
def test_readout_point_holds_the_checked_float(t, probe_matched, params_k2):
    # as ShotBatch.t and SweepFixed.t do: an int or a numpy time is its float
    point = readout_point(t, probe_matched, params_k2, PHI_DEFAULT)
    assert type(point.t) is float
    assert point == readout_point(1.0, probe_matched, params_k2, PHI_DEFAULT)


def test_variance_frozen_values(t_matched, probe_matched, params_k2):
    matched = readout_point(t_matched, probe_matched, params_k2, PHI_DEFAULT)
    assert matched.variance_plus == pytest.approx(VAR_MATCHED_REF, rel=1e-12)
    # rotating the squeezing ellipse by a quarter turn swaps which
    # coefficient sees the reduced quadrature
    anti = ProbeState(alpha=10.0, theta_alpha=0.0, r=0.74, theta_xi=0.0)
    assert readout_point(
        t_matched, anti, params_k2, PHI_DEFAULT
    ).variance_plus == pytest.approx(VAR_ANTIMATCHED_REF, rel=1e-12)


def test_variance_coherent_closed_form(t_matched, probe_coherent, params_k2):
    value = readout_point(t_matched, probe_coherent, params_k2, PHI_DEFAULT).variance_plus
    assert value == pytest.approx(VAR_COHERENT_REF, rel=1e-12)
    big_f, big_g, a_coef, b_coef = _response(params_k2.kappa, t_matched)
    expected = 0.5 * (a_coef**2 + b_coef**2) + 0.25 * 0.5 * params_k2.kappa * (
        big_f**2 + big_g**2
    )
    assert value == pytest.approx(expected, rel=1e-14)


def test_variance_matches_matrix_quadratic_form(t_matched, params_k2):
    # independent route: propagate the full input covariance through the
    # weight vector of the measured quadrature
    rng = np.random.default_rng(22)
    big_f, big_g, a_coef, b_coef = _response(params_k2.kappa, t_matched)
    vacuum = 0.25 * 0.5 * params_k2.kappa * (big_f**2 + big_g**2)
    for _ in range(15):
        probe = ProbeState(
            alpha=float(rng.uniform(0.0, 8.0)),
            theta_alpha=float(rng.uniform(-3.0, 3.0)),
            r=float(rng.uniform(0.0, 1.5)),
            theta_xi=float(rng.uniform(-3.0, 3.0)),
        )
        stats = input_covariance(probe)
        sigma_mat = np.array(
            [[stats.var_q, stats.cov_qp], [stats.cov_qp, stats.var_p]]
        )
        phi = float(rng.uniform(-3.0, 3.0))
        point = readout_point(t_matched, probe, params_k2, phi)
        for sigma, variance in ((+1, point.variance_plus), (-1, point.variance_minus)):
            w = np.array(
                [
                    a_coef * math.cos(phi) - sigma * b_coef * math.sin(phi),
                    a_coef * math.sin(phi) + sigma * b_coef * math.cos(phi),
                ]
            )
            expected = float(w @ sigma_mat @ w) + vacuum
            assert variance == pytest.approx(expected, rel=1e-12)


_EPS = sys.float_info.epsilon


def _variance_errors(t, kappa, u, r, theta_xi, phi):
    """(σ, relative error, variance, sensitivity) of both outcome variances."""
    params = SystemParams(kappa=kappa, vacuum_weight=u)
    point = _fields(t, ProbeState(alpha=1.0, r=r, theta_xi=theta_xi), params, phi)
    model = _evaluate("variance", point)
    for sigma, value in ((1, model.variance_plus), (-1, model.variance_minus)):
        exact, sensitivity = mp_outcome_variance(point, model, sigma)
        yield sigma, abs(value - exact) / exact, exact, sensitivity


@settings(max_examples=300, deadline=None)
@given(
    t=st.floats(min_value=0.05, max_value=5.0),
    kappa=st.floats(min_value=0.1, max_value=10.0),
    u=st.floats(min_value=1e-3, max_value=1.0),
    r=st.floats(min_value=0.0, max_value=20.0),
    theta_xi=st.floats(min_value=-20.0, max_value=20.0),
    phi=st.floats(min_value=-20.0, max_value=20.0),
)
def test_variance_matches_mpmath_at_any_squeezing_and_angle(t, kappa, u, r, theta_xi, phi):
    for sigma, error, exact, sensitivity in _variance_errors(t, kappa, u, r, theta_xi, phi):
        # a few roundings of each term, and the rounding of b_σ as amplified
        assert error * exact <= 4.0 * _EPS * (exact + sensitivity), (sigma, error)
        if sensitivity <= 30.0 * exact:  # well conditioned
            assert error <= 1e-14, (sigma, error)


@pytest.mark.parametrize("r", [0.74, 2.0, 5.0, 8.0, 12.0, 20.0])
@pytest.mark.parametrize("sigma", [1, -1])
def test_variance_near_the_cancelling_frame_matches_mpmath(r, sigma, t_matched):
    # at tan δ = −σB/A the anti-squeezed weight b_σ cancels; off it by up
    # to about e^{−2r} the anti-squeezed term is as large as the squeezed one
    rng = np.random.default_rng(int(10 * r) + sigma)
    _, _, a_coef, b_coef = _response(2.0, t_matched)
    for _ in range(100):
        offset = float(rng.uniform(-4.0, 4.0)) * math.exp(-2.0 * r)
        delta = math.atan2(-sigma * b_coef, a_coef) + offset
        phi = float(rng.uniform(-math.pi, math.pi))
        for s, error, exact, sensitivity in _variance_errors(
            t_matched, 2.0, 0.25, r, 2.0 * (phi - delta), phi
        ):
            if s == sigma:
                assert error * exact <= 4.0 * _EPS * (exact + sensitivity), (offset, error)
                # a small multiple of e^{2r}·ε, relative
                assert error <= 32.0 * math.exp(2.0 * r) * _EPS, (offset, error)


def test_vacuum_weight_enters_additively(t_matched, probe_matched):
    quarter = from_experimental(0.15, 2.0, 3.0, u=0.25)
    full = from_experimental(0.15, 2.0, 3.0, u=1.0)
    big_f, big_g, _, _ = _response(quarter.kappa, t_matched)
    delta = (
        readout_point(t_matched, probe_matched, full, PHI_DEFAULT).variance_plus
        - readout_point(t_matched, probe_matched, quarter, PHI_DEFAULT).variance_plus
    )
    assert delta == pytest.approx(
        0.75 * 0.5 * quarter.kappa * (big_f**2 + big_g**2), rel=1e-12
    )


def test_unsqueezed_variance_is_isotropic(t_matched, params_k2):
    base = ProbeState(alpha=10.0, theta_alpha=0.3, r=0.0, theta_xi=0.9)
    reference = readout_point(t_matched, base, params_k2, 1.1).variance_plus
    for theta_xi in (0.0, 1.7, -2.4):
        for phi in (0.0, 1.1, 2.2):
            probe = ProbeState(alpha=10.0, theta_alpha=0.3, theta_xi=theta_xi)
            point = readout_point(t_matched, probe, params_k2, phi)
            assert point.variance_plus == point.variance_minus == reference


def test_snr_frozen_values(t_matched, probe_matched, probe_coherent, params_k2):
    assert snr(t_matched, probe_matched, params_k2, PHI_DEFAULT) == pytest.approx(
        SNR_MATCHED_REF, rel=1e-12
    )
    assert snr(t_matched, probe_coherent, params_k2, PHI_DEFAULT) == pytest.approx(
        SNR_COHERENT_REF, rel=1e-12
    )


def test_snr_edge_cases(t_matched, params_k2):
    assert snr(t_matched, ProbeState(alpha=0.0, r=0.74), params_k2, PHI_DEFAULT) == 0.0
    with pytest.raises(UndefinedPointError):
        snr(0.0, ProbeState(alpha=10.0), params_k2, PHI_DEFAULT)
    with pytest.raises(UndefinedPointError):
        snr(-1.0, ProbeState(alpha=10.0), params_k2, PHI_DEFAULT)


def test_snr_is_linear_in_amplitude(t_matched, params_k2):
    base = snr(
        t_matched, ProbeState(alpha=1.0, r=0.74, theta_xi=math.pi), params_k2, PHI_DEFAULT
    )
    for alpha in (0.5, 2.0, 7.0, 12.0):
        scaled = snr(
            t_matched,
            ProbeState(alpha=alpha, r=0.74, theta_xi=math.pi),
            params_k2,
            PHI_DEFAULT,
        )
        assert scaled == pytest.approx(alpha * base, rel=1e-12)


def test_snr_invariant_under_unit_rescaling(t_matched, probe_matched):
    # chi_s t and kappa/chi_s fix every figure of merit; expressing the
    # same point in different unit systems must not move the answer
    for lam in (0.1, 3.7, 942477.7960769379):
        params = SystemParams(
            chi_s=lam, kappa=2.0 * lam, t1_intrinsic=2827.4333882308138 / lam
        )
        assert snr(t_matched / lam, probe_matched, params, PHI_DEFAULT) == pytest.approx(
            SNR_MATCHED_REF, rel=1e-12
        )


def test_matched_phase_maximizes_snr(t_matched, probe_matched, params_k2):
    best = snr(t_matched, probe_matched, params_k2, PHI_DEFAULT)
    for phi in np.linspace(-math.pi, math.pi, 181):
        assert snr(t_matched, probe_matched, params_k2, float(phi)) <= best * (
            1.0 + 1e-12
        )


def test_snr_has_half_turn_symmetry(t_matched, probe_matched, params_k2):
    for phi in (0.3, 1.2, 2.6):
        assert snr(t_matched, probe_matched, params_k2, phi) == pytest.approx(
            snr(t_matched, probe_matched, params_k2, phi + math.pi), rel=1e-12
        )


# at t = 0 no decay enters: fidelity(0, √2·x, T1) = erf(x)
SQRT2 = math.sqrt(2.0)


def test_fidelity_at_zero_time_is_erf():
    assert fidelity(0.0, 0.0, 1.0) == 0.0
    assert fidelity(0.0, SQRT2 * 1.0, 1.0) == pytest.approx(
        0.842700792949715, abs=1e-15
    )
    rng = np.random.default_rng(23)
    for _ in range(20):
        s = SQRT2 * float(rng.uniform(0.0, 5.0))
        assert fidelity(0.0, -s, 1.0) == -fidelity(0.0, s, 1.0)


def test_fidelity_at_zero_time_matches_mpmath_erf():
    for x in np.linspace(-6.0, 6.0, 241):
        reference = float(mpmath.erf(float(x)))
        value = fidelity(0.0, SQRT2 * float(x), 1.0)
        assert value == pytest.approx(reference, abs=1e-12)
    # no jump around |x| = 2
    for x in (1.9999, 2.0, 2.0001):
        reference = float(mpmath.erf(x))
        assert fidelity(0.0, SQRT2 * x, 1.0) == pytest.approx(reference, abs=1e-13)


def test_fidelity_saturates():
    assert fidelity(0.0, SQRT2 * 10.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(0.0, SQRT2 * -10.0, 1.0) == pytest.approx(-1.0, abs=1e-15)


def test_fidelity_matches_maclaurin_sum():
    # alternating Maclaurin series of erf summed with compensated addition
    x = 0.5
    terms = [
        (-1.0) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
        for n in range(30)
    ]
    reference = 2.0 / math.sqrt(math.pi) * math.fsum(terms)
    assert fidelity(0.0, SQRT2 * x, 1.0) == pytest.approx(reference, abs=1e-15)


def test_fidelity_properties(t_matched, params_k2):
    assert fidelity(t_matched, 0.0, params_k2.t1_intrinsic) == 0.0
    s = 3.0
    no_decay = fidelity(t_matched, s, 1e30)
    assert no_decay == pytest.approx(math.erf(s / math.sqrt(2.0)), rel=1e-12)
    assert fidelity(t_matched, s, params_k2.t1_intrinsic) < no_decay
    rng = np.random.default_rng(24)
    for _ in range(10):
        t = float(rng.uniform(0.1, 2.0))
        s = float(rng.uniform(0.0, 6.0))
        t1 = float(rng.uniform(50.0, 5000.0))
        expected = math.exp(-0.5 * t / t1) * math.erf(s / math.sqrt(2.0))
        assert fidelity(t, s, t1) == expected


def test_fidelity_frozen_value(t_matched, probe_matched, params_k2):
    s = snr(t_matched, probe_matched, params_k2, PHI_DEFAULT)
    assert fidelity(t_matched, s, params_k2.t1_intrinsic) == pytest.approx(
        FIDELITY_REF, rel=1e-12
    )


def test_fidelity_validation():
    with pytest.raises(ValidationError, match="t1_total"):
        fidelity(1.0, 3.0, 0.0)
    with pytest.raises(ValidationError, match="t must"):
        fidelity(-1.0, 3.0, 100.0)
    for snr_value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="snr_value"):
            fidelity(1.0, snr_value, 100.0)
    with pytest.warns(UserWarning, match="t << T1"):
        fidelity(20.0, 3.0, 100.0)


def test_optimal_time_estimate(units, params_k2):
    assert optimal_time_estimate(0.0, params_k2) == pytest.approx(
        math.sqrt(3.0), rel=1e-15
    )
    t_opt_us = units.to_physical_time(optimal_time_estimate(0.74, params_k2))
    assert t_opt_us == pytest.approx(0.8768222934485936, rel=1e-12)
    values = [optimal_time_estimate(r, params_k2) for r in (0.0, 0.4, 0.8, 1.2)]
    assert all(b < a for a, b in zip(values, values[1:]))
    with pytest.raises(ValidationError):
        optimal_time_estimate(-0.1, params_k2)


def test_optimal_squeezing_frozen_value(t_matched, params_k2):
    assert optimal_squeezing(t_matched, params_k2) == pytest.approx(
        R_STAR_REF, rel=1e-12
    )


def test_optimal_squeezing_agrees_with_grid_search(t_matched, params_k2):
    r_star = optimal_squeezing(t_matched, params_k2)
    grid = np.linspace(0.7, 0.8, 2001)
    values = [
        snr(
            t_matched,
            ProbeState(alpha=10.0, r=float(r), theta_xi=math.pi),
            params_k2,
            PHI_DEFAULT,
        )
        for r in grid
    ]
    assert abs(float(grid[int(np.argmax(values))]) - r_star) < 1e-4


def test_optimal_squeezing_independent_of_probe_and_vacuum(t_matched):
    # r* only balances the two coefficient magnitudes, so the additive
    # vacuum term and the displacement cannot move it
    quarter = from_experimental(0.15, 2.0, 3.0, u=0.25)
    full = from_experimental(0.15, 2.0, 3.0, u=1.0)
    assert optimal_squeezing(t_matched, quarter) == optimal_squeezing(t_matched, full)


def test_optimal_squeezing_invariant_under_unit_rescaling(t_matched):
    # A and B are read at kappa/chi_s and chi_s·t only
    for lam in (0.1, 3.7, 942477.7960769379):
        params = SystemParams(chi_s=lam, kappa=2.0 * lam)
        assert optimal_squeezing(t_matched / lam, params) == pytest.approx(
            R_STAR_REF, rel=1e-12
        )


@pytest.mark.parametrize("k", [-40, -1, 1, 40])
def test_a_power_of_two_unit_change_moves_no_bit(k, t_matched, probe_matched, params_k2):
    # kappa/chi_s, chi_s·t and chi_s·T1 are exact under chi_s -> 2^k·chi_s,
    # so every figure of merit comes out as the same double
    lam = 2.0**k
    scaled = SystemParams(
        chi_s=lam * params_k2.chi_s,
        kappa=lam * params_k2.kappa,
        t1_intrinsic=params_k2.t1_intrinsic / lam,
    )
    t = t_matched / lam
    base = readout_point(t_matched, probe_matched, params_k2, PHI_DEFAULT)
    assert readout_point(t, probe_matched, scaled, PHI_DEFAULT) == dataclasses.replace(
        base, t=t
    )
    assert optimal_squeezing(t, scaled) == optimal_squeezing(t_matched, params_k2)


def test_optimal_squeezing_past_the_double_range_is_a_numerical_error(t_matched):
    # B = kappa·∫G is subnormal, so A/B and r* = ½·ln(A/B) overflow
    params = SystemParams(chi_s=1.0, kappa=1e-320)
    a_coef, b_coef = _response(params.kappa, t_matched)[2:]
    with pytest.raises(NumericalError) as excinfo:
        optimal_squeezing(t_matched, params)
    assert str(excinfo.value) == (
        f"optimal squeezing ½·ln(A/B) overflows: got A = {a_coef!r} and B = {b_coef!r}"
    )


def test_optimal_squeezing_where_b_underflows_is_a_numerical_error():
    # at kappa = 2 chi_s, B ≈ kappa·t³/6 is subnormal at t = 1e-106 and
    # rounds to 0 by t = 1e-140, where A = t: A/B overflows, no optimum is lost
    params = SystemParams(kappa=2.0)
    assert 0.0 < _response(2.0, 1e-106)[3] < sys.float_info.min
    assert math.isfinite(optimal_squeezing(1e-106, params))
    assert _response(2.0, 1e-140)[2:] == (1e-140, 0.0)
    with pytest.raises(NumericalError) as excinfo:
        optimal_squeezing(1e-140, params)
    assert str(excinfo.value) == (
        "optimal squeezing ½·ln(A/B) overflows: got A = 1e-140 and B = 0.0"
    )


def test_optimal_squeezing_vanishes_past_coefficient_zero(params_k2):
    # at kappa = 2 chi_s, A = e^{-t} sin t goes negative after t = pi
    assert optimal_squeezing(4.0, params_k2) is None
    with pytest.raises(UndefinedPointError):
        optimal_squeezing(0.0, params_k2)


def test_phase_matching_residual_cases():
    res1, res2, matched = phase_matching_residual(0.0, math.pi, 0.5 * math.pi)
    assert matched and res1 < 1e-12 and res2 < 1e-12
    res1, res2, matched = phase_matching_residual(0.0, 0.0, 0.5 * math.pi)
    assert not matched
    assert res1 < 1e-12
    assert res2 == pytest.approx(0.5 * math.pi, rel=1e-12)
    _, _, matched = phase_matching_residual(0.5 * math.pi, 0.0, 0.0)
    assert matched


def test_phase_matching_residual_wraps():
    base = phase_matching_residual(0.4, 1.3, 2.2)
    shifted = phase_matching_residual(0.4 + 2.0 * math.pi, 1.3, 2.2 - 2.0 * math.pi)
    assert shifted[0] == pytest.approx(base[0], abs=1e-9)
    assert shifted[1] == pytest.approx(base[1], abs=1e-9)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("position,name", [(0, "theta_alpha"), (1, "theta_xi"), (2, "phi")])
def test_phase_matching_residual_rejects_a_non_finite_angle(position, name, value):
    angles = [0.0, math.pi, 0.5 * math.pi]
    angles[position] = value
    with pytest.raises(ValidationError) as excinfo:
        phase_matching_residual(*angles)
    assert str(excinfo.value) == f"{name} must be finite, got {value!r}"


def test_phase_matching_implies_combined_condition():
    rng = np.random.default_rng(25)
    for _ in range(25):
        theta_alpha = float(rng.uniform(-math.pi, math.pi))
        phi = theta_alpha - 0.5 * math.pi + math.pi * int(rng.integers(-2, 3))
        theta_xi = 2.0 * (phi - math.pi * int(rng.integers(-2, 3)))
        res1, res2, matched = phase_matching_residual(theta_alpha, theta_xi, phi)
        assert matched, (res1, res2)
        combined = abs(math.remainder(2.0 * theta_alpha - theta_xi - math.pi, 2.0 * math.pi))
        assert combined < 1e-8


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_non_finite_phi_is_rejected(t_matched, probe_matched, params_k2, phi):
    args = (t_matched, probe_matched, params_k2, phi)
    for call in (
        lambda: snr(*args),
        lambda: readout_point(*args),
        lambda: SweepFixed(params=params_k2, probe=probe_matched, phi=phi, t=t_matched),
    ):
        with pytest.raises(ValidationError, match="phi"):
            call()


def test_readout_point_is_self_consistent(t_matched, probe_matched, params_k2):
    point = readout_point(t_matched, probe_matched, params_k2, PHI_DEFAULT)
    assert point.snr == pytest.approx(
        point.contrast
        / (math.sqrt(point.variance_plus) + math.sqrt(point.variance_minus)),
        rel=1e-14,
    )
    assert point.snr == pytest.approx(SNR_MATCHED_REF, rel=1e-12)
    assert point.fidelity == pytest.approx(FIDELITY_REF, rel=1e-12)
    assert point.lo_phase == PHI_DEFAULT
    wrapped = readout_point(
        t_matched, probe_matched, params_k2, PHI_DEFAULT + 2.0 * math.pi
    )
    assert wrapped.lo_phase == pytest.approx(PHI_DEFAULT, abs=1e-12)


def test_readout_point_t1_override(t_matched, probe_matched, params_k2):
    default = readout_point(t_matched, probe_matched, params_k2, PHI_DEFAULT)
    shorter = readout_point(
        t_matched, probe_matched, params_k2, PHI_DEFAULT, t1_total=100.0
    )
    assert shorter.fidelity < default.fidelity
    assert shorter.snr == default.snr


@pytest.mark.parametrize("t1_total", ["3", -1.0, 0.0, math.inf, math.nan])
def test_readout_point_checks_t1_total(t_matched, probe_matched, params_k2, t1_total):
    args = (t_matched, probe_matched, params_k2, PHI_DEFAULT)
    with pytest.raises(ValidationError) as excinfo:
        readout_point(*args, t1_total=t1_total)
    if type(t1_total) is float:
        assert str(excinfo.value) == f"t1_total must be positive and finite, got {t1_total!r}"


@pytest.mark.parametrize(
    "chi_s,t1_total,fault",
    [(1e-300, 1e-300, "underflows to 0"), (1e300, 1e300, "overflows")],
)
def test_readout_point_t1_total_in_internal_time_is_a_numerical_error(
    probe_matched, chi_s, t1_total, fault
):
    params = SystemParams(chi_s=chi_s, kappa=2.0 * chi_s)
    with pytest.raises(NumericalError) as excinfo:
        readout_point(1.0 / chi_s, probe_matched, params, PHI_DEFAULT, t1_total=t1_total)
    assert str(excinfo.value) == (
        f"chi_s·t1_total {fault}: chi_s = {chi_s!r}, t1_total = {t1_total!r}"
    )


def test_readout_point_mean_that_overflows_is_a_numerical_error():
    # A ≈ t = 100 at kappa = 0.01 chi_s: A·√2·alpha overflows, while the
    # contrast, which reads B ≈ 1 and a mismatch of 1e-15, stays finite
    probe = ProbeState(alpha=6e307, theta_alpha=0.5 * math.pi + 1e-15, r=0.5)
    args = (100.0, probe, SystemParams(kappa=0.01), 0.5 * math.pi)
    assert math.isfinite(snr(*args))
    with pytest.raises(NumericalError) as error:
        readout_point(*args)
    assert str(error.value) == "outcome mean overflows: got inf and inf"


_TOO_SMALL = "kappa*chi_s is too small: optimal time estimate overflows"
_TOO_LARGE = "r = {} or kappa*chi_s is too large: optimal time estimate underflows to 0"


@pytest.mark.parametrize(
    "r,chi_s,kappa,message",
    [
        (0.0, 1e-300, 1e-300, _TOO_SMALL),
        (0.0, 1.0, 1e-320, _TOO_SMALL),
        (800.0, 1.0, 2.0, _TOO_LARGE.format(800.0)),
        (0.5, 1e200, 1e200, _TOO_LARGE.format(0.5)),
    ],
    ids=["underflow", "overflow", "exp-r-underflows", "product-overflows"],
)
def test_optimal_time_estimate_past_the_double_range_is_a_numerical_error(
    r, chi_s, kappa, message
):
    # kappa*chi_s underflows to 0, or 6/(kappa*chi_s) overflows to inf; the
    # estimate underflows to 0 at e^-800, or where kappa*chi_s is inf
    with pytest.raises(NumericalError) as excinfo:
        optimal_time_estimate(r, SystemParams(chi_s=chi_s, kappa=kappa))
    assert str(excinfo.value) == message


# every double a field accepts, from the smallest subnormal to the top of the range
_rate = st.floats(min_value=5e-324, max_value=1.7e308)
_nonnegative = st.floats(min_value=0.0, max_value=1.7e308)
_angle = st.floats(min_value=-1.7e308, max_value=1.7e308)
_domain = {
    "t": _nonnegative,
    "chi_s": _rate,
    "kappa": _rate,
    "u": _rate,
    "t1": _rate,
    "alpha": _nonnegative,
    "r": _nonnegative,
    "theta_alpha": _angle,
    "theta_xi": _angle,
    "phi": _angle,
}


def _operating_point(t, chi_s, kappa, u, t1, alpha, r, theta_alpha, theta_xi, phi):
    params = SystemParams(chi_s=chi_s, kappa=kappa, t1_intrinsic=t1, vacuum_weight=u)
    probe = ProbeState(alpha=alpha, theta_alpha=theta_alpha, r=r, theta_xi=theta_xi)
    return t, probe, params, phi


@settings(max_examples=400, deadline=None)
@given(**_domain)
def test_every_call_is_finite_or_a_readout_error_over_the_accepted_domain(**point):
    t, probe, params, phi = _operating_point(**point)
    calls = (
        lambda: (optimal_squeezing(t, params),),
        lambda: dataclasses.astuple(readout_point(t, probe, params, phi)),
        lambda: tuple(_evaluate("variance", _fields(t, probe, params, phi))[1:7]),
    )
    for call in calls:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # fidelity past t/T1 = 0.1
                values = call()
        except ReadoutError as error:
            # every input is valid, so a failure is numerical, never a ValidationError
            assert not isinstance(error, ValidationError), error
            continue
        assert all(v is None or math.isfinite(v) for v in values), values


@settings(max_examples=400, deadline=None)
@given(**_domain)
def test_variances_are_at_least_the_vacuum_term_over_the_accepted_domain(**point):
    try:
        fields = _fields(*_operating_point(**point))
        model = _evaluate("variance", fields)
    except ReadoutError:  # κ/χs and χs·T1, too, may leave the double range
        return
    big_f, big_g = model.big_f, model.big_g
    vacuum = fields.u * 0.5 * fields.kappa * (big_f * big_f + big_g * big_g)
    assert model.variance_plus >= vacuum
    assert model.variance_minus >= vacuum


@settings(max_examples=400, deadline=None)
@given(
    t=st.floats(min_value=1e-3, max_value=10.0),
    kappa=st.floats(min_value=0.1, max_value=10.0),
    u=st.floats(min_value=1e-3, max_value=1.0),
    alpha=st.floats(min_value=0.1, max_value=100.0),
    r=st.floats(min_value=0.0, max_value=20.0),
    theta_alpha=st.floats(min_value=-20.0, max_value=20.0),
    phi=st.floats(min_value=-20.0, max_value=20.0),
    mismatch=st.floats(min_value=-20.0, max_value=20.0),
)
def test_snr_is_pi_periodic_in_the_mismatch(t, kappa, u, alpha, r, theta_alpha, phi, mismatch):
    params = SystemParams(kappa=kappa, vacuum_weight=u)

    def at(x):
        probe = ProbeState(alpha=alpha, theta_alpha=theta_alpha, r=r, theta_xi=2.0 * (phi - x))
        return snr(t, probe, params, phi)

    here, there = at(mismatch), at(mismatch + math.pi)
    # the two squeezing phases 2(φ − δθ) round apart by a few ε·(|φ| + |δθ| + π);
    # near the frame of least noise the SNR amplifies that by up to e^{2r}
    bound = 2.0 * math.exp(2.0 * r) * _EPS * (abs(phi) + abs(mismatch) + 4.0)
    assert abs(here - there) <= bound * here, (here, there)
