import dataclasses
import math

import numpy as np
import pytest
from conftest import PHI_DEFAULT
from helpers import displacement_from_squeezed_coherent, input_covariance, rotated_moments

from squeezed_readout import (
    NumericalError,
    ProbeState,
    ValidationError,
    mean_photon_number,
    readout_point,
)


def test_means_unaffected_by_squeezing(t_matched, params_k2):
    base = ProbeState(alpha=3.0, theta_alpha=0.8)
    squeezed = dataclasses.replace(base, r=1.4, theta_xi=2.2)
    for phi in (0.0, PHI_DEFAULT, 2.9):
        plain = readout_point(t_matched, base, params_k2, phi)
        point = readout_point(t_matched, squeezed, params_k2, phi)
        assert (point.mean_plus, point.mean_minus) == (plain.mean_plus, plain.mean_minus)


def test_vacuum_covariance():
    stats = input_covariance(ProbeState(alpha=1.0, r=0.0))
    assert stats.var_q == 0.5
    assert stats.var_p == 0.5
    assert stats.cov_qp == pytest.approx(0.0, abs=1e-15)


def test_covariance_squeezed_p_quadrature():
    stats = input_covariance(ProbeState(alpha=0.0, r=0.85, theta_xi=math.pi))
    assert stats.var_p == pytest.approx(0.5 * math.exp(-1.7), rel=1e-14)
    assert stats.var_q == pytest.approx(0.5 * math.exp(1.7), rel=1e-14)
    assert stats.cov_qp == pytest.approx(0.0, abs=1e-12)


def test_covariance_rotated_squeezing_axis():
    stats = input_covariance(ProbeState(alpha=0.0, r=0.5, theta_xi=0.5 * math.pi))
    assert stats.var_q == pytest.approx(0.5 * math.cosh(1.0), rel=1e-14)
    assert stats.var_p == pytest.approx(0.5 * math.cosh(1.0), rel=1e-14)
    assert stats.cov_qp == pytest.approx(-0.5 * math.sinh(1.0), rel=1e-14)
    assert stats.determinant == pytest.approx(0.25, abs=2.5e-13)


def test_purity_determinant_is_quarter():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        probe = ProbeState(
            alpha=float(rng.uniform(0.0, 12.0)),
            theta_alpha=float(rng.uniform(-math.pi, math.pi)),
            r=float(rng.uniform(0.0, 2.0)),
            theta_xi=float(rng.uniform(-math.pi, math.pi)),
        )
        det = input_covariance(probe).determinant
        assert abs(det - 0.25) <= 0.25 * 1e-12


def test_rotated_variance_matches_matrix_rotation():
    rng = np.random.default_rng(99)
    for _ in range(200):
        probe = ProbeState(
            alpha=1.0,
            r=float(rng.uniform(0.0, 2.0)),
            theta_xi=float(rng.uniform(-math.pi, math.pi)),
        )
        phi = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        stats = input_covariance(probe)
        c, s = math.cos(phi), math.sin(phi)
        expected_var = (
            stats.var_q * c * c + stats.var_p * s * s + 2.0 * stats.cov_qp * s * c
        )
        expected_var_p = (
            stats.var_q * s * s + stats.var_p * c * c - 2.0 * stats.cov_qp * s * c
        )
        expected_cov = s * c * (stats.var_p - stats.var_q) + (
            c * c - s * s
        ) * stats.cov_qp
        var_q_rot, var_p_rot, cov_rot = rotated_moments(probe.r, probe.theta_xi, phi)
        assert var_q_rot == pytest.approx(expected_var, rel=1e-12, abs=1e-12)
        assert var_p_rot == pytest.approx(expected_var_p, rel=1e-12, abs=1e-12)
        assert cov_rot == pytest.approx(expected_cov, rel=1e-12, abs=1e-12)


def test_rotated_variance_special_angles():
    for r in (0.3, 0.85, 1.6):
        probe = ProbeState(alpha=0.0, r=r, theta_xi=math.pi)
        assert rotated_moments(probe.r, probe.theta_xi, 0.5 * math.pi)[0] == (
            pytest.approx(0.5 * math.exp(-2.0 * r), rel=1e-13)
        )
        assert rotated_moments(probe.r, probe.theta_xi, 0.0)[0] == pytest.approx(
            0.5 * math.exp(2.0 * r), rel=1e-13
        )
    vacuum = ProbeState(alpha=0.0, r=0.0)
    for phi in (0.0, 0.4, 1.1, 2.9):
        assert rotated_moments(vacuum.r, vacuum.theta_xi, phi)[0] == 0.5


def test_rotated_covariance_reduces_to_plain_covariance():
    probe = ProbeState(alpha=0.0, r=0.9, theta_xi=1.1)
    stats = input_covariance(probe)
    assert rotated_moments(probe.r, probe.theta_xi, 0.0)[2] == pytest.approx(
        stats.cov_qp, rel=1e-13
    )
    assert rotated_moments(probe.r, probe.theta_xi, 0.5 * math.pi)[2] == (
        pytest.approx(-stats.cov_qp, rel=1e-13)
    )


def test_sampling_oracle_reproduces_moments():
    probe = ProbeState(alpha=4.0, theta_alpha=0.7, r=0.8, theta_xi=1.9)
    stats = input_covariance(probe)
    cov = np.array([[stats.var_q, stats.cov_qp], [stats.cov_qp, stats.var_p]])
    n = 1_000_000
    rng = np.random.default_rng(2024)
    draws = rng.multivariate_normal([stats.mean_q, stats.mean_p], cov, size=n)
    sample_mean = draws.mean(axis=0)
    sample_cov = np.cov(draws.T)
    se_mean_q = math.sqrt(stats.var_q / n)
    se_mean_p = math.sqrt(stats.var_p / n)
    assert abs(sample_mean[0] - stats.mean_q) < 5.0 * se_mean_q
    assert abs(sample_mean[1] - stats.mean_p) < 5.0 * se_mean_p
    assert abs(sample_cov[0, 0] - stats.var_q) < 5.0 * stats.var_q * math.sqrt(2.0 / n)
    assert abs(sample_cov[1, 1] - stats.var_p) < 5.0 * stats.var_p * math.sqrt(2.0 / n)
    se_cov = math.sqrt((stats.var_q * stats.var_p + stats.cov_qp**2) / n)
    assert abs(sample_cov[0, 1] - stats.cov_qp) < 5.0 * se_cov


def test_displacement_conversion_limits():
    gamma = 1.7 - 0.4j
    assert displacement_from_squeezed_coherent(gamma, 0.0, 2.2) == gamma
    # real gamma with the squeezing axis along P amplifies the displacement
    alpha = displacement_from_squeezed_coherent(2.0 + 0.0j, 0.6, math.pi)
    assert alpha.real == pytest.approx(2.0 * math.exp(0.6), rel=1e-13)
    assert alpha.imag == pytest.approx(0.0, abs=1e-12)
    alpha = displacement_from_squeezed_coherent(3.0j, 0.45, 0.0)
    assert alpha.real == pytest.approx(0.0, abs=1e-12)
    assert alpha.imag == pytest.approx(3.0 * math.exp(0.45), rel=1e-13)


def test_displacement_round_trip_for_squeezed_p_convention():
    # gamma = alpha e^{-r} prepared as a squeezed coherent state displaces
    # to alpha once theta_xi = pi
    r = 0.74
    target = 10.0
    gamma = target * math.exp(-r)
    alpha = displacement_from_squeezed_coherent(gamma + 0.0j, r, math.pi)
    assert alpha.real == pytest.approx(target, rel=1e-13)


def test_displacement_rejects_negative_r():
    with pytest.raises(ValidationError, match="r"):
        displacement_from_squeezed_coherent(1.0 + 0.0j, -0.2, 0.0)


def test_mean_photon_number():
    assert mean_photon_number(ProbeState(alpha=math.sqrt(30.0), r=0.0)) == pytest.approx(
        30.0, rel=1e-14
    )
    assert mean_photon_number(ProbeState(alpha=0.0, r=0.0)) == 0.0
    assert mean_photon_number(ProbeState(alpha=0.0, r=1.0)) == pytest.approx(
        math.sinh(1.0) ** 2, rel=1e-14
    )


def test_probe_state_wraps_phases():
    probe = ProbeState(alpha=1.0, theta_alpha=3.0 * math.pi, theta_xi=-3.0 * math.pi)
    assert probe.theta_alpha == pytest.approx(math.pi, abs=1e-12)
    assert -math.pi < probe.theta_xi <= math.pi


def test_probe_state_validation():
    with pytest.raises(ValidationError, match="alpha"):
        ProbeState(alpha=-1.0)
    with pytest.raises(ValidationError, match="r"):
        ProbeState(alpha=1.0, r=-0.5)
    with pytest.raises(ValidationError, match="theta_xi"):
        ProbeState(alpha=1.0, theta_xi=float("nan"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ProbeState(alpha=1.0).alpha = 2.0


def test_mean_photon_number_overflow_is_a_numerical_error():
    # sinh²r overflows a double above r = 355, sinh r itself above r = 710;
    # at alpha = 1.23e154, r = 355.4 each term is finite and their sum is not
    for alpha, r in ((10.0, 400.0), (10.0, 800.0), (1.23e154, 355.4)):
        with pytest.raises(NumericalError, match="mean photon number overflows"):
            mean_photon_number(ProbeState(alpha=alpha, r=r))
