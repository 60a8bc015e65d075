import dataclasses
import math

import numpy as np
import pytest
from conftest import PHI_DEFAULT

from squeezed_readout import (
    GENERATOR_ID,
    NumericalError,
    ProbeState,
    SystemParams,
    ValidationError,
    classify,
    fidelity,
    input_covariance,
    integrated_variance,
    measurement_mean,
    sample_shots,
    signal_coefficients,
    snr,
)

SEED = 987654321


def test_batches_are_deterministic(t_matched, probe_matched, params_k2):
    a = sample_shots(5000, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    b = sample_shots(5000, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    assert np.array_equal(a.outcomes_plus, b.outcomes_plus)
    assert np.array_equal(a.outcomes_minus, b.outcomes_minus)
    c = sample_shots(5000, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED + 1)
    assert not np.array_equal(a.outcomes_plus, c.outcomes_plus)
    assert not np.array_equal(a.outcomes_plus, a.outcomes_minus)
    assert a.generator_id == GENERATOR_ID


def test_block_layout_makes_prefixes_stable(t_matched, probe_matched, params_k2):
    # each 8192-shot block owns a fixed generator sub-stream, so asking
    # for more shots extends a batch without rewriting its beginning
    short = sample_shots(8192, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    long = sample_shots(10000, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    assert np.array_equal(short.outcomes_plus, long.outcomes_plus[:8192])
    assert np.array_equal(short.outcomes_minus, long.outcomes_minus[:8192])


def test_sampler_draws_follow_probe_covariance(t_matched):
    # sample the same seed at two LO angles to see both output
    # quadratures per shot, then invert the deterministic linear map to
    # recover the raw probe draws and compare their moments with the
    # configured covariance
    params = SystemParams(chi_s=1.0, kappa=2.0, vacuum_weight=1e-12)
    probe = ProbeState(alpha=3.0, theta_alpha=0.7, r=0.6, theta_xi=1.1)
    n = 200000
    m_q = sample_shots(n, t_matched, probe, params, 0.0, SEED).outcomes_plus
    m_p = sample_shots(n, t_matched, probe, params, 0.5 * math.pi, SEED).outcomes_plus
    a_coef, b_coef = signal_coefficients(t_matched, params)
    det = a_coef**2 + b_coef**2
    q = (a_coef * m_q - b_coef * m_p) / det
    p = (b_coef * m_q + a_coef * m_p) / det

    stats = input_covariance(probe)
    assert float(np.mean(q)) == pytest.approx(
        stats.mean_q, abs=5.0 * math.sqrt(stats.var_q / n)
    )
    assert float(np.mean(p)) == pytest.approx(
        stats.mean_p, abs=5.0 * math.sqrt(stats.var_p / n)
    )
    assert float(np.var(q, ddof=1)) == pytest.approx(
        stats.var_q, abs=5.0 * stats.var_q * math.sqrt(2.0 / n)
    )
    assert float(np.var(p, ddof=1)) == pytest.approx(
        stats.var_p, abs=5.0 * stats.var_p * math.sqrt(2.0 / n)
    )
    sample_cov = float(np.cov(q, p, ddof=1)[0, 1])
    cov_se = math.sqrt((stats.var_q * stats.var_p + stats.cov_qp**2) / n)
    assert sample_cov == pytest.approx(stats.cov_qp, abs=5.0 * cov_se)


def test_classification_matches_analytic_model(t_matched, probe_matched, params_k2):
    n = 100000
    batch = sample_shots(n, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    result = classify(batch)

    analytic = snr(t_matched, probe_matched, params_k2, PHI_DEFAULT)
    v_plus = integrated_variance(t_matched, probe_matched, params_k2, PHI_DEFAULT, +1)
    v_minus = integrated_variance(t_matched, probe_matched, params_k2, PHI_DEFAULT, -1)
    sd_sum = math.sqrt(v_plus) + math.sqrt(v_minus)
    snr_se = math.sqrt((v_plus + v_minus) * (1.0 + 0.5 * analytic**2) / n) / sd_sum
    assert result.empirical_snr == pytest.approx(analytic, abs=5.0 * snr_se)

    p_err = 0.5 * (1.0 - math.erf(analytic / math.sqrt(2.0)))
    binom_se = math.sqrt(p_err * (1.0 - p_err) / n)
    assert result.error_plus == pytest.approx(p_err, abs=5.0 * binom_se + 1e-9)
    assert result.error_minus == pytest.approx(p_err, abs=5.0 * binom_se + 1e-9)
    assert abs(result.error_plus - result.error_minus) < 1e-3

    analytic_fid = fidelity(t_matched, analytic, params_k2.t1_intrinsic)
    assert result.empirical_fidelity == pytest.approx(analytic_fid, abs=2e-3)


def test_empirical_fidelity_bookkeeping(t_matched, probe_matched, params_k2):
    batch = sample_shots(20000, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    result = classify(batch)
    survival = math.exp(-0.5 * t_matched / params_k2.t1_intrinsic)
    assert result.empirical_fidelity == pytest.approx(
        (1.0 - result.error_plus - result.error_minus) * survival, rel=1e-14
    )
    assert classify(
        batch, t1=params_k2.t1_intrinsic
    ).empirical_fidelity == pytest.approx(result.empirical_fidelity, rel=1e-14)
    no_decay = classify(batch, t1=1e9)
    assert no_decay.empirical_fidelity == pytest.approx(
        1.0 - result.error_plus - result.error_minus, rel=1e-9
    )
    assert no_decay.threshold == result.threshold
    with pytest.raises(ValidationError):
        classify(batch, t1=0.0)


def test_likelihood_threshold_with_unequal_variances(t_matched, params_k2):
    # a squeezing ellipse tilted against the LO makes the sigma = +1 and
    # -1 variances differ, moving the equal-density point off midpoint
    probe = ProbeState(alpha=10.0, theta_alpha=0.0, r=0.74, theta_xi=0.5 * math.pi)
    v_plus = integrated_variance(t_matched, probe, params_k2, PHI_DEFAULT, +1)
    v_minus = integrated_variance(t_matched, probe, params_k2, PHI_DEFAULT, -1)
    assert abs(v_plus - v_minus) > 1e-3

    batch = sample_shots(20000, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    midpoint = classify(batch, threshold_policy="midpoint")
    likelihood = classify(batch, threshold_policy="likelihood")
    m_plus = measurement_mean(t_matched, probe, params_k2, PHI_DEFAULT, +1)
    m_minus = measurement_mean(t_matched, probe, params_k2, PHI_DEFAULT, -1)
    assert midpoint.threshold == pytest.approx(0.5 * (m_plus + m_minus), rel=1e-14)
    assert likelihood.threshold != midpoint.threshold
    lo, hi = sorted((m_plus, m_minus))
    assert lo < likelihood.threshold < hi
    with pytest.raises(ValidationError, match="threshold_policy"):
        classify(batch, threshold_policy="otsu")


def test_degenerate_batch_is_rejected(t_matched, probe_matched, params_k2):
    batch = sample_shots(100, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    frozen = dataclasses.replace(
        batch, outcomes_plus=np.zeros(100), outcomes_minus=np.zeros(100)
    )
    with pytest.raises(NumericalError, match="zero spread"):
        classify(frozen)


def test_sample_shots_validation(t_matched, probe_matched, params_k2):
    with pytest.raises(ValidationError, match="n must"):
        sample_shots(0, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    with pytest.raises(ValidationError, match="n must"):
        sample_shots(1.5, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    with pytest.raises(ValidationError, match="t must"):
        sample_shots(100, 0.0, probe_matched, params_k2, PHI_DEFAULT, SEED)
    with pytest.raises(ValidationError, match="seed"):
        sample_shots(100, t_matched, probe_matched, params_k2, PHI_DEFAULT, -1)
    with pytest.raises(ValidationError, match="seed"):
        sample_shots(100, t_matched, probe_matched, params_k2, PHI_DEFAULT, 2**128)
    with pytest.raises(ValidationError, match="phi"):
        sample_shots(100, t_matched, probe_matched, params_k2, PHI_DEFAULT * math.nan, SEED)


def test_vacuum_probe_outcomes_are_symmetric(t_matched, params_k2):
    # with no displacement and no squeezing the two eigenvalues produce
    # identically distributed outcomes
    probe = ProbeState(alpha=0.0, r=0.0)
    n = 100000
    batch = sample_shots(n, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    v = integrated_variance(t_matched, probe, params_k2, PHI_DEFAULT, +1)
    mean_se = math.sqrt(v / n)
    assert float(np.mean(batch.outcomes_plus)) == pytest.approx(0.0, abs=5 * mean_se)
    assert float(np.mean(batch.outcomes_minus)) == pytest.approx(0.0, abs=5 * mean_se)
    var_se = v * math.sqrt(2.0 / n)
    assert float(np.var(batch.outcomes_plus, ddof=1)) == pytest.approx(v, abs=5 * var_se)
    assert float(np.var(batch.outcomes_minus, ddof=1)) == pytest.approx(v, abs=5 * var_se)
