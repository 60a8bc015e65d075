import dataclasses
import hashlib
import math
import os
import sys

import numpy as np
import pytest
from conftest import PHI_DEFAULT

from squeezed_readout import (
    GENERATOR_ID,
    MAX_SHOTS,
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
from squeezed_readout import shots

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


# sha256 of the outcome bytes of the serial sampler at a point where every
# term of the linear map counts (correlated probe quadratures, an LO angle
# off the axes); a change to the draws, the block layout or the order of
# the map's operations changes them
BIG_SEED = 2**127 + 12345
PINNED_STREAMS = {
    (SEED, 1): (
        "329a75e24364162b938e58811e1585855f2cb17a8daa83649788507273d2cea3",
        "04849d0a9ee18594172d48a258ea5bffb45d8f534ba0808655869839fd3a4a99",
    ),
    (SEED, 8_191): (
        "5a5f8ffc73131c4b1e7f4f9eea870d863bb94c2979ccc072ffceaadd8f291ada",
        "52f0446fed22e79ebbbee8c2c60ff847d58034f6293454a6604f98075bb26357",
    ),
    (SEED, 8_192): (
        "197127b631792a830b509888dd820c38c8f2ff020eaccecde4f1404084c96ad6",
        "43e7c607101ddf1ff9d52b96435a6997983412b6f44085e6a0c77f96a767381d",
    ),
    (SEED, 8_193): (
        "4ff6e55f945899b0a8364ab58e7169f2b097886749ac2215cfdb400b828d46aa",
        "c5bfdb681f5a6f564ee4d512a32103e86158583a94854e59e7feade2319d2ffa",
    ),
    (SEED, 100_003): (
        "91157a17c7c507642c99b050dee72e5e74846b671208c8224e0f1544845e162a",
        "837872305bef05dd01d9f497112a8af3de799c83b1e7c65f14cdcb2f56100fcd",
    ),
    (BIG_SEED, 1): (
        "0f53ea038e824c1a44e514bb4043b8bbde1cba405348332ef1692283caa6769b",
        "1156af2f1273257fa0a5dac912c55231a39b135dcdf32afeb20777b0a77e66a6",
    ),
    (BIG_SEED, 8_191): (
        "96a1ad01f6133320dec207d1713c68cae93de5742d4ad7d2713e9f3f61f2838d",
        "e2205c94349cddbb0d10656914478d530116c9c2333187d1a220fcadf5f721d1",
    ),
    (BIG_SEED, 8_192): (
        "d417f3851b2d44e14c2f55297ecf0dcef82bd4a5743c66417d16630775988b1f",
        "f84c3c0cfa8015323261f30d0aa6c6af1fe2c2b524d6815814368f0e7f7a20a4",
    ),
    (BIG_SEED, 8_193): (
        "b8d0c599de5323e7fcc22a592b1953b550618dfbba6ada58a844622e71277a0f",
        "86625560d25b1999d09b54c392266e026d43d7e9a85dd8875faa69725d6aad32",
    ),
    (BIG_SEED, 100_003): (
        "51c7b753eaae6a4be3925b534f99d8d84255791e0132320631702da975a3fbe5",
        "b22a3d6bf0208be9ab2f26a777c369cd4936377f44fa9d40aad92cebeaaa2797",
    ),
}


@pytest.mark.parametrize(("seed", "n"), list(PINNED_STREAMS))
def test_shot_stream_is_pinned(seed, n, t_matched, params_k2):
    probe = ProbeState(alpha=3.0, theta_alpha=0.7, r=0.6, theta_xi=1.1)
    batch = sample_shots(n, t_matched, probe, params_k2, 1.2, seed)
    digests = tuple(
        hashlib.sha256(outcomes.tobytes()).hexdigest()
        for outcomes in (batch.outcomes_plus, batch.outcomes_minus)
    )
    assert digests == PINNED_STREAMS[seed, n]


def test_output_does_not_depend_on_worker_count(
    monkeypatch, t_matched, probe_matched, params_k2
):
    args = (t_matched, probe_matched, params_k2, PHI_DEFAULT)
    for seed in (0, 1, SEED, 2**64 + 3, 2**128 - 1):
        for n in (1, 8191, 8192, 8193, 1_000_003):
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
            serial = sample_shots(n, *args, seed)
            for cpus in (None, 2, 3):
                monkeypatch.setattr(os, "cpu_count", lambda: cpus)
                batch = sample_shots(n, *args, seed)
                assert np.array_equal(batch.outcomes_plus, serial.outcomes_plus)
                assert np.array_equal(batch.outcomes_minus, serial.outcomes_minus)


def test_more_workers_than_cores_under_frequent_switches(
    monkeypatch, t_matched, probe_matched, params_k2
):
    # eight workers share the output arrays and the base generator; a
    # thread switch every microsecond interleaves them as much as the
    # interpreter allows, and a lost or misplaced block would show as a
    # difference from the one-worker stream
    args = (100_003, t_matched, probe_matched, params_k2, PHI_DEFAULT)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = [sample_shots(*args, seed) for seed in range(3)]
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = [sample_shots(*args, seed) for seed in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.outcomes_plus, b.outcomes_plus)
        assert np.array_equal(a.outcomes_minus, b.outcomes_minus)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_block_task_exception_reaches_the_caller(
    cpus, monkeypatch, t_matched, probe_matched, params_k2
):
    # the failing block is the last of six tasks, which is not worker 0's
    # when there are two or three workers
    fill = shots._fill_block

    def failing(out, sigma, block, *rest):
        if (sigma, block) == (-1, 2):
            raise RuntimeError("block (-1, 2) failed")
        fill(out, sigma, block, *rest)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(shots, "_fill_block", failing)
    with pytest.raises(RuntimeError, match=r"block \(-1, 2\) failed"):
        sample_shots(3 * 8192, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)


def test_n_above_the_cap_is_rejected_before_allocating(
    monkeypatch, t_matched, probe_matched, params_k2
):
    def no_allocation(*args, **kwargs):
        raise AssertionError("sample_shots allocated before checking n")

    monkeypatch.setattr(np, "empty", no_allocation)
    for n in (MAX_SHOTS + 1, 10**13):
        with pytest.raises(ValidationError, match=f"MAX_SHOTS = {2**26} "):
            sample_shots(n, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
