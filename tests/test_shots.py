import dataclasses
import hashlib
import math
import os
import sys

import numpy as np
import pytest
from conftest import PHI_DEFAULT
from helpers import input_covariance

from squeezed_readout import (
    BLOCK_SIZE,
    GENERATOR_ID,
    MAX_SHOTS,
    NumericalError,
    ProbeState,
    SystemParams,
    ValidationError,
    classify,
    fidelity,
    integrated_variance,
    measurement_mean,
    sample_shots,
    signal_coefficients,
    snr,
)
from squeezed_readout import shots
from squeezed_readout.metrics import _evaluate, _fields

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


def test_one_shot_batch_samples_but_does_not_classify(
    t_matched, probe_matched, params_k2
):
    # one shot has no sample standard deviation, so no empirical SNR
    batch = sample_shots(1, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    assert batch.outcomes_plus.shape == batch.outcomes_minus.shape == (1,)
    with pytest.raises(ValidationError, match="needs at least 2"):
        classify(batch)
    pair = sample_shots(2, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    assert math.isfinite(classify(pair).empirical_snr)


@pytest.mark.parametrize("r", [0.0, 0.74, 10.0, 50.0, 300.0])
@pytest.mark.parametrize("theta_xi", [2.0 * PHI_DEFAULT, 1.1], ids=["aligned", "tilted"])
def test_moments_match_closed_forms_at_any_squeezing(r, theta_xi, t_matched, params_k2):
    # the squeezed variance e^{-2r}/2 is below the rounding of cosh 2r
    # from r ~ 10 on; drawing along the ellipse axes never forms it
    probe = ProbeState(alpha=10.0, theta_alpha=0.0, r=r, theta_xi=theta_xi)
    n = 200_000
    batch = sample_shots(n, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    for sigma, outcomes in ((1, batch.outcomes_plus), (-1, batch.outcomes_minus)):
        mean = measurement_mean(t_matched, probe, params_k2, PHI_DEFAULT, sigma)
        var = integrated_variance(t_matched, probe, params_k2, PHI_DEFAULT, sigma)
        mean_z = (float(np.mean(outcomes)) - mean) / math.sqrt(var / n)
        var_z = (float(np.var(outcomes, ddof=1)) - var) / (var * math.sqrt(2.0 / (n - 1)))
        assert abs(mean_z) < 5.0, (sigma, mean_z)
        assert abs(var_z) < 5.0, (sigma, var_z)


def test_overflowing_outcome_variance_is_a_numerical_error(params_k2):
    # the weight e^{r}·B/√2 is finite here but the variance e^{2r}·B²/2 is not
    probe = ProbeState(alpha=10.0, r=300.0, theta_xi=1.1)
    with pytest.raises(NumericalError, match="outcome variance overflows"):
        sample_shots(100, 1e150, probe, params_k2, PHI_DEFAULT, SEED)


def test_overflowing_batch_statistics_are_a_numerical_error(t_matched, params_k2):
    # every outcome is finite, but the sums inside their mean and std are
    # not; a numpy overflow warning would fail this test as an error
    probe = ProbeState(alpha=1e308, r=0.74, theta_xi=math.pi)
    batch = sample_shots(1000, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    assert np.isfinite(batch.outcomes_plus).all()
    with pytest.raises(NumericalError, match="standard deviations overflow"):
        classify(batch)


def test_shot_weights_carry_the_closed_form_moments():
    rng = np.random.default_rng(77)
    for _ in range(200):
        params = SystemParams(
            chi_s=1.0,
            kappa=float(rng.uniform(0.1, 5.0)),
            vacuum_weight=float(rng.uniform(0.0, 1.0)),
        )
        probe = ProbeState(
            alpha=float(rng.uniform(0.0, 12.0)),
            theta_alpha=float(rng.uniform(-math.pi, math.pi)),
            r=float(rng.uniform(0.0, 2.0)),
            theta_xi=float(rng.uniform(-math.pi, math.pi)),
        )
        point = _fields(
            float(rng.uniform(0.05, 5.0)), probe, params, float(rng.uniform(-4.0, 4.0))
        )
        model = _evaluate("variance", point)
        maps = shots._shot_map(point)
        for sigma, var, mean in (
            (1, model.variance_plus, model.mean_plus),
            (-1, model.variance_minus, model.mean_minus),
        ):
            weights, offset = maps[sigma]
            assert offset == mean
            assert math.fsum(w * w for w in weights) == pytest.approx(var, rel=1e-12)


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
        "df97c4219ebf04d7ace57c7f60b4097c1ec1decc0b273f1e606bc05928012574",
        "5dafc399d884fb0873d9c502d67d949cd6bddeff338c2497480afb3ad7c1ce01",
    ),
    (SEED, 8_191): (
        "5ff7954c7bedd41006589bf1b05612483b30038a93075d2f81e0d0a29c51e0ba",
        "adbd873997568bb1d404351e38d5be602b9abbc866ff3d92a6a51f10215a1711",
    ),
    (SEED, 8_192): (
        "ab92f5766d56bf20fc4ec29bb888e2064b5ad2f04112b69b9a622bbc0af77b2f",
        "c80f86f244ec43c7d5fd5b165ccc5eaed81644cc66147d59eba0a76bc79de096",
    ),
    (SEED, 8_193): (
        "0a7a65b3770eaa5cfd6389ade16ef55b701b418eacea262d01b81771c097e8f9",
        "71febd06b129d678e786afa931802e45926db9c338bb36f3615e501975be3714",
    ),
    (SEED, 100_003): (
        "9c797ad3c30e3071fa5f37d3418b776a3d4753d700436e7c1ff5a6ba89bb9501",
        "a4b85f5210b305ed50c3f2452c130aca5c2ea445cf2bd9fde07a07df596ede0a",
    ),
    (BIG_SEED, 1): (
        "8045cbc680ec5b19fe75ff0c73a9bc638528fc624893ae7f84e8f2ebe91513a3",
        "17e4f2b4b15a7c76e81705ba8cb2972cb8bbeeaf1a28b10b0e2c077e2823c68b",
    ),
    (BIG_SEED, 8_191): (
        "ad3d26c384799c010307954f6868cded4cd99af1965abadfc62240183547165d",
        "4579bb511d3c994207986d6b709ec31a535c75a0c9cae6a79fa32939df3da841",
    ),
    (BIG_SEED, 8_192): (
        "f3dc80dc7afa0a2350ea813b843faf70667929dfff47c973a1c00989f7266925",
        "e886e153da20121d0f01691236004625ca1acc83091469af806ec00ac8d96d97",
    ),
    (BIG_SEED, 8_193): (
        "a1216a16b354861e94f70a98581b44fc593528be69bf482905cfe321a7dc7d57",
        "5898c6d5d7abe186755b32f6f1ce3b9d211aad75eafb4f65dc804a1ec712aea6",
    ),
    (BIG_SEED, 100_003): (
        "441bc11db7f78ebe541afe61ce1f8e396027811bc076daa7a6f6102ede754062",
        "a06aeb49431a5fc3167f42f14ada51a3ca2740e704eb9278f15cad9257a5765a",
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


def test_one_block_batch_runs_on_the_calling_thread(
    monkeypatch, t_matched, probe_matched, params_k2
):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("thread pool started")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(shots, "ThreadPoolExecutor", NoPool)
    args = (t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    for n in (1, BLOCK_SIZE):
        assert sample_shots(n, *args).outcomes_plus.size == n
    with pytest.raises(AssertionError, match="thread pool started"):
        sample_shots(BLOCK_SIZE + 1, *args)


def test_n_above_the_cap_is_rejected_before_allocating(
    monkeypatch, t_matched, probe_matched, params_k2
):
    def no_allocation(*args, **kwargs):
        raise AssertionError("sample_shots allocated before checking n")

    monkeypatch.setattr(np, "empty", no_allocation)
    for n in (MAX_SHOTS + 1, 10**13):
        with pytest.raises(ValidationError, match=f"MAX_SHOTS = {2**26} "):
            sample_shots(n, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
