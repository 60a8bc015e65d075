import concurrent.futures
import dataclasses
import hashlib
import itertools
import math
import os
import random
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import PHI_DEFAULT
from helpers import (
    evaluation,
    input_covariance,
    mp_likelihood_crossing,
    policy_error_rates,
    reference_shot_weights,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezed_readout import (
    BLOCK_SIZE,
    MAX_SHOTS,
    NumericalError,
    ProbeState,
    SystemParams,
    ValidationError,
    classify,
    fidelity,
    from_experimental,
    readout_point,
    sample_shots,
)
from squeezed_readout import shots
from squeezed_readout.cli import main, parse_config
from squeezed_readout.dynamics import _response
from squeezed_readout.metrics import _evaluate, _fields
from squeezed_readout.sweeps import _grid

SEED = 987654321


def test_batches_are_deterministic(t_matched, probe_matched, params_k2):
    a = sample_shots(5000, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    b = sample_shots(5000, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    assert np.array_equal(a.outcomes_plus, b.outcomes_plus)
    assert np.array_equal(a.outcomes_minus, b.outcomes_minus)
    c = sample_shots(5000, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED + 1)
    assert not np.array_equal(a.outcomes_plus, c.outcomes_plus)
    assert not np.array_equal(a.outcomes_plus, a.outcomes_minus)


def test_block_layout_makes_prefixes_stable(t_matched, probe_matched, params_k2):
    # each 8192-shot block owns a fixed generator sub-stream, so asking
    # for more shots extends a batch without rewriting its beginning
    short = sample_shots(8192, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    long = sample_shots(10000, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    assert np.array_equal(short.outcomes_plus, long.outcomes_plus[:8192])
    assert np.array_equal(short.outcomes_minus, long.outcomes_minus[:8192])


def test_sampler_draws_follow_probe_covariance(t_matched):
    # the four-source reference map reads the same four physical draws at
    # every LO angle, so one set of draws mapped at two angles shows both
    # output quadratures per shot; inverting the deterministic linear map
    # recovers the raw probe draws, whose moments must be the configured
    # covariance
    params = SystemParams(chi_s=1.0, kappa=2.0, vacuum_weight=1e-12)
    probe = ProbeState(alpha=3.0, theta_alpha=0.7, r=0.6, theta_xi=1.1)
    n = 200000
    z = np.random.Generator(np.random.Philox(key=SEED)).standard_normal((n, 4))

    def outcomes(phi):
        (w0, w1, w2, w3), mean = reference_shot_weights(
            _fields(t_matched, probe, params, phi)
        )[1]
        return z[:, 0] * w0 + z[:, 1] * w1 + z[:, 2] * w2 + z[:, 3] * w3 + mean

    m_q, m_p = outcomes(0.0), outcomes(0.5 * math.pi)
    a_coef, b_coef = _response(params.kappa, t_matched)[2:]
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

    point = readout_point(t_matched, probe_matched, params_k2, PHI_DEFAULT)
    analytic, v_plus, v_minus = point.snr, point.variance_plus, point.variance_minus
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


@pytest.mark.parametrize(
    "phi", [PHI_DEFAULT, PHI_DEFAULT + math.pi], ids=["plus-high", "plus-low"]
)
@pytest.mark.parametrize("policy", ["midpoint", "likelihood"])
def test_error_counts_equal_the_mean_of_the_masks(phi, policy, t_matched, params_k2):
    # both orientations of the means; np.mean of a boolean mask is the
    # exact count divided once by n, so the two must agree bit for bit
    probe = ProbeState(alpha=10.0, theta_alpha=0.0, r=0.74, theta_xi=0.5 * math.pi)
    batch = sample_shots(50_001, t_matched, probe, params_k2, phi, SEED)
    result = classify(batch, policy)
    plus, minus, cut = batch.outcomes_plus, batch.outcomes_minus, result.threshold
    if np.mean(plus) > np.mean(minus):
        expected = (float(np.mean(plus <= cut)), float(np.mean(minus > cut)))
    else:
        expected = (float(np.mean(plus >= cut)), float(np.mean(minus < cut)))
    assert 0.0 < expected[0] and 0.0 < expected[1]
    assert (result.error_plus, result.error_minus) == expected


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
    point = readout_point(t_matched, probe, params_k2, PHI_DEFAULT)
    assert abs(point.variance_plus - point.variance_minus) > 1e-3

    batch = sample_shots(20000, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    midpoint = classify(batch, threshold_policy="midpoint")
    likelihood = classify(batch, threshold_policy="likelihood")
    m_plus, m_minus = point.mean_plus, point.mean_minus
    assert midpoint.threshold == pytest.approx(0.5 * (m_plus + m_minus), rel=1e-14)
    assert likelihood.threshold != midpoint.threshold
    lo, hi = sorted((m_plus, m_minus))
    assert lo < likelihood.threshold < hi
    with pytest.raises(ValidationError, match="threshold_policy"):
        classify(batch, threshold_policy="otsu")


@pytest.mark.parametrize("alpha", [1e160])
def test_overflowing_likelihood_threshold_is_a_numerical_error(t_matched, params_k2, alpha):
    # the squared half gap h² of the likelihood root overflows at 1e160;
    # the cut is raised before the batch's outcomes are read
    probe = ProbeState(alpha=alpha, theta_alpha=0.0, r=0.74, theta_xi=1.1)
    batch = sample_shots(1000, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    assert math.isfinite(shots._threshold("midpoint", batch.law))
    with pytest.raises(NumericalError, match="likelihood threshold overflows"):
        shots._threshold("likelihood", batch.law)
    with pytest.raises(NumericalError, match="likelihood threshold overflows"):
        classify(batch, threshold_policy="likelihood")


@pytest.mark.parametrize("n", [2, 1000, shots._LEAF, shots._LEAF + 1, 40000])
@pytest.mark.parametrize("alpha", [1e154, 1e160])
def test_a_batch_of_one_repeated_double_has_zero_spread(t_matched, params_k2, alpha, n):
    # the sd is far below an ulp of the mean, so each side is one double
    # repeated: its spread is 0 at any n, not the rounding of its mean
    probe = ProbeState(alpha=alpha, theta_alpha=0.0, r=0.74, theta_xi=1.1)
    batch = sample_shots(n, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    for x in (batch.outcomes_plus, batch.outcomes_minus):
        assert np.all(x == x[0])
    with pytest.raises(NumericalError, match="batch has zero spread"):
        classify(batch, threshold_policy="midpoint")


def _crossing_tolerance(law: dict, crossing: float) -> float:
    """1e-12 of the larger sd, 4 ulp of the crossing, or, past 1e4 gaps
    over the sd, where the rounding of the half gap itself dominates,
    1e-16 of the mean gap: whichever is most."""
    (sd_plus, m_plus), (sd_minus, m_minus) = law[1], law[-1]
    return max(
        1e-12 * max(sd_plus, sd_minus), 4.0 * math.ulp(crossing), 1e-16 * abs(m_plus - m_minus)
    )


def test_likelihood_threshold_at_a_huge_displacement_is_the_crossing(t_matched, params_k2):
    # the textbook discriminant's b² overflowed here and the cut came out
    # -inf; the centred root squares only the half gap over the sd
    probe = ProbeState(alpha=1e154, theta_alpha=0.0, r=0.74, theta_xi=1.1)
    batch = sample_shots(1000, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    cut = shots._threshold("likelihood", batch.law)
    crossing = mp_likelihood_crossing(batch.law)
    assert abs(cut - crossing) <= _crossing_tolerance(batch.law, crossing)
    assert 0.0 < cut < 1e152


def _oracle_laws():
    """2,160 laws {σ: (sd_σ, mean_σ)}: variance ratios v₊/v₋ from 1 ± 1e-13
    to 10, gaps m₊ − m₋ of either sign from 0.01 to 30 of the larger sd,
    midpoints up to 1e12 gaps from 0, and sds from 1e-150 to 1e150."""
    ratios = (1 - 1e-13, 1 + 1e-13, 1 - 1e-9, 1 + 1e-9, 1 - 1e-5, 1 + 1e-5)
    ratios += (0.99, 1.01, 0.5, 2.0, 0.1, 10.0)
    gaps = (-30.0, -2.0, -0.01, 0.01, 1.0, 6.0)
    centres = (0.0, 1.0, -1e3, 1e6, -1e9, 1e12)
    scales = (1e-150, 1e-6, 1.0, 1e3, 1e150)
    for ratio, gap, centre, sd_minus in itertools.product(ratios, gaps, centres, scales):
        sd_plus = sd_minus * math.sqrt(ratio)
        width = gap * max(sd_plus, sd_minus)
        middle = centre * abs(width)
        yield {1: (sd_plus, middle + 0.5 * width), -1: (sd_minus, middle - 0.5 * width)}


def test_likelihood_threshold_is_the_mpmath_crossing():
    misses = []
    for law in _oracle_laws():
        crossing = mp_likelihood_crossing(law)
        cut = shots._threshold("likelihood", law)
        if not abs(cut - crossing) <= _crossing_tolerance(law, crossing):
            misses.append((law, cut, crossing))
    assert misses == []


@pytest.mark.parametrize("sd", [1e-150, 0.37, 1.0, 1e150])
@pytest.mark.parametrize("means", [(2.5, -1.0), (-1e12, 1e12 + 4096.0), (0.0, 5e-324)])
def test_equal_variances_give_the_midpoint_bits(sd, means):
    m_plus, m_minus = means
    law = {1: (sd, m_plus), -1: (sd, m_minus)}
    midpoint = shots._threshold("midpoint", law)
    assert midpoint == 0.5 * (m_plus + m_minus)
    assert shots._threshold("likelihood", law) == midpoint


@pytest.mark.parametrize("law", [{1: (1.0, 3.0), -1: (1.0, 3.0)}, {1: (2.0, 0.0), -1: (2.0, 0.0)}])
def test_identical_laws_give_the_midpoint(law):
    # zero half gap and equal variances: the root's denominator is 0
    assert shots._threshold("likelihood", law) == law[1][1]


@pytest.mark.parametrize("ratio", [1e-6, 0.25, 0.99, 1.01, 4.0, 1e6])
@pytest.mark.parametrize("mean", [0.0, -7.5, 1e9])
def test_equal_means_cut_at_the_crossing_on_the_side_of_minus_ell(ratio, mean):
    # with no contrast the crossings sit at mean ± √(v₊v₋·ln(v₋/v₊)/(v₋ − v₊)),
    # equally near the midpoint; the cut takes the one on the side of
    # sgn(−ℓ) = sgn(v₋ − v₊), where the textbook roots followed rounding
    sd_minus = 1.3
    sd_plus = sd_minus * math.sqrt(ratio)
    law = {1: (sd_plus, mean), -1: (sd_minus, mean)}
    v_plus, v_minus = sd_plus * sd_plus, sd_minus * sd_minus
    offset = math.sqrt(v_plus * v_minus * math.log(v_minus / v_plus) / (v_minus - v_plus))
    cut = shots._threshold("likelihood", law)
    assert math.isfinite(cut)
    assert cut == pytest.approx(mean + math.copysign(offset, v_minus - v_plus), rel=1e-13)


def test_a_batch_without_contrast_cuts_on_the_side_of_minus_ell(t_matched, params_k2):
    # no displacement: both outcome means are exactly 0, and the tilted
    # ellipse still makes the two variances differ
    probe = ProbeState(alpha=0.0, theta_alpha=0.0, r=0.74, theta_xi=1.1)
    batch = sample_shots(1000, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    (sd_plus, m_plus), (sd_minus, m_minus) = batch.law[1], batch.law[-1]
    assert m_plus == m_minus == 0.0 and sd_plus != sd_minus
    cut = classify(batch, threshold_policy="likelihood").threshold
    assert math.isfinite(cut) and cut != 0.0
    assert math.copysign(1.0, cut) == math.copysign(1.0, sd_minus - sd_plus)


_SNR_18_CONFIG = """\
chi_over_2pi_mhz = 0.15
kappa_over_chi = 2.0
t1_ms = 3.0
alpha = 5252319833.663278
theta_alpha_rad = 1.5707963105728593
r = 0.74
theta_xi_rad = 1.1
t_us = 0.714
threshold_policy = likelihood
n_shots = 1000
"""


@pytest.mark.parametrize(
    ("text", "printed"),
    [
        (_SNR_18_CONFIG, "2362106172.691611"),
        (
            _SNR_18_CONFIG.replace("alpha = 5252319833.663278", "alpha = 1e154")
            .replace("theta_alpha_rad = 1.5707963105728593", "theta_alpha_rad = 0.0"),
            None,
        ),
    ],
    ids=["snr-18", "alpha-1e154"],
)
def test_shots_command_prints_the_likelihood_crossing(tmp_path, capsys, text, printed):
    # the textbook root's discriminant came out negative at SNR 18 through
    # rounding, and overflowed at alpha = 1e154: both runs exited 2.  The
    # cut of the run's law is the crossing; the SNR-18 run prints it, and
    # the alpha = 1e154 run, whose sides are each one repeated double,
    # exits 2 on their zero spread
    config = parse_config(text)
    t = config.units.to_internal_time(config.t_us)
    law = shots._shot_map(readout_point(t, config.probe, config.params, config.phi))
    cut, crossing = shots._threshold(config.threshold_policy, law), mp_likelihood_crossing(law)
    assert abs(cut - crossing) <= _crossing_tolerance(law, crossing)
    assert min(law[1][1], law[-1][1]) < cut < max(law[1][1], law[-1][1])
    path = tmp_path / "likelihood.cfg"
    path.write_text(text, encoding="utf-8")
    status = main(["shots", "--config", str(path)])
    out, err = capsys.readouterr()
    if printed is None:
        assert status == 2
        assert err == "numerical error: batch has zero spread; empirical SNR is undefined\n"
    else:
        assert status == 0
        block = dict(line.split(" = ", 1) for line in out.splitlines())
        assert block["threshold"] == printed == repr(cut)


_TILTED_POINTS = [(0.5 * math.pi, PHI_DEFAULT), (0.5 * math.pi, PHI_DEFAULT + math.pi)]
_TILTED_POINTS += [(1.1, PHI_DEFAULT), (2.0, PHI_DEFAULT)]


@pytest.mark.parametrize("policy", shots._POLICIES)
@pytest.mark.parametrize(("theta_xi", "phi"), _TILTED_POINTS)
def test_error_counts_follow_each_policys_exact_rates(t_matched, params_k2, policy, theta_xi, phi):
    # each eigenstate's error count is binomial(n, p) with p the closed-form
    # rate of the policy's cut on the batch's law
    from scipy.stats import binom

    n = 200_000
    probe = ProbeState(alpha=10.0, theta_alpha=0.0, r=0.74, theta_xi=theta_xi)
    batch = sample_shots(n, t_matched, probe, params_k2, phi, SEED)
    (sd_plus, _), (sd_minus, _) = batch.law[1], batch.law[-1]
    assert abs(sd_plus - sd_minus) > 1e-3 * max(sd_plus, sd_minus)
    result = classify(batch, threshold_policy=policy)
    rates = policy_error_rates(result.threshold, batch.law)
    for error, p in zip((result.error_plus, result.error_minus), rates):
        count = round(error * n)
        lo, hi = binom.interval(1.0 - 1e-6, n, p)
        assert n * p > 50 and lo <= count <= hi, (policy, count, n * p)


def _sigma_weighted_fidelity(point, t: float, t1: float):
    """(fidelity, rates) of the σ-weighted cut x_w = (m₊σ₋ + m₋σ₊)/(σ₊ + σ₋)
    on the outcome law of a ReadoutPoint: (1 − p₊ − p₋)·e^{−t/2T₁}, with
    (p₊, p₋) the closed-form rates of that cut."""
    sd_plus, sd_minus = math.sqrt(point.variance_plus), math.sqrt(point.variance_minus)
    m_plus, m_minus = point.mean_plus, point.mean_minus
    cut = (m_plus * sd_minus + m_minus * sd_plus) / (sd_plus + sd_minus)
    rates = policy_error_rates(cut, {1: (sd_plus, m_plus), -1: (sd_minus, m_minus)})
    return (1.0 - rates[0] - rates[1]) * math.exp(-0.5 * t / t1), rates


def test_fidelity_is_what_the_sigma_weighted_cut_achieves_on_fig3(t_matched, params_k2):
    # both error rates of the σ-weighted cut are Φ(−SNR), so the paper's
    # erf(SNR/√2)·e^{−t/2T₁} is what that cut achieves at any two variances:
    # both fig3 panels, their coherent baseline and the README point
    phi = PHI_DEFAULT
    probes = [
        ProbeState(alpha=10.0, r=0.74, theta_xi=2.0 * (phi - x))
        for x in _grid(-math.pi, math.pi, 400)
    ]
    probes += [ProbeState(alpha=10.0, r=x, theta_xi=math.pi) for x in _grid(0.0, 2.0, 400)]
    probes.append(ProbeState(alpha=10.0, r=0.0, theta_xi=math.pi))
    probes.append(ProbeState(alpha=10.0, theta_alpha=0.0, r=0.74, theta_xi=math.pi))
    t1 = params_k2.t1_intrinsic
    for probe in probes:
        point = readout_point(t_matched, probe, params_k2, phi)
        achieved, _ = _sigma_weighted_fidelity(point, t_matched, t1)
        assert abs(achieved - point.fidelity) <= 2.0 * math.ulp(point.fidelity), probe


def test_fidelity_is_what_the_sigma_weighted_cut_achieves_at_tilted_points(units):
    # 5,000 seeded points with the squeeze ellipse tilted off the LO frame,
    # so the two variances differ, and the contrast phase matched; SNRs from
    # about 6e-10 to 45.  Besides 4 ulp, the bound holds two separate
    # roundings of one quantity: the contrast against |m₊ − m₋| in erf(SNR/√2),
    # and each closed-form rate's last bit, which 1 − p₊ − p₋ keeps
    # absolutely where the SNR is small and the rates are near ½
    rng = random.Random(20261019)
    for _ in range(5000):
        params = from_experimental(0.15, rng.uniform(0.5, 4.0), 3.0)
        probe = ProbeState(
            alpha=10.0 ** rng.uniform(-6.0, 1.5),
            theta_alpha=0.0,
            r=rng.uniform(0.0, 2.0),
            theta_xi=rng.uniform(-math.pi, math.pi),
        )
        t = units.to_internal_time(rng.uniform(0.05, 2.0))
        point = readout_point(t, probe, params, PHI_DEFAULT)
        achieved, (p_plus, p_minus) = _sigma_weighted_fidelity(point, t, params.t1_intrinsic)
        decay = math.exp(-0.5 * t / params.t1_intrinsic)
        gap_snr = abs(point.mean_plus - point.mean_minus) / (
            math.sqrt(point.variance_plus) + math.sqrt(point.variance_minus)
        )
        contrast_change = abs(
            math.erf(point.snr / math.sqrt(2.0)) - math.erf(gap_snr / math.sqrt(2.0))
        )
        bound = 4.0 * math.ulp(point.fidelity) + decay * (
            contrast_change + math.ulp(p_plus) + math.ulp(p_minus)
        )
        assert abs(achieved - point.fidelity) <= bound, (probe, t, point.snr)


def test_policy_error_rates_are_the_mpmath_rates():
    # each rate ½·erfc(z/√2) at the standardized distance z = |m_σ − cut|/sd_σ,
    # on both policies' cuts of the 2,160 oracle laws, against 50-digit
    # mpmath on the same doubles.  z/√2 carries about four roundings (2ε),
    # which erfc amplifies by its condition number 1 + z² at most, and erfc
    # adds its own ulp: (3 + 2z²)·ε ≤ 3(1 + z²)·ε relative.  Past z ≈ 37.5
    # the rate is below the normal range, where the double holds it to
    # 2^-1074 absolutely (or is 0)
    import mpmath as mp

    eps, smallest = sys.float_info.epsilon, math.ulp(0.0)
    misses = []
    for law in _oracle_laws():
        (sd_plus, m_plus), (sd_minus, m_minus) = law[1], law[-1]
        side = 1 if m_plus >= m_minus else -1
        for policy in shots._POLICIES:
            cut = shots._threshold(policy, law)
            rates = policy_error_rates(cut, law)
            with mp.workdps(50):
                distances = (
                    side * (mp.mpf(m_plus) - mp.mpf(cut)) / mp.mpf(sd_plus),
                    side * (mp.mpf(cut) - mp.mpf(m_minus)) / mp.mpf(sd_minus),
                )
                for rate, z in zip(rates, distances):
                    exact = mp.erfc(z / mp.sqrt(2)) / 2
                    bound = 3.0 * (1.0 + float(z) ** 2) * eps * exact + smallest
                    if not abs(mp.mpf(rate) - exact) <= bound:
                        misses.append((policy, law, rate, float(exact)))
    assert misses == []


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


@pytest.mark.parametrize("side", ["outcomes_plus", "outcomes_minus"])
@pytest.mark.parametrize("short", [[1.0], []], ids=["one", "none"])
def test_a_side_of_fewer_than_two_shots_is_rejected(side, short):
    # a batch's size is its arrays': either side short of 2 shots is refused,
    # the other side's 100 shots notwithstanding
    batch = sample_shots(100, 0.67, ProbeState(alpha=3.0, r=0.5), SystemParams(), 1.2, 1)
    rebuilt = dataclasses.replace(batch, **{side: np.array(short)})
    with pytest.raises(ValidationError, match=f"batch of {len(short)} shot"):
        classify(rebuilt)


@pytest.mark.parametrize("r", [0.0, 0.74, 10.0, 50.0, 300.0])
@pytest.mark.parametrize("theta_xi", [2.0 * PHI_DEFAULT, 1.1], ids=["aligned", "tilted"])
def test_moments_match_closed_forms_at_any_squeezing(r, theta_xi, t_matched, params_k2):
    # the squeezed variance e^{-2r}/2 is below the rounding of cosh 2r
    # from r ~ 10 on; drawing along the ellipse axes never forms it
    probe = ProbeState(alpha=10.0, theta_alpha=0.0, r=r, theta_xi=theta_xi)
    n = 200_000
    batch = sample_shots(n, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    point = readout_point(t_matched, probe, params_k2, PHI_DEFAULT)
    for sigma, outcomes, mean, var in (
        (1, batch.outcomes_plus, point.mean_plus, point.variance_plus),
        (-1, batch.outcomes_minus, point.mean_minus, point.variance_minus),
    ):
        mean_z = (float(np.mean(outcomes)) - mean) / math.sqrt(var / n)
        var_z = (float(np.var(outcomes, ddof=1)) - var) / (var * math.sqrt(2.0 / (n - 1)))
        assert abs(mean_z) < 5.0, (sigma, mean_z)
        assert abs(var_z) < 5.0, (sigma, var_z)


def test_overflowing_outcome_variance_is_a_numerical_error(params_k2):
    # the weight e^{r}·B/√2 is finite here but the variance e^{2r}·B²/2 is not
    probe = ProbeState(alpha=10.0, r=300.0, theta_xi=1.1)
    with pytest.raises(NumericalError, match="outcome variance overflows"):
        sample_shots(100, 1e150, probe, params_k2, PHI_DEFAULT, SEED)


def test_outcome_variance_near_the_top_of_the_double_range_samples(params_k2):
    # e^{r}·b_σ squared passes the double range here, the halved variance
    # does not; outcomes scaled by the exact power 2^-512 keep their moments
    probe = ProbeState(alpha=10.0, r=300.0, theta_xi=1.1)
    t, n = 1.6e24, 20_000
    batch = sample_shots(n, t, probe, params_k2, PHI_DEFAULT, SEED)
    model = evaluation(t, probe, params_k2, PHI_DEFAULT)
    for var, outcomes in (
        (model.variance_plus, batch.outcomes_plus),
        (model.variance_minus, batch.outcomes_minus),
    ):
        assert 0.5 * sys.float_info.max < var < sys.float_info.max
        assert np.isfinite(outcomes).all()
        scaled_var = var * 2.0**-1024
        sample_var = float(np.var(outcomes * 2.0**-512, ddof=1))
        se = scaled_var * math.sqrt(2.0 / n)
        assert sample_var == pytest.approx(scaled_var, abs=5.0 * se)


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
        maps = shots._shot_map(model)
        for sigma, var, mean in (
            (1, model.variance_plus, model.mean_plus),
            (-1, model.variance_minus, model.mean_minus),
        ):
            sd, offset = maps[sigma]
            assert offset == mean
            assert sd * sd == pytest.approx(var, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=300.0),
    theta_xi=st.floats(min_value=-20.0, max_value=20.0),
    phi=st.floats(min_value=-20.0, max_value=20.0),
    kappa=st.floats(min_value=0.01, max_value=100.0),
    u=st.floats(min_value=1e-12, max_value=1.0),
)
def test_shot_sd_is_the_norm_of_the_reference_weights(
    r, theta_xi, phi, kappa, u, t_matched
):
    # an exact check of the variance algebra at any squeezing: the one
    # normal's scale is the length of the four-source weight vector
    params = SystemParams(chi_s=1.0, kappa=kappa, vacuum_weight=u)
    probe = ProbeState(alpha=10.0, theta_alpha=0.3, r=r, theta_xi=theta_xi)
    point = _fields(t_matched, probe, params, phi)
    reference = reference_shot_weights(point)
    for sigma, (sd, mean) in shots._shot_map(_evaluate("variance", point)).items():
        weights, reference_mean = reference[sigma]
        reference_sd = math.sqrt(math.fsum(w * w for w in weights))
        assert mean == reference_mean
        assert abs(sd - reference_sd) <= 4.0 * math.ulp(reference_sd), (sigma, sd)


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


@pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32])
def test_numpy_integers_are_integers(integer, t_matched, probe_matched, params_k2):
    # numpy's integers count shots and seed the stream as the equal Python ints do
    batch = sample_shots(
        integer(1000), t_matched, probe_matched, params_k2, PHI_DEFAULT, integer(1)
    )
    plain = sample_shots(1000, t_matched, probe_matched, params_k2, PHI_DEFAULT, 1)
    assert type(batch.seed) is int and batch.seed == 1
    assert np.array_equal(batch.outcomes_plus, plain.outcomes_plus)
    assert np.array_equal(batch.outcomes_minus, plain.outcomes_minus)
    with pytest.raises(ValidationError, match=re.escape(f"integer, got {integer(0)!r}")):
        sample_shots(integer(0), t_matched, probe_matched, params_k2, PHI_DEFAULT, 1)
    with pytest.raises(ValidationError, match="n must be a positive integer, got True"):
        sample_shots(True, t_matched, probe_matched, params_k2, PHI_DEFAULT, 1)
    with pytest.raises(ValidationError, match="seed must be an integer"):
        sample_shots(1000, t_matched, probe_matched, params_k2, PHI_DEFAULT, np.float64(1.0))


def test_vacuum_probe_outcomes_are_symmetric(t_matched, params_k2):
    # with no displacement and no squeezing the two eigenvalues produce
    # identically distributed outcomes
    probe = ProbeState(alpha=0.0, r=0.0)
    n = 100000
    batch = sample_shots(n, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    v = readout_point(t_matched, probe, params_k2, PHI_DEFAULT).variance_plus
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
        "0610b0bb69fbee469572cd0b005acc494ca2e19e27b6214b809df46e6c2fc73b",
        "365fdad746bc3ce14a781660ed0ce011685315f582ee601c758dc7c115fae045",
    ),
    (SEED, 8_191): (
        "07c73f8e7c65666e221761b81476a785a467ebe51846c32d93bba42b8d0ba4e2",
        "bd113eea3f5bb4071533df55480a1d096e2ffb3a99bd1e8d0bb7382f2fa2b2a4",
    ),
    (SEED, 8_192): (
        "b657e17035ed8ebc08530637fb61959fbfa2b1e3571447a18b610227dea4c0ba",
        "caf46014966f3b6d777d3c3c50d5180d34cce9662bd4decfea14b1eb26f8c969",
    ),
    (SEED, 8_193): (
        "fd914c06856b80eebcb4feea316dc244b20b525e5fe215dd72c545e2724c6609",
        "90ddc48c908a7d8e67adab58d3a8bd8f50083dd17a7554465cfd15a74ebeb0ef",
    ),
    (SEED, 100_003): (
        "5b38b70e558496b722dd178472534f637dc7d600c7ccd68da228e513a567339d",
        "167c524e9bd1788fdfb3c11c970b49094122eb908c5281bf28114767e4a44c80",
    ),
    (BIG_SEED, 1): (
        "9503529356c81c079bf51513e7d83c4827375047793469d8a8e44ad4c7cfb969",
        "d678a8a654e1afcfb6a9a279cf5114c7b67c5df45c62705298c9d1ef4aa008e6",
    ),
    (BIG_SEED, 8_191): (
        "024ff49dbb53d2192c3014a09e5f7231ffe6b3efdca1b0189bdba2424000e7d8",
        "ff6836286c77e3bae4686a0470f3af7528b92d7ca3e66237f55f4d8846a4f8ef",
    ),
    (BIG_SEED, 8_192): (
        "2d74a09a0dac4a178242ad58ffed025669b2b8c6e55b703c1446f8c6b2a15028",
        "813452c328904ec60d61e8be73ec97c04701985bf6ccfe24f0f2901c222269f5",
    ),
    (BIG_SEED, 8_193): (
        "27c036538a32226ae62667adf7d2ff18da750635737ba7690f80ef81f6f3b6b7",
        "cb7f358a57fc77ecc0d547638a52cde151501a4da2177ef442e4a15987cc02db",
    ),
    (BIG_SEED, 100_003): (
        "6cf3ac7a23d1df7153298c5c331f605bb9b654059c1626fe51919af5291194ff",
        "51b9f3c7014bb0823a09867860bdff013cecc9e06debfafd26e7cffc802fb32b",
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
    # eight workers share the output arrays, each seeking its own
    # generator from block to block; a thread switch every microsecond
    # interleaves them as much as the interpreter allows, and a lost or
    # misplaced block would show as a difference from the one-worker stream
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
    # _sample imports the executor where a threaded batch starts
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
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


def test_mean_that_overflows_is_a_numerical_error(t_matched, params_k2):
    # √2·alpha overflows, so along and across are both inf and the minus
    # mean is inf - inf
    probe = ProbeState(alpha=1.7e308, theta_alpha=3.0, r=0.74, theta_xi=math.pi)
    args = (t_matched, probe, params_k2, PHI_DEFAULT)
    with pytest.raises(NumericalError) as excinfo:
        sample_shots(10, *args, 1)
    assert str(excinfo.value) == "outcome mean overflows: got inf and nan"
    # the variances read no mean
    model = evaluation(*args)
    assert model.variance_plus == model.variance_minus > 0.0
    assert model.mean_plus == math.inf and math.isnan(model.mean_minus)


def _plain(state):
    """A generator state dict with its arrays as lists, for == comparison."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("key", [0, 1, 2**64 + 3, 2**128 - 1])
def test_block_seek_is_the_jumped_sub_stream(key):
    # a block leaves the generator mid-buffer, with a half-used 64-bit
    # word; seeking must drop both, exactly as jumped() does
    bit_generator = np.random.Philox(key=key)
    fresh = bit_generator.state
    rng = np.random.Generator(bit_generator)
    for stream in (0, 1, 2, 16383):
        rng.standard_normal(BLOCK_SIZE + 3)
        rng.integers(2**32 - 1, dtype=np.uint32)
        if bit_generator.state["buffer_pos"] == 4:  # the buffer just ran out
            bit_generator.random_raw()
        drawn = bit_generator.state
        assert drawn["buffer_pos"] < 4 and drawn["has_uint32"] == 1
        shots._seek(bit_generator, fresh, stream)
        jumped = np.random.Philox(key=key).jumped(stream)
        assert _plain(bit_generator.state) == _plain(jumped.state)
        expected = np.random.Generator(jumped).standard_normal(5)
        assert np.array_equal(rng.standard_normal(5), expected)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_batch_builds_one_generator_per_worker(
    cpus, monkeypatch, t_matched, probe_matched, params_k2
):
    # jumped() builds its result through the class, so a per-block jumped
    # generator would count here too
    built = []

    class CountingPhilox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    sample_shots(5 * BLOCK_SIZE + 1, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    assert 1 <= len(built) <= cpus


_MOMENT_INPUTS = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=300
) | st.builds(
    lambda n, seed, scale, loc: (
        np.random.default_rng(seed).standard_normal(n) * scale + loc
    ).tolist(),
    st.integers(2, 20_000),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1e300),
    st.floats(-1e300, 1e300),
)


def _exact_moments(x) -> tuple[float, float]:
    """(mean, sd) of x from exact integer sums, each within an ulp; inf where
    the sd passes the double range.

    With every element a·2^-k for one k, mean = Σa·2^-k/n and
    sd² = (nΣa² − (Σa)²)·2^-2k/(n(n − 1)).
    """
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    scale = max(q for _, q in ratios)
    ints = [p * (scale // q) for p, q in ratios]
    n, total = len(ints), sum(ints)
    numerator, denominator = n * sum(a * a for a in ints) - total * total, n * (n - 1)
    # a quotient of at least 256 bits, whose root keeps 128 before it rounds
    shift = max(0, (256 - numerator.bit_length() + denominator.bit_length()) // 2 + 1)
    root = math.isqrt((numerator << (2 * shift)) // denominator)
    try:
        sd = root / (scale << shift)
    except OverflowError:
        sd = math.inf
    return total / (n * scale), sd


def _moments_are_as_accurate_as_numpys(x):
    # the pass's mean and sd lie no farther from the exact ones than
    # np.mean and np.std(ddof=1) do, plus 2 ulp: of the sd for the sd, and
    # of the mean of |x| for the mean, the scale at which any sum of x
    # rounds (a mean far below the sd is noise whose ulp no summation order
    # but numpy's own can hold); where the exact sd or numpy's value passes
    # the double range there is nothing to compare
    with np.errstate(over="ignore", invalid="ignore"):
        numpys = (float(np.mean(x)), float(np.std(x, ddof=1)))
        got = shots._side(x, np.less, {})[:2]
        scales = (float(np.mean(np.abs(x))), None)
    for name, ours, theirs, exact, scale in zip(
        ("mean", "sd"), got, numpys, _exact_moments(x), scales
    ):
        if math.isfinite(exact) and math.isfinite(theirs):
            ulp = math.ulp(exact if scale is None else max(scale, abs(exact)))
            assert abs(ours - exact) <= abs(theirs - exact) + 2.0 * ulp, (name, ours, theirs, exact)


@settings(max_examples=200, deadline=None)
@given(values=_MOMENT_INPUTS)
def test_classify_moments_are_as_accurate_as_numpys(values):
    _moments_are_as_accurate_as_numpys(np.array(values))


@settings(max_examples=200, deadline=None)
@given(values=_MOMENT_INPUTS)
def test_classify_moments_in_128_element_leaves_are_as_accurate_as_numpys(values):
    # these inputs fit in one real leaf; at 128 elements the pass merges them
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shots, "_LEAF", 128)
        _moments_are_as_accurate_as_numpys(np.array(values))


@pytest.mark.parametrize(
    "plus",
    [
        # the last leaf's mean lies 1.8e308 from the mean before it: _ratio is inf
        [-1.4e306] * 128 + [1.7976e308],
        # each leaf's squares are finite and their sum is not: math.fsum overflows
        [1e153, -1e153] * 128,
    ],
    ids=["leaf-gap", "square-sum"],
)
def test_moments_that_overflow_between_leaves_are_a_numerical_error(plus, monkeypatch):
    # every outcome and every leaf sum is finite; only the merge of the leaves
    # passes the double range, as np.std's own sum does
    monkeypatch.setattr(shots, "_LEAF", 128)
    x = np.array(plus)
    # under classify's errstate: a leaf's squares about its rounded mean overflow
    # once before the leaf re-centres
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd, _ = shots._side(x, np.less, {})
        assert np.std(x, ddof=1) == math.inf
    assert math.isfinite(mean) and sd == math.inf
    batch = sample_shots(x.size, 0.67, ProbeState(alpha=3.0, r=0.5), SystemParams(), 1.2, 1)
    with pytest.raises(NumericalError, match="batch means or standard deviations overflow"):
        classify(dataclasses.replace(batch, outcomes_plus=x))


_LEAF_SIZES = [shots._LEAF - 1, shots._LEAF, shots._LEAF + 1, 2 * shots._LEAF + 7, 1_000_003]


@pytest.mark.parametrize("n", _LEAF_SIZES)
def test_moments_across_leaves_are_as_accurate_as_numpys(n):
    x = np.random.default_rng(n).standard_normal(n) * 3.7 + 1e3
    for view in (x, x[::3]):
        _moments_are_as_accurate_as_numpys(view)


@pytest.mark.parametrize("ratio", [-1e6, 1e2, 1e4, 1e6])
def test_moments_far_from_zero_are_as_accurate_as_numpys(ratio):
    # leaf means rounded to doubles lose the gaps between leaves here:
    # merged as plain doubles, the sd at |mean|/sd = 1e6 landed 674 ulp
    # from the exact one
    x = np.random.default_rng(7).standard_normal(1_000_003) * 3.7 + 3.7 * ratio
    for view in (x, x[::3]):
        _moments_are_as_accurate_as_numpys(view)


def _mask_errors(batch, threshold):
    """(error_plus, error_minus) counted from whole-batch masks."""
    plus, minus = batch.outcomes_plus, batch.outcomes_minus
    if batch.law[1][1] >= batch.law[-1][1]:
        wrong = (plus <= threshold, minus > threshold)
    else:
        wrong = (plus >= threshold, minus < threshold)
    return tuple(np.count_nonzero(mask) / mask.size for mask in wrong)


@pytest.mark.parametrize("policy", ["midpoint", "likelihood"])
@pytest.mark.parametrize("theta_alpha", [0.0, math.pi], ids=["plus-below", "plus-above"])
@pytest.mark.parametrize("n", [2, shots._LEAF + 1, 2 * shots._LEAF + 7])
def test_error_counts_equal_whole_batch_masks(policy, theta_alpha, n, t_matched, params_k2):
    # a third of each side planted exactly at the cut, spread over every leaf
    probe = ProbeState(alpha=1.0, theta_alpha=theta_alpha, r=0.74, theta_xi=1.1)
    batch = sample_shots(n, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    assert (batch.law[1][1] > batch.law[-1][1]) == (theta_alpha == math.pi)
    cut = shots._threshold(policy, batch.law)
    plus, minus = batch.outcomes_plus.copy(), batch.outcomes_minus.copy()
    plus[::3] = cut
    minus[1::3] = cut
    planted = dataclasses.replace(batch, outcomes_plus=plus, outcomes_minus=minus)
    result = classify(planted, threshold_policy=policy)
    assert result.threshold == cut
    assert (result.error_plus, result.error_minus) == _mask_errors(planted, cut)
    assert all(type(value) is float for value in dataclasses.astuple(result))


def test_classify_traces_less_than_a_megabyte(t_matched, probe_matched, params_k2):
    # numpy reports its buffers to tracemalloc; whole-batch masks and
    # squares would trace 1 MB and 8 MB here
    batch = sample_shots(1_000_003, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    tracemalloc.start()
    try:
        for policy in ("midpoint", "likelihood"):
            classify(batch, threshold_policy=policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [2, 3 * BLOCK_SIZE])
def test_sample_shots_returns_read_only_outcomes(n, t_matched, probe_matched, params_k2):
    batch = sample_shots(n, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    for outcomes in (batch.outcomes_plus, batch.outcomes_minus):
        assert not outcomes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            outcomes[0] = 0.0


_ORDERS = [("midpoint", "likelihood"), ("likelihood", "midpoint")]


@pytest.mark.parametrize("order", _ORDERS)
def test_the_second_policy_reads_the_kept_pass(order, monkeypatch, t_matched, params_k2):
    # unequal variances, so the two cuts differ, and several leaves a side
    probe = ProbeState(alpha=10.0, theta_alpha=0.0, r=0.74, theta_xi=0.5 * math.pi)
    args = (2 * shots._LEAF + 7, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    fresh = {policy: repr(classify(sample_shots(*args), policy)) for policy in order}
    batch = sample_shots(*args)
    shown, passes, side = repr(batch), [], shots._side
    monkeypatch.setattr(shots, "_side", lambda *pass_args: passes.append(1) or side(*pass_args))
    assert {policy: repr(classify(batch, policy)) for policy in order} == fresh
    assert len(passes) == 2  # one per side, for both policies
    assert repr(batch) == shown
    assert "_sides" not in vars(dataclasses.replace(batch))


def test_a_batch_with_writable_outcomes_is_read_on_every_call(
    t_matched, probe_matched, params_k2
):
    batch = sample_shots(
        2 * shots._LEAF + 7, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED
    )
    cut = shots._threshold("midpoint", batch.law)
    planted = dataclasses.replace(
        batch, outcomes_plus=batch.outcomes_plus.copy(), outcomes_minus=batch.outcomes_minus.copy()
    )
    first = classify(planted)
    plus = planted.outcomes_plus
    wrong = plus <= cut if batch.law[1][1] >= batch.law[-1][1] else plus >= cut
    # the last right outcome moves onto the cut, which is wrong on either side
    plus[np.flatnonzero(~wrong)[-1]] = cut
    second = classify(planted)
    assert (second.error_plus, second.error_minus) == _mask_errors(planted, cut)
    assert round(second.error_plus * plus.size) == round(first.error_plus * plus.size) + 1
    assert second.error_minus == first.error_minus


@pytest.mark.parametrize("order", _ORDERS)
def test_a_cut_that_overflows_raises_only_for_its_policy(order, t_matched, params_k2):
    # the law of test_overflowing_likelihood_threshold_is_a_numerical_error;
    # its sides, each one repeated double, have every other shot moved an
    # ulp up, so that the midpoint policy meets a spread and classifies
    probe = ProbeState(alpha=1e160, theta_alpha=0.0, r=0.74, theta_xi=1.1)
    batch = sample_shots(1000, t_matched, probe, params_k2, PHI_DEFAULT, SEED)
    sides = [x.copy() for x in (batch.outcomes_plus, batch.outcomes_minus)]
    for x in sides:
        x[::2] = np.nextafter(x[::2], math.inf)
        x.flags.writeable = False
    batch = dataclasses.replace(batch, outcomes_plus=sides[0], outcomes_minus=sides[1])
    for policy in order:
        if policy == "midpoint":
            assert math.isfinite(classify(batch, threshold_policy=policy).threshold)
        else:
            with pytest.raises(NumericalError, match="likelihood threshold overflows"):
                classify(batch, threshold_policy=policy)


def test_a_classified_batch_holds_no_reference_to_its_outcomes(
    t_matched, probe_matched, params_k2
):
    batch = sample_shots(1000, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    for policy in shots._POLICIES:
        classify(batch, threshold_policy=policy)
    outcomes = weakref.ref(batch.outcomes_plus)
    del batch
    assert outcomes() is None


@settings(max_examples=100, deadline=None)
@given(
    huge=st.lists(
        st.floats(min_value=1e155, max_value=sys.float_info.max).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=40,
    ),
    tiny=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
)
def test_huge_outcomes_raise_the_same_numerical_error(
    huge, tiny, t_matched, probe_matched, params_k2
):
    # next to an outcome of magnitude 1e155 or more, some squared deviation
    # from the mean passes the double range, so np.std is not finite
    outcomes = {"plus": np.array(huge + tiny), "minus": np.array(tiny + [0.0])}
    batch = sample_shots(2, t_matched, probe_matched, params_k2, PHI_DEFAULT, SEED)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(float(np.std(outcomes["plus"], ddof=1)))
    for plus, minus in itertools.permutations(outcomes.values()):
        swapped = dataclasses.replace(batch, outcomes_plus=plus, outcomes_minus=minus)
        with pytest.raises(NumericalError, match="means or standard deviations overflow"):
            classify(swapped)
