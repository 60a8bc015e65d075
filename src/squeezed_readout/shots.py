"""Single-shot Monte Carlo sampling of integrated homodyne outcomes.

Within the linear model the integrated output is an exact linear map of
four jointly Gaussian inputs: the probe quadratures (Q_in, P_in) and the
initial resonator vacuum (Q(0), P(0)).  Each shot therefore draws those
four numbers and forms, for qubit eigenvalue σ,

    M_Q = A·Q_in + σB·P_in + √κ(F·Q(0) − σG·P(0))
    M_P = A·P_in − σB·Q_in + √κ(F·P(0) + σG·Q(0))
    outcome = cos φ·M_Q + sin φ·M_P

which at φ = π/2 is the textbook combination A·P_in − σB·Q_in + vacuum
leakage.  The vacuum pair is drawn with variance u/2 per quadrature so
the sampled statistics match readout_metrics for any vacuum weight.

Randomness comes from numpy's counter-based Philox generator.  Shots
are produced in fixed blocks of 8192; block j for σ = +1 uses the
sub-stream jumped(2j) of the master seed and σ = −1 uses jumped(2j+1),
so batches are reproducible bit for bit and independent of how blocks
might be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import coefficient_set
from .errors import NumericalError, ValidationError
from .metrics import _evaluate, _fields
from .params import SystemParams
from .probe import ProbeState, input_covariance

BLOCK_SIZE = 8192
GENERATOR_ID = "numpy-philox4x64-ziggurat/block8192/jumped(2j+{0:plus,1:minus})"


@dataclass(frozen=True)
class ShotBatch:
    """Paired outcome samples for the two qubit eigenvalues."""

    outcomes_plus: np.ndarray
    outcomes_minus: np.ndarray
    n: int
    seed: int
    generator_id: str
    t: float
    phi: float
    probe: ProbeState
    params: SystemParams


@dataclass(frozen=True)
class ClassificationResult:
    """Threshold classification of a ShotBatch."""

    threshold: float
    error_plus: float
    error_minus: float
    empirical_snr: float
    empirical_fidelity: float


def _sample_sigma(
    sigma: int,
    n: int,
    seed: int,
    mean: tuple[float, float],
    chol: tuple[float, float, float],
    vac_scale: float,
    weights: tuple[float, float, float, float],
    phi: float,
) -> np.ndarray:
    """Draw n outcomes for one qubit eigenvalue from its sub-streams."""
    a_coef, b_coef, fol, gol = weights  # A, B, √κ·F, √κ·G
    l11, l21, l22 = chol
    c, s = math.cos(phi), math.sin(phi)
    out = np.empty(n)
    offset = 0 if sigma == 1 else 1
    base = np.random.Philox(key=seed)
    block = 0
    while block * BLOCK_SIZE < n:
        lo = block * BLOCK_SIZE
        m = min(BLOCK_SIZE, n - lo)
        rng = np.random.Generator(base.jumped(2 * block + offset))
        z = rng.standard_normal((m, 4))
        q_in = mean[0] + l11 * z[:, 0]
        p_in = mean[1] + l21 * z[:, 0] + l22 * z[:, 1]
        q0 = vac_scale * z[:, 2]
        p0 = vac_scale * z[:, 3]
        m_q = a_coef * q_in + sigma * b_coef * p_in + fol * q0 - sigma * gol * p0
        m_p = a_coef * p_in - sigma * b_coef * q_in + fol * p0 + sigma * gol * q0
        out[lo : lo + m] = c * m_q + s * m_p
        block += 1
    return out


def sample_shots(
    n: int,
    t: float,
    probe: ProbeState,
    params: SystemParams,
    phi: float,
    seed: int,
) -> ShotBatch:
    """Generate n single-shot outcomes per qubit eigenvalue at time t."""
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    if not math.isfinite(t) or t <= 0.0:
        raise ValidationError(f"t must be positive and finite, got {t!r}")
    if not math.isfinite(phi):
        raise ValidationError(f"phi must be finite, got {phi!r}")
    if not isinstance(seed, int) or not 0 <= seed < 2**128:
        raise ValidationError(f"seed must be an integer in [0, 2^128), got {seed!r}")

    internal = params.as_internal()
    ti = t * params.chi_s
    coeff = coefficient_set(ti, internal)
    stats = input_covariance(probe)

    l11 = math.sqrt(stats.var_q)
    l21 = stats.cov_qp / l11
    rest = stats.var_p - l21 * l21
    if rest <= 0.0:
        raise NumericalError(
            f"probe covariance is not positive definite (Schur complement {rest!r})"
        )
    chol = (l11, l21, math.sqrt(rest))
    vac_scale = math.sqrt(0.5 * internal.vacuum_weight)
    sqrt_kappa = math.sqrt(internal.kappa)
    weights = (
        coeff.a_coef,
        coeff.b_coef,
        sqrt_kappa * coeff.big_f,
        sqrt_kappa * coeff.big_g,
    )
    mean = (stats.mean_q, stats.mean_p)

    outcomes = {
        sigma: _sample_sigma(sigma, n, seed, mean, chol, vac_scale, weights, phi)
        for sigma in (+1, -1)
    }
    return ShotBatch(
        outcomes_plus=outcomes[+1],
        outcomes_minus=outcomes[-1],
        n=n,
        seed=seed,
        generator_id=GENERATOR_ID,
        t=t,
        phi=phi,
        probe=probe,
        params=params,
    )


def _likelihood_threshold(
    m_plus: float, v_plus: float, m_minus: float, v_minus: float
) -> float:
    """Equal-density crossing of two Gaussians, taken between the means."""
    if math.isclose(v_plus, v_minus, rel_tol=1e-12):
        return 0.5 * (m_plus + m_minus)
    a = 1.0 / v_plus - 1.0 / v_minus
    b = -2.0 * (m_plus / v_plus - m_minus / v_minus)
    c = (
        m_plus**2 / v_plus
        - m_minus**2 / v_minus
        + math.log(v_plus / v_minus)
    )
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NumericalError(
            "likelihood threshold has no real crossing between the two Gaussians"
        )
    root = math.sqrt(disc)
    candidates = ((-b + root) / (2.0 * a), (-b - root) / (2.0 * a))
    lo, hi = min(m_plus, m_minus), max(m_plus, m_minus)
    inside = [x for x in candidates if lo <= x <= hi]
    if inside:
        return inside[0]
    midpoint = 0.5 * (m_plus + m_minus)
    return min(candidates, key=lambda x: abs(x - midpoint))


def classify(
    batch: ShotBatch, threshold_policy: str = "midpoint", t1: float | None = None
) -> ClassificationResult:
    """Threshold the batch and report error fractions and empirical SNR.

    threshold_policy "midpoint" places the cut halfway between the two
    analytic means, matching the equal-variance fidelity convention;
    "likelihood" uses the equal-density point of the two analytic
    Gaussians, relevant when squeezing makes the variances unequal.
    The empirical fidelity (1 − error₊ − error₋)·exp(−t/2T₁) uses the
    batch's own t and T₁ = t1 in the unit of t, by default the intrinsic
    T1 of the batch's params; it converges to the analytic
    erf(SNR/√2)·exp(−t/2T₁) for equal-variance Gaussians as n grows.
    """
    if batch.n < 1 or batch.outcomes_plus.size == 0:
        raise ValidationError("cannot classify an empty batch")
    if t1 is None:
        t1 = batch.params.t1_intrinsic
    if not math.isfinite(t1) or t1 <= 0.0:
        raise ValidationError(f"t1 must be positive and finite, got {t1!r}")
    point = _evaluate("variance", _fields(batch.t, batch.probe, batch.params, batch.phi))
    m_plus, m_minus = point.mean_plus, point.mean_minus
    if threshold_policy == "midpoint":
        threshold = 0.5 * (m_plus + m_minus)
    elif threshold_policy == "likelihood":
        threshold = _likelihood_threshold(
            m_plus, point.variance_plus, m_minus, point.variance_minus
        )
    else:
        raise ValidationError(
            f"unknown threshold_policy {threshold_policy!r}; "
            "expected 'midpoint' or 'likelihood'"
        )

    plus_side_high = m_plus >= m_minus
    if plus_side_high:
        error_plus = float(np.mean(batch.outcomes_plus <= threshold))
        error_minus = float(np.mean(batch.outcomes_minus > threshold))
    else:
        error_plus = float(np.mean(batch.outcomes_plus >= threshold))
        error_minus = float(np.mean(batch.outcomes_minus < threshold))

    sd_plus = float(np.std(batch.outcomes_plus, ddof=1)) if batch.n > 1 else 0.0
    sd_minus = float(np.std(batch.outcomes_minus, ddof=1)) if batch.n > 1 else 0.0
    separation = abs(
        float(np.mean(batch.outcomes_plus)) - float(np.mean(batch.outcomes_minus))
    )
    if sd_plus + sd_minus == 0.0:
        raise NumericalError("batch has zero spread; empirical SNR is undefined")
    empirical_snr = separation / (sd_plus + sd_minus)

    survival = math.exp(-0.5 * batch.t / t1)
    return ClassificationResult(
        threshold=threshold,
        error_plus=error_plus,
        error_minus=error_minus,
        empirical_snr=empirical_snr,
        empirical_fidelity=(1.0 - error_plus - error_minus) * survival,
    )

