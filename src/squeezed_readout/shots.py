"""Single-shot Monte Carlo sampling of integrated homodyne outcomes.

Within the linear model the integrated output is an exact linear map of
four jointly Gaussian inputs: the two probe quadratures and the two
quadratures of the initial resonator vacuum.  Each shot therefore draws
four standard normals z and forms, for qubit eigenvalue σ,

    outcome_σ = w_σ·z + mean_σ
    w_σ = ( e^{−r}(A cos δ − σB sin δ)/√2,  e^{r}(A sin δ + σB cos δ)/√2,
            v(F cos φ + σG sin φ),  v(F sin φ − σG cos φ) )

where δ = φ − θξ/2 is the LO angle measured from the squeezed
quadrature (which sits at θξ/2) and v = √(u·κ/2), in internal units.
The first two entries draw the probe along the axes of its squeeze
ellipse, whose standard deviations are e^{∓r}/√2, so they stay exact up
to the overflow of cosh 2r (r ≈ 355); the last two draw the resonator
vacuum with variance u/2 per quadrature.  A, B, F, G and mean_σ come
from the one model evaluation metrics._evaluate, so the sampled mean is
the closed-form mean by construction and |w_σ|² is the closed-form
variance.

Randomness comes from numpy's counter-based Philox generator.  Shots
are produced in fixed blocks of 8192; block j for σ = +1 uses the
sub-stream jumped(2j) of the master seed and σ = −1 uses jumped(2j+1),
so batches are reproducible bit for bit.  The 2·⌈n/8192⌉ blocks of a
batch run on up to os.cpu_count() threads, worker k taking blocks k,
k + W, ...; each block fills its own slice of the output from its own
sub-stream, so the output does not depend on how many threads ran it.
A batch of one block per eigenstate runs on the calling thread.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .metrics import _evaluate, _Fields, _fields
from .params import SystemParams
from .probe import SQRT2, ProbeState

BLOCK_SIZE = 8192
# shots per eigenstate a batch may hold: 512 MiB of float64 outcomes each
MAX_SHOTS = 2**26
GENERATOR_ID = (
    "numpy-philox4x64-ziggurat/block8192/jumped(2j+{0:plus,1:minus})/ellipse-fold"
)


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


def _shot_map(point: _Fields) -> dict:
    """{σ: (w_σ, mean_σ)}, the map outcome_σ = w_σ·z + mean_σ at one point."""
    model = _evaluate("variance", point)
    a_coef, b_coef, big_f, big_g = model.a_coef, model.b_coef, model.big_f, model.big_g
    delta = point.phi - 0.5 * point.theta_xi
    cd, sd = math.cos(delta), math.sin(delta)
    c, s = math.cos(point.phi), math.sin(point.phi)
    squeezed, anti = math.exp(-point.r) / SQRT2, math.exp(point.r) / SQRT2
    v = math.sqrt(0.5 * point.u * point.kappa)
    maps = {}
    for sigma, mean in ((1, model.mean_plus), (-1, model.mean_minus)):
        weights = (
            squeezed * (a_coef * cd - sigma * b_coef * sd),
            anti * (a_coef * sd + sigma * b_coef * cd),
            v * (big_f * c + sigma * big_g * s),
            v * (big_f * s - sigma * big_g * c),
        )
        maps[sigma] = (weights, mean)
    return maps


def _fill_block(
    out: np.ndarray,
    sigma: int,
    block: int,
    base: np.random.Philox,
    weights: tuple[float, float, float, float],
    offset: float,
) -> None:
    """Draw one block of eigenvalue sigma's outcomes into its slice of out.

    May run on a worker thread, so it calls numpy only: numpy releases the
    GIL while it draws and while it forms the linear map.  The map is
    written out elementwise, not as z @ weights, whose BLAS kernel may
    round differently from one CPU to the next.
    """
    w0, w1, w2, w3 = weights
    lo = block * BLOCK_SIZE
    m = min(BLOCK_SIZE, out.size - lo)
    rng = np.random.Generator(base.jumped(2 * block + (0 if sigma == 1 else 1)))
    z = rng.standard_normal((m, 4))
    out[lo : lo + m] = z[:, 0] * w0 + z[:, 1] * w1 + z[:, 2] * w2 + z[:, 3] * w3 + offset


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
    if n > MAX_SHOTS:
        raise ValidationError(
            f"n must be at most MAX_SHOTS = {MAX_SHOTS} per eigenstate, got {n!r}"
        )
    if not math.isfinite(t) or t <= 0.0:
        raise ValidationError(f"t must be positive and finite, got {t!r}")
    if not math.isfinite(phi):
        raise ValidationError(f"phi must be finite, got {phi!r}")
    if not isinstance(seed, int) or not 0 <= seed < 2**128:
        raise ValidationError(f"seed must be an integer in [0, 2^128), got {seed!r}")

    maps = _shot_map(_fields(t, probe, params, phi))
    outcomes = {sigma: np.empty(n) for sigma in (+1, -1)}
    base = np.random.Philox(key=seed)
    tasks = [
        (sigma, block) for sigma in (+1, -1) for block in range(-(-n // BLOCK_SIZE))
    ]
    # two tasks of at most one block each cost less than starting threads
    workers = 1 if n <= BLOCK_SIZE else min(os.cpu_count() or 1, len(tasks))

    def run(worker: int) -> None:
        for sigma, block in tasks[worker::workers]:
            _fill_block(outcomes[sigma], sigma, block, base, *maps[sigma])

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, range(workers)))  # re-raises a worker's exception
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
    if batch.n < 2 or batch.outcomes_plus.size < 2:
        raise ValidationError(
            f"cannot classify a batch of {batch.n} shot(s) per eigenstate; "
            "an empirical SNR needs at least 2"
        )
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

    # at huge outcomes the sums inside mean and std overflow; that is
    # reported below as one error, not as numpy warnings and a NaN
    with np.errstate(over="ignore", invalid="ignore"):
        sd_plus = float(np.std(batch.outcomes_plus, ddof=1))
        sd_minus = float(np.std(batch.outcomes_minus, ddof=1))
        mean_plus = float(np.mean(batch.outcomes_plus))
        mean_minus = float(np.mean(batch.outcomes_minus))
    separation = abs(mean_plus - mean_minus)
    spread = sd_plus + sd_minus
    # a finite difference needs both means finite, a finite sum both spreads
    if not (math.isfinite(separation) and math.isfinite(spread)):
        raise NumericalError(
            "batch means or standard deviations overflow; empirical SNR is undefined"
        )
    if spread == 0.0:
        raise NumericalError("batch has zero spread; empirical SNR is undefined")
    empirical_snr = separation / spread

    survival = math.exp(-0.5 * batch.t / t1)
    return ClassificationResult(
        threshold=threshold,
        error_plus=error_plus,
        error_minus=error_minus,
        empirical_snr=empirical_snr,
        empirical_fidelity=(1.0 - error_plus - error_minus) * survival,
    )

