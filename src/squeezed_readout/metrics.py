"""Analytic readout figures of merit.

The measurement integrates the leaked output field for a time t and
projects it onto the local-oscillator quadrature at angle phi.  For a
qubit eigenvalue sigma = ±1 the outcome is Gaussian with

    mean      A·⟨Q'⟩ + σ·B·⟨P'⟩ = √2α·(A·cos(θα − φ) + σ·B·sin(θα − φ))
    variance  ½(e^{−r}·a_σ)² + ½(e^{r}·b_σ)² + u·(κ/2)(F² + G²)
              = e^{−2r}·½(A² + B²) + sinh 2r·b_σ² + u·(κ/2)(F² + G²)
    a_σ = A cos δ − σB sin δ,  b_σ = A sin δ + σB cos δ

where primes denote the input quadratures rotated by phi, A, B, F, G are
the response coefficients of cavity_dynamics, u is the vacuum-noise
weight from SystemParams and δ = φ − θξ/2 is the LO angle from the
squeezed quadrature.  The model forms the mean as along + σ·across
with across = (√2α·B)·sin(θα − φ), the one product that also gives the
contrast 2·|across|.  The probe terms lie on the axes of its squeeze
ellipse (see probe).  The model evaluates the second line, which
a_σ² + b_σ² = A² + B² gives: three nonnegative terms that cannot cancel,
and free of the angle at r = 0.  The eigenvalues share one variance
where δ is a multiple of π/2, the frame aligned with the ellipse.

All functions here accept (t, params) in any consistent unit system and
rescale to χs = 1 internally, so results depend only on χs·t and κ/χs.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass

from .dynamics import _response
from .errors import NumericalError, UndefinedPointError, ValidationError
from .params import SystemParams, _finite, _real, _rescaled, wrap_angle
from .probe import ProbeState, _lo_angle, _squeeze_factors

SQRT2 = math.sqrt(2.0)
_PHASE_TOL = 1e-9
_INF = math.inf


METRICS = ("snr", "fidelity", "contrast", "variance")

# Model inputs in internal units (χs = 1), all floats.
_Fields = namedtuple("_Fields", "t kappa alpha r theta_xi theta_alpha phi u t1")
# One evaluation.  The first eight are a sweep row's model fields, as
# _row returns them.  contrast is not evaluated for the metric variance,
# snr only for the metrics snr and fidelity; snr and value are None
# where undefined.
_Evaluation = namedtuple(
    "_Evaluation",
    "value big_f big_g a_coef b_coef variance_plus variance_minus snr"
    " mean_plus mean_minus contrast",
)


def _internal_time(t, chi_s: float) -> float:
    """χs·t; a NumericalError from params._rescaled where a t > 0 underflows
    to 0, which the model would read as the point t = 0.  t = 0 stays that
    point, and an inf χs·t is _response's to raise."""
    x = t * chi_s
    return _rescaled("t", t, chi_s) if x == 0.0 < t else x


def _fields(t, probe: ProbeState, params: SystemParams, phi, t1_total=None):
    """Model inputs at an operating point; t1_total (unit of t) overrides T1.

    t1_total is checked here, once.  κ/χs and χs·T1 are formed here, by
    params._rescaled, and χs·t by _internal_time.
    """
    c = params.chi_s
    kappa = _rescaled("kappa", params.kappa, c)
    if t1_total is None:
        t1 = _rescaled("t1_intrinsic", params.t1_intrinsic, c)
    else:
        t1 = _rescaled("t1_total", _real("t1_total", t1_total, "positive and finite"), c)
    state = (probe.alpha, probe.r, probe.theta_xi, probe.theta_alpha)
    return _Fields(_internal_time(t, c), kappa, *state, phi, params.vacuum_weight, t1)


def _projections(response, kappa: float, u: float, angle):
    """(½(A² + B²), b₊, b₋, vacuum term u·(κ/2)(F² + G²)) of the response F, G, A, B.

    b_σ = A sin δ + σB cos δ, at the LO angle (cos δ, sin δ) of probe._lo_angle.
    """
    big_f, big_g, a_coef, b_coef = response
    a2, b2 = a_coef * a_coef, b_coef * b_coef
    if a2 == _INF or b2 == _INF:
        raise NumericalError("response coefficients overflow: t is too large")
    c, s = angle
    a_s, b_c = a_coef * s, b_coef * c
    vacuum = u * 0.5 * kappa * (big_f * big_f + big_g * big_g)
    return 0.5 * a2 + 0.5 * b2, a_s + b_c, a_s - b_c, vacuum


def _variances(projections, factors):
    """(variance_plus, variance_minus); a NumericalError where one is not finite.

    Each sums e^{−2r}·½(A² + B²), sinh 2r·b_σ² and the vacuum term left to right.
    """
    (half_norm, b_plus, b_minus, vacuum), (squeezed, excess) = projections, factors
    base = squeezed * half_norm
    # (sinh 2r·b)·b: finite wherever the term is
    vp = base + (excess * b_plus) * b_plus + vacuum
    vm = base + (excess * b_minus) * b_minus + vacuum
    if math.isfinite(vp) and math.isfinite(vm):
        return vp, vm
    raise NumericalError(
        f"outcome variance overflows: got {float(vp)!r} and {float(vm)!r}"
    )


def _separation(metric: str, alpha: float, b_coef: float, theta_alpha: float, phi: float):
    """(across, contrast): across = (√2α·B)·sin(θα − φ), half the gap m₊ − m₋.

    The contrast 2·|across| is a NumericalError where it is not finite,
    and None for the metric variance, which reads none: it overflows
    first at huge alpha.
    """
    across = ((SQRT2 * alpha) * b_coef) * math.sin(theta_alpha - phi)
    if metric == "variance":
        return across, None
    sep = 2.0 * abs(across)
    if math.isfinite(sep):
        return across, sep
    raise NumericalError(f"contrast overflows at alpha = {float(alpha)!r}")


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")


def _row(metric: str, t: float, response, separation, vp: float, vm: float, t1: float):
    """(value, F, G, A, B, variance_plus, variance_minus, snr) at one point.

    value and snr are None where the metric is undefined; snr is None for
    the metrics contrast and variance.  An SNR that overflows, a finite
    contrast over a tiny noise, is a NumericalError.
    """
    big_f, big_g, a_coef, b_coef = response
    snr = value = None
    if metric == "contrast":
        value = separation
    elif metric == "variance":
        # symmetrized over the qubit eigenvalue; the two halves differ
        # only through the frame-residual covariance cross term
        value = 0.5 * (vp + vm)
        if value == _INF:  # vp + vm overflows, their halves do not
            value = 0.5 * vp + 0.5 * vm
    elif t > 0.0:
        if vp <= 0.0 or vm <= 0.0:
            raise NumericalError(
                f"outcome variances must be positive, got {vp!r} and {vm!r}"
            )
        snr = value = separation / (math.sqrt(vp) + math.sqrt(vm))
        if snr == _INF:
            noise = math.sqrt(vp) + math.sqrt(vm)
            raise NumericalError(f"snr overflows: contrast {separation!r} over noise {noise!r}")
        if metric == "fidelity":
            value = _fidelity(t, snr, t1)
    return value, big_f, big_g, a_coef, b_coef, vp, vm, snr


def _evaluate(metric: str, point: _Fields) -> _Evaluation:
    """The readout model at one operating point.

    Every figure of merit, shot batch and classification reads this one
    evaluation, and every sweep, figure panel and peak-search point
    returns its first eight fields; phi is unchecked.  The stages run in
    this order: the metric check, the response, the squeeze factors, the
    LO angle, the projections, the variances, the separation and the row,
    then the means along ± across, with along = (√2α·A)·cos(θα − φ).
    sweeps._kernel and sweeps.reproduce_figure2 call the same stage
    functions, so a sweep or figure point raises what this evaluation
    raises there.
    """
    t, kappa, alpha, r, theta_xi, theta_alpha, phi, u, t1 = point
    _check_metric(metric)
    response = _response(kappa, t)
    factors = _squeeze_factors(r)
    angle = _lo_angle(theta_xi, phi)
    vp, vm = _variances(_projections(response, kappa, u, angle), factors)
    across, sep = _separation(metric, alpha, response[3], theta_alpha, phi)
    row = _row(metric, t, response, sep, vp, vm, t1)
    along = ((SQRT2 * alpha) * response[2]) * math.cos(theta_alpha - phi)
    return _Evaluation(*row, along + across, along - across, sep)


def _means(point: _Evaluation) -> tuple[float, float]:
    """(mean_plus, mean_minus); a NumericalError where one is not finite.

    At a huge alpha √2α·A or √2α·B overflows and along ± across can be
    inf − inf; the variances, which read no mean, stay available there.
    """
    if math.isfinite(point.mean_plus) and math.isfinite(point.mean_minus):
        return point.mean_plus, point.mean_minus
    raise NumericalError(
        f"outcome mean overflows: got {point.mean_plus!r} and {point.mean_minus!r}"
    )


def _snr_evaluation(metric, t, probe, params, phi, t1_total=None) -> _Evaluation:
    t, phi = _real("t", t, None), _real("phi", phi)
    if t <= 0.0:
        raise UndefinedPointError(f"snr is undefined at t={t!r}; requires t > 0")
    t = _real("t", t, "nonnegative and finite")  # an inf χs·t is _response's to raise
    return _evaluate(metric, _fields(t, probe, params, phi, t1_total))


def snr(t: float, probe: ProbeState, params: SystemParams, phi: float) -> float:
    """Contrast over the summed standard deviations of the two outcomes."""
    return _snr_evaluation("snr", t, probe, params, phi).value


def fidelity(t: float, snr_value: float, t1_total: float) -> float:
    """Readout fidelity exp(−t/2T₁)·erf(SNR/√2).

    t and t1_total must share one time unit.  The exponential prefactor
    is the probability that the qubit survives half the integration
    window; the formula assumes t ≪ T₁ and a warning is emitted past
    t/T₁ = 0.1.
    """
    t = _real("t", t, "nonnegative and finite")
    t1_total = _real("t1_total", t1_total, "positive and finite")
    snr_value = _real("snr_value", snr_value)
    return _fidelity(t, snr_value, t1_total)


def _fidelity(t: float, snr_value: float, t1: float) -> float:
    """fidelity on checked floats; the warning names the first caller outside the package."""
    if t / t1 > 0.1:
        frame, level = sys._getframe(), 1
        while frame.f_back and frame.f_globals.get("__name__", "").startswith(f"{__package__}."):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"fidelity formula assumes t << T1; got t/T1 = {t / t1:.3g}", stacklevel=level
        )
    return math.exp(-0.5 * t / t1) * math.erf(snr_value / SQRT2)


def optimal_time_estimate(r: float, params: SystemParams) -> float:
    """Estimated best integration time e^{−r}·√(6/(κχs))."""
    r = _real("r", r, "nonnegative and finite")
    return _finite(
        lambda: math.exp(-r) * math.sqrt(6.0 / (params.kappa * params.chi_s)),
        "kappa*chi_s is too small: optimal time estimate",
        f"r = {r!r} or kappa*chi_s is too large: optimal time estimate",
    )


def optimal_squeezing(t: float, params: SystemParams) -> float | None:
    """Squeezing r* = ½·ln(A(t)/B(t)) that minimizes the matched-phase noise.

    Balances the squeezed A² term against the anti-squeezed B² term;
    independent of the probe amplitude and of the vacuum weight.  Returns
    None when A/B ≤ 0 (past the first zero crossing of either
    coefficient) since no interior optimum exists there.  Raises a
    NumericalError where A or B is not finite, and where A/B overflows:
    at a subnormal B, or at a B that has underflowed to 0 where A > 0.
    """
    t = _real("t", t, None)
    if t <= 0.0:
        raise UndefinedPointError(
            f"optimal_squeezing is undefined at t={t!r}; requires t > 0"
        )
    t = _real("t", t, "nonnegative and finite")  # an inf χs·t is _response's to raise
    c = params.chi_s
    a_coef, b_coef = _response(_rescaled("kappa", params.kappa, c), _internal_time(t, c))[2:]
    # (κ/2)·t past the double range makes the closed forms' ∫F inf and A = −inf
    if not (math.isfinite(a_coef) and math.isfinite(b_coef)):
        raise NumericalError(
            f"response coefficients overflow: got A = {a_coef!r} and B = {b_coef!r}"
        )
    if b_coef == 0.0 and a_coef > 0.0:  # B ≈ κt³/6 has underflowed
        r_star = math.inf
    elif b_coef == 0.0 or a_coef / b_coef <= 0.0:
        return None
    else:
        r_star = 0.5 * math.log(a_coef / b_coef)
    if math.isinf(r_star):
        raise NumericalError(
            f"optimal squeezing ½·ln(A/B) overflows: got A = {a_coef!r} and B = {b_coef!r}"
        )
    return r_star


def phase_matching_residual(
    theta_alpha: float, theta_xi: float, phi: float
) -> tuple[float, float, bool]:
    """Distances of the two phase conditions from exact matching.

    Condition 1: θα − φ ≡ π/2 (mod π) makes the contrast maximal.
    Condition 2: φ − θξ/2 ≡ 0 (mod π) aligns the LO with the squeezed
    quadrature.  Both residuals are circular distances in [0, π/2];
    matched when each is below 1e-9.  Jointly the two conditions are
    equivalent to 2θα − θξ ≡ π (mod 2π).
    """
    theta_alpha = _real("theta_alpha", theta_alpha)
    theta_xi = _real("theta_xi", theta_xi)
    phi = _real("phi", phi)
    residual_1 = abs(math.remainder(theta_alpha - phi - 0.5 * math.pi, math.pi))
    residual_2 = abs(math.remainder(phi - 0.5 * theta_xi, math.pi))
    matched = residual_1 < _PHASE_TOL and residual_2 < _PHASE_TOL
    return residual_1, residual_2, matched


@dataclass(frozen=True)
class ReadoutPoint:
    """Bundle of every analytic figure of merit at one operating point."""

    t: float
    lo_phase: float
    mean_plus: float
    mean_minus: float
    contrast: float
    variance_plus: float
    variance_minus: float
    snr: float
    fidelity: float


def readout_point(
    t: float,
    probe: ProbeState,
    params: SystemParams,
    phi: float,
    t1_total: float | None = None,
) -> ReadoutPoint:
    """Evaluate means, contrast, variances, SNR and fidelity together at time t.

    t1_total overrides the relaxation time used in the fidelity factor
    (same unit as t); default is the intrinsic T1 from params.
    """
    point = _snr_evaluation("fidelity", t, probe, params, phi, t1_total)
    mean_plus, mean_minus = _means(point)
    return ReadoutPoint(
        t=float(t),  # the checked t as the float params._real makes of it
        lo_phase=wrap_angle(phi),
        mean_plus=mean_plus,
        mean_minus=mean_minus,
        contrast=point.contrast,
        variance_plus=point.variance_plus,
        variance_minus=point.variance_minus,
        snr=point.snr,
        fidelity=point.value,
    )
