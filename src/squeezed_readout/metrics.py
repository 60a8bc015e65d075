"""Analytic readout figures of merit.

The measurement integrates the leaked output field for a time t and
projects it onto the local-oscillator quadrature at angle phi.  For a
qubit eigenvalue sigma = ±1 the outcome is Gaussian with

    mean      A·⟨Q'⟩ + σ·B·⟨P'⟩
    variance  A²·Var(Q') + B²·Var(P') + 2σAB·Cov(Q',P')
              + u·(κ/2)(F² + G²)

where primes denote the input quadratures rotated by phi, A, B, F, G are
the response coefficients of cavity_dynamics, and u is the vacuum-noise
weight from SystemParams.  The cross term vanishes whenever the
measurement frame is aligned with the squeezing ellipse, i.e. when
Δθ = φ − θξ/2 is a multiple of π/2.

All functions here accept (t, params) in any consistent unit system and
rescale to χs = 1 internally, so results depend only on χs·t and κ/χs.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .dynamics import _response, signal_coefficients
from .errors import NumericalError, UndefinedPointError, ValidationError
from .params import SystemParams, _elementwise, wrap_angle
from .probe import SQRT2, ProbeState, _input_means, _rotated_moments

_PHASE_TOL = 1e-9


def _check_sigma(sigma: int) -> None:
    if sigma not in (1, -1):
        raise ValidationError(f"sigma must be +1 or -1, got {sigma!r}")


def _check_phi(phi: float) -> None:
    if not math.isfinite(phi):
        raise ValidationError(f"phi must be finite, got {phi!r}")


METRICS = ("snr", "fidelity", "contrast", "variance")

# Model inputs in internal units (χs = 1): t, kappa, alpha, r and theta_xi
# are floats or 1-D float64 arrays of one length (a grid), the rest floats.
_Fields = namedtuple("_Fields", "t kappa alpha r theta_xi theta_alpha phi u t1")
# One evaluation: floats, or for a grid a list with one entry per point.
# The first six are a sweep row's diagnostics.  snr is only evaluated for
# the metrics snr and fidelity; snr and value are None where undefined.
_Evaluation = namedtuple(
    "_Evaluation",
    "a_coef b_coef big_f big_g variance_plus variance_minus"
    " mean_plus mean_minus contrast snr value",
)


def _fields(t, probe: ProbeState, params: SystemParams, phi, t1_total=None):
    """Model inputs at an operating point; t1_total (unit of t) overrides T1."""
    c, internal = params.chi_s, params.as_internal()
    t1 = internal.t1_intrinsic if t1_total is None else t1_total * c
    state = (probe.alpha, probe.r, probe.theta_xi, probe.theta_alpha)
    return _Fields(t * c, internal.kappa, *state, phi, internal.vacuum_weight, t1)


def _square(x: float) -> float:
    return x**2


(_square_grid,) = _elementwise(_square)

def _snr_point(metric, t, separation, vp, vm, t1):
    """(snr, metric value) at one point, for the metrics snr and fidelity."""
    if not t > 0.0:
        return None, None
    if vp <= 0.0 or vm <= 0.0:
        raise NumericalError(
            f"outcome variances must be positive, got {vp!r} and {vm!r}"
        )
    value = separation / (math.sqrt(vp) + math.sqrt(vm))
    return value, fidelity(t, value, t1) if metric == "fidelity" else value


def _evaluate(metric: str, point: _Fields) -> _Evaluation:
    """The readout model at one operating point or over a whole grid.

    Every figure of merit, sweep, peak search, figure table and
    classification reads this one evaluation; phi is unchecked.  On a
    grid the arithmetic runs on arrays, and every transcendental function
    and power on each element through the math module, so each grid
    point carries the bits of the float path.
    """
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    t, kappa, alpha, r, theta_xi, theta_alpha, phi, u, t1 = point
    big_f, big_g, a_coef, b_coef = _response(kappa, 1.0, t)
    var_q_rot, var_p_rot, cov_rot = _rotated_moments(r, theta_xi, phi)
    square = _square_grid if isinstance(a_coef, np.ndarray) else _square
    try:
        vacuum = u * 0.5 * kappa * (square(big_f) + square(big_g))
        squeezed = square(a_coef) * var_q_rot + square(b_coef) * var_p_rot
    except OverflowError:
        raise NumericalError("response coefficients overflow: t is too large") from None
    cross = 2.0 * a_coef * b_coef * cov_rot
    vp = squeezed + cross + vacuum
    vm = squeezed - cross + vacuum
    mq, mp = _input_means(alpha, theta_alpha)
    c, s = math.cos(phi), math.sin(phi)
    along = a_coef * (mq * c + mp * s)
    across = b_coef * (-mq * s + mp * c)
    sep = 2.0 * SQRT2 * alpha * abs(b_coef) * abs(math.sin(theta_alpha - phi))
    # the variance is symmetrized over the qubit eigenvalue; the two
    # halves differ only through the frame-residual covariance cross term
    value = {"contrast": sep, "variance": 0.5 * (vp + vm)}.get(metric)
    fields = [a_coef, b_coef, big_f, big_g, vp, vm, along + across, along - across, sep]
    fields += [None, value]  # snr and the metric value, set below for snr and fidelity
    if isinstance(vp, np.ndarray) or isinstance(sep, np.ndarray):
        # a grid: every swept field reaches the variances or the separation
        n = np.broadcast(vp, sep).size
        fields = [x if x is None else np.broadcast_to(x, n).tolist() for x in fields]
        if metric in ("snr", "fidelity"):
            rows = (np.broadcast_to(t, n).tolist(), fields[8], fields[4], fields[5])
            fields[9:] = zip(*map(_snr_point, [metric] * n, *rows, [t1] * n))
    elif metric in ("snr", "fidelity"):
        fields[9:] = _snr_point(metric, t, sep, vp, vm, t1)
    return _Evaluation._make(fields)


def measurement_mean(
    t: float, probe: ProbeState, params: SystemParams, phi: float, sigma: int
) -> float:
    """Mean outcome A·⟨Q′⟩ + σ·B·⟨P′⟩ of a homodyne measurement at LO angle phi."""
    _check_sigma(sigma)
    _check_phi(phi)
    point = _evaluate("contrast", _fields(t, probe, params, phi))
    return point.mean_plus if sigma == 1 else point.mean_minus


def contrast(t: float, probe: ProbeState, params: SystemParams, phi: float) -> float:
    """Separation |mean₊ − mean₋| = 2√2·α·|B|·|sin(θα − φ)|."""
    _check_phi(phi)
    return _evaluate("contrast", _fields(t, probe, params, phi)).contrast


def integrated_variance(
    t: float, probe: ProbeState, params: SystemParams, phi: float, sigma: int
) -> float:
    """Outcome variance for qubit eigenvalue sigma at LO angle phi.

    Exact Gaussian propagation of the probe covariance through the
    coefficients (A, σB), plus the resonator-vacuum term
    u·(κ/2)(F² + G²), which is invariant under phi.
    """
    _check_sigma(sigma)
    _check_phi(phi)
    point = _evaluate("variance", _fields(t, probe, params, phi))
    return point.variance_plus if sigma == 1 else point.variance_minus


def _snr_evaluation(metric, t, probe, params, phi, t1_total=None) -> _Evaluation:
    _check_phi(phi)
    if t <= 0.0:
        raise UndefinedPointError(f"snr is undefined at t={t!r}; requires t > 0")
    return _evaluate(metric, _fields(t, probe, params, phi, t1_total))


def snr(t: float, probe: ProbeState, params: SystemParams, phi: float) -> float:
    """Contrast over the summed standard deviations of the two outcomes."""
    return _snr_evaluation("snr", t, probe, params, phi).value


def erf(x: float) -> float:
    """Error function (2/√π)∫₀ˣe^{−s²}ds for finite x."""
    if not math.isfinite(x):
        raise ValidationError(f"erf requires finite input, got {x!r}")
    return math.erf(x)


def fidelity(t: float, snr_value: float, t1_total: float) -> float:
    """Readout fidelity exp(−t/2T₁)·erf(SNR/√2).

    t and t1_total must share one time unit.  The exponential prefactor
    is the probability that the qubit survives half the integration
    window; the formula assumes t ≪ T₁ and a warning is emitted past
    t/T₁ = 0.1.
    """
    if not math.isfinite(t) or t < 0.0:
        raise ValidationError(f"t must be nonnegative and finite, got {t!r}")
    if not math.isfinite(t1_total) or t1_total <= 0.0:
        raise ValidationError(f"t1_total must be positive, got {t1_total!r}")
    if not math.isfinite(snr_value):
        raise ValidationError(f"snr_value must be finite, got {snr_value!r}")
    if t / t1_total > 0.1:
        warnings.warn(
            f"fidelity formula assumes t << T1; got t/T1 = {t / t1_total:.3g}",
            stacklevel=2,
        )
    return math.exp(-0.5 * t / t1_total) * erf(snr_value / math.sqrt(2.0))


def optimal_time_estimate(r: float, params: SystemParams) -> float:
    """Estimated best integration time e^{−r}·√(6/(κχs))."""
    if not math.isfinite(r) or r < 0.0:
        raise ValidationError(f"r must be nonnegative and finite, got {r!r}")
    return math.exp(-r) * math.sqrt(6.0 / (params.kappa * params.chi_s))


def optimal_squeezing(t: float, params: SystemParams) -> float | None:
    """Squeezing r* = ½·ln(A(t)/B(t)) that minimizes the matched-phase noise.

    Balances the squeezed A² term against the anti-squeezed B² term;
    independent of the probe amplitude and of the vacuum weight.  Returns
    None when A/B ≤ 0 (past the first zero crossing of either
    coefficient) since no interior optimum exists there.
    """
    if t <= 0.0:
        raise UndefinedPointError(
            f"optimal_squeezing is undefined at t={t!r}; requires t > 0"
        )
    a_coef, b_coef = signal_coefficients(t * params.chi_s, params.as_internal())
    if b_coef == 0.0 or a_coef / b_coef <= 0.0:
        return None
    return 0.5 * math.log(a_coef / b_coef)


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
    residual_1 = abs(math.remainder(theta_alpha - phi - 0.5 * math.pi, math.pi))
    residual_2 = abs(math.remainder(phi - 0.5 * theta_xi, math.pi))
    matched = residual_1 < _PHASE_TOL and residual_2 < _PHASE_TOL
    return residual_1, residual_2, matched


@dataclass(frozen=True)
class ReadoutPoint:
    """Bundle of every analytic figure of merit at one operating point."""

    t: float
    lo_phase: float
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
    """Evaluate contrast, variances, SNR and fidelity together at time t.

    t1_total overrides the relaxation time used in the fidelity factor
    (same unit as t); default is the intrinsic T1 from params.
    """
    point = _snr_evaluation("fidelity", t, probe, params, phi, t1_total)
    return ReadoutPoint(
        t=t,
        lo_phase=wrap_angle(phi),
        contrast=point.contrast,
        variance_plus=point.variance_plus,
        variance_minus=point.variance_minus,
        snr=point.snr,
        fidelity=point.value,
    )
