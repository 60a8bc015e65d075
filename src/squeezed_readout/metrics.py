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
from dataclasses import dataclass

from .dynamics import CoefficientSet, coefficient_set, signal_coefficients
from .errors import NumericalError, UndefinedPointError, ValidationError
from .params import SystemParams, wrap_angle
from .probe import (
    SQRT2,
    ProbeState,
    input_means,
    rotated_quadrature_covariance,
    rotated_quadrature_variance,
)

_PHASE_TOL = 1e-9


def _check_sigma(sigma: int) -> None:
    if sigma not in (1, -1):
        raise ValidationError(f"sigma must be +1 or -1, got {sigma!r}")


def _check_phi(phi: float) -> None:
    if not math.isfinite(phi):
        raise ValidationError(f"phi must be finite, got {phi!r}")


def _internal(t: float, params: SystemParams) -> tuple[float, SystemParams]:
    """Rescale (t, params) to the χs = 1 convention."""
    return t * params.chi_s, params.as_internal()


def measurement_mean(
    t: float, probe: ProbeState, params: SystemParams, phi: float, sigma: int
) -> float:
    """Mean outcome for a homodyne measurement at LO angle phi."""
    _check_sigma(sigma)
    _check_phi(phi)
    ti, pi_ = _internal(t, params)
    a_coef, b_coef = signal_coefficients(ti, pi_)
    mq, mp = input_means(probe)
    c, s = math.cos(phi), math.sin(phi)
    return a_coef * (mq * c + mp * s) + sigma * b_coef * (-mq * s + mp * c)


METRICS = ("snr", "fidelity", "contrast", "variance")


@dataclass(frozen=True)
class _Evaluation:
    """Everything one operating point yields from one coefficient evaluation."""

    coeff: CoefficientSet
    contrast: float
    variance_plus: float
    variance_minus: float
    value: float | None  # the requested metric; None for SNR and fidelity at t = 0


def _evaluate(
    metric: str, t: float, probe: ProbeState, params: SystemParams, phi: float
) -> _Evaluation:
    """Coefficients, contrast, both variances and one metric; phi unchecked.

    Every figure of merit, sweep row, peak-search step and figure table
    reads this one evaluation.
    """
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    ti, pi_ = _internal(t, params)
    coeff = coefficient_set(ti, pi_)
    a_coef, b_coef = coeff.a_coef, coeff.b_coef
    var_q_rot = rotated_quadrature_variance(probe, phi)
    var_p_rot = rotated_quadrature_variance(probe, phi + 0.5 * math.pi)
    cov_rot = rotated_quadrature_covariance(probe, phi)
    vacuum = pi_.vacuum_weight * 0.5 * pi_.kappa * (coeff.big_f**2 + coeff.big_g**2)
    squeezed = a_coef**2 * var_q_rot + b_coef**2 * var_p_rot
    cross = 2.0 * a_coef * b_coef * cov_rot
    vp = squeezed + cross + vacuum
    vm = squeezed - cross + vacuum
    separation = 2.0 * SQRT2 * probe.alpha * abs(b_coef) * abs(
        math.sin(probe.theta_alpha - phi)
    )
    value = None
    if metric == "contrast":
        value = separation
    elif metric == "variance":
        # symmetrized over the qubit eigenvalue; the two halves differ
        # only through the frame-residual covariance cross term
        value = 0.5 * (vp + vm)
    elif t > 0.0:
        if vp <= 0.0 or vm <= 0.0:
            raise NumericalError(
                f"outcome variances must be positive, got {vp!r} and {vm!r}"
            )
        value = separation / (math.sqrt(vp) + math.sqrt(vm))
        if metric == "fidelity":
            value = fidelity(ti, value, pi_.t1_intrinsic)
    return _Evaluation(coeff, separation, vp, vm, value)


def contrast(t: float, probe: ProbeState, params: SystemParams, phi: float) -> float:
    """Separation |mean₊ − mean₋| = 2√2·α·|B|·|sin(θα − φ)|."""
    _check_phi(phi)
    return _evaluate("contrast", t, probe, params, phi).contrast


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
    point = _evaluate("variance", t, probe, params, phi)
    return point.variance_plus if sigma == 1 else point.variance_minus


def _snr_evaluation(
    t: float, probe: ProbeState, params: SystemParams, phi: float
) -> _Evaluation:
    _check_phi(phi)
    if t <= 0.0:
        raise UndefinedPointError(f"snr is undefined at t={t!r}; requires t > 0")
    return _evaluate("snr", t, probe, params, phi)


def snr(t: float, probe: ProbeState, params: SystemParams, phi: float) -> float:
    """Contrast over the summed standard deviations of the two outcomes."""
    return _snr_evaluation(t, probe, params, phi).value


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
    ti, pi_ = _internal(t, params)
    a_coef, b_coef = signal_coefficients(ti, pi_)
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
    t1 = params.t1_intrinsic if t1_total is None else t1_total
    point = _snr_evaluation(t, probe, params, phi)
    return ReadoutPoint(
        t=t,
        lo_phase=wrap_angle(phi),
        contrast=point.contrast,
        variance_plus=point.variance_plus,
        variance_minus=point.variance_minus,
        snr=point.value,
        fidelity=fidelity(point.coeff.t, point.value, t1 * params.chi_s),
    )
