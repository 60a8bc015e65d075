"""Resonator response coefficients in closed form.

With a = κ/2 (amplitude damping) and b = χs (dispersive rotation rate)
the damped envelopes are f(t) = e^{−at}·cos bt and g(t) = e^{−at}·sin bt.
The readout needs their running integrals

    F(t) = ∫₀ᵗ f,   G(t) = ∫₀ᵗ g,

and the twice-integrated signal coefficients

    A(t) = t − κ·∫₀ᵗ F,   B(t) = κ·∫₀ᵗ G.

All four integrals have elementary antiderivatives with denominator
D = a² + b²; those closed forms are used everywhere because sweeps
evaluate them on dense grids.  G and ∫G are O(t²) and O(t³) built from
O(1) terms, so at small times the closed forms cancel away their
leading digits.  For a·t and b·t both below 1e-2 a Taylor expansion
takes over; at that switch point the truncation error of the series
and the cancellation error of the closed forms are both at the 1e-9
relative level or better, and both fall off rapidly away from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .params import SystemParams, _each, _elementwise

_SERIES_THRESHOLD = 1e-2
_CUBE = functools.partial(pow, exp=3)  # x**3, for one element at a time
_TRIG = (math.exp, math.cos, math.sin)
_TRIG_GRID = _elementwise(*_TRIG)


def _check_time(t) -> None:
    if isinstance(t, np.ndarray):
        for x in () if (np.isfinite(t) & (t >= 0.0)).all() else t.tolist():
            _check_time(x)
        return
    if not math.isfinite(t) or t < 0.0:
        raise ValidationError(f"t must be nonnegative and finite, got {t!r}")


def _series(a, b, t):
    a2, b2 = a * a, b * b
    c3 = a2 - b2
    c4 = a * (a2 - 3.0 * b2)
    c5 = a2 * a2 - 6.0 * a2 * b2 + b2 * b2
    big_f = t * (
        1.0
        + t * (-a / 2.0 + t * (c3 / 6.0 + t * (-c4 / 24.0 + t * (c5 / 120.0))))
    )
    big_g = b * t * t * (
        0.5 + t * (-a / 3.0 + t * ((3.0 * a2 - b2) / 24.0 + t * (a * (b2 - a2) / 30.0)))
    )
    int_f = t * t * (
        0.5
        + t * (-a / 6.0 + t * (c3 / 24.0 + t * (-c4 / 120.0 + t * (c5 / 720.0))))
    )
    int_g = b * _each(_CUBE, t) * (
        1.0 / 6.0
        + t * (-a / 12.0 + t * ((3.0 * a2 - b2) / 120.0 + t * (a * (b2 - a2) / 180.0)))
    )
    return big_f, big_g, int_f, int_g


def _integrals(a, b, t):
    """(F, G, ∫₀ᵗF, ∫₀ᵗG) by closed form, or by series at tiny a·t, b·t.

    a and t may be arrays of one length; their small elements are masked.
    """
    small = (a * t < _SERIES_THRESHOLD) & (b * t < _SERIES_THRESHOLD)
    grid = isinstance(small, np.ndarray)
    if not grid and small:
        return _series(a, b, t)
    exp, cos, sin = _TRIG_GRID if grid else _TRIG
    d = a * a + b * b
    e, cb, sb = exp(-a * t), cos(b * t), sin(b * t)
    big_f = (a - e * (a * cb - b * sb)) / d
    big_g = (b - e * (a * sb + b * cb)) / d
    int_f = (a * t - a * big_f + b * big_g) / d
    int_g = (b * t - a * big_g - b * big_f) / d
    closed = (big_f, big_g, int_f, int_g)
    if grid and small.any():
        a_small, t_small = (np.broadcast_to(x, small.shape)[small] for x in (a, t))
        for full, part in zip(closed, _series(a_small, b, t_small)):
            full[small] = part
    return closed


def _response(kappa, chi_s, t):
    """(F, G, A, B) at time t; t and kappa may be arrays of one length."""
    _check_time(t)
    big_f, big_g, int_f, int_g = _integrals(0.5 * kappa, chi_s, t)
    return big_f, big_g, t - kappa * int_f, kappa * int_g


def envelopes(t: float, params: SystemParams) -> tuple[float, float]:
    """(f, g) = e^{−κt/2}·(cos χs·t, sin χs·t)."""
    _check_time(t)
    e = math.exp(-0.5 * params.kappa * t)
    return e * math.cos(params.chi_s * t), e * math.sin(params.chi_s * t)


def first_integrals(t: float, params: SystemParams) -> tuple[float, float]:
    """(F, G), the running integrals of the envelopes from 0 to t."""
    return _response(params.kappa, params.chi_s, t)[:2]


def signal_coefficients(t: float, params: SystemParams) -> tuple[float, float]:
    """(A, B) = (t − κ∫₀ᵗF, κ∫₀ᵗG), the integrated-signal weights."""
    return _response(params.kappa, params.chi_s, t)[2:]


@dataclass(frozen=True)
class CoefficientSet:
    """All response coefficients at one time, evaluated consistently."""

    t: float
    f: float
    g: float
    big_f: float
    big_g: float
    a_coef: float
    b_coef: float


def coefficient_set(t: float, params: SystemParams) -> CoefficientSet:
    """Evaluate f, g, F, G, A, B at time t in one pass."""
    f, g = envelopes(t, params)
    big_f, big_g, a_coef, b_coef = _response(params.kappa, params.chi_s, t)
    return CoefficientSet(
        t=t, f=f, g=g, big_f=big_f, big_g=big_g, a_coef=a_coef, b_coef=b_coef
    )
