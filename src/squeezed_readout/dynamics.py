"""Resonator response coefficients in closed form.

With a = κ/2 (amplitude damping) and b = χs (dispersive rotation rate)
the damped envelopes are f(t) = e^{−at}·cos bt and g(t) = e^{−at}·sin bt.
The readout needs their running integrals

    F(t) = ∫₀ᵗ f,   G(t) = ∫₀ᵗ g,

and the twice-integrated signal coefficients

    A(t) = t − κ·∫₀ᵗ F,   B(t) = κ·∫₀ᵗ G.

All four integrals have elementary antiderivatives with denominator
D = a² + b²; those closed forms are used everywhere because sweeps
evaluate them at hundreds of points.  G and ∫G are O(t²) and O(t³) built from
O(1) terms, so at small times the closed forms cancel away their
leading digits.  For a·t and b·t both below 1e-2 a Taylor expansion
takes over; at that switch point the truncation error of the series
and the cancellation error of the closed forms are both at the 1e-9
relative level or better, and both fall off rapidly away from it.
Where D underflows to 0, χs·t overflows or the series' t³ does, the
coefficients raise a NumericalError instead of a Python exception;
signal_coefficients raises one too where A or B is not finite.
"""

from __future__ import annotations

import math

from .errors import NumericalError, ValidationError
from .params import SystemParams

_SERIES_THRESHOLD = 1e-2


def _series(a: float, b: float, t: float):
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
    int_g = b * t**3 * (
        1.0 / 6.0
        + t * (-a / 12.0 + t * ((3.0 * a2 - b2) / 120.0 + t * (a * (b2 - a2) / 180.0)))
    )
    return big_f, big_g, int_f, int_g


def _integrals(a: float, b: float, t: float):
    """(F, G, ∫₀ᵗF, ∫₀ᵗG) by closed form, or by series at tiny a·t, b·t."""
    at, bt = a * t, b * t
    if at < _SERIES_THRESHOLD and bt < _SERIES_THRESHOLD:
        try:
            return _series(a, b, t)
        except OverflowError:  # t**3
            raise NumericalError("response coefficients overflow: t**3 is too large") from None
    d = a * a + b * b
    if d == 0.0:
        raise NumericalError("response coefficients overflow: (kappa/2)^2 + chi_s^2 underflows")
    try:
        e, cb, sb = math.exp(-at), math.cos(bt), math.sin(bt)
    except ValueError:  # cos(inf)
        raise NumericalError("response coefficients overflow: chi_s*t is too large") from None
    big_f = (a - e * (a * cb - b * sb)) / d
    big_g = (b - e * (a * sb + b * cb)) / d
    int_f = (at - a * big_f + b * big_g) / d
    int_g = (bt - a * big_g - b * big_f) / d
    return big_f, big_g, int_f, int_g


def _response(kappa: float, chi_s: float, t: float):
    """(F, G, A, B) at time t."""
    if not math.isfinite(t) or t < 0.0:
        raise ValidationError(f"t must be nonnegative and finite, got {t!r}")
    big_f, big_g, int_f, int_g = _integrals(0.5 * kappa, chi_s, t)
    return big_f, big_g, t - kappa * int_f, kappa * int_g


def signal_coefficients(t: float, params: SystemParams) -> tuple[float, float]:
    """(A, B) = (t − κ∫₀ᵗF, κ∫₀ᵗG), the integrated-signal weights."""
    a_coef, b_coef = _response(params.kappa, params.chi_s, t)[2:]
    # a subnormal (κ/2)² + χs² divides the closed forms past the double
    # range; the model's own stages meet this in their variance check
    if not (math.isfinite(a_coef) and math.isfinite(b_coef)):
        raise NumericalError(
            f"response coefficients overflow: got A = {a_coef!r} and B = {b_coef!r}"
        )
    return a_coef, b_coef
