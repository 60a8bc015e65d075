"""Resonator response coefficients: a φ series at small times, closed forms after.

With a = κ/2 (amplitude damping) and b = χs (dispersive rotation rate)
the damped envelopes are f(t) = e^{−at}·cos bt and g(t) = e^{−at}·sin bt.
The readout needs their running integrals

    F(t) = ∫₀ᵗ f,   G(t) = ∫₀ᵗ g,

and the twice-integrated signal coefficients

    A(t) = t − κ·∫₀ᵗ F,   B(t) = κ·∫₀ᵗ G.

With z = a − ib and w = −zt these are the φ functions of exponential
integrators (Kassam & Trefethen, SIAM J. Sci. Comput. 26, 2005):

    F + iG = t·φ₁(w),   ∫₀ᵗF + i∫₀ᵗG = t²·φ₂(w),
    φ₁(w) = (eʷ − 1)/w = 1 + w·φ₂(w),   φ₂(w) = (eʷ − 1 − w)/w² = Σₖ wᵏ/(k+2)!.

Where |w| < 0.7 one 15-term Horner series gives φ₂, whose truncation
is below 1e-16 there, and all four integrals follow from it; the second
pair is formed as t·(t·φ₂), so ∫G stays finite wherever it is, even
where t² overflows.
Elsewhere the elementary antiderivatives with denominator a² + b² are
used; they cancel their leading digits only at small |w|, and from the
seam on they keep ∫G, the worst of the four, within about 7e-15.
Against 60-digit arithmetic on the same doubles all four integrals
hold 1e-14 relative on both sides of the seam (F relative to |F + iG|).
Where a² + b² underflows to 0 or overflows, or χs·t overflows, the
closed forms raise a NumericalError instead of a Python exception or a
silent A = t, B = 0; so does _response at an internal time χs·t that
is already inf.  signal_coefficients raises one too where A or B is
not finite.
"""

from __future__ import annotations

import math

from .errors import NumericalError, ValidationError
from .params import SystemParams, _real

# 1/k! for k = 16, 15, ..., 2: the Taylor coefficients of φ₂, highest first
_PHI2 = tuple(1.0 / math.factorial(k) for k in range(16, 1, -1))


def _integrals(a: float, b: float, t: float):
    """(F, G, ∫₀ᵗF, ∫₀ᵗG) by the φ₂ series where |zt| < 0.7, else in closed form."""
    at, bt = a * t, b * t
    if at * at + bt * bt < 0.49:  # |w| < 0.7; a square past the range is inf
        w = complex(-at, bt)
        phi2 = 0j
        for c in _PHI2:
            phi2 = phi2 * w + c
        first = t * (1.0 + w * phi2)
        second = t * (t * phi2)  # not t²·φ₂: t² may overflow where ∫G does not
        return first.real, first.imag, second.real, second.imag
    try:
        e, cb, sb = math.exp(-at), math.cos(bt), math.sin(bt)
    except ValueError:  # cos(inf)
        raise NumericalError("response coefficients overflow: chi_s*t is too large") from None
    d = a * a + b * b
    if not 0.0 < d < math.inf:  # at inf the integrals below would be 0: A = t, B = 0
        fault = "underflows" if d == 0.0 else "overflows"
        raise NumericalError(f"response coefficients overflow: (kappa/2)^2 + chi_s^2 {fault}")
    big_f = (a - e * (a * cb - b * sb)) / d
    big_g = (b - e * (a * sb + b * cb)) / d
    int_f = (at - a * big_f + b * big_g) / d
    int_g = (bt - a * big_g - b * big_f) / d
    return big_f, big_g, int_f, int_g


def _response(kappa: float, chi_s: float, t: float):
    """(F, G, A, B) at time t; an infinite t is χs·t past the double range."""
    if not 0.0 <= t < math.inf:
        if t == math.inf:
            raise NumericalError("response coefficients overflow: chi_s*t is too large")
        raise ValidationError(f"t must be nonnegative and finite, got {t!r}")
    big_f, big_g, int_f, int_g = _integrals(0.5 * kappa, chi_s, t)
    return big_f, big_g, t - kappa * int_f, kappa * int_g


def signal_coefficients(t: float, params: SystemParams) -> tuple[float, float]:
    """(A, B) = (t − κ∫₀ᵗF, κ∫₀ᵗG), the integrated-signal weights."""
    return _signal(_real("t", t, "nonnegative and finite"), params.kappa, params.chi_s)


def _signal(t: float, kappa: float, chi_s: float) -> tuple[float, float]:
    """signal_coefficients at a checked t, which may be χs·t past the double range."""
    a_coef, b_coef = _response(kappa, chi_s, t)[2:]
    # the series' t·(t·φ₂) or a subnormal (κ/2)² + χs² in the closed forms
    # takes A or B past the double range; the model's own stages meet this
    # in their variance check
    if not (math.isfinite(a_coef) and math.isfinite(b_coef)):
        raise NumericalError(
            f"response coefficients overflow: got A = {a_coef!r} and B = {b_coef!r}"
        )
    return a_coef, b_coef
