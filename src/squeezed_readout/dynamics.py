"""Resonator response coefficients: a φ series at small times, closed forms after.

The model runs in internal units, χs = 1 (params._rescaled), so with
a = κ/2 (amplitude damping) and b = χs = 1 (dispersive rotation rate)
the damped envelopes are f(t) = e^{−at}·cos t and g(t) = e^{−at}·sin t.
The readout needs their running integrals

    F(t) = ∫₀ᵗ f,   G(t) = ∫₀ᵗ g,

and the twice-integrated signal coefficients

    A(t) = t − κ·∫₀ᵗ F,   B(t) = κ·∫₀ᵗ G.

With z = a − i and w = −zt these are the φ functions of exponential
integrators (Kassam & Trefethen, SIAM J. Sci. Comput. 26, 2005):

    F + iG = t·φ₁(w),   ∫₀ᵗF + i∫₀ᵗG = t²·φ₂(w),
    φ₁(w) = (eʷ − 1)/w = 1 + w·φ₂(w),   φ₂(w) = (eʷ − 1 − w)/w² = Σₖ wᵏ/(k+2)!.

Where |w| < 0.7 one 15-term Horner series gives φ₂, whose truncation
is below 1e-16 there, and all four integrals follow from it; the second
pair is formed as t·(t·φ₂), the rounding every output is pinned to.
Elsewhere the elementary antiderivatives with denominator a² + 1 are
used; they cancel their leading digits only at small |w|, and from the
seam on they keep ∫G, the worst of the four, within about 7e-15.
Against 60-digit arithmetic on the same doubles all four integrals
hold 1e-14 relative on both sides of the seam (F relative to |F + iG|).
Two faults remain, each a NumericalError: a² + 1 that overflows, where
the closed forms would give a silent A = t, B = 0, and an internal time
χs·t that is already inf, which _response raises on every route.
"""

from __future__ import annotations

import math

from .errors import NumericalError, ValidationError

# 1/k! for k = 16, 15, ..., 2: the Taylor coefficients of φ₂, highest first
_PHI2 = tuple(1.0 / math.factorial(k) for k in range(16, 1, -1))


def _integrals(a: float, t: float):
    """(F, G, ∫₀ᵗF, ∫₀ᵗG) by the φ₂ series where |zt| < 0.7, else in closed form."""
    at = a * t
    if at * at + t * t < 0.49:  # |w| < 0.7; a square past the range is inf
        w = complex(-at, t)
        phi2 = 0j
        for c in _PHI2:
            phi2 = phi2 * w + c
        first = t * (1.0 + w * phi2)
        second = t * (t * phi2)  # not (t·t)·φ₂, which rounds differently
        return first.real, first.imag, second.real, second.imag
    e, cb, sb = math.exp(-at), math.cos(t), math.sin(t)
    d = a * a + 1.0
    if d == math.inf:  # the integrals below would be 0: A = t, B = 0
        raise NumericalError("response coefficients overflow: (kappa/2)^2 + chi_s^2 overflows")
    big_f = (a - e * (a * cb - sb)) / d
    big_g = (1.0 - e * (a * sb + cb)) / d
    int_f = (at - a * big_f + big_g) / d
    int_g = (t - a * big_g - big_f) / d
    return big_f, big_g, int_f, int_g


def _response(kappa: float, t: float):
    """(F, G, A, B) at internal time t; an infinite t is χs·t past the double range."""
    if not 0.0 <= t < math.inf:
        if t == math.inf:
            raise NumericalError("response coefficients overflow: chi_s*t is too large")
        raise ValidationError(f"t must be nonnegative and finite, got {t!r}")
    big_f, big_g, int_f, int_g = _integrals(0.5 * kappa, t)
    return big_f, big_g, t - kappa * int_f, kappa * int_g
