"""The displaced squeezed vacuum probe and its squeeze ellipse.

Quadrature convention: Q = (b + b†)/√2, P = (b − b†)/(i√2), so the
vacuum variance is 1/2.  A probe is parametrized by a displacement
``alpha``·e^{i·theta_alpha} and a squeezing amplitude ``r`` with phase
``theta_xi``; with this convention the quadrature squeezed below vacuum
sits at angle theta_xi/2, so theta_xi = ±π squeezes P.

Its covariance is an ellipse with the variance e^{−2r}/2 along the
squeezed axis and e^{2r}/2 across it, so the quadrature at the LO angle
δ = φ − θξ/2 from the squeezed axis has the variance

    ½(e^{−2r}·cos²δ + e^{2r}·sin²δ) = ½e^{−2r} + sinh 2r·sin²δ.

The model reads the probe through the squeeze factors (e^{−2r}, sinh 2r)
and (cos δ, sin δ), from which metrics._variances forms the outcome variance;
its mean, √2α·(cos θα, sin θα), enters the outcome means only through
√2α and θα − φ (see metrics._separation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError
from .params import _finite, _real, wrap_angle


@dataclass(frozen=True)
class ProbeState:
    """Displaced squeezed vacuum input state.

    alpha and r are magnitudes (both >= 0); the phases are stored reduced
    to (-pi, pi].  cosh 2r overflows a double past r ≈ 355, and every
    layer of the model raises NumericalError there.
    """

    alpha: float = 0.0
    theta_alpha: float = 0.0
    r: float = 0.0
    theta_xi: float = math.pi

    def __post_init__(self) -> None:
        for name in ("alpha", "r"):
            value = _real(name, getattr(self, name), "nonnegative and finite")
            object.__setattr__(self, name, value)
        for name in ("theta_alpha", "theta_xi"):
            object.__setattr__(self, name, wrap_angle(_real(name, getattr(self, name))))


def _squeeze_factors(r: float):
    """(e^{−2r}, sinh 2r); sinh 2r overflows where cosh 2r does (see ProbeState)."""
    try:
        return math.exp(-2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        raise NumericalError("squeezing r is too large: cosh 2r overflows") from None


def _lo_angle(theta_xi: float, phi: float):
    """(cos δ, sin δ) of the LO angle δ = ½(2φ − θξ) from the squeezed axis."""
    delta = 0.5 * (2.0 * phi - theta_xi)
    try:
        return math.cos(delta), math.sin(delta)
    except ValueError:  # cos(±inf): phi is finite, 2·phi is not
        raise NumericalError(f"LO phase {phi!r} is too large: 2 phi overflows") from None


def mean_photon_number(probe: ProbeState) -> float:
    """⟨b†b⟩ = α² + sinh²r for the displaced squeezed vacuum."""
    sinh_r = _finite(lambda: math.sinh(probe.r), "mean photon number")
    return _finite(lambda: probe.alpha * probe.alpha + sinh_r * sinh_r, "mean photon number")
