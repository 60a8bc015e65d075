"""Gaussian moments of the displaced squeezed vacuum probe.

Quadrature convention: Q = (b + b†)/√2, P = (b − b†)/(i√2), so the
vacuum variance is 1/2.  A probe is parametrized by a displacement
``alpha``·e^{i·theta_alpha} and a squeezing amplitude ``r`` with phase
``theta_xi``; with this convention the quadrature squeezed below vacuum
sits at angle theta_xi/2, so theta_xi = ±π squeezes P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError, ValidationError
from .params import _finite, wrap_angle

SQRT2 = math.sqrt(2.0)


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
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValidationError(
                    f"{name} must be nonnegative and finite, got {value!r}"
                )
        for name in ("theta_alpha", "theta_xi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, wrap_angle(value))


def _input_means(alpha: float, theta_alpha: float):
    return SQRT2 * alpha * math.cos(theta_alpha), SQRT2 * alpha * math.sin(theta_alpha)


def _squeezing(r: float):
    """(cosh 2r, sinh 2r)."""
    try:
        return math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        raise NumericalError("squeezing r is too large: cosh 2r overflows") from None


def _frame(theta_xi: float, phi: float):
    """(cos d, sin d, cos(d + π)) with d = 2φ − θξ."""
    d = 2.0 * phi - theta_xi
    try:
        return math.cos(d), math.sin(d), math.cos(2.0 * (phi + 0.5 * math.pi) - theta_xi)
    except ValueError:  # cos(±inf): phi is finite, 2·phi is not
        raise NumericalError(f"LO phase {phi!r} is too large: 2 phi overflows") from None


def _moments(squeezing, frame):
    """Var(Q′), Var(P′), Cov(Q′, P′) from _squeezing and _frame."""
    (ch, sh), (cos_d, sin_d, cos_d_pi) = squeezing, frame
    return 0.5 * (ch - cos_d * sh), 0.5 * (ch - cos_d_pi * sh), 0.5 * sh * sin_d


def _rotated_moments(r: float, theta_xi: float, phi: float):
    """Var(Q′), Var(P′), Cov(Q′, P′) at LO angle phi."""
    return _moments(_squeezing(r), _frame(theta_xi, phi))  # cosh 2r raises first


def mean_photon_number(probe: ProbeState) -> float:
    """⟨b†b⟩ = α² + sinh²r for the displaced squeezed vacuum."""
    return _finite(lambda: probe.alpha**2 + math.sinh(probe.r) ** 2, "mean photon number")
