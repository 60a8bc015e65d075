"""Gaussian moments of the displaced squeezed vacuum probe.

Quadrature convention: Q = (b + b†)/√2, P = (b − b†)/(i√2), so the
vacuum variance is 1/2.  A probe is parametrized by a displacement
``alpha``·e^{i·theta_alpha} and a squeezing amplitude ``r`` with phase
``theta_xi``; with this convention the quadrature squeezed below vacuum
sits at angle theta_xi/2 + π/2, so theta_xi = ±π squeezes P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .params import _elementwise, wrap_angle

SQRT2 = math.sqrt(2.0)
_HYPERBOLIC, _TRIG = (math.cosh, math.sinh), (math.cos, math.sin)
_HYPERBOLIC_GRID, _TRIG_GRID = _elementwise(*_HYPERBOLIC), _elementwise(*_TRIG)


@dataclass(frozen=True)
class ProbeState:
    """Displaced squeezed vacuum input state.

    alpha and r are magnitudes (both >= 0); the phases are stored reduced
    to (-pi, pi].
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


@dataclass(frozen=True)
class QuadratureStats:
    """First and second moments of a single-mode Gaussian state."""

    mean_q: float
    mean_p: float
    var_q: float
    var_p: float
    cov_qp: float

    def __post_init__(self) -> None:
        if self.var_q <= 0.0 or self.var_p <= 0.0:
            raise ValidationError(
                f"variances must be positive, got var_q={self.var_q!r}, "
                f"var_p={self.var_p!r}"
            )

    @property
    def determinant(self) -> float:
        """det of the covariance matrix; 1/4 for a pure Gaussian state."""
        return self.var_q * self.var_p - self.cov_qp**2


def _input_means(alpha, theta_alpha: float):
    return SQRT2 * alpha * math.cos(theta_alpha), SQRT2 * alpha * math.sin(theta_alpha)


def input_means(probe: ProbeState) -> tuple[float, float]:
    """Quadrature means (⟨Q⟩, ⟨P⟩); squeezing leaves them untouched."""
    return _input_means(probe.alpha, probe.theta_alpha)


def _cosh_sinh(r):
    """(cosh 2r, sinh 2r); a NumericalError where they overflow (r ≳ 355)."""
    cosh, sinh = _HYPERBOLIC_GRID if isinstance(r, np.ndarray) else _HYPERBOLIC
    try:
        return cosh(2.0 * r), sinh(2.0 * r)
    except OverflowError:
        raise NumericalError("squeezing r is too large: cosh 2r overflows") from None


def input_covariance(probe: ProbeState) -> QuadratureStats:
    """Full Gaussian moments of the probe state.

    var_q = ½(cosh 2r − cos θξ · sinh 2r)
    var_p = ½(cosh 2r + cos θξ · sinh 2r)
    cov   = −½ sin θξ · sinh 2r
    """
    mq, mp = input_means(probe)
    ch, sh = _cosh_sinh(probe.r)
    return QuadratureStats(
        mean_q=mq,
        mean_p=mp,
        var_q=0.5 * (ch - math.cos(probe.theta_xi) * sh),
        var_p=0.5 * (ch + math.cos(probe.theta_xi) * sh),
        cov_qp=-0.5 * math.sin(probe.theta_xi) * sh,
    )


def _rotated_moments(r, theta_xi, phi: float):
    """Var(Q′), Var(P′), Cov(Q′, P′) at LO angle phi; r, theta_xi may be arrays."""
    grid = isinstance(r, np.ndarray) or isinstance(theta_xi, np.ndarray)
    cos, sin = _TRIG_GRID if grid else _TRIG
    ch, sh = _cosh_sinh(r)
    return (
        0.5 * (ch - cos(2.0 * phi - theta_xi) * sh),
        0.5 * (ch - cos(2.0 * (phi + 0.5 * math.pi) - theta_xi) * sh),
        0.5 * sh * sin(2.0 * phi - theta_xi),
    )


def rotated_quadrature_variance(probe: ProbeState, phi: float) -> float:
    """Variance of the quadrature at angle phi, cos(φ)Q + sin(φ)P.

    Equal to ½(cosh 2r − cos(2φ − θξ)·sinh 2r); the minimum e^{−2r}/2 is
    reached when 2φ − θξ = 0 (mod 2π).
    """
    return _rotated_moments(probe.r, probe.theta_xi, phi)[0]


def rotated_quadrature_covariance(probe: ProbeState, phi: float) -> float:
    """Covariance of the rotated pair (cosφ·Q + sinφ·P, −sinφ·Q + cosφ·P).

    Equal to ½ sinh 2r · sin(2φ − θξ); vanishes exactly when the rotated
    frame is aligned with the squeezing ellipse axes.
    """
    return _rotated_moments(probe.r, probe.theta_xi, phi)[2]


def mean_photon_number(probe: ProbeState) -> float:
    """⟨b†b⟩ = α² + sinh²r for the displaced squeezed vacuum."""
    return probe.alpha**2 + math.sinh(probe.r) ** 2
