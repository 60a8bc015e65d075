"""Physical parameters and unit handling.

Everything downstream works in dimensionless internal units: rates are
measured in units of the dispersive shift chi_s and times in units of
1/chi_s, so results depend only on the combinations kappa/chi_s and
chi_s*t.  ``from_experimental`` builds parameter sets in that convention
(chi_s = 1), and ``UnitContext`` converts laboratory times in
microseconds to internal time and back.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TAU = 2.0 * math.pi


def _each(fn, x):
    """fn(x) for a float; for an array, the same scalar fn on every element."""
    return np.array(list(map(fn, x.tolist()))) if isinstance(x, np.ndarray) else fn(x)


def _elementwise(*fns):
    """Each fn applied element by element to an array, and as is to a float.

    numpy's exp, cos, cosh, ... and ``**`` round some elements unlike the
    math module, so grids take these to keep the float path's bits.
    """
    return tuple(functools.partial(_each, fn) for fn in fns)


def wrap_angle(x: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    y = math.remainder(x, TAU)
    if y <= -math.pi:
        y += TAU
    return y


def _require_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Resonator and qubit rates.

    All rates share one angular-rate unit and ``t1_intrinsic`` is expressed
    in the inverse of that unit.  The canonical choice (produced by
    ``from_experimental``) is chi_s = 1.  ``g_s`` and ``delta`` are only
    needed for back-action estimates and may be left unset.

    ``vacuum_weight`` scales the resonator-vacuum contribution
    (kappa/2)(F^2+G^2) to the outcome variance.  The default 0.25 is a
    calibration of the otherwise unstated normalization between the
    integrated input-field noise and the resonator vacuum noise; setting
    it to 1 recovers the literal textbook weight.
    """

    chi_s: float = 1.0
    kappa: float = 2.0
    t1_intrinsic: float = 2827.4333882308138
    g_s: float | None = None
    delta: float | None = None
    vacuum_weight: float = 0.25

    def __post_init__(self) -> None:
        _require_positive("chi_s", self.chi_s)
        _require_positive("kappa", self.kappa)
        _require_positive("t1_intrinsic", self.t1_intrinsic)
        _require_positive("vacuum_weight", self.vacuum_weight)
        if self.g_s is not None:
            _require_positive("g_s", self.g_s)
        if self.delta is not None:
            if not math.isfinite(self.delta) or self.delta == 0.0:
                raise ValidationError(
                    f"delta must be nonzero and finite, got {self.delta!r}"
                )

    @property
    def has_backaction(self) -> bool:
        """True when both back-action parameters (g_s, delta) are set."""
        return self.g_s is not None and self.delta is not None

    def as_internal(self) -> "SystemParams":
        """Rescale so that chi_s = 1 (rates divided, times multiplied by chi_s)."""
        if self.chi_s == 1.0:
            return self
        c = self.chi_s
        return dataclasses.replace(
            self,
            chi_s=1.0,
            kappa=self.kappa / c,
            t1_intrinsic=self.t1_intrinsic * c,
            g_s=None if self.g_s is None else self.g_s / c,
            delta=None if self.delta is None else self.delta / c,
        )


def from_experimental(
    chi_over_2pi_mhz: float,
    kappa_over_chi: float,
    t1_ms: float,
    u: float = 0.25,
) -> SystemParams:
    """Build internal-unit parameters from laboratory values.

    :param chi_over_2pi_mhz: dispersive shift chi_s/2pi in MHz.
    :param kappa_over_chi: resonator leakage rate in units of chi_s.
    :param t1_ms: intrinsic qubit relaxation time in milliseconds.
    :param u: vacuum-noise weight (see SystemParams).
    """
    _require_positive("chi_over_2pi_mhz", chi_over_2pi_mhz)
    _require_positive("kappa_over_chi", kappa_over_chi)
    _require_positive("t1_ms", t1_ms)
    _require_positive("vacuum_weight", u)
    chi_rad_per_s = TAU * chi_over_2pi_mhz * 1e6
    return SystemParams(
        chi_s=1.0,
        kappa=kappa_over_chi,
        t1_intrinsic=chi_rad_per_s * t1_ms * 1e-3,
        vacuum_weight=u,
    )


@dataclass(frozen=True)
class UnitContext:
    """Conversion between laboratory microseconds and internal time chi_s*t."""

    chi_over_2pi_hz: float

    def __post_init__(self) -> None:
        _require_positive("chi_over_2pi_hz", self.chi_over_2pi_hz)

    @property
    def chi_rad_per_us(self) -> float:
        return TAU * self.chi_over_2pi_hz * 1e-6

    def to_internal_time(self, t_us: float) -> float:
        """Internal time chi_s*t for a duration given in microseconds."""
        if not math.isfinite(t_us) or t_us < 0.0:
            raise ValidationError(f"t_us must be nonnegative, got {t_us!r}")
        return self.chi_rad_per_us * t_us

    def to_physical_time(self, t_internal: float) -> float:
        """Duration in microseconds for an internal time chi_s*t."""
        if not math.isfinite(t_internal) or t_internal < 0.0:
            raise ValidationError(f"t_internal must be nonnegative, got {t_internal!r}")
        return t_internal / self.chi_rad_per_us
