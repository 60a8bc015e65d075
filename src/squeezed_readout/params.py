"""Physical parameters and unit handling.

Everything downstream works in dimensionless internal units: rates are
measured in units of the dispersive shift chi_s and times in units of
1/chi_s, so results depend only on the combinations kappa/chi_s and
chi_s*t.  ``from_experimental`` builds parameter sets in that convention
(chi_s = 1), and ``UnitContext`` converts laboratory times in
microseconds to internal time and back.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Integral, Real

from .errors import NumericalError, ValidationError

TAU = 2.0 * math.pi


def wrap_angle(x: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    y = math.remainder(x, TAU)
    if y <= -math.pi:
        y += TAU
    return y


def _finite(compute, label: str, tiny: str | None = None) -> float:
    """compute(); a NumericalError '{label} overflows' where it is not finite,
    and '{tiny} underflows to 0' where it is 0 and tiny is given, for a
    result that is positive unless it rounds to 0."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise NumericalError(f"{label} overflows")
    if value == 0.0 and tiny is not None:
        raise NumericalError(f"{tiny} underflows to 0")
    return value


def _rescaled(name: str, value: float, chi_s: float) -> float:
    """value at chi_s = 1: kappa/chi_s for the rate kappa, chi_s·value for a time.

    value is a checked positive float.  A NumericalError naming chi_s and
    value where the result underflows to 0 or overflows.
    """
    x = value / chi_s if name == "kappa" else value * chi_s
    if 0.0 < x < math.inf:
        return x
    label = "kappa/chi_s" if name == "kappa" else f"chi_s·{name}"
    fault = "underflows to 0" if x == 0.0 else "overflows"
    raise NumericalError(f"{label} {fault}: chi_s = {chi_s!r}, {name} = {value!r}")


# what _real checks of a float, by the rule its message names
_RULES = {
    "finite": lambda x: True,
    "nonnegative and finite": lambda x: x >= 0.0,
    "positive and finite": lambda x: x > 0.0,
    "nonzero and finite": lambda x: x != 0.0,
}


def _real(name: str, value, rule: str | None = "finite") -> float:
    """value, a real number (an int or a float, numpy's too, not a bool), as a float.

    A float keeps its object; an int past the double range is inf.  A
    ValidationError '{name} must be {rule}, got {value!r}' where the float
    is not finite or breaks the rule; a rule of None checks the type only.
    """
    x = value
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, Real):
            raise ValidationError(f"{name} must be {rule or 'a real number'}, got {value!r}")
        try:
            x = float(x)
        except OverflowError:
            x = math.inf if x > 0 else -math.inf
    if rule is None or (math.isfinite(x) and _RULES[rule](x)):
        return x
    raise ValidationError(f"{name} must be {rule}, got {value!r}")


def _integer(value) -> int | None:
    """value, an integer (numpy's too, not a bool), as a Python int; else None."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        return None
    return operator.index(value)


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
        for name in ("chi_s", "kappa", "t1_intrinsic", "vacuum_weight", "g_s", "delta"):
            value = getattr(self, name)
            if value is not None or name not in ("g_s", "delta"):
                rule = "nonzero and finite" if name == "delta" else "positive and finite"
                object.__setattr__(self, name, _real(name, value, rule))

    @property
    def has_backaction(self) -> bool:
        """True when both back-action parameters (g_s, delta) are set."""
        return self.g_s is not None and self.delta is not None


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
    :raises NumericalError: where t1_intrinsic = chi_s·T1 in internal units
        underflows to 0 or overflows.
    """
    chi_over_2pi_mhz = _real("chi_over_2pi_mhz", chi_over_2pi_mhz, "positive and finite")
    kappa_over_chi = _real("kappa_over_chi", kappa_over_chi, "positive and finite")
    t1_ms = _real("t1_ms", t1_ms, "positive and finite")
    u = _real("vacuum_weight", u, "positive and finite")
    chi_rad_per_s = TAU * chi_over_2pi_mhz * 1e6
    t1_intrinsic = chi_rad_per_s * t1_ms * 1e-3
    if not 0.0 < t1_intrinsic < math.inf:
        fault = "underflows to 0" if t1_intrinsic == 0.0 else "overflows"
        raise NumericalError(
            f"t1_intrinsic = chi_s·T1 {fault}: chi_over_2pi_mhz = {chi_over_2pi_mhz!r}, "
            f"t1_ms = {t1_ms!r}"
        )
    return SystemParams(
        chi_s=1.0,
        kappa=kappa_over_chi,
        t1_intrinsic=t1_intrinsic,
        vacuum_weight=u,
    )


@dataclass(frozen=True)
class UnitContext:
    """Conversion between laboratory microseconds and internal time chi_s*t."""

    chi_over_2pi_hz: float

    def __post_init__(self) -> None:
        value = _real("chi_over_2pi_hz", self.chi_over_2pi_hz, "positive and finite")
        object.__setattr__(self, "chi_over_2pi_hz", value)

    @property
    def chi_rad_per_us(self) -> float:
        return TAU * self.chi_over_2pi_hz * 1e-6

    def to_internal_time(self, t_us: float) -> float:
        """Internal time chi_s*t for a duration given in microseconds."""
        t_us = _real("t_us", t_us, "nonnegative and finite")
        chi = f"chi_over_2pi_hz = {self.chi_over_2pi_hz!r}"
        return _finite(
            lambda: self.chi_rad_per_us * t_us,
            f"{chi} is too large for t_us = {t_us!r}: internal time",
            f"{chi} is too small for t_us = {t_us!r}: internal time" if t_us else None,
        )

    def to_physical_time(self, t_internal: float) -> float:
        """Duration in microseconds for an internal time chi_s*t."""
        t_internal = _real("t_internal", t_internal, "nonnegative and finite")
        chi = f"chi_over_2pi_hz = {self.chi_over_2pi_hz!r}"
        tiny = f"{chi} is too large for t_internal = {t_internal!r}: time in us"
        return _finite(
            lambda: t_internal / self.chi_rad_per_us,
            f"{chi} is too small: time in us",
            tiny if t_internal else None,
        )
