"""Probe-induced back-action on the qubit and validity checks.

The dispersive coupling opens a Purcell decay channel at rate
γ_pu = κ·g_s²/Δ², enhanced by squeezing to a total induced relaxation
rate 2·γ_pu·cosh 2r, and the anti-squeezed quadrature shortens T2 by
e^{2r}.  The dispersive description itself only holds while the probe
population stays well below the critical photon number n_c = Δ²/4g_s².
All rates use the unit system of the supplied SystemParams.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import NumericalError, ValidationError
from .params import SystemParams
from .probe import ProbeState, mean_photon_number

DEFAULT_RATIO_MAX = 0.1


def _require_backaction(params: SystemParams) -> tuple[float, float]:
    if not params.has_backaction:
        raise ValidationError(
            "back-action figures need both g_s and delta set on SystemParams"
        )
    return params.g_s, params.delta


def _check_r(r: float) -> None:
    if not math.isfinite(r) or r < 0.0:
        raise ValidationError(f"r must be nonnegative and finite, got {r!r}")


def _squeezing_factor(fn, r: float, label: str) -> float:
    """fn(2r); a NumericalError where it overflows (r ≳ 355)."""
    try:
        return fn(2.0 * r)
    except OverflowError:
        raise NumericalError(f"squeezing r is too large: {label} overflows") from None


def purcell_rate(params: SystemParams) -> float:
    """Resonator-mediated qubit emission rate κ·g_s²/Δ²."""
    g_s, delta = _require_backaction(params)
    return params.kappa * g_s**2 / delta**2


def induced_t1_inverse(r: float, gamma_pu: float) -> float:
    """Probe-induced relaxation rate 2·γ_pu·cosh 2r.

    The cosh 2r factor is the squeezed probe's quadrature-symmetric
    photon-fluctuation enhancement; r = 0 leaves the bare factor 2.
    """
    _check_r(r)
    if not math.isfinite(gamma_pu) or gamma_pu < 0.0:
        raise ValidationError(
            f"gamma_pu must be nonnegative and finite, got {gamma_pu!r}"
        )
    return 2.0 * gamma_pu * _squeezing_factor(math.cosh, r, "cosh 2r")


def t2_penalty(r: float) -> float:
    """Dephasing-time reduction factor e^{2r} from the anti-squeezed noise."""
    _check_r(r)
    return _squeezing_factor(math.exp, r, "e^{2r}")


def critical_photon_check(
    probe: ProbeState, params: SystemParams, ratio_max: float = DEFAULT_RATIO_MAX
) -> tuple[float, float, bool]:
    """(n_c, occupation ratio, ok) for the dispersive-validity criterion.

    n_c = Δ²/4g_s²; ok when mean photons / n_c < ratio_max.  A ratio at
    or above the threshold emits a warning rather than an error: the
    formulas still evaluate, they just stop being trustworthy.
    """
    g_s, delta = _require_backaction(params)
    if not math.isfinite(ratio_max) or ratio_max <= 0.0:
        raise ValidationError(f"ratio_max must be positive, got {ratio_max!r}")
    n_critical = delta**2 / (4.0 * g_s**2)
    ratio = mean_photon_number(probe) / n_critical
    ok = ratio < ratio_max
    if not ok:
        warnings.warn(
            f"probe occupation is {ratio:.3g} of the critical photon number "
            f"(threshold {ratio_max:g}); dispersive model validity is marginal",
            stacklevel=2,
        )
    return n_critical, ratio, ok


def total_t1(params: SystemParams, r: float) -> float:
    """Intrinsic and probe-induced relaxation combined in parallel.

    1/(1/T1_intrinsic + 2·γ_pu·cosh 2r) when g_s and Δ are available,
    otherwise the intrinsic T1 unchanged.
    """
    _check_r(r)
    if not params.has_backaction:
        return params.t1_intrinsic
    induced = induced_t1_inverse(r, purcell_rate(params))
    return 1.0 / (1.0 / params.t1_intrinsic + induced)


@dataclass(frozen=True)
class BackactionReport:
    """All back-action figures of merit for one probe and parameter set."""

    gamma_purcell: float
    t1_induced: float
    t2_penalty_factor: float
    n_critical: float
    photon_ratio: float
    nondemolition_ok: bool


def backaction_report(
    probe: ProbeState, params: SystemParams, ratio_max: float = DEFAULT_RATIO_MAX
) -> BackactionReport:
    """Evaluate every back-action figure at once (used by the CLI)."""
    gamma_pu = purcell_rate(params)
    induced = induced_t1_inverse(probe.r, gamma_pu)
    n_critical, ratio, ok = critical_photon_check(probe, params, ratio_max)
    return BackactionReport(
        gamma_purcell=gamma_pu,
        t1_induced=1.0 / induced if induced > 0.0 else math.inf,
        t2_penalty_factor=t2_penalty(probe.r),
        n_critical=n_critical,
        photon_ratio=ratio,
        nondemolition_ok=ok,
    )
