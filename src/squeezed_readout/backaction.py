"""Probe-induced back-action on the qubit and validity checks.

The dispersive coupling opens a Purcell decay channel at rate
γ_pu = κ·g_s²/Δ², enhanced by the squeezed probe's photon fluctuations
to a total induced relaxation rate 2·γ_pu·cosh 2r (2·γ_pu at r = 0),
and the anti-squeezed quadrature shortens T2 by e^{2r}.  The dispersive
description itself only holds while the probe population stays well
below the critical photon number n_c = Δ²/4g_s².  All rates use the
unit system of the supplied SystemParams.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ValidationError
from .params import SystemParams, _finite, _real
from .probe import ProbeState, mean_photon_number

DEFAULT_RATIO_MAX = 0.1


def _rates(params: SystemParams, r: float) -> tuple[float, float]:
    """(γ_pu, induced relaxation rate 2·γ_pu·cosh 2r), both finite."""
    if not params.has_backaction:
        raise ValidationError(
            "back-action figures need both g_s and delta set on SystemParams"
        )
    g_s, delta = params.g_s, params.delta
    gamma_pu = _finite(
        lambda: params.kappa * (g_s * g_s) / (delta * delta),
        "g_s/delta is too large: Purcell rate",
    )
    cosh_2r = _finite(lambda: math.cosh(2.0 * r), "squeezing r is too large: cosh 2r")
    induced = _finite(lambda: 2.0 * gamma_pu * cosh_2r, "induced rate 2*gamma_pu*cosh 2r")
    return gamma_pu, induced


def total_t1(params: SystemParams, r: float) -> float:
    """Intrinsic and probe-induced relaxation combined in parallel.

    1/(1/T1_intrinsic + 2·γ_pu·cosh 2r) when g_s and Δ are available,
    otherwise the intrinsic T1 unchanged.
    """
    r = _real("r", r, "nonnegative and finite")
    if not params.has_backaction:
        return params.t1_intrinsic
    _, induced = _rates(params, r)
    rate = _finite(lambda: 1.0 / params.t1_intrinsic + induced, "t1_intrinsic is too small: 1/T1")
    return 1.0 / rate


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
    """Evaluate every back-action figure at once (used by the CLI).

    A photon ratio at or above ratio_max emits a warning rather than an
    error: the formulas still evaluate, they just stop being trustworthy.
    A figure that is not finite raises a NumericalError.
    """
    ratio_max = _real("ratio_max", ratio_max, "positive and finite")
    gamma_pu, induced = _rates(params, probe.r)
    t1_induced = _finite(lambda: 1.0 / induced, "g_s/delta is too small: induced T1")
    penalty = _finite(
        lambda: math.exp(2.0 * probe.r), "squeezing r is too large: e^{2r}"
    )
    n_critical = _finite(
        lambda: params.delta * params.delta / (4.0 * (params.g_s * params.g_s)),
        "g_s/delta is too small: critical photon number",
    )
    ratio = _finite(
        lambda: mean_photon_number(probe) / n_critical,
        "g_s/delta is too large: occupation over the critical photon number",
    )
    ok = ratio < ratio_max
    if not ok:
        warnings.warn(
            f"probe occupation is {ratio:.3g} of the critical photon number "
            f"(threshold {ratio_max:g}); dispersive model validity is marginal",
            stacklevel=2,
        )
    return BackactionReport(
        gamma_purcell=gamma_pu,
        t1_induced=t1_induced,
        t2_penalty_factor=penalty,
        n_critical=n_critical,
        photon_ratio=ratio,
        nondemolition_ok=ok,
    )
