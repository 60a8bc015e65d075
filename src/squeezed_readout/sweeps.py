"""Parameter sweeps, peak finding, and reference figure tables.

A sweep evaluates one readout metric on a uniform grid of one variable
(integration time, squeezing, phase mismatch, displacement, or leakage
rate) while every other knob is frozen in a SweepFixed snapshot.  The
phase-mismatch variable delta_theta moves the squeezing phase through
theta_xi = 2(phi - delta_theta) at a fixed local-oscillator angle, so
the contrast stays constant and only the noise reorients.

Results are pure functions of the sweep specification: identical specs
render byte-identical CSV (floats via repr, no timestamps).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ReadoutError, ValidationError
from .metrics import METRICS, _evaluate, _fields, readout_point
from .params import SystemParams, UnitContext, from_experimental, wrap_angle
from .params import _each, _require_positive
from .probe import ProbeState

SWEEP_VARIABLES = ("t", "r", "delta_theta", "alpha", "kappa")

_FIGURE_POINTS = 400
_FIG_CHI_OVER_2PI_MHZ = 0.15
_FIG_T1_MS = 3.0
FIG2_DEFAULT_R_VALUES = (0.0, 0.425, 0.85, 1.275)
_FIG3_T_US = 0.714
_FIG3_R = 0.74


@dataclass(frozen=True)
class SweepFixed:
    """Frozen operating point supplying every quantity a sweep holds fixed."""

    params: SystemParams
    probe: ProbeState
    phi: float
    t: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi):
            raise ValidationError(f"phi must be finite, got {self.phi!r}")
        if not math.isfinite(self.t) or self.t < 0.0:
            raise ValidationError(f"t must be nonnegative, got {self.t!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep request."""

    variable: str
    lo: float
    hi: float
    points: int
    fixed: SweepFixed
    metric: str

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ValidationError(
                f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}"
            )
        if self.metric not in METRICS:
            raise ValidationError(
                f"metric must be one of {METRICS}, got {self.metric!r}"
            )
        if not isinstance(self.points, int) or self.points < 2:
            raise ValidationError(f"points must be an integer >= 2, got {self.points!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo >= self.hi:
            raise ValidationError(
                f"range must satisfy lo < hi, got [{self.lo!r}, {self.hi!r}]"
            )
        floor = {"t": 0.0, "r": 0.0, "alpha": 0.0}.get(self.variable)
        if floor is not None and self.lo < floor:
            raise ValidationError(
                f"{self.variable} sweep requires lo >= {floor}, got {self.lo!r}"
            )
        if self.variable == "kappa" and self.lo <= 0.0:
            raise ValidationError(f"kappa sweep requires lo > 0, got {self.lo!r}")


@dataclass(frozen=True)
class SweepRow:
    """Metric plus response-coefficient diagnostics at one grid point."""

    value: float
    metric_value: float
    a_coef: float
    b_coef: float
    big_f: float
    big_g: float
    variance_plus: float
    variance_minus: float
    skipped: bool


@dataclass(frozen=True)
class PeakResult:
    """Location and value of a maximum; flat marks a constant metric."""

    location: float
    value: float
    flat: bool


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    spec: SweepSpec
    peak: PeakResult | None = None


@dataclass(frozen=True)
class FigureTable:
    """Long-format table of figure data with a parameter snapshot."""

    name: str
    meta: dict
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _with(fixed: SweepFixed, base, variable: str, value):
    """base, the model inputs of fixed, with one sweep variable set to value.

    value (a float or an array) gets the checks of ProbeState and
    SystemParams; an array's least and greatest elements stand for all.
    """
    chi_s = fixed.params.chi_s
    if variable == "t":
        return base._replace(t=value * chi_s)
    if variable == "delta_theta":
        variable, value = "theta_xi", 2.0 * (fixed.phi - value)
    elif variable not in ("r", "alpha", "kappa"):
        raise ValidationError(f"unknown sweep variable {variable!r}")
    grid = isinstance(value, np.ndarray)
    for x in (float(value.min()), float(value.max())) if grid else (value,):
        if variable == "kappa":
            _require_positive("kappa", x)
            _require_positive("kappa", x / chi_s)
        elif not math.isfinite(x) or (x < 0.0 and variable != "theta_xi"):
            rule = "finite" if variable == "theta_xi" else "nonnegative and finite"
            raise ValidationError(f"{variable} must be {rule}, got {x!r}")
    if variable == "kappa":
        value = value / chi_s
    elif variable == "theta_xi":
        value = _each(wrap_angle, value)
    return base._replace(**{variable: value})


def _grid(lo: float, hi: float, points: int) -> list[float]:
    step = (hi - lo) / (points - 1)
    values = [lo + i * step for i in range(points)]
    values[-1] = hi
    return values


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the metric on the uniform grid of the spec.

    Grid points where the metric is undefined (SNR and fidelity at
    t = 0) are kept as rows with a NaN metric and the skipped flag set,
    so grids may start at zero time.
    """
    grid = _grid(spec.lo, spec.hi, spec.points)
    metric, fixed, variable = spec.metric, spec.fixed, spec.variable
    base = _fields(fixed.t, fixed.probe, fixed.params, fixed.phi)
    try:
        point = _evaluate(metric, _with(fixed, base, variable, np.array(grid)))
    except ReadoutError:
        # point by point, so that the first failing point raises its own error
        for value in grid:
            _evaluate(metric, _with(fixed, base, variable, value))
        raise
    rows = tuple(
        SweepRow(value, math.nan if m is None else m, *diagnostics, m is None)
        for value, m, *diagnostics in zip(grid, point.value, *point[:6])
    )
    return SweepResult(rows=rows, spec=spec)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_COARSE_POINTS = 32


def find_peak(
    metric: str,
    variable: str,
    bounds: tuple[float, float],
    fixed: SweepFixed,
    tol: float = 1e-6,
) -> PeakResult:
    """Golden-section maximization of a metric over one variable.

    The caller asserts the metric is unimodal on the bounds; a 32-point
    coarse scan guards against silent failure by rejecting ranges with
    more than one strict local maximum.  A constant metric returns the
    lower bound with the flat flag set.
    """
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValidationError(f"bounds must satisfy lo < hi, got {bounds!r}")
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValidationError(f"tol must be positive, got {tol!r}")

    base = _fields(fixed.t, fixed.probe, fixed.params, fixed.phi)

    def checked(x: float, value: float | None) -> float:
        if value is None:
            raise NumericalError(
                f"metric {metric!r} is undefined inside the bounds at {x!r}"
            )
        if not math.isfinite(value):
            raise NumericalError(f"metric {metric!r} is not finite at {x!r}")
        return value

    def evaluate(x: float) -> float:
        return checked(x, _evaluate(metric, _with(fixed, base, variable, x)).value)

    xs = _grid(lo, hi, _COARSE_POINTS)
    try:
        scan = _evaluate(metric, _with(fixed, base, variable, np.array(xs)))
        ys = list(map(checked, xs, scan.value))
    except ReadoutError:
        # point by point, so that the first failing point raises its own error
        for x in xs:
            evaluate(x)
        raise

    spread = max(ys) - min(ys)
    scale = max(1.0, abs(max(ys)), abs(min(ys)))
    if spread <= 1e-12 * scale:
        return PeakResult(location=lo, value=ys[0], flat=True)

    n_max = sum(
        1
        for i in range(len(ys))
        if (i == 0 or ys[i] > ys[i - 1]) and (i == len(ys) - 1 or ys[i] > ys[i + 1])
    )
    if n_max > 1:
        raise NumericalError(
            f"metric {metric!r} has {n_max} local maxima on {bounds!r}; "
            "golden-section search needs a unimodal range"
        )

    best = max(range(len(ys)), key=lambda i: ys[i])
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, len(xs) - 1)]

    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = evaluate(c), evaluate(d)
    while h > tol:
        if yc > yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INVPHI2 * h
            yc = evaluate(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INVPHI * h
            yd = evaluate(d)
    location = 0.5 * (a + b)
    return PeakResult(location=location, value=evaluate(location), flat=False)


def _params_meta(params: SystemParams, probe: ProbeState, phi: float) -> dict:
    meta = {
        "alpha": probe.alpha,
        "chi_s": params.chi_s,
        "kappa": params.kappa,
        "lo_phase": phi,
        "r": probe.r,
        "t1_intrinsic": params.t1_intrinsic,
        "theta_alpha": probe.theta_alpha,
        "theta_xi": probe.theta_xi,
        "vacuum_weight": params.vacuum_weight,
    }
    if params.g_s is not None:
        meta["g_s"] = params.g_s
    if params.delta is not None:
        meta["delta"] = params.delta
    return meta


def _fmt(value) -> str:
    """One output field: floats by repr, booleans True/False, None as none."""
    if type(value) is float:
        return repr(value)
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_csv(meta: dict, columns: tuple[str, ...], rows) -> str:
    lines = [f"# {key} = {_fmt(meta[key])}" for key in sorted(meta)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(map(_fmt, row)))
    return "\n".join(lines) + "\n"


def render_sweep_csv(result: SweepResult) -> str:
    spec = result.spec
    meta = _params_meta(spec.fixed.params, spec.fixed.probe, spec.fixed.phi)
    meta.update(
        {
            "t": spec.fixed.t,
            "variable": spec.variable,
            "metric": spec.metric,
            "lo": spec.lo,
            "hi": spec.hi,
            "points": spec.points,
        }
    )
    # a SweepRow's fields in order, headed by the variable and metric names
    names = [field.name for field in dataclasses.fields(SweepRow)]
    columns = (spec.variable, spec.metric, *names[2:])
    rows = (vars(row).values() for row in result.rows)
    return _render_csv(meta, columns, rows)


def render_figure_csv(table: FigureTable) -> str:
    return _render_csv(table.meta, table.columns, table.rows)


def reproduce_figure2(
    params_variant: str,
    r_values: tuple[float, ...] | None = None,
    points: int = _FIGURE_POINTS,
) -> FigureTable:
    """SNR and fidelity versus time for a family of squeezing strengths.

    params_variant "panel_ab" uses kappa = chi_s, "panel_cd" uses
    kappa = 2 chi_s; both share alpha = sqrt(30), theta_alpha = 0,
    theta_xi = pi, phi = pi/2, T1 = 3 ms, and times from 0 to 2 us.
    Zero-time rows carry the continuous limit 0 for both metrics.
    """
    kappa_by_variant = {"panel_ab": 1.0, "panel_cd": 2.0}
    if params_variant not in kappa_by_variant:
        raise ValidationError(
            f"params_variant must be 'panel_ab' or 'panel_cd', got {params_variant!r}"
        )
    if r_values is None:
        r_values = FIG2_DEFAULT_R_VALUES
    for r in r_values:
        if not math.isfinite(r) or r < 0.0:
            raise ValidationError(f"r values must be nonnegative, got {r!r}")
    kappa_over_chi = kappa_by_variant[params_variant]
    params = from_experimental(_FIG_CHI_OVER_2PI_MHZ, kappa_over_chi, _FIG_T1_MS)
    units = UnitContext(_FIG_CHI_OVER_2PI_MHZ * 1e6)
    alpha = math.sqrt(30.0)
    phi = 0.5 * math.pi
    t_us = _grid(0.0, 2.0, points)
    t_grid = units.chi_rad_per_us * np.array(t_us)
    rows = []
    for r in r_values:
        probe = ProbeState(alpha=alpha, theta_alpha=0.0, r=r, theta_xi=math.pi)
        point = _evaluate("fidelity", _fields(t_grid, probe, params, phi))
        rows.extend(
            (t, r, 0.0 if s is None else s, 0.0 if f is None else f)
            for t, s, f in zip(t_us, point.snr, point.value)
        )
    meta = {
        "alpha": alpha,
        "chi_over_2pi_mhz": _FIG_CHI_OVER_2PI_MHZ,
        "kappa_over_chi": kappa_over_chi,
        "lo_phase": phi,
        "points": points,
        "r_values": ";".join(repr(float(r)) for r in r_values),
        "t1_ms": _FIG_T1_MS,
        "theta_alpha": 0.0,
        "theta_xi": math.pi,
        "vacuum_weight": params.vacuum_weight,
        "variant": params_variant,
    }
    return FigureTable(
        name=f"figure2_{params_variant}",
        meta=meta,
        columns=("t_us", "r", "snr", "fidelity"),
        rows=tuple(rows),
    )


def reproduce_figure3(points: int = _FIGURE_POINTS) -> FigureTable:
    """Phase-mismatch and squeezing scans at one fixed readout time.

    Panel "delta_theta" sweeps the mismatch over [-pi, pi] at r = 0.74;
    panel "r" sweeps the squeezing over [0, 2] at zero mismatch.  Both
    carry the coherent (r = 0) baseline alongside, at kappa = 2 chi_s,
    alpha = 10, t = 0.714 us.
    """
    params = from_experimental(_FIG_CHI_OVER_2PI_MHZ, 2.0, _FIG_T1_MS)
    units = UnitContext(_FIG_CHI_OVER_2PI_MHZ * 1e6)
    phi = 0.5 * math.pi
    alpha = 10.0
    t = units.to_internal_time(_FIG3_T_US)
    baseline_probe = ProbeState(alpha=alpha, theta_alpha=0.0, r=0.0, theta_xi=math.pi)
    baseline = readout_point(t, baseline_probe, params, phi)
    probe = ProbeState(alpha=alpha, theta_alpha=0.0, r=_FIG3_R, theta_xi=math.pi)
    fixed = SweepFixed(params=params, probe=probe, phi=phi, t=t)
    base = _fields(t, probe, params, phi)
    rows = []
    for panel, lo, hi in (("delta_theta", -math.pi, math.pi), ("r", 0.0, 2.0)):
        xs = _grid(lo, hi, points)
        point = _evaluate("fidelity", _with(fixed, base, panel, np.array(xs)))
        rows.extend(
            (panel, x, s, f, baseline.snr, baseline.fidelity)
            for x, s, f in zip(xs, point.snr, point.value)
        )
    meta = {
        "alpha": alpha,
        "chi_over_2pi_mhz": _FIG_CHI_OVER_2PI_MHZ,
        "kappa_over_chi": 2.0,
        "lo_phase": phi,
        "points": points,
        "r_squeezed": _FIG3_R,
        "t1_ms": _FIG_T1_MS,
        "t_us": _FIG3_T_US,
        "theta_alpha": 0.0,
        "vacuum_weight": params.vacuum_weight,
    }
    return FigureTable(
        name="figure3",
        meta=meta,
        columns=("panel", "x", "snr", "fidelity", "snr_coherent", "fidelity_coherent"),
        rows=tuple(rows),
    )
