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

from .errors import NumericalError, ValidationError
from .metrics import METRICS, _evaluate, readout_point
from .params import SystemParams, UnitContext, from_experimental
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


def _point_at(
    fixed: SweepFixed, variable: str, value: float
) -> tuple[float, ProbeState, SystemParams, float]:
    """(t, probe, params, phi) with one variable replaced by value."""
    t, probe, params, phi = fixed.t, fixed.probe, fixed.params, fixed.phi
    if variable == "t":
        t = value
    elif variable == "r":
        probe = dataclasses.replace(probe, r=value)
    elif variable == "alpha":
        probe = dataclasses.replace(probe, alpha=value)
    elif variable == "kappa":
        params = dataclasses.replace(params, kappa=value)
    elif variable == "delta_theta":
        probe = dataclasses.replace(probe, theta_xi=2.0 * (phi - value))
    else:
        raise ValidationError(f"unknown sweep variable {variable!r}")
    return t, probe, params, phi


def _row(metric: str, fixed: SweepFixed, variable: str, value: float) -> SweepRow:
    """Metric and diagnostics at one grid point from one model evaluation."""
    point = _evaluate(metric, *_point_at(fixed, variable, value))
    skipped = point.value is None
    return SweepRow(
        value=value,
        metric_value=math.nan if skipped else point.value,
        a_coef=point.coeff.a_coef,
        b_coef=point.coeff.b_coef,
        big_f=point.coeff.big_f,
        big_g=point.coeff.big_g,
        variance_plus=point.variance_plus,
        variance_minus=point.variance_minus,
        skipped=skipped,
    )


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
    rows = tuple(_row(spec.metric, spec.fixed, spec.variable, v) for v in grid)
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

    def evaluate(x: float) -> float:
        row = _row(metric, fixed, variable, x)
        if row.skipped:
            raise NumericalError(
                f"metric {metric!r} is undefined inside the bounds at {x!r}"
            )
        if not math.isfinite(row.metric_value):
            raise NumericalError(f"metric {metric!r} is not finite at {x!r}")
        return row.metric_value

    xs = _grid(lo, hi, _COARSE_POINTS)
    ys = [evaluate(x) for x in xs]

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
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_csv(meta: dict, columns: tuple[str, ...], rows) -> str:
    lines = [f"# {key} = {_fmt(meta[key])}" for key in sorted(meta)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
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
    columns = (
        spec.variable,
        spec.metric,
        "a_coef",
        "b_coef",
        "big_f",
        "big_g",
        "variance_plus",
        "variance_minus",
        "skipped",
    )
    rows = (
        (
            r.value,
            r.metric_value,
            r.a_coef,
            r.b_coef,
            r.big_f,
            r.big_g,
            r.variance_plus,
            r.variance_minus,
            r.skipped,
        )
        for r in result.rows
    )
    return _render_csv(meta, columns, rows)


def render_figure_csv(table: FigureTable) -> str:
    return _render_csv(table.meta, table.columns, table.rows)


def _figure_point(
    units: UnitContext,
    t_us: float,
    probe: ProbeState,
    params: SystemParams,
    phi: float,
) -> tuple[float, float]:
    """(snr, fidelity) at a figure grid time, with the t → 0 limit 0."""
    if t_us == 0.0:
        return 0.0, 0.0
    point = readout_point(units.to_internal_time(t_us), probe, params, phi)
    return point.snr, point.fidelity


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
    rows = []
    for r in r_values:
        probe = ProbeState(alpha=alpha, theta_alpha=0.0, r=r, theta_xi=math.pi)
        for t_us in _grid(0.0, 2.0, points):
            snr_value, fidelity_value = _figure_point(units, t_us, probe, params, phi)
            rows.append((t_us, r, snr_value, fidelity_value))
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
    baseline_probe = ProbeState(alpha=alpha, theta_alpha=0.0, r=0.0, theta_xi=math.pi)
    base_snr, base_fid = _figure_point(units, _FIG3_T_US, baseline_probe, params, phi)
    rows = []
    for delta_theta in _grid(-math.pi, math.pi, points):
        probe = ProbeState(
            alpha=alpha,
            theta_alpha=0.0,
            r=_FIG3_R,
            theta_xi=2.0 * (phi - delta_theta),
        )
        snr_value, fidelity_value = _figure_point(units, _FIG3_T_US, probe, params, phi)
        rows.append(
            ("delta_theta", delta_theta, snr_value, fidelity_value, base_snr, base_fid)
        )
    for r in _grid(0.0, 2.0, points):
        probe = ProbeState(alpha=alpha, theta_alpha=0.0, r=r, theta_xi=math.pi)
        snr_value, fidelity_value = _figure_point(units, _FIG3_T_US, probe, params, phi)
        rows.append(("r", r, snr_value, fidelity_value, base_snr, base_fid))
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
