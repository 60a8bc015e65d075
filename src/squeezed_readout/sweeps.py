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

import math
import operator
from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import NamedTuple

from .dynamics import _response
from .errors import NumericalError, ReadoutError, ValidationError
from .metrics import _check_metric, _evaluate, _fields, _internal_time
from .metrics import _projections, _row, _separation, _variances
from .params import SystemParams, UnitContext, _integer, _real, _rescaled, from_experimental
from .params import wrap_angle
from .probe import ProbeState, _lo_angle, _squeeze_factors

SWEEP_VARIABLES = ("t", "r", "delta_theta", "alpha", "kappa")

_FIGURE_POINTS = 400
# the most grid points one sweep or figure panel may hold; a grid is a
# list of that many floats, so a larger request is refused before it is built
_MAX_POINTS = 2**20
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
        object.__setattr__(self, "phi", _real("phi", self.phi))
        object.__setattr__(self, "t", _real("t", self.t, "nonnegative and finite"))


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep request; lo and hi are stored as floats.

    Each end gets the checks of _with, lo then hi: every check of _with
    is monotone in x, so an end fails where any point does, before a
    point in between fails numerically.
    """

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
        _check_metric(self.metric)
        object.__setattr__(self, "points", _check_points(self.points))
        lo, hi = _check_range("range", (self.lo, self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        base = _base(self.fixed, self.variable)
        for x in (lo, hi):
            _with(self.fixed, base, self.variable, x)


class SweepRow(NamedTuple):
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
class FigureTable:
    """Long-format table with a parameter snapshot: a figure's panel set or a sweep."""

    name: str
    meta: dict
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _base(fixed: SweepFixed, variable: str):
    """The model inputs of fixed that every point of a sweep of variable starts from.

    Each point of a kappa sweep sets its own κ/χs (_with), so its base
    holds κ = χs, κ/χs = 1, in place of the fixed κ, whose κ/χs no point
    uses and may leave the double range.
    """
    params = fixed.params
    if variable == "kappa":
        params = replace(params, kappa=params.chi_s)
    return _fields(fixed.t, fixed.probe, params, fixed.phi)


def _with(fixed: SweepFixed, base, variable: str, value: float):
    """base, the model inputs of fixed, with one sweep variable set to value.

    value gets the checks of ProbeState and SystemParams, and κ/χs the
    rule of metrics._fields.
    """
    chi_s = fixed.params.chi_s
    if variable == "delta_theta":
        variable, value = "theta_xi", 2.0 * (fixed.phi - value)
    elif variable not in ("t", "r", "alpha", "kappa"):
        raise ValidationError(f"unknown sweep variable {variable!r}")
    if variable == "kappa":
        _real("kappa", value, "positive and finite")
        value = _rescaled("kappa", value, chi_s)
    else:
        _real(variable, value, "finite" if variable == "theta_xi" else "nonnegative and finite")
    if variable == "t":
        value = _internal_time(value, chi_s)
    elif variable == "theta_xi":
        value = wrap_angle(value)
    return base._replace(**{variable: value})


def _kernel(metric: str, fixed: SweepFixed, variable: str):
    """x ↦ the row of the metric at fixed with one sweep variable set to x.

    The row is (value, F, G, A, B, variance_plus, variance_minus, snr),
    as metrics._row returns it.  The closure returns the bits of the
    first eight fields of _evaluate(metric, _with(fixed, base, variable,
    x)), or raises its error.  It checks x as _with does, an underflow of
    χs·x to 0 included, then runs the stages x reaches; the others are
    computed here, once:

    - r: the response, the LO angle, the projections and the separation;
    - delta_theta: the response, the squeeze factors and the separation;
    - t, kappa: the squeeze factors and the LO angle;
    - alpha: everything but the separation.

    A stage computed here that fails fails at every point, after the
    stages x reaches that precede it; the closure then evaluates each
    point afresh, so that each raises its own first error.
    """
    base = _base(fixed, variable)
    t, kappa, alpha, r, theta_xi, theta_alpha, phi, u, t1 = base
    chi_s, inf = fixed.params.chi_s, math.inf

    def fresh(x):
        return _evaluate(metric, _with(fixed, base, variable, x))[:8]

    try:
        _check_metric(metric)
        if variable in ("t", "kappa"):
            factors, angle = _squeeze_factors(r), _lo_angle(theta_xi, phi)
        elif variable in ("r", "delta_theta", "alpha"):
            response = _response(kappa, t)
            if variable != "r":
                factors = _squeeze_factors(r)
            if variable != "delta_theta":
                projections = _projections(response, kappa, u, _lo_angle(theta_xi, phi))
            if variable == "alpha":
                vp, vm = _variances(projections, factors)
            else:
                sep = _separation(metric, alpha, response[3], theta_alpha, phi)[1]
        else:
            return fresh  # _with raises for an unknown variable
    except ReadoutError:
        return fresh

    # each test of x below fails where _with raises, and _with then raises
    # the error of x; an overflowing χs·x fails it too, and is _response's to raise
    if variable == "t":

        def at(x):
            t = x * chi_s
            if not (0.0 < t < inf or x == 0.0):
                _with(fixed, base, variable, x)
            response = _response(kappa, t)
            vp, vm = _variances(_projections(response, kappa, u, angle), factors)
            sep = _separation(metric, alpha, response[3], theta_alpha, phi)[1]
            return _row(metric, t, response, sep, vp, vm, t1)

    elif variable == "kappa":

        def at(x):
            k = x / chi_s
            if not 0.0 < k < inf:
                _with(fixed, base, variable, x)
            response = _response(k, t)
            vp, vm = _variances(_projections(response, k, u, angle), factors)
            sep = _separation(metric, alpha, response[3], theta_alpha, phi)[1]
            return _row(metric, t, response, sep, vp, vm, t1)

    elif variable == "alpha":

        def at(x):
            if not 0.0 <= x < inf:
                _with(fixed, base, variable, x)
            sep = _separation(metric, x, response[3], theta_alpha, phi)[1]
            return _row(metric, t, response, sep, vp, vm, t1)

    elif variable == "r":

        def at(x):
            if not 0.0 <= x < inf:
                _with(fixed, base, variable, x)
            vp, vm = _variances(projections, _squeeze_factors(x))
            return _row(metric, t, response, sep, vp, vm, t1)

    else:

        def at(x):
            theta = 2.0 * (phi - x)
            if not -inf < theta < inf:
                _with(fixed, base, variable, x)
            angle = _lo_angle(wrap_angle(theta), phi)
            vp, vm = _variances(_projections(response, kappa, u, angle), factors)
            return _row(metric, t, response, sep, vp, vm, t1)

    return at


def _check_points(points) -> int:
    """points, an integer grid size in [2, _MAX_POINTS] as _grid needs it, as a Python int."""
    size = _integer(points)
    if size is None or not 2 <= size <= _MAX_POINTS:
        raise ValidationError(
            f"points must be an integer in [2, {_MAX_POINTS}], got {points!r}"
        )
    return size


def _check_range(name: str, bounds) -> tuple[float, float]:
    """The pair bounds = (lo, hi) as floats, as _grid needs them.

    Each end is a real number (see params._real); lo < hi, finite and a
    finite width apart.
    """
    try:
        lo, hi = bounds
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a pair (lo, hi), got {bounds!r}") from None
    try:
        x, y = _real(name, lo, None), _real(name, hi, None)
    except ValidationError:
        raise ValidationError(
            f"{name} ends must be int or float, got [{lo!r}, {hi!r}]"
        ) from None
    if not (x < y and math.isfinite(y - x)):
        raise ValidationError(f"{name} must be finite with lo < hi, got [{lo!r}, {hi!r}]")
    return x, y


def _grid(lo: float, hi: float, points: int) -> list[float]:
    step = (hi - lo) / (points - 1)
    values = [lo + i * step for i in range(points)]
    values[-1] = hi
    return values


def run_sweep(spec: SweepSpec) -> FigureTable:
    """Evaluate the metric on the uniform grid of the spec, as its table.

    The table is named "sweep": one curve of spec.points SweepRows under the
    columns (variable, metric, *SweepRow._fields[2:]), its meta every set
    field of the fixed params and probe (g_s and delta may be None), its
    lo_phase and t, and the spec's variable, metric, lo, hi and points.
    Grid points where the metric is undefined (SNR and fidelity at
    t = 0) are kept as rows with a NaN metric and the skipped flag set,
    so grids may start at zero time.  Each point is one call of the
    kernel of the variable, in order, so the first failing point raises
    its own error.
    """
    at, make = _kernel(spec.metric, spec.fixed, spec.variable), SweepRow._make
    rows = []
    xs = _grid(spec.lo, spec.hi, spec.points)
    for x, (value, big_f, big_g, a_coef, b_coef, vp, vm, _) in zip(xs, map(at, xs)):
        skipped = value is None
        metric_value = math.nan if skipped else value
        rows.append(make((x, metric_value, a_coef, b_coef, big_f, big_g, vp, vm, skipped)))
    fixed = spec.fixed
    point = {**vars(fixed.params), **vars(fixed.probe), "lo_phase": fixed.phi, "t": fixed.t}
    meta = {name: value for name, value in point.items() if value is not None}
    for name in ("variable", "metric", "lo", "hi", "points"):
        meta[name] = getattr(spec, name)
    columns = (spec.variable, spec.metric, *SweepRow._fields[2:])
    return FigureTable("sweep", meta, columns, tuple(rows))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_COARSE_POINTS = 32
_PEAK_TOL = 1e-6


def find_peak(
    metric: str, variable: str, bounds: tuple[float, float], fixed: SweepFixed
) -> PeakResult:
    """Golden-section maximization of a metric over one variable.

    The caller asserts the metric is unimodal on the bounds; a 32-point
    coarse scan guards against silent failure by rejecting ranges with
    more than one strict local maximum.  The bracket closes to 1e-6; a
    constant metric returns the lower bound with the flat flag set.
    Every point, coarse or golden-section, is one float call of the
    kernel of the variable (_kernel), which recomputes only the stages
    the variable reaches; points are evaluated in order, so the first
    failing point raises its own error.
    """
    lo, hi = _check_range("bounds", bounds)
    kernel = _kernel(metric, fixed, variable)

    def evaluate(x: float) -> float:
        value = kernel(x)[0]
        if value is None:
            raise NumericalError(
                f"metric {metric!r} is undefined inside the bounds at {x!r}"
            )
        return value

    xs = _grid(lo, hi, _COARSE_POINTS)
    ys = list(map(evaluate, xs))

    spread = max(ys) - min(ys)
    scale = max(1.0, abs(max(ys)), abs(min(ys)))
    if spread <= 1e-12 * scale:
        return PeakResult(location=lo, value=ys[0], flat=True)

    # strict local maxima, with -inf beyond both ends of the scan
    edges = [-math.inf, *ys, -math.inf]
    n_max = sum(y > a and y > b for a, y, b in zip(edges, ys, edges[2:]))
    if n_max > 1:
        raise NumericalError(
            f"metric {metric!r} has {n_max} local maxima on {bounds!r}; "
            "golden-section search needs a unimodal range"
        )

    best = ys.index(max(ys))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, len(xs) - 1)]

    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = evaluate(c), evaluate(d)
    while h > _PEAK_TOL:
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


def _fmt(value) -> str:
    """One output field: floats by repr, booleans True/False, None as none."""
    if type(value) is float:
        return repr(value)
    if isinstance(value, float):  # numpy's float64 reprs as np.float64(...)
        return repr(float(value))
    return "none" if value is None else str(value)


def _lines(pairs, prefix: str = "") -> str:
    """One 'key = value' line per pair, the value as _fmt spells it, each after prefix."""
    return "".join(f"{prefix}{key} = {_fmt(value)}\n" for key, value in pairs)


# the types whose repr is their _fmt spelling
_REPR_TYPES = frozenset((float, bool, int))


def _spelling(column, curves: int = 1):
    """(field, cells): a CSV column's field of the line template and the cells
    that fill it, for a column that fills that many curves.

    A column of one object is spelled into the field and fills nothing
    (None); identity, not equality, decides, so 0.0 beside -0.0 and distinct
    NaNs stay apart.  Exact floats, bools and ints get a %r field, spelled
    by repr once into a %s field where they fill many curves; strings get a
    %s field, as does any other column after _fmt.
    """
    first = column[0]
    if all(map(operator.is_, column, repeat(first))):
        return _fmt(first).replace("%", "%%"), None
    kinds = set(map(type, column))
    if kinds <= _REPR_TYPES:
        return ("%r", column) if curves == 1 else ("%s", list(map(repr, column)))
    return "%s", column if kinds == {str} else list(map(_fmt, column))


def _csv_body(spellings, rows: int) -> str:
    """rows CSV lines from the spellings of their columns: one % fills one line template."""
    fields = [field for field, _ in spellings]
    slots = [cells for _, cells in spellings if cells is not None]
    cells = slots[0] if len(slots) == 1 else chain.from_iterable(zip(*slots))
    return ((",".join(fields) + "\n") * rows) % tuple(cells)


def _csv_head(meta: dict, columns: tuple[str, ...]) -> str:
    """The header of a table's CSV: its meta lines by key, then the column names."""
    return _lines(((key, meta[key]) for key in sorted(meta)), "# ") + ",".join(columns) + "\n"


def _same(column, other) -> bool:
    """Whether two columns hold the same objects, in order: identity, not equality."""
    return len(column) == len(other) and all(map(operator.is_, column, other))


def render_figure_csv(table: FigureTable) -> str:
    """The CSV of a table, one curve at a time: its meta lines by key, the
    column names, then a line per row, each cell as _fmt spells it.

    A curve is a run of meta["points"] rows (all the rows where meta has
    no positive int "points"): one r over the times of a figure-2 panel,
    one figure-3 panel over its x values, a whole sweep.  _spelling spells
    each column of a curve; a column that holds the same objects in every
    curve, as fig2's time grid does, is spelled once and fills every curve.
    """
    rows, points = table.rows, table.meta.get("points")
    if not isinstance(points, int) or points < 1:
        points = len(rows) or 1
    chunks = [rows[lo : lo + points] for lo in range(0, len(rows), points)]
    curves = [list(zip(*chunk)) for chunk in chunks]
    shared = {
        i: _spelling(column, len(curves))
        for i, column in enumerate(curves[0] if curves else ())
        if all(_same(column, curve[i]) for curve in curves[1:])
    }
    body = (
        _csv_body([shared.get(i) or _spelling(c) for i, c in enumerate(columns)], len(chunk))
        for chunk, columns in zip(chunks, curves)
    )
    return _csv_head(table.meta, table.columns) + "".join(body)


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
    points = _check_points(points)
    if r_values is None:
        r_values = FIG2_DEFAULT_R_VALUES
    r_values = [_real("r values", r, "nonnegative and finite") for r in r_values]
    kappa_over_chi = kappa_by_variant[params_variant]
    params = from_experimental(_FIG_CHI_OVER_2PI_MHZ, kappa_over_chi, _FIG_T1_MS)
    units = UnitContext(_FIG_CHI_OVER_2PI_MHZ * 1e6)
    alpha = math.sqrt(30.0)
    phi = 0.5 * math.pi
    # chi_s = 1, so the internal model inputs are the params' own fields
    kappa, u, t1 = params.kappa, params.vacuum_weight, params.t1_intrinsic
    t_us = _grid(0.0, 2.0, points)
    # the stages r leaves alone, once per grid time for every r curve; at
    # these fixed rates and times none of them fails, so each r curve
    # raises what its own t kernel would
    angle = _lo_angle(math.pi, phi)
    shared = []
    for t in t_us:
        x = units.chi_rad_per_us * t
        response = _response(kappa, x)
        projections = _projections(response, kappa, u, angle)
        sep = _separation("fidelity", alpha, response[3], 0.0, phi)[1]
        shared.append((t, x, response, projections, sep))
    rows = []
    for r in r_values:
        factors = _squeeze_factors(r)
        for t, x, response, projections, sep in shared:
            vp, vm = _variances(projections, factors)
            row = _row("fidelity", x, response, sep, vp, vm, t1)
            value, snr = row[0], row[7]
            rows.append((t, r, 0.0 if snr is None else snr, 0.0 if value is None else value))
    meta = {
        "alpha": alpha,
        "chi_over_2pi_mhz": _FIG_CHI_OVER_2PI_MHZ,
        "kappa_over_chi": kappa_over_chi,
        "lo_phase": phi,
        "points": points,
        "r_values": ";".join(map(_fmt, r_values)),
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
    points = _check_points(points)
    params = from_experimental(_FIG_CHI_OVER_2PI_MHZ, 2.0, _FIG_T1_MS)
    units = UnitContext(_FIG_CHI_OVER_2PI_MHZ * 1e6)
    phi = 0.5 * math.pi
    alpha = 10.0
    t = units.to_internal_time(_FIG3_T_US)
    probe = ProbeState(alpha=alpha, theta_alpha=0.0, r=_FIG3_R, theta_xi=math.pi)
    fixed = SweepFixed(params=params, probe=probe, phi=phi, t=t)
    kernels = {panel: _kernel("fidelity", fixed, panel) for panel in ("delta_theta", "r")}
    baseline = kernels["r"](0.0)  # the coherent baseline: the r panel at r = 0
    rows = []
    for panel, lo, hi in (("delta_theta", -math.pi, math.pi), ("r", 0.0, 2.0)):
        for x in _grid(lo, hi, points):
            row = kernels[panel](x)
            rows.append((panel, x, row[7], row[0], baseline[7], baseline[0]))
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
