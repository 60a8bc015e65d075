"""One model evaluation per operating point, and hoisted stages per kernel.

Every figure of merit reads a single evaluation of the response
coefficients.  A sweep, a fig3 panel and a peak search evaluate their
points one by one through the kernel of their variable, and the stages
the variable leaves alone once; fig2 evaluates the stages r leaves alone
once per grid time for all its r curves.  These tests count the
evaluations and check that every route to a number returns the same bits.
"""

import dataclasses
import math
import warnings

import helpers
import pytest
from conftest import PHI_DEFAULT
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import _run_cli

from squeezed_readout import (
    NumericalError,
    ProbeState,
    ReadoutError,
    SweepFixed,
    SweepSpec,
    SystemParams,
    UndefinedPointError,
    UnitContext,
    ValidationError,
    classify,
    fidelity,
    find_peak,
    from_experimental,
    optimal_squeezing,
    readout_point,
    reproduce_figure2,
    reproduce_figure3,
    run_sweep,
    sample_shots,
    snr,
)
from squeezed_readout import dynamics, metrics, sweeps
from squeezed_readout.cli import main
from squeezed_readout.metrics import METRICS, _evaluate, _fields
from squeezed_readout.sweeps import SWEEP_VARIABLES


@pytest.fixture()
def integral_calls(monkeypatch):
    """Records every call of the coefficient integrals.

    _response goes through them, so the count is the number of
    coefficient evaluations.
    """
    calls = []
    inner = dynamics._integrals

    def counting(a, t):
        calls.append(t)
        return inner(a, t)

    monkeypatch.setattr(dynamics, "_integrals", counting)
    return calls


@pytest.fixture()
def fixed(params_k2, probe_matched, t_matched):
    return SweepFixed(params=params_k2, probe=probe_matched, phi=PHI_DEFAULT, t=t_matched)


def _count(patch, calls, name, *modules):
    """Records in calls every call of the function name, in each module."""
    for module in modules:

        def counting(*args, inner=getattr(module, name)):
            calls.append(args)
            return inner(*args)

        patch.setattr(module, name, counting)


def _fail(*args):
    raise AssertionError("a kernel point took the route of a fresh evaluation")


def _count_stages(patch, integral_calls) -> dict:
    """Lists that record each call of a stage a kernel may compute once.

    The squeeze factors, the LO angle and the projections are counted
    where _evaluate and the kernels call them; a fresh evaluation, which a
    kernel falls back on where a stage fails, fails.
    """
    calls = {"response": integral_calls, "factors": [], "angle": [], "projections": []}
    _count(patch, calls["factors"], "_squeeze_factors", metrics, sweeps)
    _count(patch, calls["angle"], "_lo_angle", metrics, sweeps)
    _count(patch, calls["projections"], "_projections", metrics, sweeps)
    patch.setattr(sweeps, "_evaluate", _fail)
    integral_calls.clear()
    return calls


def _assert_hoisted(calls: dict, variable: str, kernels: int, points: int) -> None:
    """The stages the variable leaves alone ran once per kernel, the others once per point."""
    response_once = variable in ("r", "delta_theta", "alpha")
    projections_once = variable in ("r", "alpha")
    assert len(calls["response"]) == (kernels if response_once else points), variable
    assert len(calls["factors"]) == (points if variable == "r" else kernels), variable
    assert len(calls["angle"]) == (points if variable == "delta_theta" else kernels), variable
    assert len(calls["projections"]) == (kernels if projections_once else points), variable


_PEAK_BOUNDS = {
    "t": (0.05, 3.0),
    "r": (0.0, 2.0),
    "delta_theta": (-1.0, 1.0),
    "alpha": (0.0, 12.0),
    "kappa": (0.5, 4.0),
}


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
def test_one_evaluation_per_sweep_row(integral_calls, fixed, metric, variable, monkeypatch):
    lo, hi = _PEAK_BOUNDS[variable]
    spec = SweepSpec(variable=variable, lo=lo, hi=hi, points=17, fixed=fixed, metric=metric)
    with monkeypatch.context() as patch:
        calls = _count_stages(patch, integral_calls)
        result = run_sweep(spec)
    assert len(result.rows) == 17
    _assert_hoisted(calls, variable, kernels=1, points=17)
    if variable in ("r", "delta_theta", "alpha"):
        # a response computed once is one object in every row, which the
        # CSV formats once per column
        first = result.rows[0]
        for name in ("a_coef", "b_coef", "big_f", "big_g"):
            assert all(getattr(row, name) is getattr(first, name) for row in result.rows)


def test_one_evaluation_per_public_call(
    integral_calls, t_matched, probe_matched, params_k2, tmp_path
):
    args = (t_matched, probe_matched, params_k2, PHI_DEFAULT)
    path = tmp_path / "shots.cfg"
    path.write_text(
        "chi_over_2pi_mhz = 0.15\nkappa_over_chi = 2.0\nt1_ms = 3.0\n"
        "alpha = 10.0\nr = 0.74\nt_us = 0.714\nthreshold_policy = likelihood\n",
        encoding="utf-8",
    )
    for call in (
        lambda: readout_point(*args),
        lambda: readout_point(*args, t1_total=100.0),
        lambda: snr(*args),
        # the batch carries the law of the sampler's evaluation, which
        # classify thresholds; the CLI draws from its closed-form point
        lambda: classify(sample_shots(1001, *args, 7), "likelihood"),
        lambda: main(["shots", "--config", str(path), "--n-shots", "1001"]),
    ):
        integral_calls.clear()
        call()
        assert len(integral_calls) == 1


def _reference_steps(monkeypatch, variable, fixed) -> int:
    """Model evaluations of the reference search, one per point."""
    evaluations = []
    with monkeypatch.context() as patch:
        _count(patch, evaluations, "_evaluate", helpers)
        helpers.reference_find_peak("snr", variable, _PEAK_BOUNDS[variable], fixed)
    return len(evaluations)


def test_one_evaluation_per_peak_step(integral_calls, fixed, monkeypatch):
    steps = []
    kernel = sweeps._kernel

    def counting_kernel(metric, fixed, variable):
        at = kernel(metric, fixed, variable)

        def step(x):
            steps.append(x)
            return at(x)

        return step

    for variable in SWEEP_VARIABLES:
        reference = _reference_steps(monkeypatch, variable, fixed)
        with monkeypatch.context() as patch:
            patch.setattr(sweeps, "_kernel", counting_kernel)
            patch.setattr(sweeps, "_with", _fail)
            calls = _count_stages(patch, integral_calls)
            steps.clear()
            find_peak("snr", variable, _PEAK_BOUNDS[variable], fixed)
        # every point of the coarse scan is a step, as is each golden-section point
        assert len(steps) == reference, variable
        assert all(type(x) is float for x in steps), variable
        # the stages the variable leaves alone are evaluated once per search
        _assert_hoisted(calls, variable, kernels=1, points=len(steps))


def test_one_evaluation_per_figure_row(integral_calls, monkeypatch):
    with monkeypatch.context() as patch:
        calls = _count_stages(patch, integral_calls)
        table = reproduce_figure3(points=50)
        assert len(table.rows) == 100
        assert len(integral_calls) == 2
        # a delta_theta kernel and an r kernel, each of 50 points; the
        # coherent baseline shared by every row is one more r kernel point
        assert len(calls["projections"]) == 50 + 1
        assert len(calls["factors"]) == 1 + 50 + 1
        assert len(calls["angle"]) == 50 + 1
    with monkeypatch.context() as patch:
        calls = _count_stages(patch, integral_calls)
        table = reproduce_figure2("panel_cd", points=50)
        # 50 grid times shared by 4 r curves; zero-time rows carry the limit 0
        assert len(table.rows) == 200
        # the response and projections once per grid time, the LO angle once
        # per panel and the squeeze factors once per r curve
        assert len(integral_calls) == 50
        assert len(calls["projections"]) == 50
        assert len(calls["angle"]) == 1
        assert len(calls["factors"]) == 4


@pytest.mark.parametrize("variant,kappa_over_chi", [("panel_ab", 1.0), ("panel_cd", 2.0)])
def test_figure2_rows_are_fresh_evaluations(variant, kappa_over_chi):
    # a repeated r and an r past the matched one; every row holds the bits
    # of a fresh evaluation at its own operating point
    r_values = (0.0, 1.7, 0.425, 1.7)
    table = reproduce_figure2(variant, r_values=r_values, points=23)
    params = from_experimental(0.15, kappa_over_chi, 3.0)
    units = UnitContext(0.15e6)
    rows = iter(table.rows)
    for r in r_values:
        probe = ProbeState(alpha=math.sqrt(30.0), theta_alpha=0.0, r=r, theta_xi=math.pi)
        for t_us in sweeps._grid(0.0, 2.0, 23):
            fields = _fields(units.to_internal_time(t_us), probe, params, 0.5 * math.pi)
            point = _evaluate("fidelity", fields)
            # zero-time rows carry the continuous limit 0
            snr_value = 0.0 if point.snr is None else point.snr
            expected = (t_us, r, snr_value, 0.0 if point.value is None else point.value)
            assert all(map(_same, next(rows), expected)), (r, t_us)
    assert next(rows, None) is None


def test_fidelity_past_a_tenth_of_t1_warns_the_same_text_on_every_route(probe_matched, tmp_path):
    # t/T1 = 0.5 and 0.6 with T1 = 100 in the unit of t; the CLI's T1 is
    # twice its 0.714 us readout time
    params = SystemParams(kappa=2.0, t1_intrinsic=100.0)
    path = tmp_path / "short_t1.cfg"
    path.write_text(
        "chi_over_2pi_mhz = 0.15\nkappa_over_chi = 2.0\nt1_ms = 0.001428\n"
        "alpha = 10.0\nr = 0.74\nt_us = 0.714\n",
        encoding="utf-8",
    )
    fixed = SweepFixed(params=params, probe=probe_matched, phi=PHI_DEFAULT, t=50.0)
    spec = SweepSpec(variable="t", lo=50.0, hi=60.0, points=2, fixed=fixed, metric="fidelity")
    routes = {
        "fidelity": lambda: fidelity(50.0, 3.0, 100.0),
        "readout_point": lambda: readout_point(50.0, probe_matched, params, PHI_DEFAULT),
        "readout_point t1_total": lambda: readout_point(
            50.0, probe_matched, SystemParams(kappa=2.0), PHI_DEFAULT, t1_total=100.0
        ),
        "run_sweep": lambda: run_sweep(spec),
        "cli fidelity": lambda: main(["fidelity", "--config", str(path)]),
    }
    for name, route in routes.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            route()
        texts = ["fidelity formula assumes t << T1; got t/T1 = 0.5"]
        if name == "run_sweep":
            texts.append("fidelity formula assumes t << T1; got t/T1 = 0.6")
        assert [str(w.message) for w in caught] == texts, name
        assert all(w.category is UserWarning for w in caught), name
        # every route names its caller outside the package
        assert all(w.filename == __file__ for w in caught), name


def _row_at(fixed: SweepFixed, r: float, metric: str):
    spec = SweepSpec(variable="r", lo=r, hi=r + 1.0, points=2, fixed=fixed, metric=metric)
    return run_sweep(spec).rows[0]


_phase = st.floats(min_value=-20.0, max_value=20.0)


@settings(max_examples=150, deadline=None)
@given(
    kappa=st.floats(min_value=0.5, max_value=4.0),
    t=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
    u=st.floats(min_value=0.1, max_value=1.0),
    alpha=st.floats(min_value=0.0, max_value=12.0),
    r=st.floats(min_value=0.0, max_value=2.0),
    theta_alpha=_phase,
    theta_xi=_phase,
    phi=_phase,
)
def test_every_route_reads_the_same_evaluation(
    kappa, t, u, alpha, r, theta_alpha, theta_xi, phi
):
    params = SystemParams(kappa=kappa, vacuum_weight=u)
    probe = ProbeState(alpha=alpha, theta_alpha=theta_alpha, r=r, theta_xi=theta_xi)
    fixed = SweepFixed(params=params, probe=probe, phi=phi, t=t)
    args = (t, probe, params, phi)
    model = helpers.evaluation(*args)
    vp, vm = model.variance_plus, model.variance_minus
    c = _evaluate("contrast", _fields(*args)).contrast

    row = _row_at(fixed, r, "variance")
    assert (row.variance_plus, row.variance_minus) == (vp, vm)
    assert row.metric_value == 0.5 * (vp + vm)
    assert _row_at(fixed, r, "contrast").metric_value == c
    if vp <= 0.0 or vm <= 0.0:
        # at vanishing t the variances underflow to 0 and SNR is undefined
        with pytest.raises(NumericalError, match="variances must be positive"):
            readout_point(*args)
        return

    point = readout_point(*args)
    assert (point.mean_plus, point.mean_minus) == (model.mean_plus, model.mean_minus)
    assert (point.contrast, point.variance_plus, point.variance_minus) == (c, vp, vm)
    assert point.snr == snr(*args) == _row_at(fixed, r, "snr").metric_value
    assert point.fidelity == _row_at(fixed, r, "fidelity").metric_value


def test_optimize_reports_none_for_a_negative_r_star(tmp_path, capsys):
    # A(t) < B(t) at 1.8 us, so r* = ln(A/B)/2 is negative: no interior optimum
    path = tmp_path / "late.cfg"
    path.write_text(
        "chi_over_2pi_mhz = 0.15\nkappa_over_chi = 2.0\nt1_ms = 3.0\n"
        "alpha = 10.0\nt_us = 1.8\n",
        encoding="utf-8",
    )
    assert main(["optimize", "--config", str(path)]) == 0
    block = dict(
        line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert float(block["r_star_analytic"]) < 0.0
    assert block["snr_at_r_star"] == "none"
    assert math.isfinite(float(block["snr_at_r_peak"]))


@pytest.mark.parametrize("policy", ["midpoint", "likelihood"])
def test_one_evaluation_per_classification(
    integral_calls, t_matched, probe_matched, params_k2, policy
):
    integral_calls.clear()
    batch = sample_shots(1001, t_matched, probe_matched, params_k2, PHI_DEFAULT, 7)
    assert len(integral_calls) == 1
    classify(batch, policy)
    # both means and both variances come from the batch's law: the
    # sampler's one evaluation, and none inside classify
    assert len(integral_calls) == 1


def _same(a, b) -> bool:
    """Bitwise equality of two floats (or None), NaN and signed zeros included."""
    return type(a) is type(b) and repr(a) == repr(b)


# the model fields of a sweep row
_ROW_FIELDS = ("a_coef", "b_coef", "big_f", "big_g", "variance_plus", "variance_minus")


@st.composite
def _sweep_range(draw, variable: str, chi_s: float):
    if variable == "t":
        # grids from 0 or from a tiny time, some crossing the 1e-2 series seam
        lo = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.02)))
        hi = draw(st.floats(min_value=lo + 1e-3, max_value=3.0))
        return lo / chi_s, hi / chi_s
    lo, hi = {
        "r": (0.0, 2.0),
        "delta_theta": (-4.0, 4.0),
        "alpha": (0.0, 12.0),
        "kappa": (0.5 * chi_s, 4.0 * chi_s),
    }[variable]
    a = draw(st.floats(min_value=lo, max_value=hi))
    b = draw(st.floats(min_value=lo, max_value=hi))
    return (min(a, b), max(a, b)) if a != b else (lo, hi)


def _outcome(fn):
    try:
        return fn()
    except ReadoutError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    variable=st.sampled_from(SWEEP_VARIABLES),
    metric=st.sampled_from(METRICS),
    points=st.integers(min_value=2, max_value=40),
    chi_s=st.one_of(st.just(1.0), st.floats(min_value=0.2, max_value=5.0)),
    kappa=st.floats(min_value=0.5, max_value=4.0),
    t=st.floats(min_value=0.0, max_value=3.0),
    u=st.floats(min_value=0.1, max_value=1.0),
    alpha=st.floats(min_value=0.0, max_value=12.0),
    r=st.floats(min_value=0.0, max_value=2.0),
    theta_alpha=_phase,
    theta_xi=_phase,
    phi=_phase,
)
def test_grid_rows_equal_the_float_path(
    data, variable, metric, points, chi_s, kappa, t, u, alpha, r, theta_alpha, theta_xi, phi
):
    params = SystemParams(chi_s=chi_s, kappa=kappa * chi_s, vacuum_weight=u)
    probe = ProbeState(alpha=alpha, theta_alpha=theta_alpha, r=r, theta_xi=theta_xi)
    fixed = SweepFixed(params=params, probe=probe, phi=phi, t=t / chi_s)
    lo, hi = data.draw(_sweep_range(variable, chi_s))
    values = sweeps._grid(lo, hi, points)
    base = _fields(fixed.t, probe, params, phi)

    def evaluate(value):
        return _evaluate(metric, sweeps._with(fixed, base, variable, value))

    spec = SweepSpec(variable=variable, lo=lo, hi=hi, points=points, fixed=fixed, metric=metric)
    swept = _outcome(lambda: run_sweep(spec))
    loop = _outcome(lambda: [evaluate(v) for v in values])
    if isinstance(loop, ReadoutError):
        # the same error, naming the first failing point
        assert type(swept) is type(loop)
        assert str(swept) == str(loop)
        return
    assert not isinstance(swept, ReadoutError), swept
    # snr is only evaluated for the metrics that need it, the contrast for
    # every metric but variance
    unread = {"contrast": ("snr",), "variance": ("contrast", "snr")}.get(metric, ())
    assert len(swept.rows) == len(loop)
    for row, x, point in zip(swept.rows, values, loop):
        assert all(getattr(point, name) is None for name in unread)
        assert _same(row.value, x)
        assert row.skipped is (point.value is None)
        assert _same(row.metric_value, math.nan if point.value is None else point.value)
        for name in _ROW_FIELDS:
            assert _same(getattr(row, name), getattr(point, name)), (name, x)


def _same_outcome(new, reference) -> None:
    """Equal PeakResults bit for bit, or errors of one type and message."""
    if isinstance(reference, ReadoutError):
        assert type(new) is type(reference)
        assert str(new) == str(reference)
        return
    assert not isinstance(new, ReadoutError), new
    assert _same(new.location, reference.location)
    assert _same(new.value, reference.value)
    assert new.flat is reference.flat


@st.composite
def _peak_search_bounds(draw, variable: str, chi_s: float):
    """Bounds in the domain of the variable, some crossing out of it.

    t from 0 (undefined snr and fidelity), r and alpha below 0, kappa
    down to 0 and below; the bounds are in the units of the fixed point.
    """
    lo, hi = {
        "t": (-0.5, 3.0),
        "r": (-0.5, 2.0),
        "delta_theta": (-4.0, 4.0),
        "alpha": (-1.0, 12.0),
        "kappa": (-0.5, 4.0),
    }[variable]
    a = draw(st.one_of(st.just(0.0), st.floats(min_value=lo, max_value=hi)))
    b = draw(st.floats(min_value=lo, max_value=hi))
    a, b = (min(a, b), max(a, b)) if a != b else (lo, hi)
    unit = {"t": 1.0 / chi_s, "kappa": chi_s}.get(variable, 1.0)
    return a * unit, b * unit


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    variable=st.sampled_from(SWEEP_VARIABLES),
    metric=st.sampled_from(METRICS),
    chi_s=st.one_of(st.just(1.0), st.floats(min_value=0.2, max_value=5.0)),
    kappa=st.floats(min_value=0.5, max_value=4.0),
    t=st.floats(min_value=0.0, max_value=3.0),
    u=st.floats(min_value=0.1, max_value=1.0),
    alpha=st.floats(min_value=0.0, max_value=12.0),
    r=st.floats(min_value=0.0, max_value=2.0),
    theta_alpha=_phase,
    theta_xi=_phase,
    phi=_phase,
)
def test_peak_search_equals_the_reference(
    data, variable, metric, chi_s, kappa, t, u, alpha, r, theta_alpha, theta_xi, phi
):
    params = SystemParams(chi_s=chi_s, kappa=kappa * chi_s, vacuum_weight=u)
    probe = ProbeState(alpha=alpha, theta_alpha=theta_alpha, r=r, theta_xi=theta_xi)
    fixed = SweepFixed(params=params, probe=probe, phi=phi, t=t / chi_s)
    bounds = data.draw(_peak_search_bounds(variable, chi_s))
    reference = _outcome(lambda: helpers.reference_find_peak(metric, variable, bounds, fixed))
    _same_outcome(_outcome(lambda: find_peak(metric, variable, bounds, fixed)), reference)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize(
    "variable,bounds,r",
    [
        # the separation overflows from coarse[13] on; the variance metric reads none
        ("alpha", (1e308, 1.7e308), 0.74),
        # cosh 2r overflows at every point, but the first point's t or kappa fails first
        ("t", (-0.5, 1.0), 400.0),
        ("kappa", (-0.5, 1.0), 400.0),
        ("t", (0.5, 1.0), 400.0),
    ],
    ids=["huge-alpha", "negative-t", "negative-kappa", "huge-r"],
)
def test_peak_search_past_the_double_range_equals_the_reference(
    metric, variable, bounds, r, params_k2, t_matched
):
    probe = ProbeState(alpha=10.0, r=r, theta_xi=math.pi)
    fixed = SweepFixed(params=params_k2, probe=probe, phi=PHI_DEFAULT, t=t_matched)
    args = (metric, variable, bounds, fixed)
    reference = _outcome(lambda: helpers.reference_find_peak(*args))
    _same_outcome(_outcome(lambda: find_peak(*args)), reference)
    if variable == "alpha" and metric != "variance":
        coarse = sweeps._grid(*bounds, sweeps._COARSE_POINTS)
        assert str(reference) == _SEPARATION_OVERFLOWS.format(coarse[13])
    elif variable != "alpha":
        assert ("too large" in str(reference)) is (bounds[0] > 0.0)


def _point_outcome(fn):
    """fn's value or ReadoutError, and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = _outcome(fn)
    return outcome, [str(w.message) for w in caught]


def _kernel_points_equal_a_fresh_evaluation(metric, variable, bounds, fixed) -> None:
    """At each coarse point the kernel returns the bits of the first eight
    fields of a fresh evaluation, its row, or raises its error, and warns
    what it warns."""
    base = _fields(fixed.t, fixed.probe, fixed.params, fixed.phi)
    kernel = sweeps._kernel(metric, fixed, variable)
    for x in sweeps._grid(*bounds, sweeps._COARSE_POINTS):
        (row, warned), (reference, reference_warned) = (
            _point_outcome(lambda: kernel(x)),
            _point_outcome(
                lambda: _evaluate(metric, sweeps._with(fixed, base, variable, x))[:8]
            ),
        )
        if isinstance(reference, ReadoutError):
            assert type(row) is type(reference), (x, row)
            assert str(row) == str(reference), x
        else:
            assert len(row) == len(reference) == 8, (x, row)
            assert all(map(_same, row, reference)), (x, row, reference)
        assert warned == reference_warned, x


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    chi_s=st.one_of(st.just(1.0), st.floats(min_value=0.2, max_value=5.0)),
    kappa=st.floats(min_value=0.5, max_value=4.0),
    t=st.floats(min_value=0.0, max_value=3.0),
    u=st.floats(min_value=0.1, max_value=1.0),
    alpha=st.floats(min_value=0.0, max_value=12.0),
    r=st.floats(min_value=0.0, max_value=2.0),
    theta_alpha=_phase,
    theta_xi=_phase,
    phi=_phase,
)
def test_kernel_points_equal_a_fresh_evaluation(
    variable, metric, data, chi_s, kappa, t, u, alpha, r, theta_alpha, theta_xi, phi
):
    params = SystemParams(chi_s=chi_s, kappa=kappa * chi_s, vacuum_weight=u)
    probe = ProbeState(alpha=alpha, theta_alpha=theta_alpha, r=r, theta_xi=theta_xi)
    fixed = SweepFixed(params=params, probe=probe, phi=phi, t=t / chi_s)
    bounds = data.draw(_peak_search_bounds(variable, chi_s))
    _kernel_points_equal_a_fresh_evaluation(metric, variable, bounds, fixed)


@pytest.mark.parametrize("metric", [*METRICS, "power"])
@pytest.mark.parametrize(
    "variable,bounds,t,alpha,r",
    [
        # A² overflows at t = 1e200; past r = 355 cosh 2r overflows first
        ("r", (-0.5, 400.0), 1e200, 10.0, 0.74),
        ("delta_theta", (-1.0, 1.0), 1e200, 10.0, 0.74),
        ("alpha", (-1.0, 12.0), 1e200, 10.0, 0.74),
        # the separation overflows at every point of an r or delta_theta
        # search at alpha = 1.5e308, and from coarse[13] on of an alpha search
        ("r", (-0.5, 2.0), None, 1.5e308, 0.74),
        ("delta_theta", (-1.0, 1.0), None, 1.5e308, 0.74),
        ("alpha", (1e308, 1.7e308), None, 10.0, 0.74),
        # cosh 2r overflows at r = 400, after a negative t or kappa fails
        ("t", (-0.5, 1.0), None, 10.0, 400.0),
        ("kappa", (-0.5, 1.0), None, 10.0, 400.0),
        # stages that t and kappa reach fail: A² from t ≈ 1e154 on, the
        # separation at every point at alpha = 1.5e308, after A² where both do
        ("t", (0.0, 1e200), None, 10.0, 0.74),
        ("t", (0.0, 1e200), None, 1.5e308, 0.74),
        ("kappa", (-0.5, 4.0), None, 1.5e308, 0.74),
        # nothing fails; fidelity warns past t/T1 = 0.1, t ≈ 283 here
        ("r", (0.0, 2.0), 600.0, 10.0, 0.74),
        ("t", (100.0, 1000.0), None, 10.0, 0.74),
    ],
    ids=[
        "huge-t-r", "huge-t-delta_theta", "huge-t-alpha", "huge-alpha-r",
        "huge-alpha-delta_theta", "huge-alpha-alpha", "huge-r-t", "huge-r-kappa",
        "huge-t-t", "huge-t-and-alpha-t", "huge-alpha-kappa", "late-r", "late-t",
    ],
)
def test_kernel_points_equal_a_fresh_evaluation_at_the_edges(
    metric, variable, bounds, t, alpha, r, params_k2, t_matched
):
    probe = ProbeState(alpha=alpha, r=r, theta_xi=math.pi)
    t = t_matched if t is None else t
    fixed = SweepFixed(params=params_k2, probe=probe, phi=PHI_DEFAULT, t=t)
    _kernel_points_equal_a_fresh_evaluation(metric, variable, bounds, fixed)
    args = (metric, variable, bounds, fixed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the fidelity past t/T1 = 0.1
        reference = _outcome(lambda: helpers.reference_find_peak(*args))
        _same_outcome(_outcome(lambda: find_peak(*args)), reference)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("bounds", [(0.0, 4e-320), (1e-320, 4e-320)], ids=["from-zero", "positive"])
def test_kernel_points_equal_a_fresh_evaluation_where_chi_s_t_underflows(metric, bounds):
    # at chi_s = 1e-10, chi_s·t rounds to 0 at every positive point below
    # about 2.5e-314: each such point raises, and t = 0 stays a point
    params = SystemParams(chi_s=1e-10, kappa=2e-10)
    fixed = SweepFixed(params=params, probe=ProbeState(alpha=10.0, r=0.74), phi=0.5, t=1e-5)
    _kernel_points_equal_a_fresh_evaluation(metric, "t", bounds, fixed)


@pytest.mark.parametrize(
    "call",
    [
        lambda t, probe, params: readout_point(t, probe, params, PHI_DEFAULT).contrast,
        lambda t, probe, params: snr(t, probe, params, PHI_DEFAULT),
        lambda t, probe, params: sample_shots(10, t, probe, params, PHI_DEFAULT, 1),
    ],
    ids=["contrast", "snr", "sample_shots"],
)
def test_large_squeezing_is_a_numerical_error(call, t_matched, params_k2):
    # cosh 2r overflows a double above r = 355
    probe = ProbeState(alpha=10.0, r=400.0, theta_xi=math.pi)
    with pytest.raises(NumericalError, match="squeezing r is too large"):
        call(t_matched, probe, params_k2)


def _lo_phase_sweep(variable, metric, t, probe, params, phi):
    fixed = SweepFixed(params=params, probe=probe, phi=phi, t=t)
    return run_sweep(
        SweepSpec(variable=variable, lo=0.0, hi=2.0, points=5, fixed=fixed, metric=metric)
    )


@pytest.mark.parametrize("phi", [1e308, -1e308])
@pytest.mark.parametrize(
    "call",
    [
        lambda t, probe, params, phi: snr(t, probe, params, phi),
        # the contrast and the variance as sweep metrics, on the kernels that
        # compute the LO angle (r) or the variances (alpha) once
        lambda t, probe, params, phi: _lo_phase_sweep("r", "contrast", t, probe, params, phi),
        lambda t, probe, params, phi: readout_point(t, probe, params, phi).mean_plus,
        lambda t, probe, params, phi: _lo_phase_sweep("alpha", "variance", t, probe, params, phi),
        lambda t, probe, params, phi: readout_point(t, probe, params, phi),
        lambda t, probe, params, phi: sample_shots(10, t, probe, params, phi, 1),
        lambda t, probe, params, phi: find_peak(
            "snr", "r", (0.0, 2.0), SweepFixed(params=params, probe=probe, phi=phi, t=t)
        ),
        lambda t, probe, params, phi: run_sweep(
            SweepSpec(
                variable="t",
                lo=0.0,
                hi=t,
                points=5,
                fixed=SweepFixed(params=params, probe=probe, phi=phi, t=t),
                metric="snr",
            )
        ),
    ],
    ids=[
        "snr",
        "contrast",
        "measurement_mean",
        "integrated_variance",
        "readout_point",
        "sample_shots",
        "find_peak",
        "run_sweep",
    ],
)
def test_large_lo_phase_is_a_numerical_error(call, phi, t_matched, probe_matched, params_k2):
    args = (t_matched, probe_matched, params_k2)
    # 2·phi overflows a double above |phi| = 8.99e307, and only there
    call(*args, math.copysign(8.98e307, phi))
    with pytest.raises(NumericalError) as error:
        call(*args, phi)
    assert str(error.value) == f"LO phase {phi!r} is too large: 2 phi overflows"


def test_large_squeezing_exits_2_without_a_traceback(tmp_path):
    path = tmp_path / "squeezed.cfg"
    path.write_text(
        "chi_over_2pi_mhz = 0.15\nkappa_over_chi = 2.0\nt1_ms = 3.0\n"
        "alpha = 10.0\nr = 400\nt_us = 0.714\n",
        encoding="utf-8",
    )
    done = _run_cli(["snr", "--config", str(path)])
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("numerical error: ")
    assert done.stderr.count("\n") == 1


# kappa = 0.5 chi_s, r = 100, theta_xi = 0.3, phi = pi/2: the outcome
# variances are finite at t = 1e100, (inf, 1.49e308) at 8e110 and (inf, inf)
# from 1e111 on
_OVERFLOWS = {
    8e110: "got inf and 1.4877377873022377e+308",
    1e111: "got inf and inf",
    1e112: "got inf and inf",
}


_OVERFLOW_FIXED = SweepFixed(
    params=SystemParams(kappa=0.5),
    probe=ProbeState(alpha=10.0, r=100.0, theta_xi=0.3),
    phi=PHI_DEFAULT,
    t=1e100,
)


def _overflow_point(t):
    return _fields(t, _OVERFLOW_FIXED.probe, _OVERFLOW_FIXED.params, PHI_DEFAULT)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("first", list(_OVERFLOWS))
def test_overflowing_variance_on_a_grid_names_the_first_bad_row(metric, first):
    assert math.isfinite(_evaluate("variance", _overflow_point(1e100)).variance_minus)
    with pytest.raises(NumericalError) as point:
        _evaluate(metric, _overflow_point(first))
    assert str(point.value) == f"outcome variance overflows: {_OVERFLOWS[first]}"
    # time sweeps that fail first at `first`: after a point that passes,
    # and before a point that fails otherwise
    later = max(_OVERFLOWS) if first == min(_OVERFLOWS) else None
    for lo, hi in ((1e100, first), (first, later)) if later else ((1e100, first),):
        spec = SweepSpec(
            variable="t", lo=lo, hi=hi, points=2, fixed=_OVERFLOW_FIXED, metric=metric
        )
        # no RuntimeWarning on the way: the suite turns one into an error
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the fidelity at t = 1e100
            with pytest.raises(NumericalError) as swept:
                run_sweep(spec)
        assert str(swept.value) == str(point.value)


@pytest.mark.parametrize("metric", METRICS)
def test_grid_names_the_first_failing_point_whichever_stage_fails(metric):
    # on an r grid over [0, 400] at t = 1e100 the variances overflow from
    # r = 130 on, before cosh 2r does past r = 355
    point = _overflow_point(1e100)
    values = sweeps._grid(0.0, 400.0, 41)
    # the variance metric evaluates no fidelity, which warns at t = 1e100
    with pytest.raises(NumericalError) as first:
        for r in values:
            _evaluate("variance", point._replace(r=r))
    assert str(first.value) == "outcome variance overflows: got inf and inf"
    assert r == 130.0
    spec = SweepSpec(
        variable="r", lo=0.0, hi=400.0, points=41, fixed=_OVERFLOW_FIXED, metric=metric
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the fidelity past t/T1 = 0.1
        with pytest.raises(NumericalError) as swept:
            run_sweep(spec)
    assert str(swept.value) == str(first.value)


def test_overflowing_variance_is_a_numerical_error_in_every_figure_of_merit(params_k2):
    # internal time 1e149 at r = 300 with a tilted ellipse: B²·Var(P′) overflows
    probe = ProbeState(alpha=10.0, r=300.0, theta_xi=1.1)
    t = 1e149
    for call in (
        lambda: snr(t, probe, params_k2, PHI_DEFAULT),
        lambda: readout_point(t, probe, params_k2, PHI_DEFAULT),
        lambda: helpers.evaluation(t, probe, params_k2, PHI_DEFAULT),
    ):
        with pytest.raises(NumericalError, match="outcome variance overflows"):
            call()


# sqrt(2)*alpha overflows a double above alpha = 1.27e308; the contrast
# at the matched point is about 2e307 at alpha = 1e308 and fits
_HUGE_ALPHAS = sweeps._grid(1e308, 1.7e308, 5)
_SEPARATION_OVERFLOWS = "contrast overflows at alpha = {!r}"


def test_contrast_that_fits_below_the_overflow_of_root_2_alpha_is_finite(t_matched, params_k2):
    # 2*sqrt(2)*alpha alone overflows here; the contrast does not
    probe = ProbeState(alpha=1e308, r=0.74, theta_xi=math.pi)
    point = readout_point(t_matched, probe, params_k2, PHI_DEFAULT)
    assert point.contrast == 2.034049797191079e307
    assert point.mean_minus - point.mean_plus == point.contrast


def test_overflowing_separation_is_a_numerical_error(t_matched, params_k2):
    probe = ProbeState(alpha=1.5e308, r=0.74, theta_xi=math.pi)
    args = (t_matched, probe, params_k2, PHI_DEFAULT)
    for call in (snr, readout_point):
        with pytest.raises(NumericalError) as error:
            call(*args)
        assert str(error.value) == _SEPARATION_OVERFLOWS.format(1.5e308)
    # the variances read no separation; the means read its across term
    model = helpers.evaluation(*args)
    assert math.isfinite(model.variance_minus)
    assert not math.isfinite(model.mean_plus)
    # in a time sweep the separation overflows at every point
    fixed = SweepFixed(params=params_k2, probe=probe, phi=PHI_DEFAULT, t=t_matched)
    spec = SweepSpec(variable="t", lo=0.5, hi=t_matched, points=2, fixed=fixed, metric="snr")
    with pytest.raises(NumericalError) as error:
        run_sweep(spec)
    assert str(error.value) == _SEPARATION_OVERFLOWS.format(1.5e308)


@pytest.mark.parametrize("metric", METRICS)
def test_overflowing_separation_on_a_grid_names_the_first_bad_point(
    metric, t_matched, probe_matched, params_k2
):
    fixed = SweepFixed(params=params_k2, probe=probe_matched, phi=PHI_DEFAULT, t=t_matched)
    spec = SweepSpec(
        variable="alpha", lo=1e308, hi=1.7e308, points=5, fixed=fixed, metric=metric
    )
    base = _fields(t_matched, probe_matched, params_k2, PHI_DEFAULT)

    def each_point():
        for alpha in _HUGE_ALPHAS:
            _evaluate(metric, sweeps._with(fixed, base, "alpha", alpha))

    if metric == "variance":
        assert all(math.isfinite(row.metric_value) for row in run_sweep(spec).rows)
        return
    # no RuntimeWarning on the way: the suite turns one into an error
    coarse = sweeps._grid(1e308, 1.7e308, sweeps._COARSE_POINTS)
    for call, first in (
        (each_point, _HUGE_ALPHAS[2]),
        (lambda: run_sweep(spec), _HUGE_ALPHAS[2]),
        (lambda: find_peak(metric, "alpha", (1e308, 1.7e308), fixed), coarse[13]),
    ):
        with pytest.raises(NumericalError) as error:
            call()
        assert str(error.value) == _SEPARATION_OVERFLOWS.format(first)


def test_overflowing_coefficient_is_a_numerical_error(probe_matched, params_k2):
    # B(t) grows like t, so B² overflows a double near t = 1e154
    with pytest.raises(NumericalError, match="response coefficients overflow: t is too"):
        snr(1e200, probe_matched, params_k2, PHI_DEFAULT)


# t = 1e300 and chi_s = 1e10 are finite, the internal time chi_s*t is not
_CHI_T_FIXED = SweepFixed(
    params=SystemParams(chi_s=1e10, kappa=2e10),
    probe=ProbeState(alpha=10.0, r=0.74),
    phi=PHI_DEFAULT,
    t=1e300,
)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: readout_point(f.t, f.probe, f.params, f.phi),
        lambda f: snr(f.t, f.probe, f.params, f.phi),
        lambda f: sample_shots(10, f.t, f.probe, f.params, f.phi, 1),
        lambda f: optimal_squeezing(f.t, f.params),
        lambda f: find_peak("snr", "r", (0.0, 2.0), f),
        lambda f: run_sweep(
            SweepSpec(variable="r", lo=0.0, hi=2.0, points=5, fixed=f, metric="snr")
        ),
    ],
    ids=[
        "readout_point",
        "snr",
        "sample_shots",
        "optimal_squeezing",
        "find_peak",
        "run_sweep",
    ],
)
def test_internal_time_past_the_double_range_is_a_numerical_error(call):
    # the caller's t is valid, so no route may name an inf t it never passed
    with pytest.raises(NumericalError) as error:
        call(_CHI_T_FIXED)
    assert str(error.value) == "response coefficients overflow: chi_s*t is too large"


@pytest.mark.parametrize(
    "t,shown", [(math.inf, "inf"), (math.nan, "nan"), (10**400, "inf")], ids=["inf", "nan", "int"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda t, f: readout_point(t, f.probe, f.params, f.phi),
        lambda t, f: snr(t, f.probe, f.params, f.phi),
        lambda t, f: optimal_squeezing(t, f.params),
    ],
    ids=["readout_point", "snr", "optimal_squeezing"],
)
def test_a_time_the_caller_passes_past_the_double_range_is_a_validation_error(call, t, shown):
    # the same routes name the caller's own t where that is what fails
    with pytest.raises(ValidationError) as error:
        call(t, _CHI_T_FIXED)
    assert str(error.value) == f"t must be nonnegative and finite, got {shown}"


# t = 1e-320 is positive, the internal time chi_s*t underflows to 0
_CHI_T_UNDERFLOWS = dataclasses.replace(
    _CHI_T_FIXED, params=SystemParams(chi_s=1e-10, kappa=2e-10), t=1e-320
)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: readout_point(f.t, f.probe, f.params, f.phi),
        lambda f: snr(f.t, f.probe, f.params, f.phi),
        lambda f: sample_shots(10, f.t, f.probe, f.params, f.phi, 1),
        lambda f: optimal_squeezing(f.t, f.params),
        lambda f: find_peak("snr", "r", (0.0, 2.0), f),
        lambda f: run_sweep(
            SweepSpec(variable="r", lo=0.0, hi=2.0, points=5, fixed=f, metric="snr")
        ),
    ],
    ids=["readout_point", "snr", "sample_shots", "optimal_squeezing", "find_peak", "run_sweep"],
)
def test_internal_time_that_underflows_is_a_numerical_error(call):
    # read as t = 0 it gave None, all-zero moments and a batch of zeros
    with pytest.raises(NumericalError) as error:
        call(_CHI_T_UNDERFLOWS)
    assert str(error.value) == "chi_s·t underflows to 0: chi_s = 1e-10, t = 1e-320"


def test_time_zero_at_a_small_chi_s_stays_the_point_t_zero():
    f = dataclasses.replace(_CHI_T_UNDERFLOWS, t=0.0)
    for call in (
        lambda: snr(f.t, f.probe, f.params, f.phi),
        lambda: optimal_squeezing(f.t, f.params),
    ):
        with pytest.raises(UndefinedPointError, match="undefined at t=0.0"):
            call()
    table = run_sweep(SweepSpec(variable="r", lo=0.0, hi=2.0, points=3, fixed=f, metric="snr"))
    assert [row.skipped for row in table.rows] == [True] * 3


# chi_s and the caller's kappa or T1 are valid, kappa/chi_s or chi_s·T1 is not
_RESCALE_FAULTS = [
    (
        SystemParams(chi_s=1e-300, kappa=1e10),
        "kappa/chi_s overflows: chi_s = 1e-300, kappa = 10000000000.0",
    ),
    (
        SystemParams(chi_s=1e300, kappa=1e-30),
        "kappa/chi_s underflows to 0: chi_s = 1e+300, kappa = 1e-30",
    ),
    (
        SystemParams(chi_s=1e300, t1_intrinsic=1e10),
        "chi_s·t1_intrinsic overflows: chi_s = 1e+300, t1_intrinsic = 10000000000.0",
    ),
    (
        SystemParams(chi_s=1e-300, t1_intrinsic=1e-30),
        "chi_s·t1_intrinsic underflows to 0: chi_s = 1e-300, t1_intrinsic = 1e-30",
    ),
]
_RESCALE_IDS = ["kappa-overflows", "kappa-underflows", "t1-overflows", "t1-underflows"]


def _kappa_route(params):
    """(bounds, fixed): a kappa range from the kappa of params, at a valid fixed kappa."""
    fixed = SweepFixed(
        params=dataclasses.replace(params, kappa=2.0 * params.chi_s),
        probe=ProbeState(alpha=10.0, r=0.74),
        phi=PHI_DEFAULT,
        t=1.0 / params.chi_s,
    )
    return (params.kappa, 2.0 * params.kappa), fixed


def _kappa_sweep(params):
    (lo, hi), fixed = _kappa_route(params)
    return SweepSpec(variable="kappa", lo=lo, hi=hi, points=5, fixed=fixed, metric="snr")


@pytest.mark.parametrize(("params", "message"), _RESCALE_FAULTS, ids=_RESCALE_IDS)
@pytest.mark.parametrize(
    "call",
    [
        lambda p: readout_point(1.0 / p.chi_s, ProbeState(alpha=10.0), p, PHI_DEFAULT),
        lambda p: snr(1.0 / p.chi_s, ProbeState(alpha=10.0), p, PHI_DEFAULT),
        lambda p: sample_shots(10, 1.0 / p.chi_s, ProbeState(alpha=10.0), p, PHI_DEFAULT, 1),
        _kappa_sweep,
        lambda p: find_peak("snr", "kappa", *_kappa_route(p)),
    ],
    ids=["readout_point", "snr", "sample_shots", "kappa_sweep_end", "find_peak"],
)
def test_a_rate_or_time_past_the_double_range_at_chi_s_1_is_a_numerical_error(
    call, params, message
):
    # the caller's values are valid, so no route may name a rescaled one
    with pytest.raises(NumericalError) as error:
        call(params)
    assert str(error.value) == message


# the fixed kappa/chi_s overflows, and every point replaces that kappa
_FIXED_KAPPA_PAST_THE_RANGE = SweepFixed(
    params=SystemParams(chi_s=1e-300, kappa=1e10), probe=ProbeState(alpha=1.0), phi=0.5, t=1e300
)


def test_a_kappa_sweep_reads_no_fixed_kappa():
    fixed = _FIXED_KAPPA_PAST_THE_RANGE
    valid = dataclasses.replace(fixed, params=dataclasses.replace(fixed.params, kappa=2e-300))
    rows = [
        run_sweep(
            SweepSpec(variable="kappa", lo=1e-300, hi=4e-300, points=5, fixed=f, metric="snr")
        ).rows
        for f in (fixed, valid)
    ]
    assert rows[0] == rows[1]


def test_a_kappa_peak_search_reads_no_fixed_kappa():
    fixed = _FIXED_KAPPA_PAST_THE_RANGE
    valid = dataclasses.replace(fixed, params=dataclasses.replace(fixed.params, kappa=2e-300))
    peak = find_peak("snr", "kappa", (1e-300, 4e-300), fixed)
    assert peak == find_peak("snr", "kappa", (1e-300, 4e-300), valid)
    assert not peak.flat


@pytest.mark.parametrize(("params", "message"), _RESCALE_FAULTS, ids=_RESCALE_IDS)
def test_optimal_squeezing_rescales_kappa_and_reads_no_t1(params, message):
    t = 1.0 / params.chi_s
    if message.startswith("kappa"):
        with pytest.raises(NumericalError) as error:
            optimal_squeezing(t, params)
        assert str(error.value) == message
    else:  # at kappa/chi_s = 2, as at a T1 that fits
        params = dataclasses.replace(params, kappa=2.0 * params.chi_s)
        plain = dataclasses.replace(params, t1_intrinsic=1.0 / params.chi_s)
        assert optimal_squeezing(t, params) == optimal_squeezing(t, plain) > 0.0


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize(
    "variable,bounds",
    [
        # chi_s*x is finite up to x ≈ 1.8e298, where A² has long overflowed
        ("t", (1e290, 1e300)),
        ("r", (0.0, 2.0)),
        ("delta_theta", (-1.0, 1.0)),
        ("alpha", (0.0, 12.0)),
        ("kappa", (1e9, 1e11)),
    ],
    ids=["t", "r", "delta_theta", "alpha", "kappa"],
)
def test_kernel_points_equal_a_fresh_evaluation_past_the_internal_time(metric, variable, bounds):
    _kernel_points_equal_a_fresh_evaluation(metric, variable, bounds, _CHI_T_FIXED)
    kernel = sweeps._kernel(metric, _CHI_T_FIXED, variable)
    with pytest.raises(NumericalError, match=r"chi_s\*t is too large"):
        kernel(bounds[1])


# a finite contrast of 3.26e307 over a noise of 0.18: the SNR passes the double
# range from alpha = 6.27e307 on
_SNR_OVERFLOW_FIXED = SweepFixed(
    params=SystemParams(kappa=4.0, vacuum_weight=1e-300),
    probe=ProbeState(alpha=6.3e307, r=2.0, theta_xi=-0.1853539665617978),
    phi=PHI_DEFAULT,
    t=0.8499325379360131,
)


@pytest.mark.parametrize("metric", ["snr", "fidelity"])
def test_snr_that_overflows_is_a_numerical_error(metric):
    fixed = _SNR_OVERFLOW_FIXED
    args = (fixed.t, fixed.probe, fixed.params, fixed.phi)
    alphas = sweeps._grid(6.2e307, 6.3e307, 5)
    spec = SweepSpec(
        variable="alpha", lo=alphas[0], hi=alphas[-1], points=5, fixed=fixed, metric=metric
    )
    coarse = sweeps._grid(6.2e307, 6.3e307, sweeps._COARSE_POINTS)
    for call, first in (
        (lambda: snr(*args), alphas[-1]),
        (lambda: readout_point(*args), alphas[-1]),
        (lambda: run_sweep(spec), alphas[3]),
        (lambda: find_peak(metric, "alpha", (alphas[0], alphas[-1]), fixed), coarse[21]),
    ):
        with pytest.raises(NumericalError) as error:
            call()
        model = _evaluate("contrast", _fields(*args)._replace(alpha=first))
        noise = math.sqrt(model.variance_plus) + math.sqrt(model.variance_minus)
        assert str(error.value) == f"snr overflows: contrast {model.value!r} over noise {noise!r}"
    # the point before the first that overflows is finite
    assert math.isfinite(_evaluate("snr", _fields(*args)._replace(alpha=alphas[2])).value)


def test_variance_metric_of_two_variances_past_half_the_double_range_is_finite():
    # each variance is 9.8e307, so their sum overflows and their mean does not
    fixed = SweepFixed(
        params=SystemParams(kappa=2.0, vacuum_weight=1.79e308),
        probe=ProbeState(alpha=1.0, r=0.5),
        phi=PHI_DEFAULT,
        t=3.0159289474462017,
    )
    spec = SweepSpec(variable="r", lo=0.0, hi=1.0, points=3, fixed=fixed, metric="variance")
    rows = run_sweep(spec).rows
    for row in rows:
        assert row.variance_plus + row.variance_minus == math.inf
        assert row.metric_value == 0.5 * row.variance_plus + 0.5 * row.variance_minus
        assert math.isfinite(row.metric_value)
    peak = find_peak("variance", "r", (0.0, 1.0), fixed)
    assert (peak.location, peak.value, peak.flat) == (0.0, rows[0].metric_value, True)
