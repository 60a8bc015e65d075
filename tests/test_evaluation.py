"""One model evaluation per operating point, and one per grid.

Every figure of merit and peak-search step reads a single evaluation of
the response coefficients, and every sweep, figure panel and coarse
peak scan a single evaluation over its whole grid.  These tests count
the evaluations and check that every route to a number returns the
same bits.
"""

import math

import numpy as np
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
    classify,
    contrast,
    find_peak,
    integrated_variance,
    readout_point,
    reproduce_figure2,
    reproduce_figure3,
    run_sweep,
    sample_shots,
    snr,
)
from squeezed_readout import dynamics, sweeps
from squeezed_readout.cli import main
from squeezed_readout.metrics import METRICS, _evaluate, _fields
from squeezed_readout.sweeps import SWEEP_VARIABLES


@pytest.fixture()
def integral_calls(monkeypatch):
    """Records every call of the coefficient integrals.

    coefficient_set and signal_coefficients both go through them, so the
    count is the number of coefficient evaluations.
    """
    calls = []
    inner = dynamics._integrals

    def counting(a, b, t):
        calls.append(t)
        return inner(a, b, t)

    monkeypatch.setattr(dynamics, "_integrals", counting)
    return calls


@pytest.fixture()
def fixed(params_k2, probe_matched, t_matched):
    return SweepFixed(params=params_k2, probe=probe_matched, phi=PHI_DEFAULT, t=t_matched)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("variable,lo,hi", [("t", 0.0, 3.0), ("r", 0.0, 2.0)])
def test_one_evaluation_per_sweep_row(integral_calls, fixed, metric, variable, lo, hi):
    spec = SweepSpec(variable=variable, lo=lo, hi=hi, points=17, fixed=fixed, metric=metric)
    result = run_sweep(spec)
    # the whole grid is one evaluation
    assert len(integral_calls) == 1
    assert len(result.rows) == 17


def test_one_evaluation_per_public_call(integral_calls, t_matched, probe_matched, params_k2):
    args = (t_matched, probe_matched, params_k2, PHI_DEFAULT)
    for call in (
        lambda: readout_point(*args),
        lambda: readout_point(*args, t1_total=100.0),
        lambda: snr(*args),
        lambda: contrast(*args),
        lambda: integrated_variance(*args, +1),
        lambda: integrated_variance(*args, -1),
    ):
        integral_calls.clear()
        call()
        assert len(integral_calls) == 1


def test_one_evaluation_per_peak_step(integral_calls, fixed, monkeypatch):
    steps = []
    evaluate = sweeps._evaluate

    def counting_evaluate(metric, point):
        steps.append(point.r)
        return evaluate(metric, point)

    monkeypatch.setattr(sweeps, "_evaluate", counting_evaluate)
    find_peak("snr", "r", (0.0, 2.0), fixed)
    # the 32-point coarse scan is one evaluation, each golden-section step one more
    assert len(steps[0]) == 32
    assert all(isinstance(r, float) for r in steps[1:])
    assert len(steps) > 1
    assert len(integral_calls) == len(steps)


def test_one_evaluation_per_figure_row(integral_calls):
    table = reproduce_figure3(points=50)
    # one evaluation per panel, plus the coherent baseline shared by every row
    assert len(integral_calls) == 3
    assert len(table.rows) == 100
    integral_calls.clear()
    table = reproduce_figure2("panel_cd", points=50)
    # one evaluation per r value; zero-time rows carry the limit 0
    assert len(integral_calls) == 4
    assert len(table.rows) == 200


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
    c = contrast(*args)
    vp = integrated_variance(*args, +1)
    vm = integrated_variance(*args, -1)

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
    batch = sample_shots(1001, t_matched, probe_matched, params_k2, PHI_DEFAULT, 7)
    integral_calls.clear()
    classify(batch, policy)
    # both means and both variances come from the same evaluation
    assert len(integral_calls) == 1


def _same(a, b) -> bool:
    """Bitwise equality of two floats (or None), NaN and signed zeros included."""
    return type(a) is type(b) and repr(a) == repr(b)


_FIELDS = (
    "a_coef",
    "b_coef",
    "big_f",
    "big_g",
    "variance_plus",
    "variance_minus",
    "mean_plus",
    "mean_minus",
    "contrast",
    "snr",
    "value",
)


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
    grid = _outcome(lambda: evaluate(np.array(values)))
    loop = _outcome(lambda: [evaluate(v) for v in values])
    if isinstance(loop, ReadoutError):
        # the same error, naming the first failing point
        for error in (grid, _outcome(lambda: run_sweep(spec))):
            assert type(error) is type(loop)
            assert str(error) == str(loop)
        return
    assert not isinstance(grid, ReadoutError), grid
    names = _FIELDS
    if metric not in ("snr", "fidelity"):
        # snr is only evaluated for the metrics that need it
        assert grid.snr is None
        names = tuple(name for name in _FIELDS if name != "snr")
    for i, point in enumerate(loop):
        for name in names:
            assert _same(getattr(grid, name)[i], getattr(point, name)), (name, i)
    for row, point in zip(run_sweep(spec).rows, loop):
        assert row.skipped is (point.value is None)
        assert _same(row.metric_value, math.nan if point.value is None else point.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda t, probe, params: contrast(t, probe, params, PHI_DEFAULT),
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
