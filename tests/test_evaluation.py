"""One model evaluation per operating point.

Every figure of merit, sweep row, peak-search step and figure-table row
reads a single evaluation of the response coefficients.  These tests
count the evaluations and check that every route to a number returns
the same bits.
"""

import math

import pytest
from conftest import PHI_DEFAULT
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezed_readout import (
    NumericalError,
    ProbeState,
    SweepFixed,
    SweepSpec,
    SystemParams,
    contrast,
    find_peak,
    integrated_variance,
    readout_point,
    reproduce_figure2,
    reproduce_figure3,
    run_sweep,
    snr,
)
from squeezed_readout import dynamics, sweeps
from squeezed_readout.cli import main
from squeezed_readout.metrics import METRICS


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
    assert len(integral_calls) == len(result.rows) == 17


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
    row = sweeps._row

    def counting_row(*args):
        steps.append(args)
        return row(*args)

    monkeypatch.setattr(sweeps, "_row", counting_row)
    find_peak("snr", "r", (0.0, 2.0), fixed)
    assert len(steps) > 32
    assert len(integral_calls) == len(steps)


def test_one_evaluation_per_figure_row(integral_calls):
    table = reproduce_figure3(points=50)
    # the coherent baseline is evaluated once and shared by every row
    assert len(integral_calls) == len(table.rows) + 1 == 101
    integral_calls.clear()
    table = reproduce_figure2("panel_cd", points=50)
    # zero-time rows carry the limit 0 without an evaluation
    assert len(integral_calls) == sum(row[0] != 0.0 for row in table.rows) == 196


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
