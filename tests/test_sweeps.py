import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import PHI_DEFAULT, R_MATCHED

from squeezed_readout import (
    FigureTable,
    NumericalError,
    ProbeState,
    SweepFixed,
    SweepRow,
    SweepSpec,
    SystemParams,
    ValidationError,
    find_peak,
    optimal_squeezing,
    render_figure_csv,
    reproduce_figure2,
    reproduce_figure3,
    readout_point,
    run_sweep,
    snr,
)
from squeezed_readout import sweeps
from squeezed_readout.metrics import METRICS

SNR_MATCHED_REF = 3.580922280271772


@pytest.fixture()
def fixed(t_matched, probe_matched, params_k2) -> SweepFixed:
    return SweepFixed(
        params=params_k2, probe=probe_matched, phi=PHI_DEFAULT, t=t_matched
    )


def test_time_sweep_skips_undefined_origin(fixed):
    spec = SweepSpec(
        variable="t", lo=0.0, hi=2.0, points=41, fixed=fixed, metric="snr"
    )
    result = run_sweep(spec)
    assert len(result.rows) == 41
    assert all(type(row) is SweepRow for row in result.rows)
    assert result.rows[0].skipped
    assert math.isnan(result.rows[0].metric_value)
    for row in result.rows[1:]:
        assert not row.skipped
        assert math.isfinite(row.metric_value)
        assert row.metric_value > 0.0
    assert result.rows[-1].value == 2.0


def test_mismatch_sweep_is_even(fixed):
    spec = SweepSpec(
        variable="delta_theta",
        lo=-math.pi,
        hi=math.pi,
        points=81,
        fixed=fixed,
        metric="snr",
    )
    rows = run_sweep(spec).rows
    for i in range(len(rows)):
        assert rows[i].metric_value == pytest.approx(
            rows[len(rows) - 1 - i].metric_value, rel=1e-10
        )
    assert rows[0].metric_value == pytest.approx(rows[-1].metric_value, rel=1e-12)
    # the mismatch enters only through the noise: contrast stays put
    mid = len(rows) // 2
    assert rows[mid].metric_value == pytest.approx(SNR_MATCHED_REF, rel=1e-10)


def test_amplitude_sweep_increases_snr(fixed):
    spec = SweepSpec(
        variable="alpha", lo=0.5, hi=12.0, points=40, fixed=fixed, metric="snr"
    )
    values = [row.metric_value for row in run_sweep(spec).rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_squeezing_sweep_peaks_at_optimum(fixed, t_matched, params_k2):
    spec = SweepSpec(
        variable="r", lo=0.5, hi=1.0, points=200, fixed=fixed, metric="snr"
    )
    result = run_sweep(spec)
    values = [row.metric_value for row in result.rows]
    best = result.rows[int(np.argmax(values))].value
    step = 0.5 / 199
    assert abs(best - optimal_squeezing(t_matched, params_k2)) <= step


def test_variance_metric_symmetrizes(fixed, t_matched, params_k2, probe_matched):
    spec = SweepSpec(
        variable="delta_theta",
        lo=-1.5,
        hi=1.5,
        points=11,
        fixed=fixed,
        metric="variance",
    )
    for row in run_sweep(spec).rows:
        assert row.metric_value == pytest.approx(
            0.5 * (row.variance_plus + row.variance_minus), rel=1e-14
        )


def test_sweep_spec_validation(fixed):
    with pytest.raises(ValidationError, match="kappa"):
        SweepSpec(variable="kappa", lo=0.0, hi=2.0, points=10, fixed=fixed, metric="snr")
    with pytest.raises(ValidationError, match=r"^r must be nonnegative and finite, got -0\.5$"):
        SweepSpec(variable="r", lo=-0.5, hi=1.0, points=10, fixed=fixed, metric="snr")
    with pytest.raises(ValidationError, match="points"):
        SweepSpec(variable="r", lo=0.0, hi=1.0, points=1, fixed=fixed, metric="snr")
    with pytest.raises(ValidationError, match="lo < hi"):
        SweepSpec(variable="r", lo=1.0, hi=0.5, points=10, fixed=fixed, metric="snr")
    with pytest.raises(ValidationError, match="variable"):
        SweepSpec(variable="phi", lo=0.0, hi=1.0, points=10, fixed=fixed, metric="snr")
    with pytest.raises(ValidationError, match="metric"):
        SweepSpec(variable="r", lo=0.0, hi=1.0, points=10, fixed=fixed, metric="bitrate")
    with pytest.raises(ValidationError, match="t must be nonnegative"):
        dataclasses.replace(fixed, t=-1.0)


def test_find_peak_locates_squeezing_optimum(fixed, t_matched, params_k2):
    peak = find_peak("snr", "r", (0.0, 2.0), fixed)
    r_star = optimal_squeezing(t_matched, params_k2)
    assert not peak.flat
    assert abs(peak.location - r_star) < 1e-5
    assert peak.value == pytest.approx(
        snr(
            t_matched,
            dataclasses.replace(fixed.probe, r=r_star),
            params_k2,
            PHI_DEFAULT,
        ),
        rel=1e-9,
    )


def test_find_peak_locates_zero_mismatch(fixed):
    peak = find_peak("snr", "delta_theta", (-0.5 * math.pi, 0.5 * math.pi), fixed)
    assert abs(peak.location) < 2e-6
    assert peak.value == pytest.approx(SNR_MATCHED_REF, rel=1e-9)


def test_find_peak_agrees_with_dense_grid(fixed):
    peak = find_peak("snr", "r", (0.5, 1.0), fixed)
    spec = SweepSpec(
        variable="r", lo=0.5, hi=1.0, points=10001, fixed=fixed, metric="snr"
    )
    rows = run_sweep(spec).rows
    grid_best = rows[int(np.argmax([row.metric_value for row in rows]))].value
    assert abs(peak.location - grid_best) <= 0.5 / 10000


def test_find_peak_reports_flat_metric(fixed, t_matched, params_k2, probe_matched):
    # contrast does not depend on the squeezing strength
    peak = find_peak("contrast", "r", (0.0, 2.0), fixed)
    assert peak.flat
    assert peak.location == 0.0
    assert peak.value == pytest.approx(
        readout_point(t_matched, probe_matched, params_k2, PHI_DEFAULT).contrast,
        rel=1e-12,
    )


def test_find_peak_rejects_multimodal_range(fixed):
    # the mismatch metric repeats with period pi, so this window holds
    # two equivalent maxima
    with pytest.raises(NumericalError, match="local maxima"):
        find_peak("snr", "delta_theta", (-0.5, math.pi + 0.5), fixed)


def test_find_peak_rejects_undefined_points(fixed):
    with pytest.raises(NumericalError, match="undefined"):
        find_peak("snr", "t", (0.0, 1.0), fixed)


def test_find_peak_validation(fixed):
    with pytest.raises(ValidationError, match="bounds"):
        find_peak("snr", "r", (1.0, 0.5), fixed)
    with pytest.raises(ValidationError, match="metric must be one of"):
        find_peak("purity", "r", (0.0, 1.0), fixed)
    with pytest.raises(ValidationError, match="unknown sweep variable"):
        find_peak("snr", "theta_alpha", (0.0, 1.0), fixed)


@pytest.mark.parametrize("bounds", [(0.0, 1.0, 2.0), (1.0,), None, 2.0], ids=repr)
def test_find_peak_bounds_that_are_not_a_pair_are_rejected(fixed, bounds):
    with pytest.raises(ValidationError) as excinfo:
        find_peak("snr", "r", bounds, fixed)
    assert str(excinfo.value) == f"bounds must be a pair (lo, hi), got {bounds!r}"


def test_sweep_csv_round_trip(fixed, tmp_path):
    spec = SweepSpec(
        variable="r", lo=0.0, hi=1.5, points=7, fixed=fixed, metric="snr"
    )
    result = run_sweep(spec)
    text = render_figure_csv(result)
    assert text == render_figure_csv(run_sweep(spec))
    assert "\r" not in text
    assert text.endswith("\n")

    lines = text.splitlines()
    meta_lines = [line for line in lines if line.startswith("# ")]
    assert meta_lines == sorted(meta_lines)
    header_index = len(meta_lines)
    header = lines[header_index].split(",")
    assert header[0] == "r"
    assert header[1] == "snr"
    assert tuple(header[2:]) == SweepRow._fields[2:]
    first_row = lines[header_index + 1].split(",")
    assert float(first_row[0]) == 0.0
    assert float(first_row[1]) == pytest.approx(
        result.rows[0].metric_value, rel=1e-15
    )

    path = tmp_path / "sweep.csv"
    path.write_text(render_figure_csv(result), encoding="utf-8", newline="\n")
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("variable", sweeps.SWEEP_VARIABLES)
def test_a_sweep_is_its_table(fixed, variable):
    lo, hi = (0.5, 2.0) if variable != "delta_theta" else (-1.0, 1.0)
    spec = SweepSpec(variable=variable, lo=lo, hi=hi, points=9, fixed=fixed, metric="fidelity")
    table = run_sweep(spec)
    assert type(table) is FigureTable
    assert table.name == "sweep"
    assert table.meta["points"] == spec.points
    assert (table.meta["variable"], table.meta["metric"]) == (variable, "fidelity")
    assert table.columns == (variable, "fidelity", *SweepRow._fields[2:])
    assert len(table.rows) == spec.points
    assert all(type(row) is SweepRow for row in table.rows)


_COEFFICIENTS = {"a_coef", "b_coef", "big_f", "big_g"}


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize(
    ("variable", "lo", "hi", "alone"),
    [
        ("alpha", 0.0, 5.0, _COEFFICIENTS | {"variance_plus", "variance_minus"}),
        ("r", 0.0, 1.5, _COEFFICIENTS),
        ("delta_theta", -1.0, 1.0, _COEFFICIENTS),
    ],
)
def test_a_column_the_variable_leaves_alone_holds_one_object(
    fixed, metric, variable, lo, hi, alone
):
    # the kernel computes such a column once per sweep, and the CSV spells
    # a column of one object once (_spelling)
    if metric == "contrast" and variable != "alpha":
        alone = alone | {"contrast"}
    spec = SweepSpec(variable=variable, lo=lo, hi=hi, points=7, fixed=fixed, metric=metric)
    table = run_sweep(spec)
    for name, column in zip(table.columns, zip(*table.rows)):
        if name in alone:
            assert all(cell is column[0] for cell in column), name


def test_figure2_structure_and_values():
    # 201 points puts the reference times exactly on the grid
    table = reproduce_figure2("panel_ab", points=201)
    assert len(table.rows) == 4 * 201
    assert table.columns == ("t_us", "r", "snr", "fidelity")
    assert table.meta["variant"] == "panel_ab"
    by_key = {(round(t, 10), r): (s, f) for t, r, s, f in table.rows}
    s, f = by_key[(1.0, 0.85)]
    assert s == pytest.approx(2.3053658002172113, rel=1e-12)
    assert f == pytest.approx(0.9786907760824057, rel=1e-12)
    s0, _ = by_key[(1.0, 0.0)]
    assert s0 == pytest.approx(1.6745219347098794, rel=1e-12)
    s9, _ = by_key[(0.9, 0.85)]
    s9_0, _ = by_key[(0.9, 0.0)]
    assert s9 / s9_0 == pytest.approx(1.4425446792098073, rel=1e-12)
    # zero-time rows carry the continuous limit instead of a gap
    assert by_key[(0.0, 0.85)] == (0.0, 0.0)


def test_figure2_other_panel():
    table = reproduce_figure2("panel_cd", r_values=(0.85,), points=201)
    assert len(table.rows) == 201
    assert table.meta["kappa_over_chi"] == 2.0
    by_t = {round(t, 10): (s, f) for t, _, s, f in table.rows}
    s, f = by_t[0.8]
    assert s == pytest.approx(2.3499880876146935, rel=1e-12)
    assert f == pytest.approx(0.9810951666934825, rel=1e-12)


def test_figure2_validation():
    with pytest.raises(ValidationError, match="params_variant"):
        reproduce_figure2("panel_xy")
    with pytest.raises(ValidationError, match="r values"):
        reproduce_figure2("panel_ab", r_values=(0.5, -0.1))


def test_figure3_table():
    table = reproduce_figure3()
    assert len(table.rows) == 800
    assert table.name == "figure3"
    coherent = {(row[4], row[5]) for row in table.rows}
    assert len(coherent) == 1

    mismatch_rows = [row for row in table.rows if row[0] == "delta_theta"]
    assert len(mismatch_rows) == 400
    first = mismatch_rows[0]
    assert first[1] == -math.pi
    # a half-turn mismatch lands back on the matched ellipse
    assert first[2] == pytest.approx(SNR_MATCHED_REF, rel=1e-9)

    r_rows = [row for row in table.rows if row[0] == "r"]
    r_zero = next(row for row in r_rows if row[1] == 0.0)
    assert r_zero[2] == r_zero[4]
    assert r_zero[3] == r_zero[5]
    fid_by_r = {row[1]: row[3] for row in r_rows}
    assert fid_by_r[2.0] < max(fid_by_r.values())
    best_r = max(fid_by_r, key=fid_by_r.get)
    assert abs(best_r - R_MATCHED) < 0.05


def test_figure_csv_is_stable():
    text = render_figure_csv(reproduce_figure3(points=40))
    again = render_figure_csv(reproduce_figure3(points=40))
    assert text == again
    lines = text.splitlines()
    meta_lines = [line for line in lines if line.startswith("# ")]
    assert meta_lines == sorted(meta_lines)
    assert lines[len(meta_lines)].startswith("panel,x,snr,")


def test_numpy_floats_render_like_plain_floats(fixed):
    plain = SweepSpec(variable="t", lo=0.0, hi=2.0, points=9, fixed=fixed, metric="snr")
    probe = dataclasses.replace(fixed.probe, alpha=np.float64(fixed.probe.alpha))
    numpy_fixed = dataclasses.replace(fixed, probe=probe, t=np.float64(fixed.t))
    spec = dataclasses.replace(
        plain, lo=np.float64(0.0), hi=np.float64(2.0), fixed=numpy_fixed
    )
    text = render_figure_csv(run_sweep(spec))
    assert "np." not in text
    assert text == render_figure_csv(run_sweep(plain))


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
def test_numpy_integer_points_are_stored_as_ints(fixed, integer):
    # render_figure_csv splits a table into curves on an int meta["points"] only
    spec = SweepSpec(variable="r", lo=0.0, hi=2.0, points=integer(5), fixed=fixed, metric="snr")
    plain = dataclasses.replace(spec, points=5)
    assert type(spec.points) is int and spec == plain
    assert render_figure_csv(run_sweep(spec)) == render_figure_csv(run_sweep(plain))
    figure3 = reproduce_figure3(points=integer(5))
    assert type(figure3.meta["points"]) is int
    assert render_figure_csv(figure3) == render_figure_csv(reproduce_figure3(points=5))
    figure2 = reproduce_figure2("panel_ab", points=integer(5))
    assert render_figure_csv(figure2) == render_figure_csv(reproduce_figure2("panel_ab", points=5))
    for bad in (True, 5.0, np.float64(5.0), integer(1)):
        with pytest.raises(ValidationError, match=f"got {re.escape(repr(bad))}$"):
            SweepSpec(variable="r", lo=0.0, hi=2.0, points=bad, fixed=fixed, metric="snr")


@pytest.mark.parametrize(
    ("variable", "chi_s", "message"),
    [
        ("r", 1.0, "r must be nonnegative and finite, got -0.5"),
        ("alpha", 1.0, "alpha must be nonnegative and finite, got -0.5"),
        ("kappa", 1.0, "kappa must be positive and finite, got -0.5"),
        # the message names the caller's bound, not the internal time chi_s*t
        ("t", 2.0, "t must be nonnegative and finite, got -0.5"),
    ],
    ids=["r", "alpha", "kappa", "t-chi_s-2"],
)
def test_find_peak_rejects_a_negative_lower_bound(fixed, variable, chi_s, message):
    params = dataclasses.replace(fixed.params, chi_s=chi_s)
    fixed = dataclasses.replace(fixed, params=params)
    with pytest.raises(ValidationError) as excinfo:
        find_peak("snr", variable, (-0.5, 1.5), fixed)
    assert str(excinfo.value) == message


def test_range_whose_width_overflows_is_rejected(fixed):
    # -1e308 + 1e308 is finite, their difference is not: the grid would
    # hold NaN and inf points
    args = {"variable": "delta_theta", "points": 4, "fixed": fixed, "metric": "snr"}
    with pytest.raises(ValidationError, match="range must be finite with lo < hi"):
        SweepSpec(lo=-1e308, hi=1e308, **args)
    with pytest.raises(ValidationError, match="bounds must be finite with lo < hi"):
        find_peak("snr", "delta_theta", (-1e308, 1e308), fixed)
    # an int end past the double range has no float
    with pytest.raises(ValidationError, match="bounds must be finite with lo < hi"):
        find_peak("snr", "r", (0, 10**400), fixed)
    assert len(run_sweep(SweepSpec(lo=-1e307, hi=1e307, **args)).rows) == 4


def test_int_range_ends_are_stored_as_floats(fixed):
    spec = SweepSpec(variable="r", lo=0, hi=2, points=3, fixed=fixed, metric="snr")
    assert (type(spec.lo), type(spec.hi)) == (float, float)
    assert [row.value for row in run_sweep(spec).rows] == [0.0, 1.0, 2.0]
    assert render_figure_csv(run_sweep(spec)).splitlines()[-1].startswith("2.0,")
    assert spec == dataclasses.replace(spec, lo=0.0, hi=2.0)
    flat = find_peak("contrast", "r", (0, 2), fixed)
    assert type(flat.location) is float
    assert flat == find_peak("contrast", "r", (0.0, 2.0), fixed)
    assert find_peak("snr", "r", (0, 2), fixed) == find_peak("snr", "r", (0.0, 2.0), fixed)
    # a float end keeps its bits, and numpy's numbers are ints and floats too
    lo = 0.1 + 0.2
    assert SweepSpec(variable="r", lo=lo, hi=2, points=3, fixed=fixed, metric="snr").lo is lo
    assert find_peak("snr", "r", (np.int64(0), np.float32(2)), fixed) == find_peak(
        "snr", "r", (0.0, 2.0), fixed
    )


@pytest.mark.parametrize(
    "lo,hi",
    [(True, 2.0), (0.0, True), (np.bool_(False), 2.0), ("0", 2.0), (0.0, "2"), (None, 2.0), (0.0, 2j)],
)
def test_range_ends_that_are_not_int_or_float_are_rejected(fixed, lo, hi):
    args = {"variable": "r", "points": 3, "fixed": fixed, "metric": "snr"}
    with pytest.raises(ValidationError, match=r"range ends must be int or float"):
        SweepSpec(lo=lo, hi=hi, **args)
    with pytest.raises(ValidationError, match=r"bounds ends must be int or float"):
        find_peak("snr", "r", (lo, hi), fixed)


def test_mismatch_whose_squeezing_phase_overflows_inside_the_bounds_is_rejected(fixed):
    # theta_xi = 2(phi - x) is finite at the lower bound and -inf from
    # x = 8.99e307 on: the kernel raises for that point what _with raises
    with pytest.raises(ValidationError) as excinfo:
        find_peak("snr", "delta_theta", (8e307, 1.7e308), fixed)
    assert str(excinfo.value) == "theta_xi must be finite, got -inf"


@pytest.mark.parametrize("points", [1, 0, -3, 2.5, "400", 2**20 + 1, 10**13])
def test_grid_size_is_checked_before_any_grid_is_built(monkeypatch, fixed, points):
    def no_grid(*args):
        raise AssertionError("a grid was built before its size was checked")

    monkeypatch.setattr(sweeps, "_grid", no_grid)
    for build in (
        lambda: SweepSpec(
            variable="r", lo=0.0, hi=1.0, points=points, fixed=fixed, metric="snr"
        ),
        lambda: reproduce_figure2("panel_ab", points=points),
        lambda: reproduce_figure3(points=points),
    ):
        with pytest.raises(ValidationError, match=r"points must be an integer in \[2, 1048576\]"):
            build()


def test_two_points_make_the_smallest_grid(fixed):
    spec = SweepSpec(variable="r", lo=0.0, hi=1.0, points=2, fixed=fixed, metric="snr")
    assert [row.value for row in run_sweep(spec).rows] == [0.0, 1.0]
    assert len(reproduce_figure2("panel_ab", points=2).rows) == 4 * 2
    assert len(reproduce_figure3(points=2).rows) == 2 * 2


@pytest.mark.parametrize(
    "variable,lo,hi,params,probe,t,error,message",
    [
        # kappa/chi_s overflows at the far end, and A² from the first point on
        (
            "kappa", 0.5, 1e307, SystemParams(chi_s=0.01, kappa=0.02),
            ProbeState(alpha=10.0, r=0.74), 1e200,
            NumericalError, "kappa/chi_s overflows: chi_s = 0.01, kappa = 1e+307",
        ),
        # 2(phi - x) overflows at the far end; the variances overflow earlier
        (
            "delta_theta", 0.0, 1e308, SystemParams(kappa=2.0),
            ProbeState(alpha=10.0, r=354.0), 10.0,
            ValidationError, "theta_xi must be finite, got -inf",
        ),
    ],
    ids=["kappa", "delta_theta"],
)
def test_an_end_of_the_range_fails_before_any_point(
    variable, lo, hi, params, probe, t, error, message
):
    fixed = SweepFixed(params=params, probe=probe, phi=PHI_DEFAULT, t=t)
    with pytest.raises(error) as excinfo:
        run_sweep(
            SweepSpec(variable=variable, lo=lo, hi=hi, points=50, fixed=fixed, metric="snr")
        )
    assert str(excinfo.value) == message


_SLOW_CHI = SystemParams(chi_s=1e-10, kappa=2e-10)


def _slow_fixed() -> SweepFixed:
    return SweepFixed(params=_SLOW_CHI, probe=ProbeState(alpha=10.0, r=0.74), phi=0.5, t=1e-5)


@pytest.mark.parametrize("metric", ["snr", "variance"])
def test_a_t_sweep_whose_chi_s_t_underflows_raises(metric):
    # chi_s·t rounds to 0 at the grid's first positive point, 1e-314, and
    # is positive at the end 4e-314: the model would read that point as t = 0
    spec = SweepSpec(variable="t", lo=0.0, hi=4e-314, points=5, fixed=_slow_fixed(), metric=metric)
    with pytest.raises(NumericalError) as excinfo:
        run_sweep(spec)
    assert str(excinfo.value) == "chi_s·t underflows to 0: chi_s = 1e-10, t = 1e-314"


@pytest.mark.parametrize(("lo", "hi", "t"), [(0.0, 4e-320, 4e-320), (1e-320, 4e-320, 1e-320)])
def test_a_t_sweep_end_whose_chi_s_t_underflows_raises(lo, hi, t):
    # t = 0 is a point of its own; an end t > 0 whose chi_s·t is 0 is not
    with pytest.raises(NumericalError) as excinfo:
        SweepSpec(variable="t", lo=lo, hi=hi, points=5, fixed=_slow_fixed(), metric="snr")
    assert str(excinfo.value) == f"chi_s·t underflows to 0: chi_s = 1e-10, t = {t!r}"


def test_a_t_sweep_from_zero_keeps_its_skipped_origin_at_a_small_chi_s():
    spec = SweepSpec(variable="t", lo=0.0, hi=3e-5, points=4, fixed=_slow_fixed(), metric="snr")
    rows = run_sweep(spec).rows
    assert rows[0].skipped and not any(row.skipped for row in rows[1:])


@pytest.mark.parametrize(
    ("metric", "bounds", "t"),
    [("snr", (1e-320, 4e-320), 1e-320), ("contrast", (0.0, 4e-320), 1.29e-321)],
)
def test_a_t_peak_search_whose_chi_s_t_underflows_raises(metric, bounds, t):
    # the coarse scan evaluates its points in order, and the first whose
    # chi_s·t underflows raises: 1e-320, or 4e-320/31 after t = 0
    with pytest.raises(NumericalError) as excinfo:
        find_peak(metric, "t", bounds, _slow_fixed())
    assert str(excinfo.value) == f"chi_s·t underflows to 0: chi_s = 1e-10, t = {t!r}"


def test_a_t_peak_search_from_zero_is_undefined_there_before_it_underflows():
    with pytest.raises(NumericalError, match="metric 'snr' is undefined inside the bounds at 0.0"):
        find_peak("snr", "t", (0.0, 4e-320), _slow_fixed())
