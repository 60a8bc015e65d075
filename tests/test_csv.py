"""CSV bytes: the curve-by-curve table formatter against a cell-by-cell
join, the sha256 of reference tables, sweeps and a shot file, and the
traced peak memory of writing a shot file.

The pinned digests were taken from the cell-by-cell formatter, so they
hold any change of the formatter to the bytes it used to write.
"""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from helpers import reference_render_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezed_readout import (
    FigureTable,
    ProbeState,
    SweepFixed,
    SweepSpec,
    UnitContext,
    from_experimental,
    render_figure_csv,
    reproduce_figure2,
    reproduce_figure3,
    run_sweep,
)
from squeezed_readout import sweeps
from squeezed_readout.cli import main

_SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.5e-310)
_FLOATS = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_CELL_KINDS = (
    _FLOATS,
    _FLOATS.map(np.float64),
    st.booleans(),
    st.integers(),
    st.none(),
    st.text(alphabet="ab%s,-1.e"),
)
_CELLS = st.one_of(_CELL_KINDS)


def _equal_copy(cell):
    """A new object equal to cell (a singleton or a cached small int is itself)."""
    if type(cell) is float:
        return float.fromhex(cell.hex())
    if isinstance(cell, np.float64):
        return np.float64(float(cell))
    if type(cell) is str:
        return "".join([cell, "."])[:-1]
    if type(cell) is int:
        return int(str(cell))
    return cell


def _equal_other(cell):
    """A cell equal to cell but spelled otherwise, where one is: -0.0 for
    0.0, 1.0 for 1, 1 for True; else an equal copy."""
    if type(cell) is float and cell == 0.0:
        return -cell
    if type(cell) is bool:
        return int(cell)
    if type(cell) is int and abs(cell) <= 2**53:
        return float(cell)
    return _equal_copy(cell)


@st.composite
def _tables(draw):
    rows = draw(st.integers(min_value=0, max_value=6))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(("mixed", "one type", "one object", "equal objects")))
        if kind == "mixed":
            column = draw(st.lists(_CELLS, min_size=rows, max_size=rows))
        elif kind == "one type":
            cells = draw(st.sampled_from(_CELL_KINDS))
            column = draw(st.lists(cells, min_size=rows, max_size=rows))
        elif kind == "one object":
            column = [draw(_CELLS)] * rows
        else:
            cell = draw(_CELLS)
            column = [_equal_copy(cell) for _ in range(rows)]
        columns.append(column)
    return list(zip(*columns)), tuple(f"c{i}" for i in range(len(columns)))


def _one_curve(meta: dict, columns: tuple[str, ...], rows) -> str:
    """rows rendered as the one curve of a table, as a sweep is."""
    return render_figure_csv(FigureTable(name="table", meta=meta, columns=columns, rows=rows))


@settings(max_examples=400, deadline=None)
@given(_tables())
def test_render_csv_matches_the_cell_by_cell_join(table):
    rows, columns = table
    meta = {"name": "x%sy", "points": len(rows), "value": -0.0}
    assert _one_curve(meta, columns, rows) == reference_render_csv(meta, columns, rows)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [(0.0, -0.0, math.nan, "50%", None, True, 7, np.float64(0.1))],
        [(0.0, math.nan, "a%%b"), (-0.0, math.nan, "a%%b"), (0.0, float("nan"), "%d")],
    ],
    ids=["zero-rows", "one-row", "signed-zeros-and-nans"],
)
def test_small_tables_match_the_cell_by_cell_join(rows):
    columns = tuple(f"c{i}" for i in range(len(rows[0]) if rows else 3))
    assert _one_curve({}, columns, rows) == reference_render_csv({}, columns, rows)


def test_a_column_of_one_object_is_formatted_once(monkeypatch):
    calls = []

    def counting(value):
        calls.append(value)
        return fmt(value)

    fmt = sweeps._fmt
    monkeypatch.setattr(sweeps, "_fmt", counting)
    cell = np.float64(0.25)
    columns = ([cell] * 50, [float(i) for i in range(50)])
    body = sweeps._csv_body([sweeps._spelling(column) for column in columns], 50)
    assert calls == [cell]
    assert body == "".join(f"0.25,{float(i)!r}\n" for i in range(50))


def _row_wise(table: FigureTable) -> str:
    """The table joined row by row and cell by cell, the oracle of the
    curve-by-curve render_figure_csv."""
    return reference_render_csv(table.meta, table.columns, table.rows)


@st.composite
def _figure_tables(draw):
    """Tables of 1-4 curves of 1-4 rows, meta["points"] rows a curve.

    A column holds, per curve, fresh cells; cells of one list shared by
    identity, equal copies of them, equal cells spelled otherwise or fresh
    ones; one object repeated across every curve; or equal copies of one
    cell.
    """
    curves = draw(st.integers(min_value=1, max_value=4))
    points = draw(st.integers(min_value=1, max_value=4))
    cells = st.lists(_CELLS, min_size=points, max_size=points)
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(("mixed", "shared", "one object", "equal objects")))
        if kind == "mixed":
            column = [draw(cells) for _ in range(curves)]
        elif kind == "shared":
            grid = draw(cells)
            column = []
            for _ in range(curves):
                use = draw(st.sampled_from(("same", "copy", "other", "fresh")))
                if use == "same":
                    column.append(grid)
                elif use == "copy":
                    column.append([_equal_copy(cell) for cell in grid])
                elif use == "other":
                    column.append([_equal_other(cell) for cell in grid])
                else:
                    column.append(draw(cells))
        elif kind == "one object":
            cell = draw(_CELLS)
            column = [[cell] * points for _ in range(curves)]
        else:
            cell = draw(_CELLS)
            column = [[_equal_copy(cell) for _ in range(points)] for _ in range(curves)]
        columns.append(column)
    rows = tuple(
        tuple(column[k][i] for column in columns) for k in range(curves) for i in range(points)
    )
    names = tuple(f"c{i}" for i in range(len(columns)))
    meta = {"name": "x%sy", "points": points}
    return FigureTable(name="curves", meta=meta, columns=names, rows=rows)


@settings(max_examples=300, deadline=None)
@given(_figure_tables())
def test_figure_tables_of_many_curves_match_the_cell_by_cell_join(table):
    assert render_figure_csv(table) == _row_wise(table)


@pytest.mark.parametrize(
    "table",
    [
        lambda: reproduce_figure2("panel_ab"),
        lambda: reproduce_figure2("panel_cd"),
        lambda: reproduce_figure2("panel_ab", points=2),
        lambda: reproduce_figure2("panel_cd", r_values=(0.74,)),
        lambda: reproduce_figure3(),
        lambda: reproduce_figure3(points=2),
    ],
    ids=["fig2-ab", "fig2-cd", "fig2-two-points", "fig2-one-curve", "fig3", "fig3-two-points"],
)
def test_figure_tables_render_curve_by_curve_as_row_by_row(table):
    table = table()
    assert render_figure_csv(table) == _row_wise(table)


def test_signed_zeros_and_repeated_r_values_keep_their_spelling():
    # 0.0 and -0.0 are two objects and two curves; 0.5 given twice makes
    # two curves of one object
    table = reproduce_figure2("panel_ab", r_values=(0.0, -0.0, 0.5, 0.5), points=3)
    text = render_figure_csv(table)
    assert text == _row_wise(table)
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]
    assert [row[1] for row in rows] == ["0.0"] * 3 + ["-0.0"] * 3 + ["0.5"] * 6
    assert [row[0] for row in rows] == ["0.0", "1.0", "2.0"] * 4


def test_a_grid_shared_by_its_curves_is_spelled_once(monkeypatch):
    # numpy floats go through _fmt, so its calls count the spellings
    calls = []

    def counting(value):
        calls.append(value)
        return fmt(value)

    fmt = sweeps._fmt
    grid = [np.float64(i / 4) for i in range(5)]
    rows = tuple((x, curve, float(i)) for curve in ("a", "b", "c") for i, x in enumerate(grid))
    table = FigureTable(name="grid", meta={"points": 5}, columns=("x", "curve", "y"), rows=rows)
    expected = _row_wise(table)
    monkeypatch.setattr(sweeps, "_fmt", counting)
    assert render_figure_csv(table) == expected
    assert [value for value in calls if isinstance(value, np.float64)] == grid


def test_equal_grids_that_are_not_the_same_objects_keep_their_own_spelling():
    # -0.0 == 0.0, so the grids are equal but hold other objects: identity,
    # not equality, shares a grid's strings
    grids = ([-0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [-0.0, 1.0, 2.0])
    rows = tuple((x, curve, 2.0 * curve) for curve, grid in enumerate(grids) for x in grid)
    table = FigureTable(name="grids", meta={"points": 3}, columns=("x", "curve", "y"), rows=rows)
    text = render_figure_csv(table)
    assert text == _row_wise(table)
    assert [line.split(",")[0] for line in text.splitlines()[2:]] == [
        "-0.0", "1.0", "2.0", "0.0", "1.0", "2.0", "-0.0", "1.0", "2.0"
    ]


_R_VALUES = st.floats(min_value=0.0, max_value=3.0) | st.sampled_from((0.0, -0.0, 0.5, 1.275))


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(("panel_ab", "panel_cd")),
    r_values=st.lists(_R_VALUES, min_size=1, max_size=5),
    points=st.integers(min_value=2, max_value=12),
)
def test_figure2_renders_curve_by_curve_as_row_by_row(variant, r_values, points):
    table = reproduce_figure2(variant, r_values=tuple(r_values), points=points)
    assert render_figure_csv(table) == _row_wise(table)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_figure_tables_keep_their_bytes():
    assert _sha256(render_figure_csv(reproduce_figure2("panel_ab"))) == (
        "b02a1c672d054bf20e778b4ae1d061c049832f8e8910cb8e92538a95bbe879c9"
    )
    assert _sha256(render_figure_csv(reproduce_figure2("panel_cd"))) == (
        "367af8b0ae1e58b43577f0332543fe5966f4eb92dcc2f185344a50d11390a4e3"
    )
    assert _sha256(render_figure_csv(reproduce_figure3())) == (
        "eb45802a15c074f8ab0454a04f400566a449ea68e28738f278de8a06e35a702d"
    )


_SWEEP_BOUNDS = {
    "t": (0.0, 3.0),
    "r": (0.0, 2.0),
    "delta_theta": (-math.pi, math.pi),
    "alpha": (0.0, 12.0),
    "kappa": (0.5, 4.0),
}

_SWEEP_SHA256 = {
    ("t", "snr"): "580f783ad798983e6811cd40e1b11f59fc139e3a064ad8367cb94a3bd4c80659",
    ("t", "fidelity"): "5eb67cd5d804b1bdb290a50c38e552451e848deec71548df7b1680ceea3971a4",
    ("t", "contrast"): "b8692d66a37de9c5722de8f728adc255082703f9f11b8ac0034e986c66de4fe4",
    ("t", "variance"): "c29f747acf9ded3fc44496add0d35e0d97f10d86366c8094e9a000b943da35b8",
    ("r", "snr"): "632759ade83f3345425ecc856a1feea3f08eeedb52237f686de11d29c0d7061a",
    ("r", "fidelity"): "642ac2668a050ad6c8cf7084c9a31e51335ee6f1147a5133b2367fdebeeb6114",
    ("r", "contrast"): "b4a670bce8ad5c22353c070f2e90446e93d45d7bfcc004effe84eb105410e694",
    ("r", "variance"): "3cafb08999650fba44563b88e56a565c429ac5e3db7234a83d46ca5717d56f79",
    ("delta_theta", "snr"): "85dcf14a5fecf024b2357e9f6041a16bcc5f6feab6c7df6c9703147953e36cb5",
    ("delta_theta", "fidelity"): "7b6f99f1d57c1c60edd2c575e192b8043410b4889a4a5a408fa3777da75c76e1",
    ("delta_theta", "contrast"): "58079d38f153b2832dcaad2dd210d9650ad5005975e26310c8de1d37526c8aaa",
    ("delta_theta", "variance"): "e9e6d1af96ebc30577ca68b6463086344fbfab652856b7c67b55417a289d750a",
    ("alpha", "snr"): "4db6759a98a7406692bdcf6a936339bfc261402056ec3de9feaaf5ea94d1800b",
    ("alpha", "fidelity"): "f6b6d5534797300cca25ab9d1ae78eac2a5ea2acadb234055cfddd95e4b93a88",
    ("alpha", "contrast"): "602ff9407929e03a65e3c9af439b086923384445f341c69bf4fd26f2ee153158",
    ("alpha", "variance"): "9f8cb6cf066baecf199c2066597711adee37183bb35ad5c33ad10f3ead8d101d",
    ("kappa", "snr"): "d7ecdd58ee4ae3cfe7ef2a707286cd706fb8678b11ec8a255a26c460a79ba411",
    ("kappa", "fidelity"): "ab5d56dd0aaa1c85e063896132390e539a937a56a0a9252e4b9cf4e01832f86e",
    ("kappa", "contrast"): "9aaa11c768e7d044349abdcfec11ec974aaf118bb9143c76d1f37317426594d9",
    ("kappa", "variance"): "b62a827dafa7af4e8914129ddf85a9f7da477352f425f912a22ccf0db62e14b3",
}


@pytest.mark.parametrize(("variable", "metric"), list(_SWEEP_SHA256), ids="-".join)
def test_sweeps_keep_their_bytes(variable, metric):
    params = from_experimental(0.15, 2.0, 3.0)
    probe = ProbeState(alpha=10.0, theta_alpha=0.0, r=0.74, theta_xi=math.pi)
    t = UnitContext(0.15e6).to_internal_time(0.714)
    fixed = SweepFixed(params=params, probe=probe, phi=0.5 * math.pi, t=t)
    lo, hi = _SWEEP_BOUNDS[variable]
    spec = SweepSpec(variable=variable, lo=lo, hi=hi, points=400, fixed=fixed, metric=metric)
    assert _sha256(render_figure_csv(run_sweep(spec))) == _SWEEP_SHA256[(variable, metric)]


_SWEEP_HEAD = [
    "# alpha = 10.0",
    "# chi_s = 1.0",
    "# hi = 2.0",
    "# kappa = 2.0",
    "# lo = 0.0",
    "# lo_phase = 1.5707963267948966",
    "# metric = snr",
    "# points = 3",
    "# r = 0.74",
    "# t = 0.6729291463989336",
    "# t1_intrinsic = 2827.4333882308138",
    "# theta_alpha = 0.0",
    "# theta_xi = 3.141592653589793",
    "# vacuum_weight = 0.25",
    "# variable = r",
]


@pytest.mark.parametrize(
    ("coupling", "lines"),
    [(None, []), ((0.01, 1.0), ["# delta = 1.0", "# g_s = 0.01"])],
    ids=["intrinsic", "backaction"],
)
def test_a_sweep_header_is_its_operating_point(coupling, lines):
    # every set field of the params and probe, by key among the spec's; the
    # digests above hold no g_s or delta line
    params = from_experimental(0.15, 2.0, 3.0)
    if coupling is not None:
        params = dataclasses.replace(params, g_s=coupling[0], delta=coupling[1])
    probe = ProbeState(alpha=10.0, theta_alpha=0.0, r=0.74, theta_xi=math.pi)
    t = UnitContext(0.15e6).to_internal_time(0.714)
    fixed = SweepFixed(params=params, probe=probe, phi=0.5 * math.pi, t=t)
    spec = SweepSpec(variable="r", lo=0.0, hi=2.0, points=3, fixed=fixed, metric="snr")
    head = render_figure_csv(run_sweep(spec)).splitlines()[: len(_SWEEP_HEAD) + len(lines)]
    assert head == sorted(_SWEEP_HEAD + lines)


def test_shot_file_keeps_its_bytes(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "chi_over_2pi_mhz = 0.15\nkappa_over_chi = 2.0\nt1_ms = 3.0\n"
        "alpha = 10.0\nr = 0.74\nt_us = 0.714\n",
        encoding="utf-8",
    )
    out = tmp_path / "shots.csv"
    argv = ["shots", "--config", str(config), "--n-shots", "1001", "--seed", "7"]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3d157725a9e0f54ccc9658917434389db2c0f255c5992eb1fe5da4461cda8e48"
    )


def test_shot_file_is_written_one_eigenstate_at_a_time(tmp_path):
    # numpy reports its buffers to tracemalloc; a body joined before it is
    # written, then encoded whole, traces about 3.4 times the file
    config = tmp_path / "run.cfg"
    config.write_text(
        "chi_over_2pi_mhz = 0.15\nkappa_over_chi = 2.0\nt1_ms = 3.0\n"
        "alpha = 10.0\nr = 0.74\nt_us = 0.714\n",
        encoding="utf-8",
    )
    out = tmp_path / "shots.csv"
    argv = ["shots", "--config", str(config), "--out", str(out), "--n-shots"]
    assert main([*argv, "2"]) == 0  # imports and the parser, outside the trace
    tracemalloc.start()
    try:
        assert main([*argv, "100000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * out.stat().st_size
