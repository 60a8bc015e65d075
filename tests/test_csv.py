"""CSV bytes: the one-pass table formatter against a cell-by-cell join,
and the sha256 of reference tables, sweeps and a shot file.

The pinned digests were taken from the cell-by-cell formatter, so they
hold any change of the formatter to the bytes it used to write.
"""

import hashlib
import math

import numpy as np
import pytest
from helpers import reference_render_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezed_readout import (
    ProbeState,
    SweepFixed,
    SweepSpec,
    UnitContext,
    from_experimental,
    render_figure_csv,
    render_sweep_csv,
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


@settings(max_examples=400, deadline=None)
@given(_tables())
def test_render_csv_matches_the_cell_by_cell_join(table):
    rows, columns = table
    meta = {"name": "x%sy", "points": len(rows), "value": -0.0}
    assert sweeps._render_csv(meta, columns, rows) == reference_render_csv(meta, columns, rows)


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
    assert sweeps._render_csv({}, columns, rows) == reference_render_csv({}, columns, rows)


def test_a_column_of_one_object_is_formatted_once(monkeypatch):
    calls = []

    def counting(value):
        calls.append(value)
        return fmt(value)

    fmt = sweeps._fmt
    monkeypatch.setattr(sweeps, "_fmt", counting)
    cell = np.float64(0.25)
    body = sweeps._csv_body(([cell] * 50, [float(i) for i in range(50)]))
    assert calls == [cell]
    assert body == "".join(f"0.25,{float(i)!r}\n" for i in range(50))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_figure_tables_keep_their_bytes():
    assert _sha256(render_figure_csv(reproduce_figure2("panel_ab"))) == (
        "3997d8903e9d81599eebbc77b9f16076783c8d58087d55ed7c0370199fbc7740"
    )
    assert _sha256(render_figure_csv(reproduce_figure2("panel_cd"))) == (
        "31d49e202cbe5f92fef2213dfdd2d4149d5e6cfe87c2a561d7513f7d3cdfbe18"
    )
    assert _sha256(render_figure_csv(reproduce_figure3())) == (
        "e64981c743cd25e35f62792583a7d43cc0279ac25adf609fe4c02f4e5f9a63cc"
    )


_SWEEP_BOUNDS = {
    "t": (0.0, 3.0),
    "r": (0.0, 2.0),
    "delta_theta": (-math.pi, math.pi),
    "alpha": (0.0, 12.0),
    "kappa": (0.5, 4.0),
}

_SWEEP_SHA256 = {
    ("t", "snr"): "c3909659a0616b7942798ce806b122eb6b921bd0ed92e91b838279505819be99",
    ("t", "fidelity"): "ccdd2663147089c01c27aa9c13980d0b07c4d3215bc3b9b9e7b5c01625982510",
    ("t", "contrast"): "16489e3d5b831c500808e064cba7c9745b17478b2f3729abaac43978906486b0",
    ("t", "variance"): "7b761788408e18ddd635a9dc1901c92701f62aed2eada6b0288a609876ef3207",
    ("r", "snr"): "53fc7fb55616635fa5ca7e088f2a00a786a5891e56ff234a6f0d74364ff7d11d",
    ("r", "fidelity"): "8afa80130fabe4231c4f45252631c11ff720ca6358f9805b0697b234f6fdd327",
    ("r", "contrast"): "39fb3dc7ced2be39d83ad12973a30ccfa3e2daf5c96b7ec0b34dafa4db6ab03a",
    ("r", "variance"): "070d0b75c6c07fa31954df925cc7603d79ad2910affb8059da48e79575a5a04d",
    ("delta_theta", "snr"): "7c54c6b9cc861bc28263be6546aadd47a6a6b7dd9fdd07bca143dec8c4dd9847",
    ("delta_theta", "fidelity"): "f7aa4227c8a70d1b728af2ce51975ea43da8f298b1cc3ad552c46414a332d8d3",
    ("delta_theta", "contrast"): "679d3ee1a4244902a5b1e77174c714a15fcba4c9eda90eff0280ec32153d1247",
    ("delta_theta", "variance"): "c83e9ee44e6f04c8cb1c2b72bb5a6c767570242cfe3a13f09bb7a5379b8cb687",
    ("alpha", "snr"): "d380785bb0a8d4bb1dc7631ef2097cd1841953308e6daf594705a8df7fa9fee6",
    ("alpha", "fidelity"): "e0cbf1f4ee86f25531df4dce54fb9925e5add8c6203eabb4c8b53ddc380a4b93",
    ("alpha", "contrast"): "49e4580a6a58db0cbe8871f392839cef5c697ef442ab39d4c54a25165fa68aed",
    ("alpha", "variance"): "9b7bc8cbb7ebec1df1229acb8501a93ea1288fddd69d855ff07c7102932eb724",
    ("kappa", "snr"): "0be98f0b81ba192d3242a6e8c97f41a8b3b04ab252a7582ac5ee0dea1a0a4558",
    ("kappa", "fidelity"): "9758c54f77a55b9a6320af9f9589da2b3709505f9b2a2af67a4a81d63f94b3be",
    ("kappa", "contrast"): "4addd5d18d4b814cd8da8d4bd70eb139da50a31c03702c8de6298541bd80c14a",
    ("kappa", "variance"): "e9b17ddd4f89aa61ccbc9993a8cc46f5cdab9666bcba468c51d90195fd02650a",
}


@pytest.mark.parametrize(("variable", "metric"), list(_SWEEP_SHA256), ids="-".join)
def test_sweeps_keep_their_bytes(variable, metric):
    params = from_experimental(0.15, 2.0, 3.0)
    probe = ProbeState(alpha=10.0, theta_alpha=0.0, r=0.74, theta_xi=math.pi)
    t = UnitContext(0.15e6).to_internal_time(0.714)
    fixed = SweepFixed(params=params, probe=probe, phi=0.5 * math.pi, t=t)
    lo, hi = _SWEEP_BOUNDS[variable]
    spec = SweepSpec(variable=variable, lo=lo, hi=hi, points=400, fixed=fixed, metric=metric)
    assert _sha256(render_sweep_csv(run_sweep(spec))) == _SWEEP_SHA256[(variable, metric)]


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
