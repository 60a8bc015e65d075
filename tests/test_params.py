import dataclasses
import functools
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezed_readout import (
    MAX_SHOTS,
    NumericalError,
    ProbeState,
    ReadoutError,
    SweepFixed,
    SystemParams,
    UnitContext,
    ValidationError,
    backaction_report,
    classify,
    fidelity,
    from_experimental,
    optimal_squeezing,
    readout_point,
    reproduce_figure2,
    sample_shots,
    snr,
    total_t1,
)
from squeezed_readout.metrics import _fields
from squeezed_readout.params import wrap_angle


def test_from_experimental_reference_rates():
    assert from_experimental(0.15, 2.0, 3.0).kappa == 2.0
    assert from_experimental(0.15, 1.0, 3.0).kappa == 1.0
    params = from_experimental(0.15, 2.0, 3.0)
    assert params.chi_s == 1.0
    # 2 pi x 0.15e6 rad/s x 3e-3 s
    assert params.t1_intrinsic == pytest.approx(2827.4333882308138, rel=1e-14)
    assert params.vacuum_weight == 0.25
    assert from_experimental(0.15, 2.0, 3.0, u=1.0).vacuum_weight == 1.0


def test_from_experimental_rejects_nonpositive():
    with pytest.raises(ValidationError, match="chi_over_2pi_mhz"):
        from_experimental(0.0, 2.0, 3.0)
    with pytest.raises(ValidationError, match="kappa_over_chi"):
        from_experimental(0.15, -1.0, 3.0)
    with pytest.raises(ValidationError, match="t1_ms"):
        from_experimental(0.15, 2.0, 0.0)
    with pytest.raises(ValidationError, match="vacuum_weight"):
        from_experimental(0.15, 2.0, 3.0, u=0.0)


def test_unit_conversion_reference_times():
    units = UnitContext(0.15e6)
    assert units.to_internal_time(0.0) == 0.0
    assert units.to_internal_time(1.0) == pytest.approx(0.9424777960769379, rel=1e-14)
    assert units.to_internal_time(0.714) == pytest.approx(0.6729291463989336, rel=1e-14)


def test_unit_round_trip_is_identity():
    units = UnitContext(0.15e6)
    for t_us in (1e-6, 0.1, 0.714, 1.0, 17.3):
        back = units.to_physical_time(units.to_internal_time(t_us))
        assert back == pytest.approx(t_us, rel=1e-12)


def test_unit_context_rejects_bad_input():
    with pytest.raises(ValidationError, match="chi_over_2pi_hz"):
        UnitContext(0.0)
    units = UnitContext(0.15e6)
    with pytest.raises(ValidationError, match="t_us"):
        units.to_internal_time(-0.1)
    with pytest.raises(ValidationError, match="t_internal"):
        units.to_physical_time(float("nan"))


def test_system_params_validation_names_the_field():
    with pytest.raises(ValidationError, match="kappa"):
        SystemParams(kappa=0.0)
    with pytest.raises(ValidationError, match="chi_s"):
        SystemParams(chi_s=-1.0)
    with pytest.raises(ValidationError, match="t1_intrinsic"):
        SystemParams(t1_intrinsic=-3.0)
    with pytest.raises(ValidationError, match="vacuum_weight"):
        SystemParams(vacuum_weight=0.0)
    with pytest.raises(ValidationError, match="g_s"):
        SystemParams(g_s=-0.1, delta=10.0)
    with pytest.raises(ValidationError, match="delta"):
        SystemParams(g_s=0.1, delta=0.0)
    with pytest.raises(ValidationError, match="kappa"):
        SystemParams(kappa=float("inf"))


_POINT = (1.0, ProbeState(alpha=2.0), SystemParams())


@pytest.mark.parametrize("value", ["1.0", None, True, False, 1j, [1.0]], ids=repr)
@pytest.mark.parametrize(
    "name,build",
    [
        ("kappa", lambda v: SystemParams(kappa=v)),
        ("t1_intrinsic", lambda v: SystemParams(t1_intrinsic=v)),
        ("alpha", lambda v: ProbeState(alpha=v)),
        ("theta_xi", lambda v: ProbeState(theta_xi=v)),
        ("phi", lambda v: SweepFixed(params=_POINT[2], probe=_POINT[1], phi=v, t=1.0)),
        ("t", lambda v: SweepFixed(params=_POINT[2], probe=_POINT[1], phi=0.0, t=v)),
        ("phi", lambda v: readout_point(*_POINT, v)),
        ("phi", lambda v: snr(*_POINT, v)),
    ],
    ids=["kappa", "t1_intrinsic", "alpha", "theta_xi", "fixed-phi", "fixed-t", "readout_point", "snr"],
)
def test_a_value_that_is_not_a_real_number_is_a_validation_error(name, build, value):
    # strings, None, bools and complex numbers are not real numbers, and a
    # bool is not taken as 0 or 1
    with pytest.raises(ValidationError, match=f"^{name} must be "):
        build(value)


# one argument as a caller may pass it: any double (subnormals, the top of
# the range, ±inf, NaN), ints past the double range, bools, strings, None
_ANY_VALUE = st.one_of(
    st.floats(),
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)
_FUZZ_PARAMS = SystemParams(kappa=2.0, g_s=0.01, delta=1.0)
_FUZZ_PROBE = ProbeState(alpha=3.0, r=0.5)
_FUZZ_POINT = (_FUZZ_PROBE, _FUZZ_PARAMS, 0.5 * math.pi)


@functools.cache
def _fuzz_batch():
    return sample_shots(16, 1.0, *_FUZZ_POINT, 7)


_FUZZED = {
    # a valid n of more than 64 shots is left out: it only allocates
    "sample_shots-n": lambda v: sample_shots(v, 1.0, *_FUZZ_POINT, 7),
    "sample_shots-seed": lambda v: sample_shots(2, 1.0, *_FUZZ_POINT, v),
    "readout_point-t": lambda v: readout_point(v, *_FUZZ_POINT),
    "snr-t": lambda v: snr(v, *_FUZZ_POINT),
    "optimal_squeezing-t": lambda v: optimal_squeezing(v, _FUZZ_PARAMS),
    "snr-phi": lambda v: snr(1.0, _FUZZ_PROBE, _FUZZ_PARAMS, v),
    "readout_point-t1_total": lambda v: readout_point(1.0, *_FUZZ_POINT, v),
    "fidelity-t": lambda v: fidelity(v, 1.0, 10.0),
    "fidelity-snr_value": lambda v: fidelity(1.0, v, 10.0),
    "fidelity-t1_total": lambda v: fidelity(1.0, 1.0, v),
    "total_t1-r": lambda v: total_t1(_FUZZ_PARAMS, v),
    "backaction_report-ratio_max": lambda v: backaction_report(_FUZZ_PROBE, _FUZZ_PARAMS, v),
    "classify-t1": lambda v: classify(_fuzz_batch(), t1=v),
    "reproduce_figure2-r_values": lambda v: reproduce_figure2("panel_ab", (v,), points=2),
    "to_internal_time": lambda v: UnitContext(0.15e6).to_internal_time(v),
    "to_physical_time": lambda v: UnitContext(0.15e6).to_physical_time(v),
}


@pytest.mark.parametrize("call", list(_FUZZED))
@settings(max_examples=60, deadline=None)
@given(value=_ANY_VALUE)
def test_every_argument_returns_a_value_or_raises_a_readout_error(call, value):
    if call == "sample_shots-n" and type(value) is int and 64 < value <= MAX_SHOTS:
        return
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the fidelity past t/T1 = 0.1
            _FUZZED[call](value)
    except ReadoutError:
        return
    # a bool, a string and None are never taken as a number; None is the default
    # of classify's t1 and of readout_point's t1_total
    defaults = (("classify-t1", None), ("readout_point-t1_total", None))
    assert type(value) in (int, float) or (call, value) in defaults, value


def test_int_fields_are_stored_as_floats():
    params = SystemParams(chi_s=2, kappa=3, t1_intrinsic=3000, vacuum_weight=1, g_s=1, delta=-5)
    probe = ProbeState(alpha=2, theta_alpha=1, r=1, theta_xi=3)
    fixed = SweepFixed(params=params, probe=probe, phi=1, t=1)
    for holder, names in (
        (params, ("chi_s", "kappa", "t1_intrinsic", "vacuum_weight", "g_s", "delta")),
        (probe, ("alpha", "theta_alpha", "r", "theta_xi")),
        (fixed, ("phi", "t")),
        (UnitContext(150000), ("chi_over_2pi_hz",)),
    ):
        for name in names:
            assert type(getattr(holder, name)) is float, name
    assert params == SystemParams(
        chi_s=2.0, kappa=3.0, t1_intrinsic=3000.0, vacuum_weight=1.0, g_s=1.0, delta=-5.0
    )
    assert readout_point(1.0, probe, params, 1) == readout_point(1.0, probe, params, 1.0)


def test_has_backaction_requires_both_parameters():
    assert not SystemParams().has_backaction
    assert not SystemParams(g_s=0.1).has_backaction
    assert not SystemParams(delta=10.0).has_backaction
    assert SystemParams(g_s=0.1, delta=10.0).has_backaction


def test_model_inputs_rescale_rates_and_times_to_chi_s_1():
    params = SystemParams(chi_s=3.0, kappa=6.0, t1_intrinsic=10.0, g_s=0.3, delta=30.0)
    point = _fields(0.5, ProbeState(alpha=1.0), params, 0.2)
    assert (point.t, point.kappa, point.t1) == (1.5, 2.0, 30.0)
    assert point.u == params.vacuum_weight
    assert _fields(0.5, ProbeState(alpha=1.0), params, 0.2, t1_total=4.0).t1 == 12.0
    # at chi_s = 1 the rates and times keep their bits
    params = from_experimental(0.15, 2.0, 3.0)
    point = _fields(0.5, ProbeState(alpha=1.0), params, 0.2)
    assert (point.t, point.kappa, point.t1) == (0.5, params.kappa, params.t1_intrinsic)


def test_params_are_frozen():
    params = SystemParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.kappa = 3.0


def test_wrap_angle_reduces_to_half_open_interval():
    tau = 2.0 * math.pi
    for x in (0.0, 1.0, -1.0, math.pi, -math.pi, tau, -tau, 7.5 * math.pi, -12.3):
        y = wrap_angle(x)
        assert -math.pi < y <= math.pi
        assert math.cos(y) == pytest.approx(math.cos(x), abs=1e-12)
        assert math.sin(y) == pytest.approx(math.sin(x), abs=1e-12)
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0


@pytest.mark.parametrize("chi_over_2pi_hz", [1e-314, 1e-320])
def test_physical_time_past_the_double_range_is_a_numerical_error(chi_over_2pi_hz):
    # chi_s in rad/us is subnormal at 1e-314 Hz (t/chi overflows) and 0 at 1e-320 Hz
    with pytest.raises(NumericalError) as excinfo:
        UnitContext(chi_over_2pi_hz).to_physical_time(1.0)
    assert str(excinfo.value) == (
        f"chi_over_2pi_hz = {chi_over_2pi_hz!r} is too small: time in us overflows"
    )


def test_internal_time_past_the_double_range_is_a_numerical_error():
    # chi_s·t of 6.3e300 rad/us by 1e10 us overflows; t_us itself is fine
    with pytest.raises(NumericalError) as excinfo:
        UnitContext(1e306).to_internal_time(1e10)
    assert str(excinfo.value) == (
        "chi_over_2pi_hz = 1e+306 is too large for t_us = 10000000000.0: "
        "internal time overflows"
    )


@pytest.mark.parametrize(
    ("chi_over_2pi_mhz", "t1_ms", "fault"),
    [(1e-320, 1e-315, "underflows to 0"), (1e300, 1e300, "overflows")],
    ids=["underflow", "overflow"],
)
def test_t1_intrinsic_past_the_double_range_is_a_numerical_error(
    chi_over_2pi_mhz, t1_ms, fault
):
    # each input is a positive finite double; their product chi_s·T1 is not
    with pytest.raises(NumericalError) as excinfo:
        from_experimental(chi_over_2pi_mhz, 2.0, t1_ms)
    assert str(excinfo.value) == (
        f"t1_intrinsic = chi_s·T1 {fault}: chi_over_2pi_mhz = {chi_over_2pi_mhz!r}, "
        f"t1_ms = {t1_ms!r}"
    )
