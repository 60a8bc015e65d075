import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squeezed_readout
from squeezed_readout import (
    ProbeState,
    SweepFixed,
    SweepSpec,
    ValidationError,
    from_experimental,
    readout_point,
    render_figure_csv,
    reproduce_figure3,
    run_sweep,
    snr,
    total_t1,
)
from squeezed_readout import cli
from squeezed_readout.cli import main, parse_config

MATCHED_CONFIG = """\
# matched operating point
chi_over_2pi_mhz = 0.15
kappa_over_chi = 2.0
t1_ms = 3.0
alpha = 10.0
r = 0.74
t_us = 0.714
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MATCHED_CONFIG, encoding="utf-8")
    return str(path)


def _block(capsys) -> dict:
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


def test_parse_config_defaults():
    config = parse_config(MATCHED_CONFIG)
    assert config.phi == 0.5 * math.pi
    assert config.probe == ProbeState(
        alpha=10.0, theta_alpha=0.0, r=0.74, theta_xi=math.pi
    )
    assert config.params.vacuum_weight == 0.25
    assert config.params.chi_s == 1.0
    assert config.params.kappa == 2.0
    assert config.params.t1_intrinsic == pytest.approx(2827.4333882308138, rel=1e-12)
    assert config.seed == 12345
    assert config.n_shots == 100000
    assert config.threshold_policy == "midpoint"
    assert config.sweep_points == 400
    assert config.sweep_metric == "snr"
    assert config.t_us == 0.714
    assert config.out is None


def test_parse_config_reports_missing_keys():
    with pytest.raises(ValidationError) as excinfo:
        parse_config("alpha = 10\n")
    for key in ("chi_over_2pi_mhz", "kappa_over_chi", "t1_ms"):
        assert key in str(excinfo.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("alpha = 10\nwavelength = 3\n", "line 2: unknown key"),
        (MATCHED_CONFIG + "alpha = 11\n", "duplicate key 'alpha'"),
        (MATCHED_CONFIG + "theta_alpha_rad = 90deg\n", "expected float"),
        (MATCHED_CONFIG + "use_backaction_t1 = yes\n", "expected bool"),
        (MATCHED_CONFIG + "just a line\n", "expected 'key = value'"),
        (MATCHED_CONFIG + "delta_c = 0.1\n", "delta_c must be 0"),
        (MATCHED_CONFIG + "seed = -3\n", "seed must be nonnegative"),
        (MATCHED_CONFIG + "threshold_policy = argmax\n", "threshold_policy"),
    ],
)
def test_parse_config_rejects_bad_input(text, fragment):
    with pytest.raises(ValidationError) as excinfo:
        parse_config(text)
    assert fragment in str(excinfo.value)


def test_parse_config_rejects_bad_physics():
    bad = MATCHED_CONFIG.replace("kappa_over_chi = 2.0", "kappa_over_chi = -1.0")
    with pytest.raises(ValidationError, match="kappa"):
        parse_config(bad)


def test_snr_subcommand(config_path, capsys):
    assert main(["snr", "--config", config_path]) == 0
    block = _block(capsys)
    assert block["subcommand"] == "snr"
    assert block["snr"] == "3.580922280271773"
    assert block["contrast"] == "2.034049797191079"
    assert block["t_internal"] == "0.6729291463989336"


def test_fidelity_subcommand(config_path, capsys):
    assert main(["fidelity", "--config", config_path]) == 0
    block = _block(capsys)
    assert block["fidelity"] == "0.9995386643242705"
    assert block["t1_source"] == "intrinsic"


def test_u_literal_changes_the_answer(config_path, capsys):
    assert main(["snr", "--config", config_path, "--vacuum-weight", "1"]) == 0
    block = _block(capsys)
    params_u1 = from_experimental(0.15, 2.0, 3.0, u=1.0)
    probe = ProbeState(alpha=10.0, r=0.74, theta_xi=math.pi)
    expected = snr(0.6729291463989336, probe, params_u1, 0.5 * math.pi)
    assert float(block["snr"]) == pytest.approx(expected, rel=1e-14)
    assert float(block["snr"]) < 3.580922280271772


def test_error_exit_codes(config_path, tmp_path, capsys):
    assert main(["snr", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err

    no_t = tmp_path / "no_t.cfg"
    no_t.write_text(MATCHED_CONFIG.replace("t_us = 0.714\n", ""), encoding="utf-8")
    assert main(["snr", "--config", str(no_t)]) == 1
    assert "requires t_us" in capsys.readouterr().err

    assert main(["backaction", "--config", config_path]) == 1
    assert "gs_over_delta" in capsys.readouterr().err

    zero_t = tmp_path / "zero_t.cfg"
    zero_t.write_text(
        MATCHED_CONFIG.replace("t_us = 0.714", "t_us = 0.0"), encoding="utf-8"
    )
    assert main(["snr", "--config", str(zero_t)]) == 2
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("subcommand", "function"),
    [("snr", "snr"), ("fidelity", "snr"), ("shots", "snr"), ("optimize", "optimal_squeezing")],
)
def test_zero_time_exits_2_naming_the_time(tmp_path, capsys, subcommand, function):
    # the message names t = 0, not the r bound that a search over r meets first
    path = tmp_path / "zero_t.cfg"
    path.write_text(MATCHED_CONFIG.replace("t_us = 0.714", "t_us = 0.0"), encoding="utf-8")
    assert main([subcommand, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical error: {function} is undefined at t=0.0; requires t > 0\n"


# the subcommands and their help texts, in the order --help lists them
_SUBCOMMANDS = {
    "snr": "analytic contrast, variances and SNR at t_us",
    "fidelity": "analytic SNR and readout fidelity at t_us",
    "sweep": "metric on a uniform grid of one variable, CSV output",
    "shots": "Monte Carlo single-shot sampling and classification",
    "backaction": "probe-induced relaxation and validity checks",
    "optimize": "optimal squeezing/time and phase-matching residuals",
    "figures": "reference figure tables as CSV",
}


def test_help_lists_every_subcommand_with_its_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per subcommand
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    rows = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
    listed = [(row[0], row[1].strip()) for row in rows if len(row) == 2 and row[0] in _SUBCOMMANDS]
    assert listed == list(_SUBCOMMANDS.items())
    with pytest.raises(SystemExit) as exit_info:
        main(["figures", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for word in ("fig2", "fig3", "--variant", "panel_ab", "panel_cd"):
        assert word in out


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    """The CLI as its own process, so a traceback would reach stderr."""
    src = str(Path(squeezed_readout.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "squeezed_readout.cli", *args],
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    "line",
    ["lo_phase_rad = inf", "theta_alpha_rad = nan", "fig2_r_values = 0.0, -inf"],
)
def test_non_finite_config_float_is_a_config_error(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(MATCHED_CONFIG + line + "\n", encoding="utf-8")
    done = _run_cli(["snr", "--config", str(path)])
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "line 8:" in done.stderr


def test_non_utf8_config_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(MATCHED_CONFIG.encode("utf-8") + b"# caf\xe9\n")
    done = _run_cli(["snr", "--config", str(path)])
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: cannot read config: ")
    assert done.stderr.count("\n") == 1


_HUGE_ALPHA_SWEEP = (
    "sweep_variable = alpha\nsweep_lo = 1e308\nsweep_hi = 1.7e308\nsweep_points = 5"
)
_WITH_T1 = "\nuse_backaction_t1 = true"
_TILTED_LIKELIHOOD = "\ntheta_xi_rad = 1.1\nthreshold_policy = likelihood\nn_shots = 1000"


# 2·phi overflows a double above |phi| = 8.99e307
_LO_PHASE_OVERFLOWS = "numerical error: LO phase {!r} is too large: 2 phi overflows\n"


# a finite contrast of 3.26e307 over a noise of 0.18: the SNR passes the double range
_SNR_OVERFLOW = (
    "kappa_over_chi = 2.0\nt1_ms = 3.0\nalpha = 10.0\nr = 0.74\nt_us = 0.714",
    "kappa_over_chi = 4.0\nt1_ms = 3.0\nalpha = 6.3e307\nr = 2.0\n"
    "theta_xi_rad = -0.1853539665617978\nvacuum_weight = 1e-300\n"
    "t_us = 0.9018064313810423",
)
_SNR_OVERFLOWS = (
    "numerical error: snr overflows: contrast 3.2610584207983337e+307"
    " over noise 0.18038483594172094\n"
)


def _add(lines: str) -> tuple[str, str]:
    """An edit of MATCHED_CONFIG that appends lines after its last one."""
    return "t_us = 0.714", "t_us = 0.714\n" + lines


@pytest.mark.parametrize(
    ("subcommand", "edit", "fragment"),
    [
        ("backaction", ("r = 0.74", "r = 400\ngs_over_delta = 0.01"), "cosh 2r overflows"),
        ("shots", ("r = 0.74", "r = 400"), "cosh 2r overflows"),
        ("backaction", _add("gs_over_delta = 1e200"), "Purcell rate"),
        ("backaction", _add("gs_over_delta = 1e154"), "Purcell rate"),
        ("backaction", _add("gs_over_delta = 1e-160"), "induced T1"),
        ("backaction", _add("gs_over_delta = 1e-200"), "induced T1"),
        ("fidelity", _add("gs_over_delta = 1e200" + _WITH_T1), "Purcell rate"),
        ("fidelity", _add("gs_over_delta = 1e154" + _WITH_T1), "Purcell rate"),
        ("shots", _add("gs_over_delta = 1e154" + _WITH_T1), "Purcell rate"),
        ("snr", ("alpha = 10.0", "alpha = 1.5e308"), "contrast overflows"),
        ("fidelity", ("alpha = 10.0", "alpha = 1.5e308"), "contrast overflows"),
        ("shots", ("alpha = 10.0", "alpha = 1.5e308"), "contrast overflows"),
        (
            "shots",
            ("alpha = 10.0", "alpha = 1e160" + _TILTED_LIKELIHOOD),
            "likelihood threshold overflows",
        ),
        ("sweep", _add(_HUGE_ALPHA_SWEEP), "contrast overflows"),
        (
            "sweep",
            _add(_HUGE_ALPHA_SWEEP + "\nsweep_metric = contrast"),
            "contrast overflows",
        ),
        ("snr", _add("lo_phase_rad = 1e308"), _LO_PHASE_OVERFLOWS.format(1e308)),
        ("snr", _add("lo_phase_rad = -1e308"), _LO_PHASE_OVERFLOWS.format(-1e308)),
        ("fidelity", _add("lo_phase_rad = 1e308"), _LO_PHASE_OVERFLOWS.format(1e308)),
        ("optimize", _add("lo_phase_rad = 1e308"), _LO_PHASE_OVERFLOWS.format(1e308)),
        (
            "shots",
            _add("lo_phase_rad = 1e308\nn_shots = 10"),
            _LO_PHASE_OVERFLOWS.format(1e308),
        ),
        (
            "sweep",
            _add("lo_phase_rad = 1e308\nsweep_variable = r\nsweep_lo = 0\nsweep_hi = 2"),
            _LO_PHASE_OVERFLOWS.format(1e308),
        ),
        ("snr", _SNR_OVERFLOW, _SNR_OVERFLOWS),
        ("fidelity", _SNR_OVERFLOW, _SNR_OVERFLOWS),
        ("shots", _SNR_OVERFLOW, _SNR_OVERFLOWS),
    ],
    ids=[
        "backaction-r400",
        "shots-r400",
        "backaction-coupling-1e200",
        "backaction-coupling-1e154",
        "backaction-coupling-1e-160",
        "backaction-coupling-1e-200",
        "fidelity-coupling-1e200",
        "fidelity-coupling-1e154",
        "shots-coupling-1e154",
        "snr-alpha-1.5e308",
        "fidelity-alpha-1.5e308",
        "shots-alpha-1.5e308",
        "shots-likelihood-alpha-1e160",
        "sweep-snr-alpha-1.7e308",
        "sweep-contrast-alpha-1.7e308",
        "snr-lo-phase-1e308",
        "snr-lo-phase-minus-1e308",
        "fidelity-lo-phase-1e308",
        "optimize-lo-phase-1e308",
        "shots-lo-phase-1e308",
        "sweep-lo-phase-1e308",
        "snr-snr-overflow",
        "fidelity-snr-overflow",
        "shots-snr-overflow",
    ],
)
def test_unrepresentable_probe_exits_2_without_a_traceback(
    tmp_path, subcommand, edit, fragment
):
    path = tmp_path / "squeezed.cfg"
    path.write_text(MATCHED_CONFIG.replace(*edit), encoding="utf-8")
    done = _run_cli([subcommand, "--config", str(path)])
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("numerical error: ")
    assert fragment in done.stderr
    assert done.stderr.count("\n") == 1


def test_variance_sweep_past_half_the_double_range_writes_finite_cells(tmp_path, capsys):
    # each outcome variance is 9.8e307, so their sum overflows and their mean does not
    text = MATCHED_CONFIG.replace("alpha = 10.0", "alpha = 1.0").replace(
        "r = 0.74", "r = 0.5"
    ).replace("t_us = 0.714", "t_us = 3.2") + (
        "vacuum_weight = 1.79e308\nsweep_variable = r\nsweep_lo = 0\nsweep_hi = 1\n"
        "sweep_points = 3\nsweep_metric = variance\n"
    )
    path = tmp_path / "variance.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "variance.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[-3:]]
    assert [row[:2] for row in rows] == [
        [r, "9.841678264033272e+307"] for r in ("0.0", "0.5", "1.0")
    ]
    assert not any("inf" in cell for row in rows for cell in row)


_R_SWEEP = "sweep_variable = r\nsweep_lo = 0\nsweep_hi = 2\n"


@pytest.mark.parametrize(
    ("args", "out"),
    [
        (["snr"], "missing/y"),
        (["sweep"], "."),  # a directory
        (["figures", "fig3"], "missing/x.csv"),
        (["shots", "--n-shots", "1000"], "missing/shots.csv"),
    ],
    ids=["snr", "sweep", "figures", "shots"],
)
def test_unwritable_out_exits_1_without_a_traceback(tmp_path, args, out):
    path = tmp_path / "run.cfg"
    path.write_text(MATCHED_CONFIG + _R_SWEEP, encoding="utf-8")
    done = _run_cli([*args, "--config", str(path), "--out", str(tmp_path / out)])
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: cannot write output: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    ("subcommand", "edit", "message"),
    [
        ("snr", ("alpha = 10.0", "alpha = nan"), "line 5: expected float for 'alpha', got 'nan'"),
        ("snr", _add("fig2_r_values = ,"), "line 8: expected float list for 'fig2_r_values', got ','"),
        ("backaction", _add("nd_ratio_max = 0"), "nd_ratio_max must be positive, got 0.0"),
        ("backaction", _add("gs_over_delta = -1"), "gs_over_delta must be positive, got -1.0"),
        (
            "sweep",
            _add("sweep_variable = r\nsweep_hi = 2"),
            "sweep requires sweep_variable, sweep_lo and sweep_hi in the config",
        ),
        (
            "sweep",
            _add(_R_SWEEP + "sweep_points = 1"),
            "points must be an integer in [2, 1048576], got 1",
        ),
        (
            "sweep",
            _add(_R_SWEEP + "sweep_points = 0"),
            "points must be an integer in [2, 1048576], got 0",
        ),
        (
            "sweep",
            _add(_R_SWEEP + "sweep_points = 1048577"),
            "points must be an integer in [2, 1048576], got 1048577",
        ),
        (
            "sweep",
            _add(_R_SWEEP + "sweep_points = 2.5"),
            "line 11: expected int for 'sweep_points', got '2.5'",
        ),
    ],
    ids=[
        "alpha-nan",
        "fig2-r-values-empty",
        "nd-ratio-max-0",
        "gs-negative",
        "no-sweep-lo",
        "sweep-points-1",
        "sweep-points-0",
        "sweep-points-above-cap",
        "sweep-points-fraction",
    ],
)
def test_config_error_exits_1_with_one_line(tmp_path, capsys, subcommand, edit, message):
    path = tmp_path / "bad.cfg"
    path.write_text(MATCHED_CONFIG.replace(*edit), encoding="utf-8")
    assert main([subcommand, "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_shots_at_r10_sample_without_error(tmp_path, capsys):
    # the sampler draws along the squeeze ellipse axes, so a squeezed
    # variance far below the rounding of cosh 2r is no obstacle
    path = tmp_path / "squeezed.cfg"
    path.write_text(MATCHED_CONFIG.replace("r = 0.74\n", "r = 10\n"), encoding="utf-8")
    assert main(["shots", "--config", str(path), "--n-shots", "20000"]) == 0
    block = _block(capsys)
    assert block["n_shots"] == "20000"
    assert math.isfinite(float(block["empirical_snr"]))


def test_one_shot_is_a_one_line_config_error(config_path):
    # an empirical SNR takes a sample standard deviation, so two shots
    done = _run_cli(["shots", "--config", config_path, "--n-shots", "1"])
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: n_shots must be >= 2 ")
    assert done.stderr.count("\n") == 1


def test_n_shots_above_the_cap_is_a_one_line_error(config_path):
    # 1e13 shots would need 80 TB; the cap is checked before any allocation
    done = _run_cli(["shots", "--config", config_path, "--n-shots", "10000000000000"])
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: n must be at most MAX_SHOTS = ")
    assert done.stderr.count("\n") == 1


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify"])
    assert excinfo.value.code == 1


def test_backaction_subcommand(config_path, tmp_path, capsys):
    text = MATCHED_CONFIG + "gs_over_delta = 0.01\n"
    path = tmp_path / "ba.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["backaction", "--config", str(path)]) == 0
    block = _block(capsys)
    # kappa * (g/delta)^2 = 2e-4 in internal units
    assert float(block["gamma_purcell"]) == pytest.approx(2e-4, rel=1e-12)
    assert float(block["n_critical"]) == pytest.approx(2500.0, rel=1e-12)
    assert block["nondemolition_ok"] == "True"
    assert float(block["t1_total_internal"]) < 2827.4333882308138


def test_optimize_subcommand(config_path, capsys):
    assert main(["optimize", "--config", config_path]) == 0
    block = _block(capsys)
    assert float(block["r_star_analytic"]) == pytest.approx(
        0.7432936542503789, rel=1e-12
    )
    assert float(block["r_peak_search"]) == pytest.approx(0.7432936542503789, abs=1e-5)
    assert float(block["snr_at_r_star"]) == pytest.approx(3.5809332939134766, rel=1e-9)
    assert float(block["t_opt_us"]) == pytest.approx(0.8768222934485936, rel=1e-12)
    assert block["phase_matched"] == "True"
    assert float(block["residual_squeezing_phase"]) < 1e-12


# a misaligned probe whose SNR peaks at the lower bound r = 0
TILTED_CONFIG = """\
chi_over_2pi_mhz = 0.15
kappa_over_chi = 1.0
t1_ms = 3.0
alpha = 6.0
r = 0.3
theta_alpha_rad = 0.4
theta_xi_rad = 2.1
lo_phase_rad = 1.9
vacuum_weight = 0.5
t_us = 1.2
"""

# optimize stdout of MATCHED_CONFIG and TILTED_CONFIG, byte for byte; the
# peak search must reproduce its location and value to the last bit
OPTIMIZE_GOLDEN = {
    MATCHED_CONFIG: """\
subcommand = optimize
t_us = 0.714
t_internal = 0.6729291463989336
r_star_analytic = 0.7432936542503789
snr_at_r_star = 3.5809332939134766
r_peak_search = 0.7432935789863604
snr_at_r_peak = 3.5809332939134704
r_peak_flat = False
t_opt_internal = 0.8263855426805566
t_opt_us = 0.8768222934485936
residual_displacement_phase = 0.0
residual_squeezing_phase = 0.0
phase_matched = True
""",
    TILTED_CONFIG: """\
subcommand = optimize
t_us = 1.2
t_internal = 1.1309733552923256
r_star_analytic = 0.6573637503217125
snr_at_r_star = 1.8292228347728405
r_peak_search = 3.1112502188547427e-07
snr_at_r_peak = 2.3430833833513627
r_peak_flat = False
t_opt_internal = 1.8146266328267526
t_opt_us = 1.9253786565371964
residual_displacement_phase = 0.07079632679489656
residual_squeezing_phase = 0.8499999999999999
phase_matched = False
""",
}


@pytest.mark.parametrize("text", list(OPTIMIZE_GOLDEN), ids=["matched", "tilted"])
def test_optimize_stdout_is_golden(tmp_path, capsys, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["optimize", "--config", str(path)]) == 0
    assert capsys.readouterr().out == OPTIMIZE_GOLDEN[text]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    main(["figures", "fig3", "--vacuum-weight", "1"])  # builds the parser if nothing has yet
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main(["figures", "fig3", "--vacuum-weight", "1"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify"])
    assert excinfo.value.code == 1
    assert built == []
    # usage errors still reach the sys.stderr of the call, not of the first call
    err = capsys.readouterr().err
    assert err.startswith("usage: squeezed-readout ")
    assert "invalid choice: 'transmogrify'" in err


@pytest.mark.parametrize(
    ("first", "second"),
    [
        (["shots", "--n-shots", "500", "--seed", "7"], ["shots", "--n-shots", "500"]),
        (["figures", "fig2", "--variant", "panel_ab"], ["figures", "fig2"]),
        (["snr", "--out", "first.txt"], ["snr"]),
    ],
    ids=["seed", "variant", "out"],
)
def test_cached_parser_carries_nothing_between_calls(
    config_path, tmp_path, monkeypatch, capsys, first, second
):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    config = ["--config", config_path]
    assert main(first + config) == 0
    for path in work.iterdir():
        path.unlink()
    capsys.readouterr()
    assert main(second + config) == 0
    in_process = capsys.readouterr().out
    assert list(work.iterdir()) == []
    # the second call prints what it prints as the first call of a new process
    fresh = _run_cli(second + config)
    assert fresh.returncode == 0
    assert in_process == fresh.stdout
    assert list(work.iterdir()) == []


def test_shots_subcommand_and_seed_override(config_path, capsys):
    args = ["shots", "--config", config_path, "--n-shots", "2000", "--seed", "777"]
    assert main(args) == 0
    first = _block(capsys)
    assert first["seed"] == "777"
    assert first["n_shots"] == "2000"
    assert first["analytic_snr"] == "3.580922280271773"
    assert "philox" in first["generator_id"]
    assert abs(float(first["empirical_snr"]) - 3.580922280271772) < 0.5

    assert main(args) == 0
    assert _block(capsys)["empirical_snr"] == first["empirical_snr"]

    assert main(["shots", "--config", config_path, "--n-shots", "2000", "--seed", "778"]) == 0
    assert _block(capsys)["empirical_snr"] != first["empirical_snr"]


def test_shots_csv_is_seed_stable(config_path, tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "subdir"
    out_b.mkdir()
    out_b = out_b / "b.csv"
    base = ["shots", "--config", config_path, "--n-shots", "500", "--seed", "42"]
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    text_a = out_a.read_text(encoding="utf-8")
    # identical settings give identical bytes regardless of destination
    assert text_a == out_b.read_text(encoding="utf-8")
    lines = text_a.splitlines()
    assert lines[0].startswith("# ")
    header_index = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    assert lines[header_index] == "state,outcome"
    assert not any(line.startswith("# out") for line in lines[:header_index])
    first_value = lines[header_index + 1].split(",")[1]
    assert math.isfinite(float(first_value))

    out_c = tmp_path / "c.csv"
    assert main(["shots", "--config", config_path, "--n-shots", "500", "--seed", "43", "--out", str(out_c)]) == 0
    capsys.readouterr()
    assert out_c.read_text(encoding="utf-8") != text_a


def test_shots_csv_header_names_its_stream(config_path, tmp_path, capsys):
    # the config snapshot, then the generator that drew the outcomes
    out = tmp_path / "shots.csv"
    args = ["shots", "--config", config_path, "--n-shots", "2", "--seed", "5"]
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[:-4] == [
        "# chi_over_2pi_mhz = 0.15",
        "# kappa_over_chi = 2.0",
        "# t1_ms = 3.0",
        "# alpha = 10.0",
        "# theta_alpha_rad = 0.0",
        "# r = 0.74",
        "# theta_xi_rad = 3.141592653589793",
        "# lo_phase_rad = 1.5707963267948966",
        "# vacuum_weight = 0.25",
        "# delta_c = 0.0",
        "# t_us = 0.714",
        "# seed = 5",
        "# n_shots = 2",
        "# nd_ratio_max = 0.1",
        "# use_backaction_t1 = False",
        "# threshold_policy = midpoint",
        "# sweep_points = 400",
        "# sweep_metric = snr",
        "# generator_id = numpy-philox4x64-ziggurat/block8192/"
        "jumped(2j+{0:plus,1:minus})/one-normal",
        "state,outcome",
    ]
    assert [line.split(",")[0] for line in lines[-4:]] == ["1", "1", "-1", "-1"]


def test_sweep_subcommand(tmp_path, capsys):
    text = MATCHED_CONFIG + (
        "sweep_variable = t\nsweep_lo = 0.0\nsweep_hi = 2.0\nsweep_points = 11\n"
    )
    path = tmp_path / "sweep.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "rows = 11" in stdout
    csv_text = out.read_text(encoding="utf-8")
    # time bounds arrive in microseconds and are swept in internal units
    assert "# hi = 1.8849555921538759" in csv_text
    assert "# variable = t" in csv_text
    header = next(
        line for line in csv_text.splitlines() if not line.startswith("# ")
    )
    assert header.startswith("t,snr,")


def test_sweep_requires_time_for_other_variables(tmp_path, capsys):
    text = MATCHED_CONFIG.replace("t_us = 0.714\n", "") + (
        "sweep_variable = r\nsweep_lo = 0.0\nsweep_hi = 2.0\n"
    )
    path = tmp_path / "sweep_r.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(path)]) == 1
    assert "requires t_us" in capsys.readouterr().err


def test_figures_fig3_matches_library(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert main(["figures", "fig3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == render_figure_csv(reproduce_figure3())


def test_figures_fig2_variants(tmp_path, capsys):
    out = tmp_path / "f2.csv"
    assert main(["figures", "fig2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    ab = tmp_path / "f2.figure2_panel_ab.csv"
    cd = tmp_path / "f2.figure2_panel_cd.csv"
    assert ab.exists() and cd.exists()
    assert str(ab) in stdout and str(cd) in stdout
    assert not out.exists()

    single = tmp_path / "ab_only.csv"
    assert main(["figures", "fig2", "--variant", "panel_ab", "--out", str(single)]) == 0
    capsys.readouterr()
    assert single.read_text(encoding="utf-8") == ab.read_text(encoding="utf-8")


def test_figures_respect_r_values_from_config(config_path, tmp_path, capsys):
    text = MATCHED_CONFIG + "fig2_r_values = 0.0, 0.85\n"
    path = tmp_path / "fig2.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["figures", "fig2", "--variant", "panel_ab", "--config", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert "# r_values = 0.0;0.85" in stdout


def test_figures_pin_the_vacuum_weight(capsys):
    assert main(["figures", "fig3", "--vacuum-weight", "1"]) == 1
    assert "vacuum_weight" in capsys.readouterr().err


def test_snr_out_file_carries_snapshot(config_path, tmp_path, capsys):
    out = tmp_path / "point.txt"
    assert main(["snr", "--config", config_path, "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    # snapshot lines follow the schema order, leading with the rates
    assert text.startswith("# chi_over_2pi_mhz = 0.15\n")
    header = [line for line in text.splitlines() if line.startswith("# ")]
    assert "# alpha = 10.0" in header
    # the output path is no part of the snapshot
    assert not any(line.startswith("# out") for line in header)
    assert "snr = 3.580922280271773\n" in text


def test_shots_and_snr_write_one_snapshot(tmp_path, capsys):
    path = tmp_path / "every.cfg"
    path.write_text(EVERY_KEY_CONFIG, encoding="utf-8")
    snapshots = []
    for subcommand in ("snr", "shots"):
        out = tmp_path / f"{subcommand}.txt"
        assert main([subcommand, "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        snapshots.append([line for line in lines if line.startswith("# ")])
    capsys.readouterr()
    snr_header, shots_header = snapshots
    # the shot file adds the stream that drew it after the config
    assert shots_header[:-1] == snr_header
    assert shots_header[-1].startswith("# generator_id = ")
    assert "# fig2_r_values = 0.0, 0.5" in snr_header


# a value for every config key, none of them its default
EVERY_KEY_CONFIG = MATCHED_CONFIG + """\
theta_alpha_rad = 0.1
theta_xi_rad = 3.0
lo_phase_rad = 1.5
vacuum_weight = 0.5
delta_c = 0.0
gs_over_delta = 0.01
seed = 7
n_shots = 1000
out = ignored.txt
nd_ratio_max = 0.2
use_backaction_t1 = true
threshold_policy = likelihood
fig2_r_values = 0.0, 0.5
sweep_variable = r
sweep_lo = 0.0
sweep_hi = 2.0
sweep_points = 11
sweep_metric = fidelity
"""


def test_out_header_reads_back_as_the_config(tmp_path, capsys):
    path = tmp_path / "every.cfg"
    path.write_text(EVERY_KEY_CONFIG, encoding="utf-8")
    out = tmp_path / "point.txt"
    assert main(["snr", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    header = [
        line[2:]
        for line in out.read_text(encoding="utf-8").splitlines()
        if line.startswith("# ")
    ]
    # every key but the output path, once, in schema order
    assert [line.partition(" = ")[0] for line in header] == [
        key for key in cli._SCHEMA if key != "out"
    ]
    assert "fig2_r_values = 0.0, 0.5" in header
    config = parse_config(EVERY_KEY_CONFIG)
    assert parse_config("\n".join(header)) == config._replace(out=None)


def test_missing_config_is_a_config_error(capsys):
    assert main(["snr"]) == 1
    assert capsys.readouterr().err == "error: snr requires --config PATH\n"


def test_vacuum_weight_flag_equals_the_config_key(config_path, tmp_path, capsys):
    assert main(["snr", "--config", config_path, "--vacuum-weight", "0.5"]) == 0
    from_flag = capsys.readouterr().out
    path = tmp_path / "u.cfg"
    path.write_text(MATCHED_CONFIG + "vacuum_weight = 0.5\n", encoding="utf-8")
    assert main(["snr", "--config", str(path)]) == 0
    assert capsys.readouterr().out == from_flag
    assert "snr = " in from_flag
    assert "snr = 3.580922280271773\n" not in from_flag


BACKACTION_T1 = "gs_over_delta = 0.01\nuse_backaction_t1 = true\n"


@pytest.mark.parametrize("subcommand", ["fidelity", "shots"])
def test_backaction_t1_enters_the_fidelity(tmp_path, capsys, subcommand):
    text = MATCHED_CONFIG + BACKACTION_T1
    path = tmp_path / "backaction.cfg"
    path.write_text(text, encoding="utf-8")
    assert main([subcommand, "--config", str(path), "--n-shots", "2000"]) == 0
    block = _block(capsys)
    config = parse_config(text)
    t1 = total_t1(config.params, config.probe.r)
    assert t1 < config.params.t1_intrinsic
    t = config.units.to_internal_time(config.t_us)
    point = readout_point(t, config.probe, config.params, config.phi, t1_total=t1)
    assert block["t1_source"] == "intrinsic+backaction"
    if subcommand == "fidelity":
        assert block["t1_internal"] == repr(t1)
        assert block["fidelity"] == repr(point.fidelity)
    else:
        assert block["analytic_fidelity"] == repr(point.fidelity)


@pytest.mark.parametrize("subcommand", ["fidelity", "shots"])
def test_backaction_t1_requires_the_coupling(tmp_path, capsys, subcommand):
    path = tmp_path / "no_coupling.cfg"
    path.write_text(MATCHED_CONFIG + "use_backaction_t1 = true\n", encoding="utf-8")
    assert main([subcommand, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: use_backaction_t1 requires gs_over_delta in the config\n"


# a fidelity sweep would read the intrinsic T1 (2827 internal) where the
# fidelity command reads the back-action one (42.6 internal) at gs/Δ = 0.05
_BACKACTION_SWEEP = MATCHED_CONFIG + (
    "gs_over_delta = 0.05\nuse_backaction_t1 = true\n"
    "sweep_variable = alpha\nsweep_lo = 1\nsweep_hi = 10\nsweep_points = 10\n"
)


def test_a_fidelity_sweep_refuses_the_backaction_t1(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(_BACKACTION_SWEEP + "sweep_metric = fidelity\n", encoding="utf-8")
    done = _run_cli(["sweep", "--config", str(path)])
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        "error: a fidelity sweep reads the intrinsic T1: set use_backaction_t1 = false\n"
    )


def test_an_snr_sweep_takes_the_backaction_t1_config(tmp_path, capsys):
    # the SNR reads no T1, so the same config sweeps
    path = tmp_path / "sweep.cfg"
    path.write_text(_BACKACTION_SWEEP + "sweep_metric = snr\n", encoding="utf-8")
    assert main(["sweep", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1].startswith("10.0,3.580922280271773,")


@pytest.mark.parametrize(
    ("variable", "extra"),
    [("r", ""), ("alpha", "gs_over_delta = 0.01\n")],
    ids=["r", "alpha-with-coupling"],
)
def test_sweep_to_stdout_is_the_library_csv(tmp_path, capsys, variable, extra):
    text = MATCHED_CONFIG + extra + (
        f"sweep_variable = {variable}\nsweep_lo = 0.0\nsweep_hi = 2.0\n"
        "sweep_points = 11\nsweep_metric = fidelity\n"
    )
    path = tmp_path / "sweep.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(path)]) == 0
    config = parse_config(text)
    t = config.units.to_internal_time(config.t_us)
    fixed = SweepFixed(params=config.params, probe=config.probe, phi=config.phi, t=t)
    spec = SweepSpec(
        variable=variable, lo=0.0, hi=2.0, points=11, fixed=fixed, metric="fidelity"
    )
    out = capsys.readouterr().out
    assert out == render_figure_csv(run_sweep(spec))
    assert f"# variable = {variable}\n" in out
    # the back-action couplings reach the header only when they are set
    assert ("# g_s = 0.01\n" in out) is bool(extra)
    assert ("# delta = 1.0\n" in out) is bool(extra)


OVERFLOW_CONFIG = MATCHED_CONFIG.replace(
    "r = 0.74\nt_us = 0.714\n", "r = 300\ntheta_xi_rad = 1.1\nt_us = 1e149\n"
)


@pytest.mark.parametrize(
    ("subcommand", "extra"),
    [
        ("snr", ""),
        ("fidelity", ""),
        (
            "sweep",
            "sweep_variable = t\nsweep_lo = 1e140\nsweep_hi = 1e149\n"
            "sweep_points = 10\nsweep_metric = variance\n",
        ),
    ],
    ids=["snr", "fidelity", "sweep"],
)
def test_overflowing_variance_exits_2_without_a_traceback(tmp_path, subcommand, extra):
    path = tmp_path / "overflow.cfg"
    path.write_text(OVERFLOW_CONFIG + extra, encoding="utf-8")
    done = _run_cli([subcommand, "--config", str(path)])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "numerical error: outcome variance overflows: got inf and inf\n"


@pytest.mark.parametrize(
    "subcommand,edits",
    [
        ("backaction", [("t1_ms = 3.0", "t1_ms = 1e-315")]),
        # the unit conversion would also overflow: chi_s is subnormal in rad/us
        ("backaction", [("chi_over_2pi_mhz = 0.15", "chi_over_2pi_mhz = 1e-320")]),
        ("fidelity", [("t1_ms = 3.0", "t1_ms = 1e-315\nuse_backaction_t1 = true")]),
    ],
    ids=["backaction-t1", "backaction-chi", "fidelity-backaction-t1"],
)
def test_relaxation_rate_that_overflows_exits_2_without_a_traceback(
    tmp_path, subcommand, edits
):
    # 1/T1 overflows at a subnormal T1; 1/(inf + rate) would report T1 = 0.0
    text = MATCHED_CONFIG + "gs_over_delta = 0.01\n"
    for edit in edits:
        text = text.replace(*edit)
    path = tmp_path / "subnormal.cfg"
    path.write_text(text, encoding="utf-8")
    done = _run_cli([subcommand, "--config", str(path)])
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr == "numerical error: t1_intrinsic is too small: 1/T1 overflows\n"


@pytest.mark.parametrize(
    "subcommand,edits,message",
    [
        # B = kappa·∫G is subnormal and r* = ½·ln(A/B) overflows
        (
            "optimize",
            [("kappa_over_chi = 2.0", "kappa_over_chi = 1e-320")],
            "optimal squeezing ½·ln(A/B) overflows: got A = ",
        ),
        # B ≈ kappa·t³/6 underflows to 0 where A = t does not
        (
            "optimize",
            [("t_us = 0.714", "t_us = 1e-140")],
            "optimal squeezing ½·ln(A/B) overflows: got A = 9.42477796076938e-141 and B = 0.0\n",
        ),
        # chi_s·T1 underflows to 0 in internal units
        (
            "backaction",
            [("chi_over_2pi_mhz = 0.15", "chi_over_2pi_mhz = 1e-320"),
             ("t1_ms = 3.0", "t1_ms = 1e-315")],
            "t1_intrinsic = chi_s·T1 underflows to 0: ",
        ),
        # (kappa/2)^2 overflows, where A = t and B = 0 came out silently
        (
            "snr",
            [("kappa_over_chi = 2.0", "kappa_over_chi = 1e200")],
            "response coefficients overflow: (kappa/2)^2 + chi_s^2 overflows\n",
        ),
        # chi_s·t in internal time overflows; neither factor does
        (
            "snr",
            [("chi_over_2pi_mhz = 0.15", "chi_over_2pi_mhz = 1e300"),
             ("t_us = 0.714", "t_us = 1e10")],
            "chi_over_2pi_hz = 1e+306 is too large for t_us = 10000000000.0: "
            "internal time overflows\n",
        ),
    ],
    ids=["optimize-r-star", "optimize-b-underflows", "backaction-t1-underflow", "snr-kappa-1e200", "snr-chi-t-overflows"],
)
def test_numerical_failure_is_not_reported_as_an_input_error(
    tmp_path, subcommand, edits, message
):
    text = MATCHED_CONFIG + "gs_over_delta = 0.01\n"
    for edit in edits:
        text = text.replace(*edit)
    path = tmp_path / "range.cfg"
    path.write_text(text, encoding="utf-8")
    done = _run_cli([subcommand, "--config", str(path)])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith(f"numerical error: {message}")
    assert done.stderr.count("\n") == 1


def test_figure2_with_an_r_past_cosh_overflow_exits_2_with_one_line(tmp_path):
    path = tmp_path / "fig2.cfg"
    path.write_text(MATCHED_CONFIG + "fig2_r_values = 0.0, 400\n", encoding="utf-8")
    done = _run_cli(["figures", "fig2", "--config", str(path)])
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "numerical error: squeezing r is too large: cosh 2r overflows\n"
