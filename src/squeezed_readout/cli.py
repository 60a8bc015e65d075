"""Command-line front end.

Configuration is a flat UTF-8 ``key = value`` file ('#' starts a comment
line).  Physical keys use experimental units: chi_over_2pi_mhz,
kappa_over_chi, t1_ms, alpha are required; angles are radians only
(theta_alpha_rad, theta_xi_rad, lo_phase_rad); times in microseconds
(t_us).  Results go to stdout as a ``key = value`` block; tables go to
the --out path as CSV with the config snapshot embedded in '#' lines.

Exit codes: 0 success, 1 invalid input or config, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from collections import namedtuple
from itertools import chain

from .backaction import backaction_report, total_t1
from .errors import NumericalError, ValidationError
from .metrics import (
    optimal_squeezing,
    optimal_time_estimate,
    phase_matching_residual,
    readout_point,
    snr,
)
from .params import UnitContext, from_experimental
from .probe import ProbeState
from .shots import GENERATOR_ID, _POLICIES, _POLICY_NAMES, _sample, classify
from .sweeps import (
    SweepFixed,
    SweepSpec,
    _csv_body,
    _fmt,
    _lines,
    _spelling,
    find_peak,
    render_figure_csv,
    reproduce_figure2,
    reproduce_figure3,
    run_sweep,
)

_REQUIRED = object()

# key -> (kind, default); _REQUIRED marks keys the config must supply
_SCHEMA = {
    "chi_over_2pi_mhz": ("float", _REQUIRED),
    "kappa_over_chi": ("float", _REQUIRED),
    "t1_ms": ("float", _REQUIRED),
    "alpha": ("float", _REQUIRED),
    "theta_alpha_rad": ("float", 0.0),
    "r": ("float", 0.0),
    "theta_xi_rad": ("float", math.pi),
    "lo_phase_rad": ("float", 0.5 * math.pi),
    "vacuum_weight": ("float", 0.25),
    "delta_c": ("float", 0.0),
    "gs_over_delta": ("float", None),
    "t_us": ("float", None),
    "seed": ("int", 12345),
    "n_shots": ("int", 100000),
    "out": ("str", None),
    "nd_ratio_max": ("float", 0.1),
    "use_backaction_t1": ("bool", False),
    "threshold_policy": ("str", "midpoint"),
    "fig2_r_values": ("float_list", None),
    "sweep_variable": ("str", None),
    "sweep_lo": ("float", None),
    "sweep_hi": ("float", None),
    "sweep_points": ("int", 400),
    "sweep_metric": ("str", "snr"),
}


# Validated configuration ready to run a subcommand: the model built from
# the config, then every _SCHEMA key by name with its effective value.
RunConfig = namedtuple("RunConfig", ("params", "probe", "phi", "units", *_SCHEMA))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError
    return value


def _convert(key: str, kind: str, text: str, lineno: int):
    try:
        if kind == "float":
            return _finite(text)
        if kind == "int":
            return int(text, 10)
        if kind == "bool":
            lowered = text.lower()
            if lowered in ("true", "false"):
                return lowered == "true"
            raise ValueError
        if kind == "float_list":
            items = [piece.strip() for piece in text.split(",")]
            if not any(items):
                raise ValueError
            return tuple(_finite(piece) for piece in items if piece)
        return text
    except ValueError:
        raise ValidationError(
            f"line {lineno}: expected {kind.replace('_', ' ')} for {key!r}, got {text!r}"
        ) from None


def _parse_values(text: str) -> dict:
    """key=value lines to a typed dict; every error names its line."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _SCHEMA:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _convert(key, _SCHEMA[key][0], value_text, lineno)
    missing = [
        key
        for key, (_, default) in _SCHEMA.items()
        if default is _REQUIRED and key not in values
    ]
    if missing:
        raise ValidationError(f"missing required keys: {', '.join(missing)}")
    return values


def _make_config(values: dict) -> RunConfig:
    effective = {key: values.get(key, default) for key, (_, default) in _SCHEMA.items()}
    # delta_c is read only to reject a detuning the model does not cover
    if effective["delta_c"] != 0.0:
        raise ValidationError(
            "delta_c must be 0 (the model assumes zero probe-resonator detuning); "
            f"got {effective['delta_c']!r}"
        )
    if effective["seed"] < 0:
        raise ValidationError(f"seed must be nonnegative, got {effective['seed']!r}")
    if effective["n_shots"] < 2:
        raise ValidationError(
            "n_shots must be >= 2 (an empirical SNR needs two shots per eigenstate), "
            f"got {effective['n_shots']!r}"
        )
    if effective["threshold_policy"] not in _POLICIES:
        raise ValidationError(
            f"threshold_policy must be {_POLICY_NAMES}, "
            f"got {effective['threshold_policy']!r}"
        )
    if not math.isfinite(effective["nd_ratio_max"]) or effective["nd_ratio_max"] <= 0.0:
        raise ValidationError(
            f"nd_ratio_max must be positive, got {effective['nd_ratio_max']!r}"
        )
    params = from_experimental(
        effective["chi_over_2pi_mhz"],
        effective["kappa_over_chi"],
        effective["t1_ms"],
        u=effective["vacuum_weight"],
    )
    if effective["gs_over_delta"] is not None:
        if effective["gs_over_delta"] <= 0.0:
            raise ValidationError(
                f"gs_over_delta must be positive, got {effective['gs_over_delta']!r}"
            )
        # only the ratio g_s/Δ enters the figures of merit, so store the
        # ratio as g_s against a unit detuning
        params = dataclasses.replace(
            params, g_s=effective["gs_over_delta"], delta=1.0
        )
    probe = ProbeState(
        alpha=effective["alpha"],
        theta_alpha=effective["theta_alpha_rad"],
        r=effective["r"],
        theta_xi=effective["theta_xi_rad"],
    )
    return RunConfig(
        params,
        probe,
        effective["lo_phase_rad"],
        UnitContext(effective["chi_over_2pi_mhz"] * 1e6),
        **effective,
    )


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig."""
    return _make_config(_parse_values(text))


def _snapshot_header(config: RunConfig) -> str:
    """The set config keys in _SCHEMA order as '# ' lines the config reads back,
    but the output path, so identical settings write identical bytes anywhere."""
    values = ((key, getattr(config, key)) for key in _SCHEMA if key != "out")
    return _lines(
        (
            (key, ", ".join(map(_fmt, value)) if type(value) is tuple else value)
            for key, value in values
            if value is not None
        ),
        "# ",
    )


def _emit_block(config: RunConfig, lines: list[tuple[str, object]]) -> None:
    block = _lines(lines)
    sys.stdout.write(block)
    if config.out:
        _write_text(config.out, (_snapshot_header(config), block))


def _write_text(path: str, chunks) -> None:
    """Write the strings of the iterable chunks to path, one at a time, as UTF-8."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise ValidationError(f"cannot write output: {exc}") from exc


def _require_t(config: RunConfig) -> float:
    if config.t_us is None:
        raise ValidationError("this subcommand requires t_us in the config")
    return config.units.to_internal_time(config.t_us)


def _select_t1(config: RunConfig) -> tuple[float, str]:
    """(T1 in internal time, label) honoring use_backaction_t1."""
    if config.use_backaction_t1:
        if not config.params.has_backaction:
            raise ValidationError(
                "use_backaction_t1 requires gs_over_delta in the config"
            )
        return total_t1(config.params, config.probe.r), "intrinsic+backaction"
    return config.params.t1_intrinsic, "intrinsic"


def _cmd_snr(config: RunConfig, args: argparse.Namespace) -> None:
    ti = _require_t(config)
    point = readout_point(ti, config.probe, config.params, config.phi)
    _emit_block(
        config,
        [
            ("subcommand", "snr"),
            ("t_us", config.t_us),
            ("t_internal", ti),
            ("contrast", point.contrast),
            ("variance_plus", point.variance_plus),
            ("variance_minus", point.variance_minus),
            ("snr", point.snr),
        ],
    )


def _cmd_fidelity(config: RunConfig, args: argparse.Namespace) -> None:
    ti = _require_t(config)
    t1_internal, t1_source = _select_t1(config)
    point = readout_point(
        ti, config.probe, config.params, config.phi, t1_total=t1_internal
    )
    _emit_block(
        config,
        [
            ("subcommand", "fidelity"),
            ("t_us", config.t_us),
            ("t_internal", ti),
            ("snr", point.snr),
            ("t1_internal", t1_internal),
            ("t1_source", t1_source),
            ("fidelity", point.fidelity),
        ],
    )


def _cmd_backaction(config: RunConfig, args: argparse.Namespace) -> None:
    if not config.params.has_backaction:
        raise ValidationError(
            "backaction requires gs_over_delta in the config (sets g_s and delta)"
        )
    report = backaction_report(config.probe, config.params, config.nd_ratio_max)
    t1_total_internal = total_t1(config.params, config.probe.r)
    _emit_block(
        config,
        [
            ("subcommand", "backaction"),
            ("gamma_purcell", report.gamma_purcell),
            ("t1_induced_internal", report.t1_induced),
            ("t1_induced_us", config.units.to_physical_time(report.t1_induced)),
            ("t2_penalty_factor", report.t2_penalty_factor),
            ("n_critical", report.n_critical),
            ("photon_ratio", report.photon_ratio),
            ("nondemolition_ok", report.nondemolition_ok),
            ("t1_intrinsic_internal", config.params.t1_intrinsic),
            ("t1_total_internal", t1_total_internal),
            ("t1_total_us", config.units.to_physical_time(t1_total_internal)),
        ],
    )


def _cmd_optimize(config: RunConfig, args: argparse.Namespace) -> None:
    ti = _require_t(config)
    fixed = SweepFixed(params=config.params, probe=config.probe, phi=config.phi, t=ti)
    # r* first: at t = 0 its error names the time, where the search's names an r bound
    r_star = optimal_squeezing(ti, config.params)
    peak = find_peak("snr", "r", (0.0, 2.0), fixed)
    snr_at_r_star = None
    if r_star is not None and r_star >= 0.0:
        snr_at_r_star = snr(
            ti,
            dataclasses.replace(config.probe, r=r_star),
            config.params,
            config.phi,
        )
    t_opt_internal = optimal_time_estimate(config.probe.r, config.params)
    residual_displacement, residual_squeezing, matched = phase_matching_residual(
        config.probe.theta_alpha, config.probe.theta_xi, config.phi
    )
    _emit_block(
        config,
        [
            ("subcommand", "optimize"),
            ("t_us", config.t_us),
            ("t_internal", ti),
            ("r_star_analytic", r_star),
            ("snr_at_r_star", snr_at_r_star),
            ("r_peak_search", peak.location),
            ("snr_at_r_peak", peak.value),
            ("r_peak_flat", peak.flat),
            ("t_opt_internal", t_opt_internal),
            ("t_opt_us", config.units.to_physical_time(t_opt_internal)),
            ("residual_displacement_phase", residual_displacement),
            ("residual_squeezing_phase", residual_squeezing),
            ("phase_matched", matched),
        ],
    )


def _cmd_shots(config: RunConfig, args: argparse.Namespace) -> None:
    ti = _require_t(config)
    t1_internal, t1_source = _select_t1(config)
    # the closed form fails first where the model does, before any sampling;
    # its one evaluation is the law the batch is drawn from
    analytic = readout_point(
        ti, config.probe, config.params, config.phi, t1_total=t1_internal
    )
    batch = _sample(
        config.n_shots, ti, config.probe, config.params, config.phi, config.seed, analytic
    )
    result = classify(batch, config.threshold_policy, t1=t1_internal)
    if config.out:
        head = _snapshot_header(config) + _lines([("generator_id", GENERATOR_ID)], "# ")
        # one eigenstate's outcomes at a time as Python floats, spelled and written
        # before the next; the state, one object, is spelled once into every line
        body = (
            _csv_body((_spelling([state]), _spelling(x.tolist())), len(x))
            for state, x in ((1, batch.outcomes_plus), (-1, batch.outcomes_minus))
        )
        _write_text(config.out, chain((head, "state,outcome\n"), body))
    block = [
        ("subcommand", "shots"),
        ("t_us", config.t_us),
        ("n_shots", config.n_shots),
        ("seed", config.seed),
        ("generator_id", GENERATOR_ID),
        ("threshold_policy", config.threshold_policy),
        ("threshold", result.threshold),
        ("error_plus", result.error_plus),
        ("error_minus", result.error_minus),
        ("empirical_snr", result.empirical_snr),
        ("empirical_fidelity", result.empirical_fidelity),
        ("analytic_snr", analytic.snr),
        ("analytic_fidelity", analytic.fidelity),
        ("t1_source", t1_source),
    ]
    sys.stdout.write(_lines(block))


def _cmd_sweep(config: RunConfig, args: argparse.Namespace) -> None:
    if config.sweep_variable is None or config.sweep_lo is None or config.sweep_hi is None:
        raise ValidationError(
            "sweep requires sweep_variable, sweep_lo and sweep_hi in the config"
        )
    if config.use_backaction_t1 and config.sweep_metric == "fidelity":
        # a back-action T1 varies with r and kappa, and a sweep holds one T1
        raise ValidationError(
            "a fidelity sweep reads the intrinsic T1: set use_backaction_t1 = false"
        )
    lo, hi = config.sweep_lo, config.sweep_hi
    if config.sweep_variable == "t":
        # time bounds are supplied in microseconds like every other time key
        lo = config.units.to_internal_time(lo)
        hi = config.units.to_internal_time(hi)
        t_fixed = 0.0
    else:
        if config.t_us is None:
            raise ValidationError(
                f"sweep over {config.sweep_variable!r} requires t_us in the config"
            )
        t_fixed = config.units.to_internal_time(config.t_us)
    spec = SweepSpec(
        variable=config.sweep_variable,
        lo=lo,
        hi=hi,
        points=config.sweep_points,
        fixed=SweepFixed(
            params=config.params, probe=config.probe, phi=config.phi, t=t_fixed
        ),
        metric=config.sweep_metric,
    )
    csv_text = render_figure_csv(run_sweep(spec))
    if config.out:
        _write_text(config.out, (csv_text,))
        sys.stdout.write(
            _lines([("subcommand", "sweep"), ("rows", spec.points), ("wrote", config.out)])
        )
    else:
        sys.stdout.write(csv_text)


def _figure_out_path(base: str, name: str, multiple: bool) -> str:
    if not multiple:
        return base
    stem, ext = os.path.splitext(base)
    return f"{stem}.{name}{ext or '.csv'}"


def _cmd_figures(config: RunConfig, args: argparse.Namespace) -> None:
    if config.params.vacuum_weight != 0.25:
        raise ValidationError(
            "figure tables are defined at the calibrated vacuum_weight = 0.25; "
            "use the sweep subcommand to explore other weights"
        )
    if args.which == "fig3":
        tables = [reproduce_figure3()]
    else:  # argparse admits only fig2 and fig3
        variants = ("panel_ab", "panel_cd") if args.variant == "both" else (args.variant,)
        tables = [reproduce_figure2(v, r_values=config.fig2_r_values) for v in variants]
    for table in tables:
        text = render_figure_csv(table)
        if config.out:
            path = _figure_out_path(config.out, table.name, len(tables) > 1)
            _write_text(path, (text,))
            sys.stdout.write(_lines([("wrote", path)]))
        else:
            sys.stdout.write(text)


# subcommand -> (runner of the config and the parsed arguments, help text), in --help order
_COMMANDS = {
    "snr": (_cmd_snr, "analytic contrast, variances and SNR at t_us"),
    "fidelity": (_cmd_fidelity, "analytic SNR and readout fidelity at t_us"),
    "sweep": (_cmd_sweep, "metric on a uniform grid of one variable, CSV output"),
    "shots": (_cmd_shots, "Monte Carlo single-shot sampling and classification"),
    "backaction": (_cmd_backaction, "probe-induced relaxation and validity checks"),
    "optimize": (_cmd_optimize, "optimal squeezing/time and phase-matching residuals"),
    "figures": (_cmd_figures, "reference figure tables as CSV"),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process.

    parse_args returns a fresh Namespace on every call, so no call sees
    another's arguments.
    """
    parser = _Parser(
        prog="squeezed-readout",
        description=(
            "Dispersive spin-qubit readout with displaced squeezed probes: "
            "analytic SNR/fidelity, Monte Carlo shots, sweeps and reference tables"
        ),
    )
    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--out", help="output file path (overrides config 'out')")
    common.add_argument("--seed", type=int, help="override the sampling seed")
    common.add_argument("--n-shots", type=int, help="override the number of shots")
    common.add_argument(
        "--vacuum-weight", type=float, help="override the vacuum-noise weight u"
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, text) in _COMMANDS.items():
        subparsers.add_parser(name, parents=[common], help=text)
    figures = subparsers.choices["figures"]
    figures.add_argument("which", choices=("fig2", "fig3"))
    figures.add_argument(
        "--variant",
        choices=("panel_ab", "panel_cd", "both"),
        default="both",
        help="fig2 leakage-rate variant (panel_ab: kappa=chi_s, panel_cd: 2chi_s)",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read config: {exc}") from exc
        values = _parse_values(text)
    elif args.subcommand == "figures":
        # figures are fully self-describing reference tables
        values = {
            "chi_over_2pi_mhz": 0.15,
            "kappa_over_chi": 2.0,
            "t1_ms": 3.0,
            "alpha": 10.0,
        }
    else:
        raise ValidationError(f"{args.subcommand} requires --config PATH")
    # --out, --seed, --n-shots and --vacuum-weight store to their config key
    for key, value in vars(args).items():
        if key in _SCHEMA and value is not None:
            values[key] = value
    return _make_config(values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.subcommand][0](_config_from_args(args), args)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
