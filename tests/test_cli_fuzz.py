"""A derandomized fuzz of the command line.

Seeded random configs run through cli.main in process, across every
command.  Values are mostly typical, sometimes anywhere from 5e-324 to
1.8e308 or negative, and optional keys come and go.  Each run exits 0
and prints only finite cells, or exits 1 or 2 with one line on stderr.
The only non-finite cell allowed is the metric of a skipped t = 0 sweep
row.  A traceback or a numpy RuntimeWarning fails the run.
"""

import math
import random
import warnings

import pytest

from squeezed_readout.cli import main
from squeezed_readout.metrics import METRICS
from squeezed_readout.sweeps import SWEEP_VARIABLES

_COMMANDS = (
    "snr",
    "fidelity",
    "sweep",
    "shots",
    "backaction",
    "optimize",
    "figures fig2",
    "figures fig3",
)
_RUNS_PER_COMMAND = 38  # 304 configs in all


class _Draw:
    """Config values: typical ones, and with the probability wild an outlier."""

    def __init__(self, rng: random.Random, wild: float) -> None:
        self.rng, self.wild = rng, wild

    def float(self, lo: float, hi: float) -> float:
        """Uniform on [lo, hi]; else any magnitude, either sign, or an edge value."""
        rng = self.rng
        if rng.random() >= self.wild:
            return rng.uniform(lo, hi)
        if rng.random() < 0.7:
            return rng.choice((1.0, 1.0, 1.0, -1.0)) * 10.0 ** rng.uniform(-323.0, 308.0)
        return rng.choice((0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.0, hi * 1e3))

    def choice(self, valid, invalid):
        return self.rng.choice(invalid if self.rng.random() < self.wild else valid)

    def int(self, lo: int, hi: int, invalid: int) -> int:
        return invalid if self.rng.random() < self.wild else self.rng.randint(lo, hi)


def _config(rng: random.Random, command: str) -> str:
    # a third of the configs are typical throughout, the others hold outliers
    draw = _Draw(rng, rng.choice((0.0, 0.1, 0.3)))
    values = {
        "chi_over_2pi_mhz": draw.float(0.01, 1.0),
        "kappa_over_chi": draw.float(0.1, 5.0),
        "t1_ms": draw.float(0.01, 10.0),
        "alpha": draw.float(0.0, 20.0),
    }
    optional = {
        "theta_alpha_rad": lambda: draw.float(-7.0, 7.0),
        "r": lambda: draw.float(0.0, 2.5),
        "theta_xi_rad": lambda: draw.float(-7.0, 7.0),
        "lo_phase_rad": lambda: draw.float(-7.0, 7.0),
        "t_us": lambda: draw.float(0.0, 3.0),
        "gs_over_delta": lambda: draw.float(1e-3, 0.1),
        "use_backaction_t1": lambda: draw.choice(("true", "false"), ("yes",)),
        "threshold_policy": lambda: draw.choice(("midpoint", "likelihood"), ("argmax",)),
        "seed": lambda: draw.int(0, 2**32, -1),
        "nd_ratio_max": lambda: draw.float(0.01, 1.0),
    }
    # figures are defined at the calibrated weight only, so rarely vary it there
    if rng.random() < (0.1 if command.startswith("figures") else 0.4):
        optional["vacuum_weight"] = lambda: draw.float(0.05, 1.0)
    if command == "shots":
        # always set: the default of 100000 shots would dominate the run time
        values["n_shots"] = draw.int(2, 40, 1)
    if command == "sweep":
        optional.update(
            sweep_variable=lambda: draw.choice(SWEEP_VARIABLES, ("omega",)),
            sweep_lo=lambda: draw.float(0.05, 1.0),
            sweep_hi=lambda: draw.float(1.0, 3.0),
            sweep_points=lambda: draw.int(2, 40, 1),
            sweep_metric=lambda: draw.choice(METRICS, ("power",)),
        )
    if command == "figures fig2":
        optional["fig2_r_values"] = lambda: ", ".join(
            repr(draw.float(0.0, 2.5)) for _ in range(rng.randint(1, 4))
        )
    # the keys a command needs are there most of the time
    needed = ("t_us", "sweep_variable", "sweep_lo", "sweep_hi", "fig2_r_values")
    for key, value in optional.items():
        if rng.random() < (0.9 if key in needed else 0.5):
            values[key] = value()
    return "".join(
        f"{key} = {value!r}\n" if type(value) is float else f"{key} = {value}\n"
        for key, value in values.items()
    )


def _non_finite_cells(line: str) -> list[str]:
    """Cells of an output line that read as a float that is not finite."""
    if line.startswith("#"):
        return []
    key, equals, value = line.partition(" = ")
    cells = line.split(",") if not equals else [value]
    bad = []
    for cell in cells:
        try:
            number = float(cell)
        except ValueError:
            continue
        if not math.isfinite(number):
            bad.append(cell)
    # a skipped row (its last cell True) carries a NaN metric in its second cell
    if bad == ["nan"] and cells[-1] == "True" and cells[1] == "nan":
        return []
    return bad


@pytest.mark.parametrize("command", _COMMANDS)
def test_every_config_exits_0_with_finite_cells_or_1_or_2_with_one_line(
    command, tmp_path, capsys
):
    exits = []
    for run in range(_RUNS_PER_COMMAND):
        rng = random.Random(f"{command} {run}")
        text = _config(rng, command)
        path = tmp_path / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        args = [*command.split(), "--config", str(path)]
        out_path = tmp_path / "shots.csv"
        if command == "shots":
            args += ["--out", str(out_path)]
        with warnings.catch_warnings():
            # model-validity warnings (t/T1, photon number) are not failures
            warnings.simplefilter("ignore", UserWarning)
            try:
                code = main(args)
            except Exception as exc:  # a traceback from the command line
                pytest.fail(f"{exc!r} from config:\n{text}")
        out, err = capsys.readouterr()
        context = f"exit {code}, stderr {err!r}, config:\n{text}"
        exits.append(code)
        if code == 0:
            assert err == "", context
            lines = out.splitlines()
            if command == "shots" and out_path.exists():
                lines += out_path.read_text(encoding="utf-8").splitlines()
                out_path.unlink()
            assert lines, context
            for line in lines:
                assert not _non_finite_cells(line), (line, context)
        else:
            assert code in (1, 2), context
            prefix = "error: " if code == 1 else "numerical error: "
            assert err.startswith(prefix) and err.count("\n") == 1, context
            assert err.endswith("\n"), context
    # the typical draws reach the model: a quarter of the runs or more succeed
    assert exits.count(0) >= _RUNS_PER_COMMAND // 4, exits
