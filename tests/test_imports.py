"""numpy is imported by shot batches and classification only, and the
thread pool by a threaded batch only.

Each check runs in a fresh interpreter, since this process has numpy
loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import squeezed_readout

CONFIG = """\
chi_over_2pi_mhz = 0.15
kappa_over_chi = 2.0
t1_ms = 3.0
alpha = 10.0
r = 0.74
t_us = 0.714
gs_over_delta = 0.01
sweep_variable = delta_theta
sweep_lo = -3.0
sweep_hi = 3.0
"""


def _fresh(code: str) -> str:
    """stdout of code run by a fresh interpreter that finds this package."""
    src = str(Path(squeezed_readout.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_leaves_numpy_unloaded():
    code = "import sys, squeezed_readout; print('numpy' in sys.modules)"
    assert _fresh(code) == "False\n"


def test_importing_the_package_leaves_the_thread_pool_unloaded():
    code = (
        "import sys, squeezed_readout.cli\n"
        "print('concurrent.futures' in sys.modules)\n"
        "from squeezed_readout import ProbeState, SystemParams, sample_shots\n"
        "sample_shots(8192, 0.67, ProbeState(alpha=10.0), SystemParams(), 1.2, 1)\n"
        "print('concurrent.futures' in sys.modules)\n"
        "sample_shots(8193, 0.67, ProbeState(alpha=10.0), SystemParams(), 1.2, 1)\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    threaded = (os.cpu_count() or 1) > 1
    assert _fresh(code) == f"False\nFalse\n{threaded}\n"


@pytest.mark.parametrize(
    ("args", "loads_numpy"),
    [
        (["snr"], False),
        (["fidelity"], False),
        (["backaction"], False),
        (["optimize"], False),
        (["sweep", "--out", "{tmp}/sweep.csv"], False),
        (["figures", "fig2", "--out", "{tmp}/fig2.csv"], False),
        (["figures", "fig3", "--out", "{tmp}/fig3.csv"], False),
        (["shots", "--n-shots", "1000"], True),
    ],
    ids=["snr", "fidelity", "backaction", "optimize", "sweep", "fig2", "fig3", "shots"],
)
def test_only_commands_that_build_arrays_load_numpy(tmp_path, args, loads_numpy):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG, encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in args] + ["--config", str(config)]
    code = (
        "import contextlib, io, sys\n"
        "from squeezed_readout.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    assert _fresh(code) == f"0 {loads_numpy}\n"


# a sweep of every variable and both figure tables, then one shot batch
TABLES_THEN_SHOTS = """\
import math, sys
from squeezed_readout import (ProbeState, SweepFixed, SweepSpec, SystemParams,
    reproduce_figure2, reproduce_figure3, run_sweep, sample_shots)
from squeezed_readout.sweeps import SWEEP_VARIABLES
probe = ProbeState(alpha=10.0, r=0.74)
fixed = SweepFixed(params=SystemParams(kappa=2.0), probe=probe, phi=0.5 * math.pi, t=0.67)
rows = sum(len(run_sweep(SweepSpec(variable=v, lo=0.5, hi=2.0, points=50, fixed=fixed,
                                   metric="snr")).rows) for v in SWEEP_VARIABLES)
rows += len(reproduce_figure2("panel_ab").rows) + len(reproduce_figure3().rows)
print(rows, "numpy" in sys.modules)
sample_shots(100, 0.67, probe, fixed.params, fixed.phi, 1)
print("numpy" in sys.modules)
"""


def test_sweeps_and_figure_tables_leave_numpy_unloaded():
    assert _fresh(TABLES_THEN_SHOTS) == "2650 False\nTrue\n"


# find_peak for every variable and metric; two metrics have several
# maxima on these bounds, and their searches end in a ReadoutError
PEAK_SEARCHES = """\
import math, sys
from squeezed_readout import ProbeState, ReadoutError, SweepFixed, SystemParams, find_peak
from squeezed_readout.metrics import METRICS
from squeezed_readout.sweeps import SWEEP_VARIABLES
probe = ProbeState(alpha=10.0, r=0.74)
fixed = SweepFixed(params=SystemParams(kappa=2.0), probe=probe, phi=0.5 * math.pi, t=0.67)
bounds = {"t": (0.05, 3.0), "r": (0.0, 2.0), "delta_theta": (-1.0, 1.0),
          "alpha": (0.0, 12.0), "kappa": (0.5, 4.0)}
found = 0
for variable in SWEEP_VARIABLES:
    for metric in METRICS:
        try:
            found += math.isfinite(find_peak(metric, variable, bounds[variable], fixed).value)
        except ReadoutError:
            pass
print(found, "numpy" in sys.modules)
"""


def test_peak_search_leaves_numpy_unloaded():
    assert _fresh(PEAK_SEARCHES) == "18 False\n"
