"""Dispersive spin-qubit readout with displaced squeezed microwave probes.

Analytic signal, noise, SNR and fidelity for integrated homodyne
readout; Monte Carlo single-shot cross-validation; operating-point
optimization (squeezing, time, phases); probe back-action figures of
merit; sweep and reference-table generation with a CLI front end.
"""

from .backaction import BackactionReport, backaction_report, total_t1
from .errors import (
    NumericalError,
    ReadoutError,
    UndefinedPointError,
    ValidationError,
)
from .metrics import (
    ReadoutPoint,
    fidelity,
    optimal_squeezing,
    optimal_time_estimate,
    phase_matching_residual,
    readout_point,
    snr,
)
from .params import SystemParams, UnitContext, from_experimental
from .probe import ProbeState, mean_photon_number
from .shots import (
    BLOCK_SIZE,
    GENERATOR_ID,
    MAX_SHOTS,
    ClassificationResult,
    ShotBatch,
    classify,
    sample_shots,
)
from .sweeps import (
    FigureTable,
    PeakResult,
    SweepFixed,
    SweepRow,
    SweepSpec,
    find_peak,
    render_figure_csv,
    reproduce_figure2,
    reproduce_figure3,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SIZE",
    "BackactionReport",
    "ClassificationResult",
    "FigureTable",
    "GENERATOR_ID",
    "MAX_SHOTS",
    "NumericalError",
    "PeakResult",
    "ProbeState",
    "ReadoutError",
    "ReadoutPoint",
    "ShotBatch",
    "SweepFixed",
    "SweepRow",
    "SweepSpec",
    "SystemParams",
    "UndefinedPointError",
    "UnitContext",
    "ValidationError",
    "backaction_report",
    "classify",
    "fidelity",
    "find_peak",
    "from_experimental",
    "mean_photon_number",
    "optimal_squeezing",
    "optimal_time_estimate",
    "phase_matching_residual",
    "readout_point",
    "render_figure_csv",
    "reproduce_figure2",
    "reproduce_figure3",
    "run_sweep",
    "sample_shots",
    "snr",
    "total_t1",
]
