"""Spans around the package's cross-module calls, recorded from outside it.

A layer is one module of ``squeezed_readout``.  The tracer replaces every
name that a consumer module imported from another package module (for
example ``squeezed_readout.metrics.coefficient_set`` or
``squeezed_readout.sweeps.snr``) with a wrapper that records a span, and
does the same for the public names the benchmark calls (the package
namespace and ``cli.main``).  Calls inside one module are not wrapped, so
their time is the self time of the module's span.  ``params`` and
``errors`` are never wrapped: they do almost no work, and their time is
the self time of whichever layer called them.  A name bound at call time
by an import inside a function body (``shots.classify`` imports
``integrated_variance`` that way) is not wrapped either.

Spans are kept in memory in flat arrays while the traced code runs and
are reduced to per-layer figures only after it returns.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from array import array
from collections import defaultdict

PACKAGE = "squeezed_readout"
LAYERS = ("probe", "dynamics", "metrics", "sweeps", "shots", "backaction", "cli")
UNTRACED = ("params", "errors")

# Cross-module bindings at the time the benchmark was defined.  Any of
# these that no longer exists is reported, so that a refactor cannot hide
# a layer by renaming the route into it; bindings found beyond this table
# are wrapped too and listed as unlisted.
EXPECTED = {
    "metrics": (
        "coefficient_set",
        "signal_coefficients",
        "input_means",
        "rotated_quadrature_covariance",
        "rotated_quadrature_variance",
    ),
    "sweeps": ("coefficient_set", "contrast", "fidelity", "integrated_variance", "snr"),
    "shots": ("coefficient_set", "measurement_mean", "input_covariance"),
    "backaction": ("mean_photon_number",),
    "cli": (
        "backaction_report",
        "total_t1",
        "optimal_squeezing",
        "optimal_time_estimate",
        "phase_matching_residual",
        "readout_point",
        "snr",
        "classify",
        "sample_shots",
        "with_empirical_fidelity",
        "find_peak",
        "render_figure_csv",
        "render_sweep_csv",
        "reproduce_figure2",
        "reproduce_figure3",
        "run_sweep",
    ),
    # public entry points the workloads call
    "": (
        "backaction_report",
        "classify",
        "find_peak",
        "optimal_squeezing",
        "optimal_time_estimate",
        "phase_matching_residual",
        "readout_point",
        "sample_shots",
    ),
}
ENTRY_POINTS = {"": EXPECTED[""], "cli": ("main",)}


def _layer(qualified_module: str) -> str:
    return qualified_module.rpartition(".")[2]


class Tracer:
    """Installs span-recording wrappers and reduces the spans they record."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.bindings: list[tuple[types.ModuleType, str, object, object]] = []
        self.unlisted: list[str] = []
        self.missing: list[str] = []
        self._discover()
        self.clear()

    def _discover(self) -> None:
        modules = {
            _layer(name): module
            for name, module in sorted(sys.modules.items())
            if name.startswith(PACKAGE + ".") and module is not None
        }
        modules[""] = sys.modules[PACKAGE]
        found = set()
        for consumer, module in modules.items():
            for attr, target in sorted(vars(module).items()):
                listed = attr in ENTRY_POINTS.get(consumer, ())
                if not isinstance(target, types.FunctionType) or not (
                    listed or self._crosses(module, target)
                ):
                    continue
                found.add((consumer, attr))
                self._bind(module, attr, target)
        expected = {
            (consumer, attr)
            for table in (EXPECTED, ENTRY_POINTS)
            for consumer, attrs in table.items()
            for attr in attrs
        }

        def label(pair):
            return f"{pair[0] or PACKAGE}:{pair[1]}"

        self.missing = sorted(label(p) for p in expected - found)
        self.unlisted = sorted(label(p) for p in found - expected)

    @staticmethod
    def _crosses(module, target) -> bool:
        """True for a package function imported into another package module."""
        home = target.__module__
        return (
            module.__name__ != PACKAGE
            and home.startswith(PACKAGE + ".")
            and home != module.__name__
            and _layer(home) not in UNTRACED
        )

    def _bind(self, module, attr: str, target) -> None:
        name = f"{_layer(target.__module__)}.{target.__name__}"
        if name not in self.names:
            self.names.append(name)
        self.bindings.append((module, attr, target, self._wrap(target, self.names.index(name))))

    def _wrap(self, fn, name_id: int):
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0.0)
            tracer.stack.append(index)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[index] = clock()
                tracer.stack.pop()

        return wrapper

    def clear(self) -> None:
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def install(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run a block (a gate, say) without recording spans."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def reduce(self) -> dict:
        """Per-layer and per-function figures of the spans recorded so far."""
        return reduce_spans(self.names, self.name, self.parent, self.start, self.end)


def reduce_spans(names, name, parent, start, end) -> dict:
    """Calls, self and inclusive seconds per layer and per function.

    Self time is a span's duration minus the durations of its direct
    children; inclusive time counts a span only when no ancestor belongs
    to the same layer (or function), so nested calls are not counted twice.
    ``below[(function, layer)]`` counts the spans of a layer that ran
    inside a call of that function.
    """
    n = len(name)
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    layer_of = [x.partition(".")[0] for x in names]
    out = {
        "layer_calls": defaultdict(int),
        "layer_self_s": defaultdict(float),
        "layer_total_s": defaultdict(float),
        "fn_calls": defaultdict(int),
        "fn_total_s": defaultdict(float),
        "below": defaultdict(int),
        "spans": n,
    }
    for i in range(n):
        duration = end[i] - start[i]
        fn = names[name[i]]
        layer = layer_of[name[i]]
        out["layer_calls"][layer] += 1
        out["fn_calls"][fn] += 1
        out["layer_self_s"][layer] += duration - child_time[i]
        ancestors = set()
        p = parent[i]
        while p >= 0:
            ancestors.add(name[p])
            p = parent[p]
        for a in ancestors:
            out["below"][(names[a], layer)] += 1
        if all(layer_of[a] != layer for a in ancestors):
            out["layer_total_s"][layer] += duration
        if name[i] not in ancestors:
            out["fn_total_s"][fn] += duration
    return out
