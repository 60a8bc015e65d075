"""Benchmark of squeezed-readout: three closed-loop workloads in one process.

Run from the repository root:

    python3 benchmarks/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload search --trace 1    # per-layer figures
    python3 benchmarks/run.py --workload shots --smoke       # tiny sizes, seconds

Workloads (BENCHMARK.json records why each was chosen):

- ``tables``: fig2, fig3 and 20 seeded sweeps through ``cli.main --out``;
- ``search``: operating-point solves (peak searches, optimal squeezing and
  time, phase matching, ``readout_point``, ``backaction_report``);
- ``shots``: Monte Carlo batches of about 1e6 shots per eigenstate, and
  one job in four through ``cli.main shots --out``.

The package is imported from ``src/`` of this checkout and receives only
the inputs generated from ``--seed``.  Every output is gated outside the
timed region (``gates.py``); an operation (a table job, a solve or a shot
job) fails when it raises ``ReadoutError``, exits non-zero or fails a gate.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median over fresh interpreters, from start until the package is imported
and the inputs exist), ``peak_rss_mb``, ``items_per_s`` (grid points,
solves or shots per second, median over rounds), ``op_ms_p50`` and
``op_ms_tail`` (per operation; the tail percentile is fixed per workload
so that at least ten operations lie beyond it).  Times are scaled to a
reference machine speed by an interleaved calibration kernel (see
``calibration_factor``); the details line also gives them unscaled.
With ``--trace 1`` the run alternates untraced and traced rounds of the
same jobs and reports per-layer metrics (``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the details (sample counts, tail percentile, failures, input
sizes and machine metadata).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
clock = time.perf_counter

# BENCHMARK.json names the metrics, their units and why each workload exists.
# The per-layer list there holds the layer metrics that exist, and are not
# structurally zero, on every workload, plus the counts; the details line
# of a traced run carries every other layer figure.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
ITEM_METRIC = {"tables": "points_per_s", "search": "solves_per_s", "shots": "shots_per_s"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables", "search", "shots"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes")
    return parser.parse_args(argv)


def median(values) -> float:
    return statistics.median(values)


def percentile(values, pct: float) -> float:
    """Inclusive-method percentile, pct in steps of 0.1."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


@dataclasses.dataclass(frozen=True)
class _Row:
    x: float
    y: float
    z: float


def python_kernel() -> None:
    """The closed-form path's work per grid point: frozen-dataclass
    construction and replace, math calls, dicts, float repr, joins."""
    rows = []
    for i in range(3000):
        row = _Row(i * 0.1, math.exp(-i * 1e-4), math.cos(i * 0.3))
        row = dataclasses.replace(row, x=row.x + 1.0)
        values = {"x": row.x, "y": row.y * row.z, "z": math.sqrt(abs(row.z))}
        rows.append(",".join(repr(v) for v in values.values()))
    "\n".join(rows)


def shots_kernel() -> None:
    """The shot path's work: Philox normals drawn block by block from jumped
    streams, a linear map, threshold and spread statistics, and float repr
    of CSV lines."""
    import numpy as np

    base = np.random.Philox(key=99)
    n = 40_000
    for offset in (0, 1):
        out = np.empty(n)
        for block, lo in enumerate(range(0, n, 8192)):
            m = min(8192, n - lo)
            z = np.random.Generator(base.jumped(2 * block + offset)).standard_normal((m, 4))
            out[lo : lo + m] = 0.84 * z[:, 0] + 0.72 * z[:, 1] + 0.5 * z[:, 2] - 0.2 * z[:, 3]
        float(np.mean(out <= 0.0))
        float(np.std(out, ddof=1))
    "\n".join(f"1,{v!r}" for v in out[:4000].tolist())


# Each kernel with its median seconds on the machine the benchmark was
# defined on (2-core Intel Xeon, Python 3.11, numpy 2.4) with no other load.
KERNELS = {"python": (python_kernel, 0.029), "shots": (shots_kernel, 0.0165)}
CALIBRATION_WINDOW = 5


def calibration_factor(kind: str) -> float:
    """Time of a fixed kernel that does not use the package, over its time
    on the reference machine.

    Other tenants of the host change this machine's speed by up to a half
    for minutes at a time, and change it more for interpreted code with a
    large working set than for numpy loops.  Each kernel mimics one
    profile: ``python`` the closed-form path (tables, search and set-up),
    ``shots`` the sampler.  Over ten runs on that machine, scaling by the
    matching kernel cut the quartile spread of throughput and median
    operation time from 13-16% to 2-4% on tables and search, and from
    25-33% to 5-6% on shots.
    """
    kernel, reference = KERNELS[kind]
    start = clock()
    kernel()
    return (clock() - start) / reference


def smoothed(factors: list[float]) -> list[float]:
    """Running median over CALIBRATION_WINDOW samples: it follows drift that
    lasts seconds or more but not the kernel's own sample-to-sample noise."""
    half = CALIBRATION_WINDOW // 2
    return [median(factors[max(0, i - half) : i + half + 1]) for i in range(len(factors))]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args, workload) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "sizes": workload.size(),
        "why": WHY[args.workload],
    }


def child_env() -> dict:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def setup_seconds(args, tmp: Path, repeats: int) -> list[tuple[float, float]]:
    """(calibration, seconds) for fresh interpreters: start until the package
    is imported and the inputs exist."""
    sizes = "SMOKE" if args.smoke else "FULL"
    times = []
    for index in range(repeats):
        code = (
            "import sys, pathlib; sys.path[:0] = [{src!r}, {here!r}]; "
            "import squeezed_readout.cli, inputs; "
            "inputs.generate({w!r}, {seed}, inputs.{sizes}, pathlib.Path({d!r})); "
            "print('ready', flush=True)"
        ).format(src=str(SRC), here=str(HERE), w=args.workload, seed=args.seed, sizes=sizes,
                 d=str(tmp / f"setup{index}"))
        calibration = calibration_factor("python")
        start = clock()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append((calibration, clock() - start))
            proc.communicate()
        if line.strip() != "ready" or proc.returncode:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return times


def cli_process(tmp: Path, repeats: int) -> tuple[dict, list[str]]:
    """Whole-process CLI: import time inside a child, wall time of two commands."""
    config = tmp / "process_snr.cfg"
    config.write_text(
        "chi_over_2pi_mhz = 0.15\nkappa_over_chi = 2.0\nt1_ms = 3.0\nalpha = 10.0\n"
        "r = 0.74\nt_us = 0.714\n",
        encoding="utf-8",
    )
    py, env = sys.executable, child_env()
    import_code = (
        "import time; start = time.perf_counter(); import squeezed_readout.cli; "
        "print(time.perf_counter() - start)"
    )
    commands = {
        "snr": [py, "-m", "squeezed_readout.cli", "snr", "--config", str(config)],
        "fig3": [py, "-m", "squeezed_readout.cli", "figures", "fig3", "--out",
                 str(tmp / "fig3.csv")],
    }
    samples = {"import": [], "snr": [], "fig3": []}
    fails = []
    for _ in range(repeats):
        done = subprocess.run(
            [py, "-c", import_code], cwd=ROOT, env=env, capture_output=True, text=True
        )
        if done.returncode:
            fails.append(f"import squeezed_readout.cli: exit code {done.returncode}")
        else:
            samples["import"].append(float(done.stdout))
        for name, command in commands.items():
            start = clock()
            done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
            samples[name].append(clock() - start)
            if done.returncode:
                fails.append(f"squeezed-readout {name}: exit code {done.returncode}")
    result = {
        "cli.import_s": median(samples["import"]) if samples["import"] else 0.0,
        "cli.process_snr_s": median(samples["snr"]),
        "cli.process_fig3_s": median(samples["fig3"]),
    }
    result["cli.process_s"] = result["cli.process_snr_s"] + result["cli.process_fig3_s"]
    return result, fails


def timings(setup, rounds, tail_pct: float, scaled: bool) -> dict:
    """Medians and tail of (calibration, seconds or round) samples.

    With ``scaled`` each time is divided by the calibration factor taken
    around it, so that it reads at the reference machine speed.
    """

    def factor(calibration):
        return 1.0 / calibration if scaled else 1.0

    latencies = [op.seconds * factor(c) for c, ops in rounds for op in ops]
    rates = [
        sum(op.items for op in ops) / (factor(c) * sum(op.seconds for op in ops))
        for c, ops in rounds
    ]
    tail = percentile(latencies, tail_pct)
    return {
        "setup_s": median(seconds * factor(c) for c, seconds in setup),
        "items_per_s": median(rates),
        "op_ms_p50": 1000.0 * median(latencies),
        "op_ms_tail": 1000.0 * tail,
        "samples_beyond_tail": sum(1 for x in latencies if x > tail),
    }


def end_to_end(args, workload, sizes, tmp: Path) -> tuple[dict, dict, list]:
    """End-to-end metrics, each time scaled to the reference machine speed."""
    setup = setup_seconds(args, tmp, sizes.repeats)
    workload.warm_up()
    rounds = []
    deadline = clock() + args.seconds
    while not rounds or clock() < deadline:
        calibration = calibration_factor(workload.calibration)
        rounds.append((calibration, workload.round(len(rounds))))
    rounds = list(zip(smoothed([c for c, _ in rounds]), [ops for _, ops in rounds]))
    ops = [op for _, ops in rounds for op in ops]
    metrics = timings(setup, rounds, workload.tail_pct, scaled=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "setup_samples": len(setup),
        "rounds": len(rounds),
        "operations": len(ops),
        "item": workload.item,
        ITEM_METRIC[workload.name]: metrics["items_per_s"],
        "tail_percentile": workload.tail_pct,
        "samples_beyond_tail": metrics.pop("samples_beyond_tail"),
        "calibration_median": median(c for c, _ in rounds),
        "unscaled": timings(setup, rounds, workload.tail_pct, scaled=False),
    }
    if workload.name == "search":
        detail.update(solve_ms_p50=metrics["op_ms_p50"], solve_ms_tail=metrics["op_ms_tail"])
    return metrics, detail, ops


COUNT_SUFFIXES = (".calls", ".points", ".bytes_drawn", ".bytes_written", "_per_point",
                  "_per_row", "_per_solve", ".spans")


def round_layers(workload, summary, ops, replay) -> dict:
    """Per-layer figures of one traced round."""
    import tracing

    layers = sorted(set(tracing.LAYERS) | set(summary["layer_calls"]))
    out = {}
    for layer in layers:
        out[f"{layer}.calls"] = summary["layer_calls"][layer]
        out[f"{layer}.self_s"] = summary["layer_self_s"][layer]
        out[f"{layer}.total_s"] = summary["layer_total_s"][layer]
    fn, below = summary["fn_total_s"], summary["below"]
    counts = workload.counts()

    def per(count, total):
        return count / total if total else 0.0

    points, solves = counts.get("points", 0), counts.get("solves", 0)
    figure_dynamics = sum(below[(f"sweeps.reproduce_figure{k}", "dynamics")] for k in (2, 3))
    out.update({
        "shots.sample_s": fn["shots.sample_shots"],
        "shots.classify_s": fn["shots.classify"],
        "shots.rng_replay_s": replay,
        "shots.bytes_drawn": counts.get("bytes_drawn", 0),
        "sweeps.render_s": fn["sweeps.render_sweep_csv"] + fn["sweeps.render_figure_csv"],
        "sweeps.points": points,
        "sweeps.peak_evals_per_solve": per(below[("sweeps.find_peak", "metrics")], solves),
        "dynamics.calls_per_point": per(out["dynamics.calls"], points),
        "dynamics.calls_per_sweep_row": per(
            below[("sweeps.run_sweep", "dynamics")], counts.get("sweep_points", 0)
        ),
        "dynamics.calls_per_figure_row": per(figure_dynamics, counts.get("figure_points", 0)),
        "dynamics.calls_per_solve": per(out["dynamics.calls"], solves),
        "cli.main_s": fn["cli.main"],
        "cli.bytes_written": sum(op.written for op in ops),
        "trace.spans": summary["spans"],
    })
    return out


def per_layer(args, workload, sizes, tmp: Path) -> tuple[dict, dict, list]:
    import tracing
    from workloads import Op

    tracer = tracing.Tracer()
    process, process_fails = cli_process(tmp, sizes.repeats)
    workload.warm_up()
    pairs = []
    deadline = clock() + args.seconds
    while not pairs or clock() < deadline:
        plain = workload.round(0)
        tracer.clear()
        tracer.install()
        try:
            traced = workload.round(0, pause=tracer.paused)
        finally:
            tracer.uninstall()
        summary = tracer.reduce()
        tracer.clear()
        replay = workload.replay_rng(0) if hasattr(workload, "replay_rng") else 0.0
        ratio = sum(op.seconds for op in traced) / sum(op.seconds for op in plain)
        pairs.append((plain, traced, round_layers(workload, summary, traced, replay), ratio))
    layers = [p[2] for p in pairs]
    full = {}
    for key in layers[0]:
        if key.endswith(COUNT_SUFFIXES):
            full[key] = layers[0][key]
        else:
            full[key] = median(layer[key] for layer in layers)
    full.update(process)
    full["trace.overhead_ratio"] = median(p[3] for p in pairs)
    full["trace.missing_wrappers"] = len(tracer.missing)
    counts_repeat = all(
        layer[key] == layers[0][key] for layer in layers for key in layers[0]
        if key.endswith(COUNT_SUFFIXES)
    )
    detail = {
        "traced_rounds": len(pairs),
        "counts_repeat": counts_repeat,
        "missing_wrappers": tracer.missing,
        "unlisted_wrappers": tracer.unlisted,
        "shots.bytes_drawn": "computed: 4 normals x 8 bytes per shot",
        "layers": full,
    }
    ops = [op for p in pairs for op in p[0] + p[1]]
    ops += [Op(0.0, 0, [failure]) for failure in process_fails]
    metrics = {name: full[name] for name in PER_LAYER}
    return metrics, detail, ops


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "squeezed_readout" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import inputs
    import squeezed_readout
    import workloads

    if not Path(squeezed_readout.__file__).resolve().is_relative_to(SRC):
        print(f"error: package imported from {squeezed_readout.__file__}", file=sys.stderr)
        return 2
    sizes = inputs.SMOKE if args.smoke else inputs.FULL
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as name:
        tmp = Path(name)
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, tmp / "inputs")
        measure = per_layer if args.trace else end_to_end
        metrics, detail, ops = measure(args, workload, sizes, tmp)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
    failures = [message for op in ops for message in op.failures]
    failed = sum(1 for op in ops if op.failures)
    units = PER_LAYER if args.trace else END_TO_END
    detail.update(
        workload=args.workload,
        fail_ratio=failed / len(ops),
        failures=failures[:10],
        meta=metadata(args, workload),
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
