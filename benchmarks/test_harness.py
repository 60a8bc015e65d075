"""Tests of the benchmark harness, built on its smoke mode.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
Each smoke run uses tiny inputs and still exercises every workload,
every gate and the traced run.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gates  # noqa: E402
import tracing  # noqa: E402

from squeezed_readout import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )


_RUNS: dict = {}


def smoke(workload: str, trace: int, repeat: int = 0):
    """(result, detail) of one smoke run, cached per argument tuple."""
    key = (workload, trace, repeat)
    if key not in _RUNS:
        done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--smoke")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        _RUNS[key] = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    result, detail = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1 and detail["fail_ratio"] == 0.0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert math.isfinite(reported["value"])
    if trace:
        assert detail["counts_repeat"] and detail["missing_wrappers"] == []
        assert detail["layers"]["trace.overhead_ratio"] > 0.0
    else:
        assert all(result["metrics"][name]["value"] > 0.0 for name in result["metrics"])
        why = {w["name"]: w["why"] for w in SPEC["workloads"]}
        assert detail["meta"]["why"] == why[workload]


def test_traced_counts_repeat_between_runs():
    first, _ = smoke("tables", 1)
    second, _ = smoke("tables", 1, repeat=1)
    for name, spec in first["metrics"].items():
        if spec["unit"] not in ("s", "ratio"):
            assert second["metrics"][name]["value"] == spec["value"], name


def test_traced_layers_match_the_call_structure():
    _, tables = smoke("tables", 1)
    _, search = smoke("search", 1)
    _, shots = smoke("shots", 1)
    assert tables["layers"]["dynamics.calls_per_figure_row"] <= 3.0
    assert 5.0 < tables["layers"]["dynamics.calls_per_sweep_row"] <= 6.0
    assert tables["layers"]["shots.calls"] == 0 and search["layers"]["shots.calls"] == 0
    assert search["layers"]["sweeps.peak_evals_per_solve"] > 64
    assert search["layers"]["backaction.self_s"] > 0.0
    assert shots["layers"]["shots.sample_s"] > 0.0 and shots["layers"]["shots.rng_replay_s"] > 0.0
    assert shots["layers"]["cli.bytes_written"] > 0


def test_exits_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reduce_spans_self_time():
    names = ["cli.main", "sweeps.run_sweep", "dynamics.coefficient_set"]
    name = [0, 1, 2, 2]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 5.0, 3.0, 8.0]
    out = tracing.reduce_spans(names, name, parent, start, end)
    assert out["layer_self_s"]["cli"] == 10.0 - 4.0 - 1.0
    assert out["layer_self_s"]["sweeps"] == 3.0
    assert out["layer_calls"]["dynamics"] == 2
    assert out["below"][("cli.main", "dynamics")] == 2
    assert out["below"][("sweeps.run_sweep", "dynamics")] == 1


def test_missing_wrapper_is_reported(monkeypatch):
    monkeypatch.setitem(tracing.EXPECTED, "sweeps", tracing.EXPECTED["sweeps"] + ("gone",))
    tracer = tracing.Tracer()
    assert tracer.missing == ["sweeps:gone"]
    tracer.install()
    tracer.uninstall()
    assert cli.main.__module__ == "squeezed_readout.cli" and not hasattr(cli.main, "__wrapped__")


def _sweep_csv(tmp_path, metric="snr"):
    point = {"t": 1.2, "kappa": 2.0, "u": 0.25, "alpha": 10.0, "theta_alpha": 0.0,
             "r": 0.74, "theta_xi": math.pi, "phi": 0.5 * math.pi}
    import inputs

    config = tmp_path / "s.cfg"
    config.write_text(inputs.config_text(point, sweep_variable="t", sweep_lo=0.0, sweep_hi=3.0,
                                         sweep_points=40, sweep_metric=metric))
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    job = {"variable": "t", "metric": metric, "points": 40, "point": point,
           "t_us": point["t"] * inputs.US_PER_INTERNAL}
    return out.read_text(), job


def test_sweep_gate_accepts_output_and_rejects_a_perturbed_row(tmp_path, capsys):
    text, job = _sweep_csv(tmp_path)
    assert gates.check_sweep(text, job, 38, random.Random(0)) == []
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith("0.") and ",False" in line)
    fields = lines[index].split(",")
    fields[1] = repr(float(fields[1]) * (1.0 + 1e-8))
    lines[index] = ",".join(fields)
    assert gates.check_sweep("\n".join(lines), job, 38, random.Random(0))


def test_fig3_gate_checks_the_r_peak(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert cli.main(["figures", "fig3", "--out", str(out)]) == 0
    text = out.read_text()
    assert gates.check_fig3(text, 4, random.Random(0)) == []
    header = [line for line in text.splitlines() if line.startswith("#")]
    _, rows = gates.parse_csv(text)
    shifted = [",".join([r[0], repr(float(r[1]) + 0.05 if r[0] == "r" else float(r[1])), *r[2:]])
               for r in rows]
    bad = "\n".join(header + ["panel,x,snr,fidelity,snr_coherent,fidelity_coherent"] + shifted)
    assert any("peaks at" in f for f in gates.check_fig3(bad, 0, random.Random(0)))


def test_batch_gate_rejects_a_shifted_mean():
    import numpy as np

    point = {"t": 1.0, "kappa": 2.0, "u": 0.25, "alpha": 3.0, "theta_alpha": 0.3,
             "r": 0.5, "theta_xi": 1.0, "phi": 0.9}
    ref = gates.readout(**point)
    rng = np.random.default_rng(0)
    n = 200_000
    plus = rng.normal(ref["mean_plus"], math.sqrt(ref["variance_plus"]), n)
    minus = rng.normal(ref["mean_minus"], math.sqrt(ref["variance_minus"]), n)
    sd = plus.std(ddof=1) + minus.std(ddof=1)
    snr = abs(plus.mean() - minus.mean()) / sd
    threshold = 0.5 * (ref["mean_plus"] + ref["mean_minus"])
    high = ref["mean_plus"] >= ref["mean_minus"]
    errors = np.mean(plus <= threshold if high else plus >= threshold) + np.mean(
        minus > threshold if high else minus < threshold)
    fidelity = (1.0 - errors) * math.exp(-0.5 * point["t"] / float(gates.internal_t1()))
    assert gates.check_batch(plus, minus, snr, fidelity, point) == []
    shift = 6.0 * math.sqrt(ref["variance_plus"] / n)
    assert gates.check_batch(plus + shift, minus, snr, fidelity, point)


def test_solve_gate_applies_the_criterion_2_bound():
    class Readout:
        snr = 3.0

    solve = {"r_peak": 0.74, "r_star": 0.7405, "phase_matched": True, "t_peak": 3.0,
             "readout": Readout, "nondemolition_ok": True}
    assert gates.check_solve(solve) == []
    assert gates.check_solve(dict(solve, r_peak=0.7420))
    assert gates.check_solve(dict(solve, r_star=None, r_peak=0.1)) == []
