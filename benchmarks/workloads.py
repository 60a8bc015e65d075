"""The three closed-loop workloads: one job at a time, each timed alone.

A workload runs in rounds.  Round ``i`` is a fixed list of jobs (an
operation each); its timed region covers only the package calls, and
every output is gated right after its job, inside ``pause()`` so that a
traced round records no span for the gate.  An operation fails when the
package raises ``ReadoutError``, the CLI returns a non-zero code, or a
gate rejects the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from typing import NamedTuple

import gates
import inputs
import numpy as np

import squeezed_readout as sr
from squeezed_readout import cli

clock = time.perf_counter


class Op(NamedTuple):
    seconds: float
    items: int
    failures: list
    written: int = 0


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one in-process CLI call."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = clock()
        code = cli.main(argv)
        seconds = clock() - start
    return code, sink.getvalue(), seconds


class Tables:
    """fig2, fig3 and twenty seeded sweeps through ``cli.main`` with ``--out``."""

    name = "tables"
    item = "point"
    calibration = "python"
    tail_pct = 97.5  # fig2 jobs are the top 1/22 of operations; this sits inside them

    def __init__(self, seed, sizes, workdir):
        self.sizes = sizes
        self.seed = seed
        self.jobs = inputs.generate(self.name, seed, sizes, workdir)
        self.reference = None

    def size(self) -> dict:
        return {"jobs_per_round": len(self.jobs), "points_per_round": self.points_per_round()}

    def points_per_round(self) -> int:
        return sum(job["points"] for job in self.jobs)

    def warm_up(self) -> None:
        """One untimed round; its outputs become the gated reference."""
        self.reference = {}
        for index, job in enumerate(self.jobs):
            code, _, _ = run_cli(job["argv"])
            if code:
                self.reference[index] = (None, [f"{job['kind']}: exit code {code}"])
                continue
            texts = [path.read_text(encoding="utf-8") for path in job["outputs"]]
            self.reference[index] = (self._digest(job), self._gate(index, job, texts))

    def _gate(self, index, job, texts) -> list[str]:
        rng = random.Random(f"tables-gate:{self.seed}:{index}")
        k = self.sizes.gate_rows
        if job["kind"] == "fig2":
            return gates.guarded(gates.check_fig2, dict(zip(gates.FIG2_KAPPA, texts)), k, rng)
        if job["kind"] == "fig3":
            return gates.guarded(gates.check_fig3, texts[0], k, rng)
        return gates.guarded(gates.check_sweep, texts[0], job, k, rng)

    @staticmethod
    def _digest(job) -> str:
        digest = hashlib.blake2b()
        for path in job["outputs"]:
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def round(self, index, pause=contextlib.nullcontext) -> list[Op]:
        ops = []
        for job_index, job in enumerate(self.jobs):
            code, _, seconds = run_cli(job["argv"])
            with pause():
                digest, fails = self.reference[job_index]
                if code:
                    fails = fails + [f"{job['kind']}: exit code {code}"]
                elif self._digest(job) != digest:
                    fails = fails + [f"{job['kind']}: output differs from the gated reference"]
                written = sum(path.stat().st_size for path in job["outputs"] if path.exists())
            ops.append(Op(seconds, job["points"], fails, written))
        return ops

    def counts(self) -> dict:
        sweep_points = sum(job["points"] for job in self.jobs if job["kind"] == "sweep")
        return {
            "points": self.points_per_round(),
            "sweep_points": sweep_points,
            "figure_points": self.points_per_round() - sweep_points,
        }


def solve(entry: dict) -> dict:
    """One operating-point solve through the public API."""
    point, params, probe, fixed = entry["point"], entry["params"], entry["probe"], entry["fixed"]
    t, phi = point["t"], point["phi"]
    r_peak = sr.find_peak("snr", "r", (0.0, 2.0), fixed)
    r_star = sr.optimal_squeezing(t, params)
    sr.optimal_time_estimate(probe.r, params)
    _, _, matched = sr.phase_matching_residual(probe.theta_alpha, probe.theta_xi, phi)
    t_peak = sr.find_peak("snr", "t", inputs.T_PEAK_BOUNDS, fixed)
    readout = sr.readout_point(t, probe, params, phi)
    report = sr.backaction_report(probe, params)
    return {
        "r_peak": r_peak.location,
        "r_star": r_star,
        "phase_matched": matched,
        "t_peak": t_peak.location,
        "readout": readout,
        "nondemolition_ok": report.nondemolition_ok,
    }


class Search:
    """Operating-point solves made of thousands of sequential scalar calls."""

    name = "search"
    item = "solve"
    calibration = "python"
    tail_pct = 99.0

    def __init__(self, seed, sizes, workdir):
        self.sizes = sizes
        self.pool = inputs.generate(self.name, seed, sizes, workdir)

    def size(self) -> dict:
        return {"solves_per_round": self.sizes.solves_per_round, "distinct_points": len(self.pool)}

    def warm_up(self) -> None:
        self.round(0)

    def round(self, index, pause=contextlib.nullcontext) -> list[Op]:
        ops = []
        per_round = self.sizes.solves_per_round
        for k in range(per_round):
            position = (index * per_round + k) % len(self.pool)
            entry = self.pool[position]
            start = clock()
            try:
                result = solve(entry)
                fails = []
            except sr.ReadoutError as exc:
                result, fails = None, [f"solve {position}: {exc}"]
            seconds = clock() - start
            if result is not None:
                with pause():
                    fails = gates.check_solve(result)
                    if position % self.sizes.oracle_every == 0:
                        fails += gates.check_readout_point(result["readout"], entry["point"])
            ops.append(Op(seconds, 1, fails))
        return ops

    def counts(self) -> dict:
        return {"solves": self.sizes.solves_per_round}


class Shots:
    """Monte Carlo batches: three API jobs then one CLI job with a shot CSV."""

    name = "shots"
    item = "shot"
    calibration = "shots"
    tail_pct = 80.0  # one job in four is a CLI job; this sits inside the slower kind

    def __init__(self, seed, sizes, workdir):
        self.sizes = sizes
        self.jobs = inputs.generate(self.name, seed, sizes, workdir)

    def size(self) -> dict:
        return {"jobs_per_round": 4, "n_api": self.sizes.shots_n, "n_cli": self.sizes.shots_cli_n,
                "distinct_jobs": len(self.jobs)}

    def _round_jobs(self, index) -> list[dict]:
        first = 4 * index % len(self.jobs)
        return self.jobs[first : first + 4]

    def warm_up(self) -> None:
        self.round(0)

    def round(self, index, pause=contextlib.nullcontext) -> list[Op]:
        return [
            self._api_job(job, pause) if job["kind"] == "api" else self._cli_job(job, pause)
            for job in self._round_jobs(index)
        ]

    def _api_job(self, job, pause) -> Op:
        point, n = job["point"], job["n"]
        args = (point["t"], job["probe"], job["params"], point["phi"], job["seed"])
        start = clock()
        try:
            batch = sr.sample_shots(n, *args)
            midpoint = sr.classify(batch)
            likelihood = sr.classify(batch, "likelihood")
        except sr.ReadoutError as exc:
            return Op(clock() - start, 2 * n, [f"api job: {exc}"])
        seconds = clock() - start
        with pause():
            fails = gates.check_batch(
                batch.outcomes_plus, batch.outcomes_minus,
                midpoint.empirical_snr, midpoint.empirical_fidelity, point,
            )
            if not np.isfinite(likelihood.threshold):
                fails.append(f"likelihood threshold {likelihood.threshold!r}")
            m = self.sizes.prefix_n
            prefix = sr.sample_shots(m, *args)
            if not (np.array_equal(prefix.outcomes_plus, batch.outcomes_plus[:m])
                    and np.array_equal(prefix.outcomes_minus, batch.outcomes_minus[:m])):
                fails.append(f"first {m} shots differ from an {m}-shot request")
        return Op(seconds, 2 * n, fails)

    def _cli_job(self, job, pause) -> Op:
        n = job["n"]
        code, stdout, seconds = run_cli(job["argv"])
        with pause():
            if code:
                return Op(seconds, 2 * n, [f"cli shots: exit code {code}"])
            text = job["out"].read_text(encoding="utf-8")
            written = job["out"].stat().st_size
            config = cli.parse_config(job["config"].read_text(encoding="utf-8"))
            t = config.units.to_internal_time(config.t_us)
            batch = sr.sample_shots(n, t, config.probe, config.params, config.phi, config.seed)

            def check_csv():
                plus, minus = gates.parse_shot_csv(text)
                if np.array_equal(plus, batch.outcomes_plus) and np.array_equal(
                    minus, batch.outcomes_minus
                ):
                    return []
                return ["shot CSV does not parse back to the sampled floats"]

            fails = gates.guarded(check_csv)
            result = sr.classify(batch)
            printed = dict(line.split(" = ", 1) for line in stdout.splitlines())
            if printed.get("empirical_snr") != repr(result.empirical_snr):
                fails.append(f"printed empirical_snr {printed.get('empirical_snr')}")
            fails += gates.check_batch(
                batch.outcomes_plus, batch.outcomes_minus,
                result.empirical_snr, result.empirical_fidelity, dict(job["point"], t=t),
            )
        return Op(seconds, 2 * n, fails, written)

    def counts(self) -> dict:
        shots = sum(2 * job["n"] for job in self._round_jobs(0))
        # four standard normals of eight bytes per shot
        return {"bytes_drawn": 32 * shots}

    def replay_rng(self, index) -> float:
        """Seconds to replay the round's Philox block draws serially.

        Follows the documented GENERATOR_ID scheme: block j of sigma = +1
        uses Philox(key=seed).jumped(2j) and sigma = -1 uses jumped(2j+1),
        each drawing a (block, 4) array of standard normals.  This is the
        floor of a serial sampler.
        """
        total = 0.0
        for job in self._round_jobs(index):
            n = job["n"]
            start = clock()
            base = np.random.Philox(key=job["seed"])
            for offset in (0, 1):
                for block, lo in enumerate(range(0, n, sr.BLOCK_SIZE)):
                    m = min(sr.BLOCK_SIZE, n - lo)
                    np.random.Generator(base.jumped(2 * block + offset)).standard_normal((m, 4))
            total += clock() - start
        return total


WORKLOADS = {cls.name: cls for cls in (Tables, Search, Shots)}
