"""Seeded inputs of the three workloads.

Everything here is a pure function of the workload seed: operating
points, sweep and shot configs, shot seeds.  The package receives only
what is generated here.  Operating points come from the domain of
acceptance criterion 7 (kappa in [0.5, 4], t in [0.05, 3], u in
[0.1, 1], alpha in [0, 12], r in [0, 2], any phases, half of the points
with the squeezing ellipse aligned to the local oscillator).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import squeezed_readout as sr

CHI_OVER_2PI_MHZ = 0.15
T1_MS = 3.0
US_PER_INTERNAL = 1.0 / (2.0 * math.pi * CHI_OVER_2PI_MHZ)

SWEEP_RANGES = {
    "t": (0.0, 3.0),  # microseconds; starts at 0 so the series branch runs
    "r": (0.0, 2.0),
    "delta_theta": (-math.pi, math.pi),
    "alpha": (0.0, 12.0),
    "kappa": (0.5, 4.0),
}
SWEEP_METRICS = ("snr", "fidelity", "contrast", "variance")
T_PEAK_BOUNDS = (0.05, 3.0)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; SMOKE shrinks every one of them for the harness tests."""

    sweep_points: int = 400
    gate_rows: int = 12
    solves_per_round: int = 64
    search_pool: int = 1024
    oracle_every: int = 64
    # not multiples of BLOCK_SIZE, so every batch ends in a partial block
    shots_n: int = 1_000_003
    shots_cli_n: int = 100_003
    prefix_n: int = 10_007
    shot_rounds: int = 16
    repeats: int = 7


FULL = Sizes()
SMOKE = Sizes(
    sweep_points=20,
    gate_rows=3,
    solves_per_round=4,
    search_pool=8,
    oracle_every=2,
    shots_n=20_003,
    shots_cli_n=5_003,
    prefix_n=10_007,
    shot_rounds=2,
    repeats=1,
)


def domain_point(rng: random.Random) -> dict:
    """One criterion-7 operating point in internal units (chi_s = 1)."""
    kappa = rng.uniform(0.5, 4.0)
    t = rng.uniform(0.05, 3.0)
    u = rng.uniform(0.1, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    if rng.random() < 0.5:
        theta_xi = 2.0 * (phi - 0.5 * math.pi * rng.randrange(4))
    else:
        theta_xi = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "t": t,
        "kappa": kappa,
        "u": u,
        "alpha": rng.uniform(0.0, 12.0),
        "theta_alpha": rng.uniform(0.0, 2.0 * math.pi),
        "r": rng.uniform(0.0, 2.0),
        "theta_xi": theta_xi,
        "phi": phi,
    }


def search_point(rng: random.Random) -> dict:
    """A phase-matched point with back-action parameters set.

    g_s/Delta stays below 0.01 so the probe never nears the critical
    photon number and no validity warning fires.
    """
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "t": rng.uniform(0.2, 3.0),
        "kappa": rng.uniform(0.5, 4.0),
        "u": rng.uniform(0.1, 1.0),
        "alpha": rng.uniform(1.0, 12.0),
        "theta_alpha": phi + 0.5 * math.pi,
        "r": rng.uniform(0.0, 2.0),
        "theta_xi": 2.0 * phi,
        "phi": phi,
        "gs_over_delta": rng.uniform(1e-3, 1e-2),
    }


def config_text(point: dict, **extra) -> str:
    """CLI config for a point; times are converted to microseconds."""
    values = {
        "chi_over_2pi_mhz": CHI_OVER_2PI_MHZ,
        "kappa_over_chi": point["kappa"],
        "t1_ms": T1_MS,
        "alpha": point["alpha"],
        "theta_alpha_rad": point["theta_alpha"],
        "r": point["r"],
        "theta_xi_rad": point["theta_xi"],
        "lo_phase_rad": point["phi"],
        "vacuum_weight": point["u"],
        "t_us": point["t"] * US_PER_INTERNAL,
        **extra,
    }
    return "".join(
        f"{key} = {value if isinstance(value, str) else repr(value)}\n"
        for key, value in values.items()
    )


def tables_jobs(seed: int, sizes: Sizes, workdir: Path) -> list[dict]:
    """fig2, fig3 and one sweep for every variable and metric."""
    rng = random.Random(f"tables:{seed}")
    jobs = [
        {
            "kind": "fig2",
            "points": 3200,
            "argv": ["figures", "fig2", "--out", str(workdir / "fig2.csv")],
            "outputs": [workdir / f"fig2.figure2_{v}.csv" for v in ("panel_ab", "panel_cd")],
        },
        {
            "kind": "fig3",
            "points": 800,
            "argv": ["figures", "fig3", "--out", str(workdir / "fig3.csv")],
            "outputs": [workdir / "fig3.csv"],
        },
    ]
    for variable, (lo, hi) in SWEEP_RANGES.items():
        for metric in SWEEP_METRICS:
            point = domain_point(rng)
            stem = f"sweep_{variable}_{metric}"
            config = workdir / f"{stem}.cfg"
            text = config_text(
                point,
                sweep_variable=variable,
                sweep_lo=lo,
                sweep_hi=hi,
                sweep_points=sizes.sweep_points,
                sweep_metric=metric,
            )
            config.write_text(text, encoding="utf-8")
            jobs.append({
                "kind": "sweep",
                "variable": variable,
                "metric": metric,
                "points": sizes.sweep_points,
                "point": point,
                "t_us": point["t"] * US_PER_INTERNAL,
                "argv": ["sweep", "--config", str(config), "--out", str(workdir / f"{stem}.csv")],
                "outputs": [workdir / f"{stem}.csv"],
            })
    return jobs


def package_objects(point: dict) -> dict:
    """SystemParams, ProbeState and SweepFixed for a point, built once at set-up."""
    gs = point.get("gs_over_delta")
    params = sr.SystemParams(
        chi_s=1.0,
        kappa=point["kappa"],
        vacuum_weight=point["u"],
        g_s=gs,
        delta=None if gs is None else 1.0,
    )
    probe = sr.ProbeState(
        alpha=point["alpha"],
        theta_alpha=point["theta_alpha"],
        r=point["r"],
        theta_xi=point["theta_xi"],
    )
    fixed = sr.SweepFixed(params=params, probe=probe, phi=point["phi"], t=point["t"])
    return {"params": params, "probe": probe, "fixed": fixed}


def search_points(seed: int, sizes: Sizes) -> list[dict]:
    rng = random.Random(f"search:{seed}")
    points = [search_point(rng) for _ in range(sizes.search_pool)]
    return [{"point": p, **package_objects(p)} for p in points]


def shot_jobs(seed: int, sizes: Sizes, workdir: Path) -> list[dict]:
    """Rounds of three API batches and one CLI batch with a shot CSV."""
    rng = random.Random(f"shots:{seed}")
    jobs = []
    for index in range(4 * sizes.shot_rounds):
        point = domain_point(rng)
        job = {"point": point, "seed": rng.randrange(2**63)}
        if index % 4 == 3:
            config = workdir / f"shots_{index}.cfg"
            config.write_text(
                config_text(point, n_shots=sizes.shots_cli_n, seed=job["seed"]), encoding="utf-8"
            )
            out = workdir / f"shots_{index}.csv"
            job.update(kind="cli", n=sizes.shots_cli_n, config=config, out=out,
                       argv=["shots", "--config", str(config), "--out", str(out)])
        else:
            job.update(kind="api", n=sizes.shots_n, **package_objects(point))
        jobs.append(job)
    return jobs


def generate(workload: str, seed: int, sizes: Sizes, workdir: Path):
    """The inputs of one workload; config files are written into workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "tables":
        return tables_jobs(seed, sizes, workdir)
    if workload == "search":
        return search_points(seed, sizes)
    if workload == "shots":
        return shot_jobs(seed, sizes, workdir)
    raise ValueError(f"unknown workload {workload!r}")
