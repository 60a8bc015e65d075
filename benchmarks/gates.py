"""Output gates: independent checks of what the package returned or wrote.

The closed forms are re-evaluated here in mpmath at 40 digits, from the
inputs the benchmark generated, so a gate does not trust the package's
own arithmetic.  Monte Carlo batches are held to the 5-standard-error
bounds of acceptance criterion 7.  Every check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from inputs import CHI_OVER_2PI_MHZ, T1_MS

REL_TOL = 1e-9
PEAK_TOL = 1e-3
FIG3_R_PEAK = (0.74, 0.02)
MC_SIGMAS = 5.0
SWEEP_COLUMNS = ("a_coef", "b_coef", "big_f", "big_g", "variance_plus", "variance_minus")


def internal_time(t_us: float):
    """chi_s*t for a time in microseconds at chi_s/2pi = 0.15 MHz, in mpmath."""
    return 2 * mp.pi * mp.mpf(CHI_OVER_2PI_MHZ) * mp.mpf(t_us)


def internal_t1():
    return 2 * mp.pi * mp.mpf(CHI_OVER_2PI_MHZ) * mp.mpf(T1_MS) * 1000


def readout(t, kappa, u, alpha, theta_alpha, r, theta_xi, phi, **_) -> dict:
    """Coefficients, outcome moments, contrast and SNR at one point (chi_s = 1).

    Other keys of a generated point (such as gs_over_delta) are ignored.
    """
    with mp.workdps(40):
        t, kappa, u, alpha = (mp.mpf(x) for x in (t, kappa, u, alpha))
        theta_alpha, r, theta_xi, phi = (mp.mpf(x) for x in (theta_alpha, r, theta_xi, phi))
        a, b = kappa / 2, mp.mpf(1)
        d = a * a + b * b
        e = mp.exp(-a * t)
        cb, sb = mp.cos(b * t), mp.sin(b * t)
        big_f = (a - e * (a * cb - b * sb)) / d
        big_g = (b - e * (a * sb + b * cb)) / d
        int_f = (a * t - a * big_f + b * big_g) / d
        int_g = (b * t - a * big_g - b * big_f) / d
        a_coef, b_coef = t - kappa * int_f, kappa * int_g
        ch, sh = mp.cosh(2 * r), mp.sinh(2 * r)
        var_q = (ch - mp.cos(2 * phi - theta_xi) * sh) / 2
        var_p = (ch + mp.cos(2 * phi - theta_xi) * sh) / 2
        cov = sh * mp.sin(2 * phi - theta_xi) / 2
        vacuum = u * kappa / 2 * (big_f**2 + big_g**2)
        mq = mp.sqrt(2) * alpha * mp.cos(theta_alpha)
        mp_ = mp.sqrt(2) * alpha * mp.sin(theta_alpha)
        c, s = mp.cos(phi), mp.sin(phi)
        out = {"a_coef": a_coef, "b_coef": b_coef, "big_f": big_f, "big_g": big_g}
        for sigma, key in ((1, "plus"), (-1, "minus")):
            out[f"mean_{key}"] = a_coef * (mq * c + mp_ * s) + sigma * b_coef * (mp_ * c - mq * s)
            out[f"variance_{key}"] = (
                a_coef**2 * var_q + b_coef**2 * var_p + 2 * sigma * a_coef * b_coef * cov
                + vacuum
            )
        out["contrast"] = 2 * mp.sqrt(2) * alpha * abs(b_coef) * abs(mp.sin(theta_alpha - phi))
        sd_sum = mp.sqrt(out["variance_plus"]) + mp.sqrt(out["variance_minus"])
        out["snr"] = out["contrast"] / sd_sum if sd_sum > 0 else mp.mpf(0)
        out["variance"] = (out["variance_plus"] + out["variance_minus"]) / 2
        out["fidelity"] = mp.exp(-t / (2 * internal_t1())) * mp.erf(out["snr"] / mp.sqrt(2))
        return {key: float(value) for key, value in out.items()}


def compare(label: str, value: float, reference: float) -> list[str]:
    if abs(value - reference) <= REL_TOL * abs(reference):
        return []
    return [f"{label}: {value!r} against mpmath {reference!r}"]


def guarded(check, *args) -> list[str]:
    """Run a check on program output; unreadable output is a failure, not a crash."""
    try:
        return check(*args)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{check.__name__}: unreadable output ({exc!r})"]


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def sample_rows(rows: list, k: int, rng) -> list[int]:
    """The first two rows (zero and series-branch times) plus k seeded others."""
    rest = range(2, len(rows))
    return [0, 1] + sorted(rng.sample(rest, min(k, len(rest))))


def check_sweep(text: str, job: dict, k: int, rng) -> list[str]:
    """Header, row count, skipped rows and sampled rows of one sweep CSV."""
    header, rows = parse_csv(text)
    variable, metric = job["variable"], job["metric"]
    if header != [variable, metric, *SWEEP_COLUMNS, "skipped"] or len(rows) != job["points"]:
        return [f"sweep {variable}/{metric}: header {header} with {len(rows)} rows"]
    fails = []
    for i, row in enumerate(rows):
        at_zero_time = variable == "t" and float(row[0]) == 0.0
        expect_skip = at_zero_time and metric in ("snr", "fidelity")
        if (row[-1] == "True") != expect_skip:
            fails.append(f"sweep {variable}/{metric}: row {i} skipped={row[-1]}")
    point = dict(job["point"])
    if variable != "t":
        point["t"] = internal_time(job["t_us"])
    for i in sample_rows(rows, k, rng):
        x = float(rows[i][0])
        if variable == "t":
            point["t"] = x
        elif variable == "delta_theta":
            point["theta_xi"] = 2 * (mp.mpf(point["phi"]) - mp.mpf(x))
        else:
            point[variable] = x
        ref = readout(**point)
        for column, value in zip(header[1:-1], rows[i][1:-1]):
            if column == metric and rows[i][-1] == "True":
                continue
            label = f"sweep {variable}/{metric} row {i} {column}"
            fails += compare(label, float(value), ref[column])
    return fails


FIG2_KAPPA = {"panel_ab": 1.0, "panel_cd": 2.0}


def _figure_point(t_us: float, **point) -> dict:
    if t_us == 0.0:
        return {"snr": 0.0, "fidelity": 0.0}
    return readout(t=internal_time(t_us), u=0.25, theta_alpha=0.0, phi=mp.pi / 2, **point)


def check_fig2(texts: dict, k: int, rng) -> list[str]:
    fails = []
    for variant, kappa in FIG2_KAPPA.items():
        header, rows = parse_csv(texts[variant])
        if header != ["t_us", "r", "snr", "fidelity"] or len(rows) != 1600:
            fails.append(f"fig2 {variant}: header {header} with {len(rows)} rows")
            continue
        for i in sample_rows(rows, k, rng):
            t_us, r, snr, fid = (float(x) for x in rows[i])
            ref = _figure_point(t_us, kappa=kappa, alpha=math.sqrt(30.0), r=r, theta_xi=mp.pi)
            fails += compare(f"fig2 {variant} row {i} snr", snr, ref["snr"])
            fails += compare(f"fig2 {variant} row {i} fidelity", fid, ref["fidelity"])
    return fails


def check_fig3(text: str, k: int, rng) -> list[str]:
    header, rows = parse_csv(text)
    if len(header) != 6 or len(rows) != 800:
        return [f"fig3: header {header} with {len(rows)} rows"]
    fails = []
    coherent = _figure_point(0.714, kappa=2.0, alpha=10.0, r=0.0, theta_xi=mp.pi)
    for i in sample_rows(rows, k, rng):
        panel, x, snr, fid, snr_c, fid_c = rows[i][0], *(float(v) for v in rows[i][1:])
        if panel == "r":
            ref = _figure_point(0.714, kappa=2.0, alpha=10.0, r=x, theta_xi=mp.pi)
        else:
            ref = _figure_point(
                0.714, kappa=2.0, alpha=10.0, r=0.74, theta_xi=2 * (mp.pi / 2 - mp.mpf(x))
            )
        for label, value, reference in (
            ("snr", snr, ref["snr"]),
            ("fidelity", fid, ref["fidelity"]),
            ("snr_coherent", snr_c, coherent["snr"]),
            ("fidelity_coherent", fid_c, coherent["fidelity"]),
        ):
            fails += compare(f"fig3 row {i} {label}", value, reference)
    r_rows = [(float(row[2]), float(row[1])) for row in rows if row[0] == "r"]
    r_peak = max(r_rows)[1]
    if abs(r_peak - FIG3_R_PEAK[0]) > FIG3_R_PEAK[1]:
        fails.append(f"fig3: r panel peaks at {r_peak!r}, expected 0.74 +/- 0.02")
    return fails


def check_solve(solve: dict) -> list[str]:
    """Criterion-2 agreement of the r peak, phase matching and sanity of the solve."""
    fails = []
    r_star = solve["r_star"]
    if r_star is not None and 0.0 < r_star < 2.0 and abs(solve["r_peak"] - r_star) > PEAK_TOL:
        fails.append(f"find_peak r {solve['r_peak']!r} against half log(A/B) {r_star!r}")
    if not solve["phase_matched"]:
        fails.append("phase-matched point reported as mismatched")
    if not 0.05 <= solve["t_peak"] <= 3.0:
        fails.append(f"t peak {solve['t_peak']!r} outside its bounds")
    if not solve["nondemolition_ok"]:
        fails.append("back-action report flags the probe as too strong")
    snr = solve["readout"].snr
    if not (snr > 0.0 and math.isfinite(snr)):
        fails.append(f"readout_point snr {snr!r}")
    return fails


def check_readout_point(point_result, point: dict) -> list[str]:
    ref = readout(**point)
    fails = []
    for field in ("contrast", "variance_plus", "variance_minus", "snr", "fidelity"):
        fails += compare(f"readout_point {field}", getattr(point_result, field), ref[field])
    return fails


def check_batch(outcomes_plus, outcomes_minus, empirical_snr, empirical_fidelity, point):
    """Criterion-7 agreement of a shot batch with the closed forms, at 5 SE."""
    ref = readout(**point)
    n = outcomes_plus.size
    fails = []
    sds = {}
    for key, outcomes in (("plus", outcomes_plus), ("minus", outcomes_minus)):
        mean, var = ref[f"mean_{key}"], ref[f"variance_{key}"]
        sds[key] = math.sqrt(var)
        sample_mean = float(np.mean(outcomes))
        sample_var = float(np.var(outcomes, ddof=1))
        if abs(sample_mean - mean) > MC_SIGMAS * math.sqrt(var / n):
            fails.append(f"{key} mean {sample_mean!r} against {mean!r}")
        if abs(sample_var - var) > MC_SIGMAS * var * math.sqrt(2.0 / n):
            fails.append(f"{key} variance {sample_var!r} against {var!r}")
    snr = ref["snr"]
    snr_se = math.sqrt(
        (sds["plus"] ** 2 + sds["minus"] ** 2) * (1.0 + 0.5 * snr**2) / n
    ) / (sds["plus"] + sds["minus"])
    if abs(empirical_snr - snr) > MC_SIGMAS * snr_se:
        fails.append(f"empirical snr {empirical_snr!r} against {snr!r}")
    half_gap = 0.5 * abs(ref["mean_plus"] - ref["mean_minus"])
    p_plus = 0.5 * math.erfc(half_gap / (sds["plus"] * math.sqrt(2.0)))
    p_minus = 0.5 * math.erfc(half_gap / (sds["minus"] * math.sqrt(2.0)))
    survival = math.exp(-0.5 * point["t"] / float(internal_t1()))
    fidelity = (1.0 - p_plus - p_minus) * survival
    fid_se = survival * math.sqrt((p_plus * (1 - p_plus) + p_minus * (1 - p_minus)) / n)
    if abs(empirical_fidelity - fidelity) > MC_SIGMAS * max(fid_se, 1e-9):
        fails.append(f"empirical fidelity {empirical_fidelity!r} against {fidelity!r}")
    return fails


def parse_shot_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes for state 1, outcomes for state -1) of a shot CSV."""
    header, rows = parse_csv(text)
    if header != ["state", "outcome"]:
        raise ValueError(f"shot CSV header {header}")
    plus = [float(v) for s, v in rows if s == "1"]
    minus = [float(v) for s, v in rows if s == "-1"]
    if len(plus) + len(minus) != len(rows):
        raise ValueError("shot CSV has rows of an unknown state")
    return np.array(plus), np.array(minus)
