"""End-to-end acceptance checks.

Each test prints one PASS line with the measured values after its
assertions hold, so `pytest tests/test_acceptance.py -v -s` gives a
one-line verdict per criterion.  Tolerances follow the documented
bands; random grids are seeded and therefore reproducible.
"""

import math

import numpy as np
from conftest import PHI_DEFAULT
from helpers import (
    input_covariance,
    quad_first_integrals,
    quad_signal_coefficients,
    rel_err,
)

from squeezed_readout import (
    ProbeState,
    SweepFixed,
    SystemParams,
    backaction_report,
    classify,
    fidelity,
    find_peak,
    from_experimental,
    optimal_squeezing,
    readout_point,
    sample_shots,
    snr,
)
from squeezed_readout import sweeps
from squeezed_readout.dynamics import _response

ALPHA_FIG2 = math.sqrt(30.0)


def test_criterion_1_matched_point_snr(t_matched, probe_matched, probe_coherent, params_k2):
    squeezed = snr(t_matched, probe_matched, params_k2, PHI_DEFAULT)
    coherent = snr(t_matched, probe_coherent, params_k2, PHI_DEFAULT)
    assert 3.35 <= squeezed <= 3.75, squeezed
    assert 2.85 <= coherent <= 3.2, coherent
    print(
        f"PASS: criterion 1 - matched-point SNR {squeezed:.4f} in [3.35, 3.75] "
        f"(squeezed), {coherent:.4f} in [2.85, 3.2] (coherent)"
    )


def test_criterion_2_optimal_squeezing_location(t_matched, probe_matched):
    r_star = None
    locations = []
    for u in (0.25, 1.0):
        params = from_experimental(0.15, 2.0, 3.0, u=u)
        fixed = SweepFixed(
            params=params, probe=probe_matched, phi=PHI_DEFAULT, t=t_matched
        )
        peak = find_peak("snr", "r", (0.0, 2.0), fixed)
        r_star = optimal_squeezing(t_matched, params)
        assert abs(peak.location - 0.74) <= 0.02, (u, peak.location)
        assert abs(peak.location - r_star) <= 1e-3, (u, peak.location, r_star)
        locations.append(peak.location)
    print(
        f"PASS: criterion 2 - SNR peaks at r = {locations[0]:.5f} (u=0.25) and "
        f"{locations[1]:.5f} (u=1), both 0.74 +/- 0.02 and within 1e-3 of "
        f"half log(A/B) = {r_star:.5f}"
    )


def test_criterion_3_fidelity_anchors(units):
    results = []
    for kappa_over_chi, t_us in ((1.0, 1.0), (2.0, 0.8)):
        params = from_experimental(0.15, kappa_over_chi, 3.0)
        probe = ProbeState(alpha=ALPHA_FIG2, theta_alpha=0.0, r=0.85, theta_xi=math.pi)
        ti = units.to_internal_time(t_us)
        value = fidelity(
            ti, snr(ti, probe, params, PHI_DEFAULT), params.t1_intrinsic
        )
        assert 0.955 <= value <= 0.99, (kappa_over_chi, t_us, value)
        results.append(value)
    print(
        f"PASS: criterion 3 - fidelity {results[0]:.4f} at (kappa=chi, 1.0 us) and "
        f"{results[1]:.4f} at (kappa=2chi, 0.8 us), both in [0.955, 0.99]"
    )


def test_criterion_4_snr_enhancement_ratio(units):
    params = from_experimental(0.15, 1.0, 3.0)
    ti = units.to_internal_time(0.9)
    squeezed = snr(
        ti,
        ProbeState(alpha=ALPHA_FIG2, r=0.85, theta_xi=math.pi),
        params,
        PHI_DEFAULT,
    )
    coherent = snr(
        ti, ProbeState(alpha=ALPHA_FIG2, r=0.0, theta_xi=math.pi), params, PHI_DEFAULT
    )
    ratio = squeezed / coherent
    assert 1.30 <= ratio <= 1.60, ratio
    print(
        f"PASS: criterion 4 - SNR enhancement {squeezed:.4f}/{coherent:.4f} = "
        f"{ratio:.4f} in [1.30, 1.60] at kappa=chi, 0.9 us"
    )


def test_criterion_5_backaction_enhancement():
    # kappa = 2 and a unit detuning put gamma_pu at 2 g_s^2
    params = SystemParams(kappa=2.0, g_s=math.sqrt(0.5 * 1.7e-4), delta=1.0)
    report = backaction_report(ProbeState(r=1.0), params)
    at_r1 = 1.0 / (report.t1_induced * report.gamma_purcell)
    assert abs(at_r1 - 7.524) / 7.524 <= 0.005, at_r1
    report = backaction_report(ProbeState(r=0.0), params)
    assert report.t1_induced == 1.0 / (2.0 * report.gamma_purcell)
    print(
        f"PASS: criterion 5 - induced relaxation {at_r1:.6f} gamma_pu at r=1 "
        f"(7.524 +/- 0.5%), exactly 2 gamma_pu at r=0"
    )


def test_criterion_6_phase_structure(t_matched, params_k2):
    max_dev_snr = 0.0
    max_dev_fid = 0.0
    for u in (0.25, 1.0):
        params = from_experimental(0.15, 2.0, 3.0, u=u)
        for delta_theta in np.linspace(-math.pi, math.pi, 400, endpoint=False):
            values = []
            for shift in (0.0, math.pi):
                probe = ProbeState(
                    alpha=10.0,
                    theta_alpha=0.0,
                    r=0.74,
                    theta_xi=2.0 * (PHI_DEFAULT - float(delta_theta) - shift),
                )
                s = snr(t_matched, probe, params, PHI_DEFAULT)
                values.append((s, fidelity(t_matched, s, params.t1_intrinsic)))
            max_dev_snr = max(max_dev_snr, abs(values[0][0] - values[1][0]))
            max_dev_fid = max(max_dev_fid, abs(values[0][1] - values[1][1]))
    assert max_dev_snr <= 1e-10, max_dev_snr
    assert max_dev_fid <= 1e-10, max_dev_fid

    grid = np.linspace(-math.pi, math.pi, 400)
    snr_values = [
        snr(
            t_matched,
            ProbeState(alpha=10.0, r=0.74, theta_xi=2.0 * (PHI_DEFAULT - float(d))),
            params_k2,
            PHI_DEFAULT,
        )
        for d in grid
    ]
    best = float(grid[int(np.argmax(snr_values))])
    distance = abs(math.remainder(best, math.pi))
    assert distance < 1e-9, (best, distance)

    # joint optima over all three phases on an 8^3 grid obey the single
    # combined condition 2 theta_alpha - theta_xi = pi (mod 2 pi)
    angles = [2.0 * math.pi * k / 8.0 for k in range(8)]
    table = []
    for theta_alpha in angles:
        for theta_xi in angles:
            probe = ProbeState(
                alpha=10.0, theta_alpha=theta_alpha, r=0.74, theta_xi=theta_xi
            )
            for phi in angles:
                table.append(
                    (
                        snr(t_matched, probe, params_k2, phi),
                        theta_alpha,
                        theta_xi,
                    )
                )
    top = max(value for value, _, _ in table)
    optima = [row for row in table if row[0] >= top * (1.0 - 1e-9)]
    assert optima
    for _, theta_alpha, theta_xi in optima:
        residual = abs(
            math.remainder(2.0 * theta_alpha - theta_xi - math.pi, 2.0 * math.pi)
        )
        assert residual < 1e-9, (theta_alpha, theta_xi, residual)
    print(
        "PASS: criterion 6 - mismatch curves pi-periodic to "
        f"{max(max_dev_snr, max_dev_fid):.2e} (u=0.25 and u=1), grid argmax "
        f"{distance:.1e} from a multiple of pi, {len(optima)} joint phase "
        "optima all satisfy 2*theta_alpha - theta_xi = pi (mod 2 pi)"
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(20240824)
    n = 100000
    worst = 0.0
    for index in range(50):
        kappa = float(rng.uniform(0.5, 4.0))
        t = float(rng.uniform(0.05, 3.0))
        u = float(rng.uniform(0.1, 1.0))
        params = SystemParams(chi_s=1.0, kappa=kappa, vacuum_weight=u)
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        if index % 2 == 0:
            # half the grid pins the mismatch to a multiple of pi/2,
            # where the two outcome variances coincide
            theta_xi = 2.0 * (phi - 0.5 * math.pi * int(rng.integers(0, 4)))
        else:
            theta_xi = float(rng.uniform(0.0, 2.0 * math.pi))
        probe = ProbeState(
            alpha=float(rng.uniform(0.0, 12.0)),
            theta_alpha=float(rng.uniform(0.0, 2.0 * math.pi)),
            r=float(rng.uniform(0.0, 2.0)),
            theta_xi=theta_xi,
        )
        seed = int(rng.integers(0, 2**63))

        batch = sample_shots(n, t, probe, params, phi, seed)
        result = classify(batch)

        point = readout_point(t, probe, params, phi)
        means = {}
        sds = {}
        for sigma, outcomes, mean, var in (
            (+1, batch.outcomes_plus, point.mean_plus, point.variance_plus),
            (-1, batch.outcomes_minus, point.mean_minus, point.variance_minus),
        ):
            means[sigma], sds[sigma] = mean, math.sqrt(var)
            sample_mean = float(np.mean(outcomes))
            sample_var = float(np.var(outcomes, ddof=1))
            assert abs(sample_mean - mean) <= 5.0 * math.sqrt(var / n), (index, sigma)
            assert abs(sample_var - var) <= 5.0 * var * math.sqrt(2.0 / n), (
                index,
                sigma,
            )

        analytic_snr = point.snr
        sd_sum = sds[+1] + sds[-1]
        snr_se = (
            math.sqrt((sds[+1] ** 2 + sds[-1] ** 2) * (1.0 + 0.5 * analytic_snr**2) / n)
            / sd_sum
        )
        assert abs(result.empirical_snr - analytic_snr) <= 5.0 * snr_se, index
        worst = max(worst, abs(result.empirical_snr - analytic_snr) / snr_se)

        # expected error rates of the midpoint threshold, one per
        # eigenvalue; with equal variances their sum reduces to the
        # erfc(SNR/sqrt(2)) of the analytic fidelity convention
        half_gap = 0.5 * abs(means[+1] - means[-1])
        p_plus = 0.5 * math.erfc(half_gap / (sds[+1] * math.sqrt(2.0)))
        p_minus = 0.5 * math.erfc(half_gap / (sds[-1] * math.sqrt(2.0)))
        survival = math.exp(-0.5 * t / params.t1_intrinsic)
        analytic_fid = (1.0 - p_plus - p_minus) * survival
        if index % 2 == 0:
            convention = survival * math.erf(analytic_snr / math.sqrt(2.0))
            assert abs(convention - analytic_fid) <= 1e-12
        fid_se = survival * math.sqrt(
            (p_plus * (1.0 - p_plus) + p_minus * (1.0 - p_minus)) / n
        )
        assert abs(result.empirical_fidelity - analytic_fid) <= 5.0 * max(
            fid_se, 1e-9
        ), index

    worst_coef = 0.0
    for _ in range(100):
        chi = float(rng.uniform(0.5, 2.0))
        kappa = chi * float(rng.uniform(0.5, 4.0))
        t = float(rng.uniform(0.1, 3.0)) / chi
        ref_f, ref_g = quad_first_integrals(0.5 * kappa, chi, t)
        ref_a, ref_b = quad_signal_coefficients(kappa, chi, t)
        # the model's route: chi_s = 1 internally, F, G, A and B scaled back by 1/chi_s
        big_f, big_g, a_coef, b_coef = (v / chi for v in _response(kappa / chi, chi * t))
        for value, reference in (
            (big_f, ref_f),
            (big_g, ref_g),
            (a_coef, ref_a),
            (b_coef, ref_b),
        ):
            worst_coef = max(worst_coef, rel_err(value, reference))
        assert worst_coef <= 1e-9, (chi, kappa, t, worst_coef)
    print(
        "PASS: criterion 7 - Monte Carlo moments/SNR/fidelity within 5 SE on 50 "
        f"random points at n=1e5 (worst SNR pull {worst:.2f} SE); closed-form "
        f"F, G, A, B within {worst_coef:.2e} <= 1e-9 of quadrature on 100 random "
        "(kappa, chi, t)"
    )


def test_criterion_8_degeneracies_and_limits(t_matched, params_k2):
    # unsqueezed probes cannot depend on the squeezing phase
    base_probe = ProbeState(alpha=10.0, theta_alpha=0.0, r=0.0, theta_xi=math.pi)
    reference = snr(t_matched, base_probe, params_k2, PHI_DEFAULT)
    for theta_xi in np.linspace(-math.pi, math.pi, 17):
        probe = ProbeState(alpha=10.0, theta_alpha=0.0, r=0.0, theta_xi=float(theta_xi))
        assert snr(t_matched, probe, params_k2, PHI_DEFAULT) == reference

    dark = ProbeState(alpha=0.0, r=0.74, theta_xi=math.pi)
    dark_snr = snr(t_matched, dark, params_k2, PHI_DEFAULT)
    assert dark_snr == 0.0
    assert fidelity(t_matched, dark_snr, params_k2.t1_intrinsic) == 0.0

    # the cubic coefficient approximation B = kappa chi t^3 / 6 carries a
    # relative error of about kappa t / 4, so the joint 1% claim needs a
    # slow cavity; the time expansion of A is much less sensitive
    slow = SystemParams(chi_s=1.0, kappa=0.2)
    worst_small_t = 0.0
    for t in (0.01, 0.03, 0.1):
        a_coef, b_coef = _response(slow.kappa, t)[2:]
        err_a = rel_err(t - 0.5 * slow.kappa * t**2, a_coef)
        err_b = rel_err(slow.kappa * slow.chi_s * t**3 / 6.0, b_coef)
        assert err_a <= 0.01, (t, err_a)
        assert err_b <= 0.01, (t, err_b)
        worst_small_t = max(worst_small_t, err_a, err_b)
    for kappa in (1.0, 2.0):
        params = SystemParams(chi_s=1.0, kappa=kappa)
        for t in (0.01, 0.03, 0.1):
            a_coef = _response(params.kappa, t)[2]
            assert rel_err(t - 0.5 * kappa * t**2, a_coef) <= 0.01, (kappa, t)
    fast = SystemParams(chi_s=1.0, kappa=2.0)
    for t in (0.02, 0.05, 0.1):
        b_coef = _response(fast.kappa, t)[3]
        scaled = rel_err(fast.kappa * t**3 / 6.0, b_coef) / (fast.kappa * t / 4.0)
        assert 0.8 <= scaled <= 1.2, (t, scaled)

    rng = np.random.default_rng(31)
    worst_det = 0.0
    for _ in range(1000):
        probe = ProbeState(
            alpha=float(rng.uniform(0.0, 12.0)),
            r=float(rng.uniform(0.0, 2.0)),
            theta_xi=float(rng.uniform(-math.pi, math.pi)),
        )
        worst_det = max(worst_det, abs(input_covariance(probe).determinant - 0.25))
    assert worst_det <= 0.25 * 1e-12, worst_det
    print(
        "PASS: criterion 8 - r=0 results squeezing-phase independent, alpha=0 "
        f"gives SNR=0 and fidelity=0, small-t expansions within {worst_small_t:.4f} "
        "<= 1% for chi t <= 0.1 at kappa = 0.2 chi (B error scales as kappa t / 4), "
        f"covariance purity |det - 1/4| <= {worst_det:.2e} on 1000 random probes"
    )


def _fig2_fixed(kappa_over_chi: float, r: float) -> SweepFixed:
    """Fig2's operating point at squeezing r; the time is the swept variable."""
    params = from_experimental(0.15, kappa_over_chi, 3.0)
    probe = ProbeState(alpha=ALPHA_FIG2, theta_alpha=0.0, r=r, theta_xi=math.pi)
    return SweepFixed(params=params, probe=probe, phi=PHI_DEFAULT, t=0.0)


def _t99_us(units, kappa_over_chi: float, r: float) -> float:
    """First time in us at which the fig2 fidelity reaches 0.99; inf past 2 us.

    Fig2's 400-point time grid brackets the first crossing, and a
    bisection on the t kernel of the peak search closes the bracket.
    """
    row_at = sweeps._kernel("fidelity", _fig2_fixed(kappa_over_chi, r), "t")
    times = sweeps._grid(0.0, units.to_internal_time(2.0), 400)
    for lo, hi in zip(times, times[1:]):
        if row_at(hi)[0] >= 0.99:
            while hi - lo > 1e-12 * hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if row_at(mid)[0] >= 0.99 else (mid, hi)
            return units.to_physical_time(hi)
    return math.inf


def test_criterion_9_moderate_squeezing_reads_out_fastest(units):
    # the abstract: moderate squeezing, and only moderate squeezing, reads
    # out at 99% fidelity in under 1 us; fig2 is phase-matched, so the
    # erf convention of the fidelity is exact there
    r_values = [0.2125 * k for k in range(9)]  # 0 to 1.7
    t99 = [_t99_us(units, 2.0, r) for r in r_values]
    best = t99.index(min(t99))
    assert 0 < best < len(r_values) - 1, t99
    assert t99[best] < t99[0] and t99[best] < t99[-1], t99
    assert t99[2] < 1.0 and t99[4] < 1.0, t99  # r = 0.425 and r = 0.85
    # r = 1.7 stays below 0.99 up to 2 us: its fidelity still rises there
    assert t99[-1] == math.inf, t99
    fixed = _fig2_fixed(2.0, r_values[-1])
    bounds = (units.to_internal_time(1e-3), units.to_internal_time(2.0))
    peak = find_peak("fidelity", "t", bounds, fixed)
    assert peak.value < 0.99, peak
    print(
        f"PASS: criterion 9 - at kappa = 2 chi, t99 is shortest at interior "
        f"r = {r_values[best]:.4f} ({t99[best]:.4f} us); r = 0.425 reaches 0.99 at "
        f"{t99[2]:.4f} us and r = 0.85 at {t99[4]:.4f} us, both under 1 us, against "
        f"{t99[0]:.4f} us coherent; r = 1.7 reaches at most {peak.value:.4f} within 2 us"
    )
