"""Shared oracles and model identities for the test suite.

The oracles recompute model quantities through an independent route
(adaptive quadrature, arbitrary precision, the (Q, P)-frame covariance
of the probe) so the closed forms in the package are checked against
something they were not derived from.  The identities at the end
(envelopes, propagator, coefficient rotation, squeezed coherent
displacement, the four-source shot weights) are textbook relations the
tests check the model against; the package itself does not need them.
reference_find_peak takes every point, coarse or golden-section, through
a whole _evaluate: a second route to each peak for the package's
search, which evaluates each point through a kernel that recomputes
only the stages its variable reaches.
reference_render_csv joins each row of a table cell by cell through
_fmt: a second route to the bytes of the package's CSV, which fills one
line template per table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from squeezed_readout import (
    NumericalError,
    PeakResult,
    ProbeState,
    SystemParams,
    ValidationError,
)
from squeezed_readout.metrics import _evaluate, _Fields, _fields
from squeezed_readout.sweeps import _check_range, _fmt, _grid, _with

_QUAD_OPTS = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 200}


def quad_first_integrals(a: float, b: float, t: float) -> tuple[float, float]:
    """(F, G) = integrals of e^{-as}cos(bs), e^{-as}sin(bs) over [0, t]."""
    big_f, _ = quad(lambda s: math.exp(-a * s) * math.cos(b * s), 0.0, t, **_QUAD_OPTS)
    big_g, _ = quad(lambda s: math.exp(-a * s) * math.sin(b * s), 0.0, t, **_QUAD_OPTS)
    return big_f, big_g


def quad_double_integrals(a: float, b: float, t: float) -> tuple[float, float]:
    """(∫₀ᵗF, ∫₀ᵗG) via the swap ∫₀ᵗF(s)ds = ∫₀ᵗ(t−s)f(s)ds."""
    int_f, _ = quad(
        lambda s: (t - s) * math.exp(-a * s) * math.cos(b * s), 0.0, t, **_QUAD_OPTS
    )
    int_g, _ = quad(
        lambda s: (t - s) * math.exp(-a * s) * math.sin(b * s), 0.0, t, **_QUAD_OPTS
    )
    return int_f, int_g


def quad_signal_coefficients(kappa: float, chi: float, t: float) -> tuple[float, float]:
    """(A, B) from the quadrature oracle for the double integrals."""
    int_f, int_g = quad_double_integrals(0.5 * kappa, chi, t)
    return t - kappa * int_f, kappa * int_g


def mp_integrals(a: float, b: float, t: float, dps: int = 60):
    """(F, G, ∫F, ∫G, A, B) from the closed forms in mpmath arbitrary precision.

    A = t − 2a·∫F and B = 2a·∫G.  At a small |zt| = t·|a − ib| the closed
    forms cancel about three digits of ∫G per decade of |zt| below 1, so
    they run with that many digits more than dps; each value is rounded
    once to a double.
    """
    import mpmath as mp

    w = math.hypot(a * t, b * t)
    lost = 3 * max(0, math.ceil(-math.log10(w))) if w > 0.0 else 0
    with mp.workdps(dps + lost):
        am, bm, tm = mp.mpf(a), mp.mpf(b), mp.mpf(t)
        d = am * am + bm * bm
        e = mp.e ** (-am * tm)
        cb, sb = mp.cos(bm * tm), mp.sin(bm * tm)
        big_f = (am - e * (am * cb - bm * sb)) / d
        big_g = (bm - e * (am * sb + bm * cb)) / d
        int_f = (am * tm - am * big_f + bm * big_g) / d
        int_g = (bm * tm - am * big_g - bm * big_f) / d
        values = (big_f, big_g, int_f, int_g, tm - 2 * am * int_f, 2 * am * int_g)
        return tuple(map(float, values))


def mp_outcome_variance(point: _Fields, model, sigma: int, dps: int = 60):
    """(variance, sensitivity) of eigenvalue sigma in mpmath arbitrary precision.

    The variance is ½(e^{−r}a_σ)² + ½(e^{r}b_σ)² + u·(κ/2)(F² + G²) with
    a_σ = A cos δ − σB sin δ, b_σ = A sin δ + σB cos δ and δ = φ − θξ/2,
    from the model's own double response coefficients and the point's
    inputs, all taken as exact.  The sensitivity e^{2r}·|b_σ|·(|A| + |B|)·(3 + |δ|)
    bounds, in units of the double epsilon, what rounding δ and b_σ in
    double precision moves the variance: |b_σ| moves by up to
    ε·(|A| + |B|)·(3 + |δ|), and the variance by 2 sinh 2r·|b_σ| times that.
    It is large against the variance only near the frame where b_σ
    cancels and the anti-squeezed term still counts.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a_coef, b_coef, big_f, big_g = (
            mp.mpf(x) for x in (model.a_coef, model.b_coef, model.big_f, model.big_g)
        )
        r = mp.mpf(point.r)
        delta = mp.mpf(point.phi) - mp.mpf(point.theta_xi) / 2
        a = a_coef * mp.cos(delta) - sigma * b_coef * mp.sin(delta)
        b = a_coef * mp.sin(delta) + sigma * b_coef * mp.cos(delta)
        vacuum = mp.mpf(point.u) * mp.mpf(point.kappa) / 2 * (big_f**2 + big_g**2)
        variance = mp.exp(-2 * r) * a**2 / 2 + mp.exp(2 * r) * b**2 / 2 + vacuum
        sensitivity = mp.exp(2 * r) * abs(b) * (abs(a_coef) + abs(b_coef)) * (3 + abs(delta))
        return float(variance), float(sensitivity)


def mp_likelihood_crossing(law: dict, dps: int = 80) -> float:
    """Equal-density point of the two Gaussians of law = {σ: (sd_σ, mean_σ)}
    nearest their midpoint, in mpmath arbitrary precision.

    Equal densities mean (x − m₊)²/v₊ + ln v₊ = (x − m₋)²/v₋ + ln v₋, a
    quadratic A·x² + B·x + C = 0 in x itself; the textbook roots
    (−B ± √(B² − 4AC))/2A cancel many digits near equal variances and far
    from x = 0, which the working precision absorbs.  sd and mean are
    taken as exact; the root is rounded once to a double.
    """
    import mpmath as mp

    with mp.workdps(dps):
        (sd_plus, m_plus), (sd_minus, m_minus) = (
            tuple(map(mp.mpf, law[sigma])) for sigma in (1, -1)
        )
        v_plus, v_minus = sd_plus**2, sd_minus**2
        a = 1 / v_plus - 1 / v_minus
        b = -2 * (m_plus / v_plus - m_minus / v_minus)
        c = m_plus**2 / v_plus - m_minus**2 / v_minus + mp.log(v_plus / v_minus)
        midpoint = (m_plus + m_minus) / 2
        if a == 0:
            return float(-c / b)
        root = mp.sqrt(b * b - 4 * a * c)
        crossings = ((-b + root) / (2 * a), (-b - root) / (2 * a))
        return float(min(crossings, key=lambda x: abs(x - midpoint)))


def policy_error_rates(threshold: float, law: dict) -> tuple[float, float]:
    """(p₊, p₋), the exact error rates of a cut at threshold on the two
    Gaussians of law = {σ: (sd_σ, mean_σ)}.

    An outcome of σ is wrong on the far side of the cut from its own mean,
    the side classify counts: the cut itself is wrong for σ = +1 when
    m₊ ≥ m₋ and for σ = −1 otherwise, a set of probability zero here.
    """
    (sd_plus, m_plus), (sd_minus, m_minus) = law[1], law[-1]
    side = 1.0 if m_plus >= m_minus else -1.0
    p_plus = 0.5 * math.erfc(side * (m_plus - threshold) / (sd_plus * math.sqrt(2.0)))
    p_minus = 0.5 * math.erfc(side * (threshold - m_minus) / (sd_minus * math.sqrt(2.0)))
    return p_plus, p_minus


def backaction_rates(params: SystemParams, r: float) -> tuple[float, float]:
    """(γ_pu, 2·γ_pu·cosh 2r) for the Purcell rate γ_pu = κ·(g_s/Δ)²."""
    gamma_pu = params.kappa * (params.g_s / params.delta) ** 2
    return gamma_pu, 2.0 * gamma_pu * math.cosh(2.0 * r)


def rel_err(value: float, reference: float, floor: float = 1e-300) -> float:
    return abs(value - reference) / max(abs(reference), floor)


@dataclass(frozen=True)
class QuadratureStats:
    """First and second moments of a single-mode Gaussian state."""

    mean_q: float
    mean_p: float
    var_q: float
    var_p: float
    cov_qp: float

    @property
    def determinant(self) -> float:
        """det of the covariance matrix; 1/4 for a pure Gaussian state."""
        return self.var_q * self.var_p - self.cov_qp**2


def input_means(alpha: float, theta_alpha: float) -> tuple[float, float]:
    """(⟨Q⟩, ⟨P⟩) = √2α·(cos θα, sin θα), the probe's means in the unrotated frame."""
    root = math.sqrt(2.0) * alpha
    return root * math.cos(theta_alpha), root * math.sin(theta_alpha)


def input_covariance(probe: ProbeState) -> QuadratureStats:
    """Full Gaussian moments of the probe in the unrotated (Q, P) frame.

    var_q = ½(cosh 2r − cos θξ · sinh 2r)
    var_p = ½(cosh 2r + cos θξ · sinh 2r)
    cov   = −½ sin θξ · sinh 2r

    The differences cancel their digits at large r; meant for r ≲ 2.
    """
    mq, mp = input_means(probe.alpha, probe.theta_alpha)
    ch, sh = math.cosh(2.0 * probe.r), math.sinh(2.0 * probe.r)
    return QuadratureStats(
        mean_q=mq,
        mean_p=mp,
        var_q=0.5 * (ch - math.cos(probe.theta_xi) * sh),
        var_p=0.5 * (ch + math.cos(probe.theta_xi) * sh),
        cov_qp=-0.5 * math.sin(probe.theta_xi) * sh,
    )


def rotated_moments(r: float, theta_xi: float, phi: float) -> tuple[float, float, float]:
    """Var(Q′), Var(P′), Cov(Q′, P′) of the probe at LO angle phi.

    Var(Q′) = ½(cosh 2r − cos d · sinh 2r)
    Var(P′) = ½(cosh 2r + cos d · sinh 2r)
    Cov     = ½ sin d · sinh 2r,   d = 2φ − θξ

    The (Q′, P′)-frame form of the moments, which the outcome variance
    A²·Var(Q′) + B²·Var(P′) ± 2AB·Cov reads; its differences cancel their
    digits at large r, so it is meant for r ≲ 2.
    """
    d = 2.0 * phi - theta_xi
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return 0.5 * (ch - math.cos(d) * sh), 0.5 * (ch + math.cos(d) * sh), 0.5 * sh * math.sin(d)


def envelopes(t: float, params: SystemParams) -> tuple[float, float]:
    """(f, g) = e^{−κt/2}·(cos χs·t, sin χs·t), the damped envelopes."""
    if not math.isfinite(t) or t < 0.0:
        raise ValidationError(f"t must be nonnegative and finite, got {t!r}")
    e = math.exp(-0.5 * params.kappa * t)
    return e * math.cos(params.chi_s * t), e * math.sin(params.chi_s * t)


def propagator(t: float, params: SystemParams, sigma: int) -> np.ndarray:
    """2x2 matrix e^{Mt} = f·I − σ·i·g·τ_y acting on (Q, P), σ = ±1."""
    f, g = envelopes(t, params)
    if sigma not in (1, -1):
        raise ValidationError(f"sigma must be +1 or -1, got {sigma!r}")
    return np.array([[f, -sigma * g], [sigma * g, f]])


def rotated_coefficients(
    a_coef: float, b_coef: float, delta_theta: float
) -> tuple[float, float]:
    """(B', A') after rotating the coefficient pair by delta_theta.

    B' = B·cos Δθ + A·sin Δθ,  A' = −B·sin Δθ + A·cos Δθ.
    The squared sum A'² + B'² is invariant.
    """
    c = math.cos(delta_theta)
    s = math.sin(delta_theta)
    return b_coef * c + a_coef * s, -b_coef * s + a_coef * c


def displacement_from_squeezed_coherent(
    gamma: complex, r: float, theta_xi: float
) -> complex:
    """Displacement of D(α)S(ξ)|0⟩ equal to the squeezed coherent state S(ξ)D(γ)|0⟩.

    α = γ·cosh r − γ*·sinh r·e^{iθξ}.  For real γ and θξ = π this reduces
    to α = γ·e^{r}.
    """
    if not math.isfinite(r) or r < 0.0:
        raise ValidationError(f"r must be nonnegative and finite, got {r!r}")
    return gamma * math.cosh(r) - gamma.conjugate() * math.sinh(r) * cmath.exp(
        1j * theta_xi
    )


def evaluation(t: float, probe: ProbeState, params: SystemParams, phi: float):
    """The model at one point where readout_point raises.

    One _evaluate under the metric variance, which forms no contrast and
    no SNR, so its means and variances stay available at t = 0, where
    the SNR is undefined, and at an alpha past the contrast overflow.
    """
    return _evaluate("variance", _fields(t, probe, params, phi))


def reference_shot_weights(point: _Fields) -> dict:
    """{σ: (w_σ, mean_σ)}: the outcome as w_σ·z + mean_σ of four standard normals.

    z holds the probe's draws along the axes of its squeeze ellipse, whose
    standard deviations are e^{∓r}/√2, and the two quadratures of the
    initial resonator vacuum, of variance u/2 each:

        w_σ = ( e^{−r}(A cos δ − σB sin δ)/√2,  e^{r}(A sin δ + σB cos δ)/√2,
                v(F cos φ + σG sin φ),  v(F sin φ − σG cos φ) )

    with δ = φ − θξ/2 and v = √(u·κ/2).  Every LO angle φ reads the same
    four physical draws, so one z gives joint samples of two quadratures.
    """
    model = _evaluate("variance", point)
    a_coef, b_coef, big_f, big_g = model.a_coef, model.b_coef, model.big_f, model.big_g
    delta = point.phi - 0.5 * point.theta_xi
    cd, sd = math.cos(delta), math.sin(delta)
    c, s = math.cos(point.phi), math.sin(point.phi)
    squeezed, anti = math.exp(-point.r) / math.sqrt(2.0), math.exp(point.r) / math.sqrt(2.0)
    v = math.sqrt(0.5 * point.u * point.kappa)
    maps = {}
    for sigma, mean in ((1, model.mean_plus), (-1, model.mean_minus)):
        weights = (
            squeezed * (a_coef * cd - sigma * b_coef * sd),
            anti * (a_coef * sd + sigma * b_coef * cd),
            v * (big_f * c + sigma * big_g * s),
            v * (big_f * s - sigma * big_g * c),
        )
        maps[sigma] = (weights, mean)
    return maps


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def reference_find_peak(metric, variable, bounds, fixed) -> PeakResult:
    """find_peak with every point, coarse or golden-section, a whole evaluation.

    The points are evaluated in order, so the first failing point raises
    its own error.
    """
    lo, hi = _check_range("bounds", bounds)
    base = _fields(fixed.t, fixed.probe, fixed.params, fixed.phi)

    def evaluate(x: float) -> float:
        value = _evaluate(metric, _with(fixed, base, variable, x)).value
        if value is None:
            raise NumericalError(
                f"metric {metric!r} is undefined inside the bounds at {x!r}"
            )
        if not math.isfinite(value):
            raise NumericalError(f"metric {metric!r} is not finite at {x!r}")
        return value

    xs = _grid(lo, hi, 32)
    ys = [evaluate(x) for x in xs]

    spread = max(ys) - min(ys)
    scale = max(1.0, abs(max(ys)), abs(min(ys)))
    if spread <= 1e-12 * scale:
        return PeakResult(location=lo, value=ys[0], flat=True)

    n_max = sum(
        1
        for i in range(len(ys))
        if (i == 0 or ys[i] > ys[i - 1]) and (i == len(ys) - 1 or ys[i] > ys[i + 1])
    )
    if n_max > 1:
        raise NumericalError(
            f"metric {metric!r} has {n_max} local maxima on {bounds!r}; "
            "golden-section search needs a unimodal range"
        )

    best = max(range(len(ys)), key=lambda i: ys[i])
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, len(xs) - 1)]

    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = evaluate(c), evaluate(d)
    while h > 1e-6:
        if yc > yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INVPHI2 * h
            yc = evaluate(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INVPHI * h
            yd = evaluate(d)
    location = 0.5 * (a + b)
    return PeakResult(location=location, value=evaluate(location), flat=False)


def reference_render_csv(meta: dict, columns: tuple[str, ...], rows) -> str:
    """The CSV of a table, each row joined from _fmt of each of its cells."""
    lines = [f"# {key} = {_fmt(meta[key])}" for key in sorted(meta)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(map(_fmt, row)))
    return "\n".join(lines) + "\n"
