"""Single-shot Monte Carlo sampling of integrated homodyne outcomes.

Within the linear model the integrated output is an exact linear map of
four jointly Gaussian inputs: the probe's draws along the two axes of
its squeeze ellipse and the two quadratures of the initial resonator
vacuum.  One shot's outcome is therefore a scalar Gaussian, and each
shot draws one standard normal z and forms, for qubit eigenvalue σ,

    outcome_σ = mean_σ + sd_σ·z

where mean_σ and sd_σ² are the closed-form mean and variance of one
model evaluation (metrics._evaluate), and sd_σ is its root by math.sqrt.
The batch carries this law, and classify thresholds it.  The outcome
arrays are read-only, so classify can keep its one pass over them on the
batch for every later call.

Randomness comes from numpy's counter-based Philox generator.  Shots
are produced in fixed blocks of 8192; block j for σ = +1 uses the
sub-stream jumped(2j) of the master seed and σ = −1 uses jumped(2j+1),
so batches are reproducible bit for bit.  The 2·⌈n/8192⌉ sub-streams
of a batch run on up to os.cpu_count() threads, worker k taking streams
k, k + W, ...; stream s alone fills block s // 2 of side s % 2 (σ = +1,
then −1), so the output does not depend on how many threads ran it.
A batch of one block per eigenstate runs on the calling thread.

Philox is counter-based, so a sub-stream is a counter value:
Philox(key=seed).jumped(k) is the key's generator at counter (0, 0, k, 0)
with an empty buffer.  Each worker builds one Philox(key=seed) and one
Generator per batch and, before each stream, sets the counter to it
and empties the buffer; that state is jumped(k)'s, so the draws are its
draws, without a new generator per stream.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import NumericalError, ValidationError
from .metrics import _evaluate, _fields, _means
from .params import SystemParams, _integer, _real
from .probe import ProbeState

BLOCK_SIZE = 8192
# shots per leaf of classify's pass over a side: 256 KB of float64 deviations
_LEAF = 1 << 15
# shots per eigenstate a batch may hold: 512 MiB of float64 outcomes each
MAX_SHOTS = 2**26
# the threshold policies of classify, and the values of the threshold_policy key
_POLICIES = ("midpoint", "likelihood")
_POLICY_NAMES = " or ".join(map(repr, _POLICIES))
GENERATOR_ID = (
    "numpy-philox4x64-ziggurat/block8192/jumped(2j+{0:plus,1:minus})/one-normal"
)


@dataclass(frozen=True)
class ShotBatch:
    """Paired outcome samples for the two qubit eigenvalues, and their law.

    sample_shots returns the outcome arrays read-only, and classify keeps
    its one pass over them on the batch, outside the fields.  A batch
    rebuilt with writable arrays (dataclasses.replace) is read again on
    every classify call.
    """

    outcomes_plus: np.ndarray
    outcomes_minus: np.ndarray
    seed: int
    t: float
    phi: float
    probe: ProbeState
    params: SystemParams
    law: dict  # {σ: (sd_σ, mean_σ)}, as _shot_map returns it


@dataclass(frozen=True)
class ClassificationResult:
    """Threshold classification of a ShotBatch."""

    threshold: float
    error_plus: float
    error_minus: float
    empirical_snr: float
    empirical_fidelity: float


def _shot_map(model) -> dict:
    """{σ: (sd_σ, mean_σ)}, the law outcome_σ = mean_σ + sd_σ·z of an
    _Evaluation or a ReadoutPoint; sd_σ is the root of its variance."""
    mean_plus, mean_minus = _means(model)
    return {
        1: (math.sqrt(model.variance_plus), mean_plus),
        -1: (math.sqrt(model.variance_minus), mean_minus),
    }


def _seek(bit_generator: np.random.Philox, fresh: dict, stream: int) -> None:
    """Put a Philox(key=seed) into the state of Philox(key=seed).jumped(stream).

    fresh is the generator's state on construction: counter 0 and an empty
    buffer.  jumped(k) adds k·2^128 to the 256-bit counter and empties the
    buffer, so for k < 2^64 its state is counter (0, 0, k, 0) with fresh's
    key and buffer, whatever the generator drew before.
    """
    bit_generator.state = {
        **fresh, "state": {"counter": (0, 0, stream, 0), "key": fresh["state"]["key"]}
    }


def sample_shots(
    n: int,
    t: float,
    probe: ProbeState,
    params: SystemParams,
    phi: float,
    seed: int,
) -> ShotBatch:
    """Generate n single-shot outcomes per qubit eigenvalue at time t."""
    return _sample(n, t, probe, params, phi, seed)


def _sample(n, t, probe, params, phi, seed, model=None) -> ShotBatch:
    """sample_shots from the law of model, an evaluation or a ReadoutPoint there,
    or from one evaluation after the checks."""
    import numpy as np
    count, key = _integer(n), _integer(seed)
    if count is None or count < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    if count > MAX_SHOTS:
        raise ValidationError(
            f"n must be at most MAX_SHOTS = {MAX_SHOTS} per eigenstate, got {n!r}"
        )
    t, phi = _real("t", t, "positive and finite"), _real("phi", phi)
    if key is None or not 0 <= key < 2**128:
        raise ValidationError(f"seed must be an integer in [0, 2^128), got {seed!r}")

    if model is None:
        model = _evaluate("variance", _fields(t, probe, params, phi))
    law = _shot_map(model)
    # sub-stream s fills block s // 2 of side s % 2: σ = +1, then σ = −1
    outcomes, laws = (np.empty(count), np.empty(count)), (law[1], law[-1])
    streams = 2 * -(-count // BLOCK_SIZE)
    # two streams of at most one block each cost less than starting threads
    workers = 1 if count <= BLOCK_SIZE else min(os.cpu_count() or 1, streams)

    def run(worker: int) -> None:
        # one generator per worker, reset to each of its sub-streams
        bit_generator = np.random.Philox(key=key)
        rng, fresh = np.random.Generator(bit_generator), bit_generator.state
        for stream in range(worker, streams, workers):
            block, side = divmod(stream, 2)
            lo = block * BLOCK_SIZE
            view = outcomes[side][lo : lo + BLOCK_SIZE]
            sd, offset = laws[side]
            _seek(bit_generator, fresh, stream)
            # numpy releases the GIL while it draws, scales and shifts; the
            # in-place z *= sd, z += offset rounds like z * sd + offset
            rng.standard_normal(out=view)
            view *= sd
            view += offset

    if workers == 1:
        run(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, range(workers)))  # re-raises a worker's exception
    for x in outcomes:
        x.flags.writeable = False
    return ShotBatch(
        outcomes_plus=outcomes[0],
        outcomes_minus=outcomes[1],
        seed=key,
        t=t,
        phi=phi,
        probe=probe,
        params=params,
        law=law,
    )


def _threshold(policy: str, law: dict) -> float:
    """The cut of the threshold policy between the two Gaussians of law.

    "midpoint" is m = (m₊ + m₋)/2.  "likelihood" is m + s·z, their equal-density
    point nearest m, in units of the wider sd s: with h = (m₋ − m₊)/2s,
    p = (s/sd₊)², q = (s/sd₋)², a = p − q, ℓ = ln(v₊/v₋), b = h(p + q) and
    c = h²a + ℓ, z = −c/(b + sgn(b)·√(4h²pq − aℓ)) is the root of
    a·z² + 2b·z + c = 0 nearest 0.  a and ℓ never share a sign, so neither sum
    cancels (Higham 2002, §1.8).  Equal variances give c = 0, the midpoint's
    own bits, and identical laws a zero denominator and z = 0.
    """
    if policy not in _POLICIES:
        raise ValidationError(f"unknown threshold_policy {policy!r}; expected {_POLICY_NAMES}")
    (sd_plus, m_plus), (sd_minus, m_minus) = law[1], law[-1]
    midpoint = 0.5 * (m_plus + m_minus)
    if policy == "midpoint":
        return midpoint
    s = max(sd_plus, sd_minus)
    h, p, q = 0.5 * (m_minus - m_plus) / s, (s / sd_plus) ** 2, (s / sd_minus) ** 2
    a, ell = p - q, 2.0 * math.log(sd_plus / sd_minus)
    b, c = h * (p + q), h * (h * a) + ell
    root = math.hypot(2.0 * h * math.sqrt(p * q), math.sqrt(-a * ell))
    denominator = b + math.copysign(root, b)
    threshold = midpoint - s * (c / denominator if denominator else 0.0)
    if not math.isfinite(threshold):
        raise NumericalError(
            "likelihood threshold overflows: the means are too large for their variances"
        )
    return threshold


def _squares(leaf, centre: float, d) -> tuple[float, float]:
    """(Σd, Σd²) of the deviations d = leaf − centre, formed in the buffer d."""
    import numpy as np
    np.subtract(leaf, centre, out=d)
    drift = float(np.add.reduce(d))
    np.multiply(d, d, out=d)
    return drift, float(np.add.reduce(d))


def _leaf(leaf, d) -> tuple[int | None, float]:
    """(s, q) of one leaf of m shots: its sum s in counts of 2^-1074, None
    where its pairwise sum S overflows, and the sum q of its squared
    deviations d = x − c, formed in the buffer d, from its mean c = S/m as
    np.mean rounds it.

    Where √Σd² ≤ |c|/4, every x lies within |c|/4 of c and every d is
    exact (Sterbenz), so s = m·c + Σd and q = Σd² − (Σd)²/m, the squares
    about the exact mean; a leaf of one repeated double has q = 0.
    Elsewhere the d round as much as S does, and s = S and q = Σd².
    Squares that overflow about a c rounded far from the mean, as near
    1e300, are taken once more about c + Σd/m, and kept if finite.
    """
    import numpy as np
    m = leaf.size
    total = float(np.add.reduce(leaf))
    centre = total / m
    drift, q = _squares(leaf, centre, d)
    if not math.isfinite(total):
        return None, q
    if q == math.inf and math.isfinite(drift):
        again = centre + drift / m
        redrift, req = _squares(leaf, again, d)
        if math.isfinite(req):
            centre, drift, q = again, redrift, req
    if math.sqrt(q) <= 0.25 * abs(centre):  # False at a NaN
        return m * _units(centre) + _units(drift), max(q - drift * (drift / m), 0.0)
    return _units(total), q


def _units(x: float) -> int:
    """The finite double x as an integer count of 2^-1074, exactly."""
    numerator, denominator = x.as_integer_ratio()
    return numerator << (1075 - denominator.bit_length())


def _ratio(numerator: int, denominator: int) -> float:
    """numerator/denominator rounded once, ±inf past the double range."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def _side(x: np.ndarray, compare, cuts: dict) -> tuple[float, float, dict]:
    """(mean, sd, {policy: number of x with compare(x, cut)}) of one side of a
    batch, in one pass over leaves of _LEAF shots and O(_LEAF) memory.

    While a leaf is in cache the pass counts it against each cut and takes
    its sum and squares (_leaf).  The leaf sums add up exactly, in integer
    counts of 2^-1074, so the mean and each gap between a leaf's mean and
    the mean before it are rounded once, however far below the ulp of the
    mean the gap lies.  The squares merge in index order by Chan, Golub
    and LeVeque (1983): a leaf of m shots whose mean lies δ from the mean
    of the n shots before it adds its squares and δ²·n·m/(n + m), and
    math.fsum sums them once.  A leaf whose sum overflows leaves the mean
    and sd NaN.
    """
    import numpy as np
    deviations = np.empty(min(x.size, _LEAF))
    mask = np.empty(deviations.size, dtype=bool)
    wrong = dict.fromkeys(cuts, 0)
    n, total, finite, squares = 0, 0, True, []
    for lo in range(0, x.size, _LEAF):
        leaf = x[lo : lo + _LEAF]
        m = leaf.size
        for policy, cut in cuts.items():
            compare(leaf, cut, out=mask[:m])
            wrong[policy] += int(np.count_nonzero(mask[:m]))
        leaf_sum, leaf_squares = _leaf(leaf, deviations[:m])
        finite = finite and leaf_sum is not None
        if not finite:  # the counts go on; the moments are lost
            continue
        if n:
            delta = _ratio(leaf_sum * n - total * m, (n * m) << 1074)
            # δ·(δ·f), not δ²·f: finite wherever the term is, as f may be below 1
            squares.append(delta * (delta * (n * m / (n + m))))
        squares.append(leaf_squares)
        n += m
        total += leaf_sum
    if not finite:
        return math.nan, math.nan, wrong
    try:
        squares_sum = math.fsum(squares)
    except OverflowError:  # finite terms whose sum passes the double range
        squares_sum = math.inf
    return _ratio(total, n << 1074), math.sqrt(squares_sum / (n - 1)), wrong


def classify(
    batch: ShotBatch, threshold_policy: str = "midpoint", t1: float | None = None
) -> ClassificationResult:
    """Threshold the batch and report error fractions and empirical SNR.

    threshold_policy "midpoint" places the cut halfway between the two
    means of the batch's law, matching the equal-variance fidelity
    convention; "likelihood" uses the equal-density point of its two
    Gaussians, relevant when squeezing makes the variances unequal.
    The empirical fidelity (1 − error₊ − error₋)·exp(−t/2T₁) uses the
    batch's own t and T₁ = t1 in the unit of t, by default the intrinsic
    T1 of the batch's params; it converges to the analytic
    erf(SNR/√2)·exp(−t/2T₁) for equal-variance Gaussians as n grows.

    Each side is read once (_side) for its mean, its sd and its error
    counts under every policy whose cut is finite.  While both outcome
    arrays are read-only, as sample_shots returns them, the batch keeps
    that result, so a second call, under either policy, reads no outcome.
    """
    import numpy as np
    plus, minus = batch.outcomes_plus, batch.outcomes_minus
    n = min(plus.size, minus.size)
    if n < 2:
        raise ValidationError(
            f"cannot classify a batch of {n} shot(s) per eigenstate; "
            "an empirical SNR needs at least 2"
        )
    if t1 is None:
        t1 = batch.params.t1_intrinsic
    t1 = _real("t1", t1, "positive and finite")
    threshold = _threshold(threshold_policy, batch.law)

    kept = not (plus.flags.writeable or minus.flags.writeable)
    sides = getattr(batch, "_sides", None) if kept else None
    if sides is None:
        cuts = {}
        for policy in _POLICIES:
            try:
                cuts[policy] = _threshold(policy, batch.law)
            except NumericalError:  # raised where that policy is asked for
                pass
        if batch.law[1][1] >= batch.law[-1][1]:
            wrong_plus, wrong_minus = np.less_equal, np.greater
        else:
            wrong_plus, wrong_minus = np.greater_equal, np.less
        # at huge outcomes the sums inside mean and sd overflow; that is
        # reported below as one error, not as numpy warnings and a NaN
        with np.errstate(over="ignore", invalid="ignore"):
            sides = (_side(plus, wrong_plus, cuts), _side(minus, wrong_minus, cuts))
        if kept:
            # not a field, so fields, replace, == and repr do not see it
            object.__setattr__(batch, "_sides", sides)
    (mean_plus, sd_plus, counts_plus), (mean_minus, sd_minus, counts_minus) = sides
    # the exact count divided once by n, as np.mean gives it, without a float sum
    error_plus = counts_plus[threshold_policy] / plus.size
    error_minus = counts_minus[threshold_policy] / minus.size

    separation = abs(mean_plus - mean_minus)
    spread = sd_plus + sd_minus
    # a finite difference needs both means finite, a finite sum both spreads
    if not (math.isfinite(separation) and math.isfinite(spread)):
        raise NumericalError(
            "batch means or standard deviations overflow; empirical SNR is undefined"
        )
    if spread == 0.0:
        raise NumericalError("batch has zero spread; empirical SNR is undefined")
    empirical_snr = separation / spread

    survival = math.exp(-0.5 * batch.t / t1)
    return ClassificationResult(
        threshold=threshold,
        error_plus=error_plus,
        error_minus=error_minus,
        empirical_snr=empirical_snr,
        empirical_fidelity=(1.0 - error_plus - error_minus) * survival,
    )
