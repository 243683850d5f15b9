"""Slow, independent reference implementations that tests compare against.

``buckets_reference`` is the exponent-bucket kernel that
``montecarlo._bucketed`` speeds up: it converts each fraction half to
float before summing it.  ``form_reference`` reads its buckets as the
exact-sum form that ``montecarlo._exact`` computes in two tiers.
``run_replication_prefix`` is the prefix engine that ``run_replication``
streams: it holds the whole path and rescans each prefix at every
checkpoint.  It sums with ``form_reference`` and binds ``stream`` and the
other primitives at import, so a test may patch them in
``heavytrim.montecarlo`` without touching the oracle.
``max_deviation_tail_exact`` gives maximal-deviation probabilities of small
lattice laws in exact rational arithmetic, for checking that the bounds
dominate truth.
``reference_quantile`` is the scalar generalized inverse that each law's
``sample_array`` vectorizes.
``bernstein_max_tail`` is Bernstein's maximal inequality in its general
form, of which ``bounds.bernstein_relative`` is the bounded nonnegative case.
``rebase_summable`` is the rebasing lemma: it carries a weight with a
summable reciprocal from base-a to base-b logarithmic indexing, as
acceptance criterion 4 checks; no plan or run calls it.
"""

import bisect
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from heavytrim.bounds import BoundsError, ProbabilityBound
from heavytrim.distributions import (LOG_FLOAT_MAX, Distribution, LogTail,
                                     ParetoTail, SquareStep, Value)
from heavytrim.montecarlo import (ConvergenceTrace, ExperimentConfig, TraceRow,
                                  _Form, _largest, _rounded, stream)
from heavytrim.trimming import SummableFunction, TrimmingError

_KEYS = 4096
_LOW26 = np.uint64((1 << 26) - 1)
_BLOCK = 1 << 16  # bincount stays exact up to 2**27 entries per call


def buckets_reference(values: np.ndarray) -> np.ndarray:
    """The (3, 4096) integer form of a sum: per sign-and-exponent key, the
    entry count and the sums of the high and of the low 26 fraction bits,
    computed through ``uint64 -> float64`` conversions of the halves."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    out = np.zeros((3, _KEYS), dtype=np.int64)
    for start in range(0, len(bits), _BLOCK):
        chunk = bits[start:start + _BLOCK]
        key = (chunk >> np.uint64(52)).view(np.int64)
        out[0] += np.bincount(key, minlength=_KEYS)
        for row, half in ((1, chunk >> np.uint64(26)), (2, chunk)):
            weights = (half & _LOW26).astype(np.float64)
            out[row] += np.bincount(key, weights, _KEYS).astype(np.int64)
    return out


def form_reference(values: np.ndarray) -> _Form:
    """The exact sum of a float64 array as a ``montecarlo._Form``, read off
    ``buckets_reference``."""
    total, infs, nan = 0, [0, 0], 0
    count, high, low = buckets_reference(values)
    for key in np.flatnonzero(count).tolist():
        n, fraction = int(count[key]), (int(high[key]) << 26) + int(low[key])
        exponent, sign = key & 2047, key >> 11
        if exponent == 2047:  # inf, or nan with fraction bits
            infs[sign] += n
            nan += fraction
            continue
        if exponent:  # normal numbers carry the implicit leading bit
            fraction = (fraction + (n << 52)) << (exponent - 1)
        total += -fraction if sign else fraction
    return _Form(total, *infs, nan, int(count.sum()))


def run_replication_prefix(config: ExperimentConfig, replication: int) -> ConvergenceTrace:
    """``run_replication`` computed on the held path, prefix by prefix."""
    x = config.distribution.sample_array(stream(config.seed, replication).random(config.n_max))
    rows = []
    for p in config.points:
        prefix = x[: p.n]
        over_mask = prefix > p.threshold
        path = form_reference(prefix)
        truncated = _rounded(form_reference(prefix[~over_mask]))
        trimmed = _rounded(path - form_reference(_largest(prefix, p.trim)))
        rows.append(TraceRow(
            n=p.n,
            untrimmed=_rounded(path),
            trimmed=trimmed,
            truncated=truncated,
            count_gt=int(np.count_nonzero(over_mask)),
            count_ge=int(np.count_nonzero(prefix >= p.threshold)),
            ratio_trimmed=trimmed / p.scale,
            ratio_truncated=truncated / p.scale,
        ))
    return ConvergenceTrace(replication=replication, rows=tuple(rows))


def _as_fractions(support: Sequence, probs: Sequence) -> tuple[list[Fraction], list[Fraction]]:
    sup = [Fraction(v) for v in support]
    pr = [Fraction(p) for p in probs]
    if len(sup) != len(pr) or not sup:
        raise BoundsError("support and probs must be equally sized and nonempty")
    if any(p < 0 for p in pr) or sum(pr) != 1:
        raise BoundsError("probs must be nonnegative and sum to exactly 1; "
                          "pass Fractions or strings for exactness")
    return sup, pr


def max_deviation_tail_exact(support: Sequence, probs: Sequence, n: int,
                             deviation) -> Fraction:
    """P(max over k <= n of |Z_k - E Z_k| >= deviation), exactly.

    Dynamic programming over the distribution of the prefix sum among
    paths that have not yet deviated; the absorbed mass accumulates the
    answer.  All arithmetic is rational, so the result is exact whenever
    support, probs and deviation are rational.
    """
    sup, pr = _as_fractions(support, probs)
    dev = Fraction(deviation)
    if dev <= 0:
        raise BoundsError("deviation must be positive")
    mean = sum(v * p for v, p in zip(sup, pr))
    alive: dict[Fraction, Fraction] = {Fraction(0): Fraction(1)}
    absorbed = Fraction(0)
    for k in range(1, n + 1):
        step_mean = k * mean
        nxt: dict[Fraction, Fraction] = {}
        for s, q in alive.items():
            for v, p in zip(sup, pr):
                if p == 0:
                    continue
                z = s + v
                if abs(z - step_mean) >= dev:
                    absorbed += q * p
                else:
                    nxt[z] = nxt.get(z, Fraction(0)) + q * p
        alive = nxt
    return absorbed



def reference_quantile(dist: Distribution, u: float) -> float:
    """inf{x : F(x) >= u} for one variate u in [0, 1), in Python floats.

    A value beyond the float range, or a level above the mass a partial
    table covers, gives ``inf``, as ``sample_array`` draws it.
    """
    if isinstance(dist, ParetoTail):
        try:
            return dist.scale * (1.0 - u) ** (-1.0 / dist.alpha)
        except OverflowError:
            return math.inf
    if isinstance(dist, LogTail):
        if u <= 1.0 - 1.0 / math.log(dist.threshold):
            return dist.threshold
        e = 1.0 / (1.0 - u)
        return math.exp(e) if e <= LOG_FLOAT_MAX else math.inf
    if isinstance(dist, SquareStep):
        # atom k = i + 1 sits at 2**(k*k), which no float holds from k = 32 on
        k = bisect.bisect_left(dist._levels, u) + 1
        return 2.0 ** (k * k) if k <= dist.max_index and k * k < 1024 else math.inf
    xs, fs = dist.xs, dist.fs  # a Tabulated law
    if u > fs[-1]:
        return math.inf
    if u <= fs[0]:
        return xs[0]
    # fs[i - 1] < u <= fs[i], so a linear segment here is not flat
    i = bisect.bisect_left(fs, u)
    if dist.kinds[i] == "jump":
        return xs[i]
    return xs[i - 1] + (u - fs[i - 1]) * (xs[i] - xs[i - 1]) / (fs[i] - fs[i - 1])


def bernstein_max_tail(deviation: float, variance: float,
                       amplitude: float) -> ProbabilityBound:
    """Bound on P(max over prefixes of |sum - mean| >= deviation).

    Evaluates ``2 exp(-t**2 / (2 V + (2/3) M t))`` for independent
    summands with variance total V, each within M of its mean, at
    deviation t.
    """
    if not deviation > 0.0:
        raise BoundsError(f"deviation must be positive, got {deviation}")
    if variance < 0.0:
        raise BoundsError(f"variance must be nonnegative, got {variance}")
    if not amplitude > 0.0:
        raise BoundsError(f"amplitude must be positive, got {amplitude}")
    denom = 2.0 * variance + (2.0 / 3.0) * amplitude * deviation
    return ProbabilityBound(math.log(2.0) - deviation * deviation / denom)


class RebasedSummable(Value):
    """Minimum of a summable function over a shifted, rescaled index window.

    ``rebased(n) = min over j in 0..span of base(floor(n * log_a(b)) + j)``
    with ``span = ceil(log_a(b))``.  The construction guarantees
    ``rebased(floor(log_b(m))) <= base(floor(log_a(m)))`` for every m with
    ``floor(log_b m) >= 1``, and keeps the reciprocal sum convergent.
    Indices below 1 are clamped to 1.  Like the base, it is evaluated in log
    space only; log is monotone, so the minimum commutes with it and the
    inequality holds exactly between the logs.
    """

    _fields = ("base", "log_ratio", "span")

    def __init__(self, base: SummableFunction, log_ratio: float, span: int):
        # log_ratio is log_a(b)
        self.__dict__.update(base=base, log_ratio=log_ratio, span=span)

    def log_value(self, n: int | float) -> float:
        """log rebased(n)."""
        if n < 1:
            raise TrimmingError(f"argument must be at least 1, got {n}")
        anchor = math.floor(n * self.log_ratio)
        return min(self.base.log_value(max(1, anchor + j)) for j in range(self.span + 1))


def rebase_summable(base: SummableFunction, a: float, b: float) -> RebasedSummable:
    """Carry a summable function from base-``a`` to base-``b`` logarithmic indexing.

    Returns w with ``w(floor(log_b m)) <= base(floor(log_a m))`` for all
    integers m with ``floor(log_b m) >= 1``, itself with a summable
    reciprocal.
    """
    if not a > 1.0 or not b > 1.0:
        raise TrimmingError(f"both log bases must exceed 1, got a={a}, b={b}")
    ratio = math.log(b) / math.log(a)
    return RebasedSummable(base, ratio, math.ceil(ratio))
