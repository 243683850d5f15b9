"""Seeded single-path Monte Carlo for trimmed, truncated and raw sums.

Each replication follows one path drawn from its own counter-based stream,
``stream(seed, replication)``, and evaluates it at every checkpoint,
preserving the almost-sure coupling the limit statements are about; fresh
samples per checkpoint would only ever probe the weak law.  The path is
drawn in chunks ending at checkpoints and never held whole.  Each chunk
is split at the floor of one pool: the draws above it, held negated in a
buffer of ``2 max b(n)`` floats and trimmed by partitioning it in place,
so that it keeps the ``max b(n)`` largest draws and every draw above the
threshold.  Sums are exact: the bulk, every draw at or below the floor,
is summed at once and a pool draw when it leaves the pool, by error-free
extraction or as integers per float exponent, into one integer rounded
once, so every sum equals ``math.fsum`` of the same entries bit for bit
wherever fsum returns.  At a checkpoint one evaluator adds the pool's
form to S_n and leaves two of its slices out of the truncated and the
trimmed sum; ``trimmed_sum`` and ``truncated_sum`` pass an array through
it as a pool, so a nan, which sorts last, is neither trimmed nor above a
cutoff and makes either sum nan.  At n = 1e6 a replication peaks at
0.6-6 MB (tracemalloc) across the built-in laws.

Plan values (``t(n)``, ``d(n)``, ``b(n)``, the expected exceedances and
their allowance) depend on n alone, so they live once per experiment in
``ExperimentConfig.points``; a trace holds only what its path produced,
and the consumers that pair its rows with that table take the run's one
config.  Aggregation keeps what the artifacts show: per-checkpoint
quantiles of the two ratios and of the raw sum's running max over its scale;
``expcli`` formats them, as it formats every artifact.

A draw past the float range surfaces as ``inf``, and S_n with it, which
any sufficient trim or truncation drops again.  A finite sum past the
float range reads +-inf too, but its ratio to d(n) is taken from the log
of its exact total, so it stays finite.
"""

from __future__ import annotations

import math
import operator
import os
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import Distribution, Value, units_to_float
from .trimming import PlanError, PlanPoint, TrimmingPlan, check_plan

__all__ = [
    "ExperimentConfig",
    "TraceRow",
    "ConvergenceTrace",
    "trimmed_sum",
    "truncated_sum",
    "exceedance_counts",
    "stream",
    "run_replication",
    "simulate",
    "workers",
    "aggregate",
    "AggregateSummary",
    "RATIO_QUANTILES",
    "MonteCarloError",
]

RATIO_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)


class MonteCarloError(ValueError):
    pass


# A float64 is 1 sign bit, 11 exponent bits and 52 fraction bits.  Its top
# 12 bits key one of 4096 buckets; keys 2047 and 4095 hold +-inf and nan.
# A 26-bit fraction half set into the top fraction bits of 2.0**26 gives
# the float 2**26 + half exactly, so bit operations make the weights.
_HIGH26 = np.uint64(((1 << 26) - 1) << 26)
_OFFSET = np.float64(2.0 ** 26).view(np.uint64)
# bincount sums float weights exactly while each bucket stays below 2**53;
# an offset half is below 2**27, so one call over a block of _CHUNK <= 2**26
# entries is exact, and each block's buckets are read into its own form.
# Arrays are summed, and paths drawn, in blocks of _CHUNK so that a
# block's temporaries stay in L2; a sampler sees one block at a time.  On a
# 2-core shared host with 2 MiB of L2 per core, a 2**16-draw Pareto-1/2
# chunk bucket-sums at ~18 ns/draw in 2**16 blocks, ~10 ns in 2**15 or
# 2**14, ~12 ns in 2**13 and ~16 ns in 2**12; whole runs were fastest with
# 2**14 or 2**15 and used least memory with 2**13.
_CHUNK = 1 << 14
# Extraction sums a block's entries below 2**(e_lo + _BAND), 2**e_lo <= its
# least entry; the buckets sum the rest.
_BAND = 40


class _Form(NamedTuple):
    """An exact sum: the finite entries as an integer in units of 2**-1074,
    the entries of exponent 2047 (inf or nan) of each sign, the fraction
    bits of those (nonzero when a nan is among them) and the entry count.
    Forms add and subtract as integers."""

    total: int = 0
    pinf: int = 0
    ninf: int = 0
    nan: int = 0
    count: int = 0

    def __add__(self, other: _Form) -> _Form:
        return _Form(*map(operator.add, self, other))

    def __sub__(self, other: _Form) -> _Form:
        return _Form(*map(operator.sub, self, other))


def _bucketed(values: np.ndarray) -> _Form:
    """The form of at most ``_CHUNK`` values, summed per sign-and-exponent
    key: the entry count and the sums of the high and of the low 26
    fraction bits, each half offset by 2**26, read back as integers."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    half = np.empty_like(bits)
    key = (bits >> np.uint64(52)).view(np.int64)
    count = np.bincount(key)
    np.bitwise_and(bits, _HIGH26, out=half)
    half |= _OFFSET
    high = np.bincount(key, half.view(np.float64))
    np.left_shift(bits, np.uint64(26), out=half)
    half &= _HIGH26
    half |= _OFFSET
    low = np.bincount(key, half.view(np.float64))
    total, infs, nan = 0, [0, 0], 0
    keys = np.flatnonzero(count)
    for key, n, hi, lo in zip(keys.tolist(), count[keys].tolist(),
                              high[keys].astype(np.int64).tolist(),
                              low[keys].astype(np.int64).tolist()):
        fraction = ((hi - (n << 26)) << 26) + lo - (n << 26)
        exponent, sign = key & 2047, key >> 11
        if exponent == 2047:
            infs[sign] += n
            nan += fraction
        else:  # normal numbers carry the implicit leading bit
            mantissa = (fraction + (n << 52)) << (exponent - 1) if exponent else fraction
            total += -mantissa if sign else mantissa
    return _Form(total, *infs, nan, len(bits))


def _block(x: np.ndarray, lo: float | None = None, hi: float | None = None,
           writable: bool = False) -> _Form:
    """The form of 1 to ``_CHUNK`` entries.  ``lo`` and ``hi`` bound the
    nonzero entries (default: their min and max).  Extraction sums a block
    whose ``lo`` is positive, except the entries out of band, ``inf`` among
    them, which are bucketed; any other block is bucketed whole.
    Extraction overwrites ``x`` if ``writable``, else a copy."""
    lo = float(x.min()) if lo is None else lo
    hi = float(x.max()) if hi is None else hi
    # ExtractVector (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1),
    # 2008).  A level with bound e (|p| < 2**e) splits each p into q =
    # (p + sigma) - sigma and p - q, sigma = 2**(e + k), k = bit_length(2n),
    # both exact: every q is a multiple of 2**(e + k - 53) and n of them sum
    # to at most sigma, so their float sum is exact, and each residual is
    # below 2**(e + k - 52).  In-band entries, and so all residuals, are
    # multiples of 2**(e_lo - 52), so the level with e + k <= e_lo leaves
    # none: at n = 2**14, 1 level for a 20-binade band, 2-3 for 40.  That
    # last level's q are the residuals themselves, so it sums them directly.
    # Zeros extract as zeros; frexp(inf) reads exponent 0, so an inf top
    # reads 1024: out of band.
    k, e_lo = (2 * len(x)).bit_length(), math.frexp(lo)[1] - 1
    levels = [min(math.frexp(hi)[1] if hi < math.inf else 1024, e_lo + _BAND)]
    while levels[-1] + k > e_lo:
        levels.append(levels[-1] + k - 52)
    if not lo > 0.0 or levels[0] + k > 1023 or levels[-1] + k - 53 < -1022:
        return _bucketed(x)  # zeros, negatives or nan, or sigma beyond the normal range
    p = x if writable else x.copy()
    cut, form = math.ldexp(1.0, levels[0]), _Form()
    if hi >= cut:
        out = p >= cut
        form = _bucketed(p[out])
        p[out] = 0.0
    q, sums, total = np.empty_like(p), [], form.total
    for e in levels[:-1]:
        sigma = math.ldexp(1.0, e + k)
        np.add(p, sigma, out=q)
        q -= sigma
        sums.append(q.sum())
        p -= q
    sums.append(p.sum())  # the last level would extract every residual whole
    for s in sums:
        num, den = float(s).as_integer_ratio()  # den is a power of two
        total += num << (1075 - den.bit_length())
    return form._replace(total=total, count=len(p))


def _exact(values: np.ndarray, writable: bool = False) -> _Form:
    """The form of a float64 array, which is overwritten if ``writable``
    and left unchanged otherwise."""
    return sum((_block(values[start:start + _CHUNK], writable=writable)
                for start in range(0, len(values), _CHUNK)), _Form())


def _rounded(form: _Form) -> float:
    """The sum a form stands for, rounded once.

    Non-finite entries decide first: any nan gives nan, inf + -inf raises
    ValueError, and an inf gives that inf whatever the finite entries sum
    to.  Otherwise the finite entries are summed exactly and rounded once,
    to +-inf beyond the float range as IEEE rounding does.  Wherever
    ``math.fsum`` returns, this equals it bit for bit; fsum raises
    OverflowError where the exact sum rounds to +-inf, and also on an
    overflow of its partial sums that the exact sum never meets.
    """
    if form.nan:
        return math.nan
    if form.pinf and form.ninf:
        raise ValueError("-inf + inf in exact sum")
    if form.pinf or form.ninf:
        return math.inf if form.pinf else -math.inf
    return units_to_float(form.total)


def trimmed_sum(values: np.ndarray, trim: int) -> float:
    """Sum of all entries except the ``trim`` largest, as a checkpoint sums
    it: tie-invariant, since only the kept multiset matters.  A nan ranks
    below every number: the sum is nan unless the trim takes every entry."""
    values = np.asarray(values, dtype=np.float64)
    if not 0 <= trim <= len(values):
        raise MonteCarloError(f"trim count {trim} outside [0, {len(values)}]")
    return _rounded(_evaluate(_Form(), -values, math.inf, trim)[1])


def truncated_sum(values: np.ndarray, cutoff: float) -> float:
    """Sum of entries at most ``cutoff`` (non-strict), as a checkpoint sums
    it.  A nan is never above the cutoff, so it makes the sum nan."""
    if not cutoff >= 0.0:
        raise MonteCarloError(f"cutoff must be nonnegative, got {cutoff}")
    return _rounded(_evaluate(_Form(), -np.asarray(values, dtype=np.float64), cutoff, 0)[2])


def exceedance_counts(values: np.ndarray, cutoff: float) -> tuple[int, int]:
    """Counts of entries strictly above and at least ``cutoff``."""
    if cutoff < 0.0:
        raise MonteCarloError(f"cutoff must be nonnegative, got {cutoff}")
    values = np.asarray(values, dtype=np.float64)
    return int(np.count_nonzero(values > cutoff)), int(np.count_nonzero(values >= cutoff))


class ExperimentConfig(Value):
    """Declarative experiment: plan, checkpoint grid, replications, seed.

    A fixed seed makes every output a pure function of this object.
    ``points`` is the plan table at the checkpoints, computed once here and
    judged by :func:`check_plan`, with ``d(n) > 0`` at each so ratios exist.
    """

    _fields = ("plan", "checkpoints", "replications", "seed")

    def __init__(self, plan: TrimmingPlan, checkpoints: Sequence[int], replications: int,
                 seed: int):
        checkpoints = tuple(int(n) for n in checkpoints)
        if not checkpoints:
            raise MonteCarloError("checkpoint grid is empty")
        if any(n < 3 for n in checkpoints):
            raise MonteCarloError("checkpoints must be at least 3")
        if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
            raise MonteCarloError("checkpoints must be strictly increasing")
        if replications < 1:
            raise MonteCarloError("need at least one replication")
        if not 0 <= seed < 2 ** 64:
            raise MonteCarloError("seed must be an unsigned 64-bit integer")
        points = plan.table(checkpoints)
        check_plan(plan, points)  # run_replication's pools need monotone thresholds
        for p in points:
            if p.log_scale == -math.inf:
                raise PlanError(f"d(n) vanishes at n = {p.n}; no mass at or below t(n)")
        self.__dict__.update(plan=plan, checkpoints=checkpoints, replications=replications,
                             seed=seed, points=points)

    @property
    def distribution(self) -> Distribution:
        return self.plan.distribution

    @property
    def n_max(self) -> int:
        return self.checkpoints[-1]


class TraceRow(NamedTuple):
    """Statistics of one path at one checkpoint; plan values are in ``config.points``."""

    n: int
    untrimmed: float          # S_n
    trimmed: float            # sum without the trim largest entries
    truncated: float          # sum of entries at most the threshold
    count_gt: int
    count_ge: int
    ratio_trimmed: float
    ratio_truncated: float


class ConvergenceTrace(NamedTuple):
    """One path's rows, one per checkpoint; its config is the caller's."""

    replication: int
    rows: tuple[TraceRow, ...]


def _held(top: np.ndarray) -> _Form:
    """The form of the draws a slice of the pool holds negated; the slice is
    negated in place for extraction, and back."""
    form = _exact(np.negative(top, out=top))
    np.negative(top, out=top)
    return form


def _evaluate(path: _Form, top: np.ndarray, t: float,
              trim: int) -> tuple[_Form, _Form, _Form, int]:
    """The forms of S_n, of the trimmed and of the truncated sum, and N_gt, of
    the draws of form ``path`` and those held negated in ``top``.  ``top`` is
    partitioned in place: its head holds the min and the next slice the max
    of the N_gt draws above ``t`` and the ``trim`` largest, which the two
    sums drop.  A nan sorts last: never above ``t``, trimmed only with all."""
    count_gt = int(np.count_nonzero(top < -t))
    lo, hi = sorted((count_gt, trim))
    if hi < len(top):
        top.partition(hi)
    if 0 < lo < hi:
        top[:hi].partition(lo)
    both = path + _held(top[hi:])
    cut = both + _held(top[lo:hi])
    return cut + _held(top[:lo]), *((both, cut) if count_gt <= trim else (cut, both)), count_gt


def _per_scale(total: float, p: PlanPoint) -> float:
    """total / d(n); divided in log space when d(n) overflows, so a finite
    sum gives a finite ratio rather than 0.0 (a sum of 0 still gives 0.0)."""
    if p.scale < math.inf:
        return total / p.scale
    return math.exp(math.log(total) - p.log_scale) if total else 0.0


def _ratio(form: _Form, p: PlanPoint) -> float:
    """total / d(n), in log space from the exact total of a finite sum past the float range."""
    total = _rounded(form)
    if total == math.inf and not form.pinf:
        return math.exp(math.log(form.total) - 1074 * math.log(2.0) - p.log_scale)
    return _per_scale(total, p)


def stream(seed: int, replication: int) -> np.random.Generator:
    """One replication's uniforms, from the only generator heavytrim builds:
    Philox (Salmon et al., SC'11) keyed by (seed, replication)."""
    return np.random.Generator(np.random.Philox(key=[seed, replication]))


def run_replication(config: ExperimentConfig, replication: int) -> ConvergenceTrace:
    """One seeded path, evaluated at every checkpoint of the config.

    Deterministic given (config.seed, replication), whose ``stream`` it
    draws in chunks; they reproduce one call for the whole path bit for bit.
    """
    rng = stream(config.seed, replication)
    keep = max(p.trim for p in config.points)
    path = _Form()  # the form of the draws out of the pool
    # the pool: draws above `floor`, negated, holding the `keep` largest and
    # every draw above the threshold; `ties` counts the draws at the
    # threshold `last`, which may be an atom that carries most of the path
    top, used, floor = np.empty(2 * keep), 0, -math.inf
    ties, last, start, rows = 0, -math.inf, 0, []
    for p in config.points:
        t = p.threshold
        if t > last:  # thresholds never decrease (check_plan); the pool holds these ties
            ties, last = int(np.count_nonzero(top[:used] == -t)), t
        for i in range(start, p.n, _CHUNK):
            x = config.distribution.sample_array(rng.random(min(_CHUNK, p.n - i)))
            index = np.flatnonzero(x > floor)
            high = x[index]
            ties += int(np.count_nonzero((high if floor < t else x) == t))
            lo, hi = float(x.min()), floor
            out = len(high) - max(keep, int(np.count_nonzero(high > t)))
            if out > 0:  # draws of `high` that cannot stay go back to the bulk
                high.partition(out - 1)
                x[index[:out]] = high[:out]
                index, high, hi = index[out:], high[out:], float(high[out - 1])
            x[index] = 0.0  # the bulk: x without the pool's draws, at most hi
            del index  # 8 bytes a draw while a chunk enters whole; not held through the sums
            # the block's form counts the zeros; they are taken off
            path += _block(x, lo, hi, writable=True) - _Form(count=len(high))
            if used + len(high) > len(top):  # trim to `keep` or the draws above t, else grow
                stay = max(keep, int(np.count_nonzero(top[:used] < -t)))
                if stay < used:  # the draws left out are negated back and summed; a
                    # later draw must exceed the largest of them to join the pool
                    top[:used].partition(stay)
                    dead = np.negative(top[stay:used], out=top[stay:used])
                    floor, used, path = float(dead[0]), stay, path + _exact(dead, writable=True)
                if used + len(high) > len(top):
                    top = np.concatenate((top[:used], np.empty((used + 3 * len(high)) // 2)))
            np.negative(high, out=top[used:used + len(high)])
            used += len(high)
        start = p.n
        if path.count + used != p.n:
            raise MonteCarloError(f"the path form and the pool hold {path.count + used} "
                                  f"draws at n = {p.n}; this is a bug, not randomness")
        total, trimmed, truncated, count_gt = _evaluate(path, top[:used], t, p.trim)
        rows.append(TraceRow(p.n, *map(_rounded, (total, trimmed, truncated)), count_gt,
                             count_gt + ties, _ratio(trimmed, p), _ratio(truncated, p)))
    return ConvergenceTrace(replication, tuple(rows))


def workers() -> int:
    """The processes ``simulate`` runs on: ``HEAVYTRIM_WORKERS``, default 1."""
    value = os.environ.get("HEAVYTRIM_WORKERS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        raise MonteCarloError(f"HEAVYTRIM_WORKERS: expected an integer, got {value!r}") from None


def simulate(config: ExperimentConfig) -> tuple[ConvergenceTrace, ...]:
    """All replications in replication order, on at most one process each."""
    processes, indices = min(workers(), config.replications), range(config.replications)
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=processes) as pool:
            return tuple(pool.map(partial(run_replication, config), indices,
                                  chunksize=max(1, config.replications // (4 * processes))))
    return tuple(run_replication(config, i) for i in indices)


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

class AggregateSummary(NamedTuple):
    """Per-checkpoint quantiles over replications, one row per level of
    ``RATIO_QUANTILES`` and one column per checkpoint, and per-checkpoint
    exceedance violation counts."""

    trimmed_quantiles: np.ndarray
    truncated_quantiles: np.ndarray
    untrimmed_runmax_quantiles: np.ndarray
    exceedance_violations: tuple[int, ...]


def _on_grid(config: ExperimentConfig,
             traces: Sequence[ConvergenceTrace]) -> Sequence[ConvergenceTrace]:
    """The traces, once each is checked to hold one row per checkpoint of ``config``."""
    for t in traces:
        if tuple(r.n for r in t.rows) != config.checkpoints:
            raise MonteCarloError(f"replication {t.replication}: rows do not follow "
                                  f"the checkpoints {config.checkpoints}")
    return traces


def _matrix(traces: Sequence[ConvergenceTrace], attr: str) -> np.ndarray:
    """(replications, checkpoints) array of one row statistic."""
    return np.array([[getattr(r, attr) for r in t.rows] for t in traces])


def _quantiles(matrix: np.ndarray) -> np.ndarray:
    """(levels, checkpoints) quantiles over replications, interpolated as np.quantile.

    np.quantile interpolates next to an inf as ``inf - inf = nan``.  Here a
    quantile is inf when an inf order statistic carries positive weight,
    and is the order statistic itself when the level falls exactly on it;
    where both neighbouring order statistics are finite, or the column
    holds a nan, the result is np.quantile's bit for bit, by its arithmetic
    rather than a call (which imports numpy.ma on numpy >= 2, ~13 ms).
    """
    levels = np.asarray(RATIO_QUANTILES)
    ordered = np.sort(matrix, axis=0)  # nan sorts last
    h = (len(ordered) - 1) * levels    # np.quantile's index for its linear method
    i = np.floor(h).astype(int)
    below, above = ordered[i], ordered[np.minimum(i + 1, len(ordered) - 1)]
    g = (h - i if len(ordered) > 1 else np.ones_like(h))[:, None]  # as np.quantile weighs
    with np.errstate(invalid="ignore"):
        d = above - below  # np.quantile's linear interpolation
        interpolated = np.where(g >= 0.5, above - d * (1 - g), below + d * g)
        carried = np.where((i == h)[:, None], below, below + above)
    keep = np.isfinite(below) & np.isfinite(above)
    return np.where(np.isnan(ordered[-1]), np.nan, np.where(keep, interpolated, carried))


def aggregate(config: ExperimentConfig, traces: Sequence[ConvergenceTrace]) -> AggregateSummary:
    """Summarize traces of one experiment, simulated from the caller's ``config``.

    Per checkpoint, takes quantiles over replications of the trimmed and
    truncated ratios and of the raw sum's running max over its scale, and
    counts how many replications saw the strict exceedance count stray
    from its expectation by at least the fluctuation allowance; the
    concentration statements predict a summably rare event.
    """
    if not _on_grid(config, traces):
        raise MonteCarloError("no traces given")
    runmax = np.maximum.accumulate(np.array(
        [[_per_scale(r.untrimmed, p) for r, p in zip(t.rows, config.points)] for t in traces]),
        axis=1)
    expect_gt = np.array([p.expect_gt for p in config.points])
    allowance_gt = np.array([p.allowance_gt for p in config.points])
    violations = np.count_nonzero(
        np.abs(expect_gt - _matrix(traces, "count_gt")) >= allowance_gt, axis=0)
    return AggregateSummary(
        trimmed_quantiles=_quantiles(_matrix(traces, "ratio_trimmed")),
        truncated_quantiles=_quantiles(_matrix(traces, "ratio_truncated")),
        untrimmed_runmax_quantiles=_quantiles(runmax),
        exceedance_violations=tuple(violations.tolist()),
    )
