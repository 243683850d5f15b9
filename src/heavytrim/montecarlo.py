"""Seeded single-path Monte Carlo for trimmed, truncated and raw sums.

Each replication follows one path drawn from a counter-based generator
keyed by (seed, replication index) and evaluates it at every checkpoint,
preserving the almost-sure coupling the limit statements are about; fresh
samples per checkpoint would only ever probe the weak law.  The path is
drawn in chunks ending at checkpoints and never held whole.  Sums are
exact: entries are accumulated as integers per float exponent and the
total is rounded once, so every sum equals ``math.fsum`` of the same
entries bit for bit wherever fsum returns.  S_n's integer form adds each
chunk's form once; the truncated and the trimmed sum are S_n's form minus
that of one of two small pools: the draws above the current threshold,
and the ``max b(n)`` largest draws, held negated in one buffer of
``2 max b(n)`` floats and trimmed by partitioning it in place.  At n = 1e6
a replication peaks at 1.1-7 MB (tracemalloc) across the built-in laws.

Plan values (``t(n)``, ``d(n)``, ``b(n)``, the expected exceedances and
their allowance) depend on n alone, so they live once per experiment in
``ExperimentConfig.points``; a trace row holds only what its path
produced, and every consumer pairs it with that table.  Aggregation
keeps what the artifacts show: per-checkpoint quantiles of the two
ratios and of the raw sum's running max over its scale.

Samples whose true value exceeds the float range surface as ``inf``;
S_n is then ``inf`` however large its finite part, and any sufficient
trim or truncation drops them again, so only the raw sum column is
affected on such paths.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .distributions import Distribution
from .trimming import PlanPoint, TrimmingPlan

__all__ = [
    "ExperimentConfig",
    "TraceRow",
    "ConvergenceTrace",
    "trimmed_sum",
    "truncated_sum",
    "exceedance_counts",
    "run_replication",
    "simulate",
    "aggregate",
    "AggregateSummary",
    "trace_csv_rows",
    "MonteCarloError",
]

RATIO_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)


class MonteCarloError(ValueError):
    pass


# A float64 is 1 sign bit, 11 exponent bits and 52 fraction bits.  Its top
# 12 bits key one of 4096 buckets; keys 2047 and 4095 hold +-inf and nan.
_KEYS = 4096
# A 26-bit fraction half set into the top fraction bits of 2.0**26 gives
# the float 2**26 + half exactly, so bit operations make the weights.
_HIGH26 = np.uint64(((1 << 26) - 1) << 26)
_OFFSET = np.float64(2.0 ** 26).view(np.uint64)
# bincount sums float weights exactly while each bucket stays below 2**53;
# an offset half is below 2**27, so a float64 accumulator is exact for
# _FLUSH = 2**26 entries.  A path's accumulator is flushed into its int64
# form at each checkpoint and every _FLUSH draws (whole blocks) between.
# Arrays are bucketed, and paths drawn, in blocks of _CHUNK so that a
# block's temporaries stay in L2; a sampler sees one block at a time.  On a
# 2-core shared host with 2 MiB of L2 per core, a 2**16-draw Pareto-1/2
# chunk bucket-sums at ~18 ns/draw in 2**16 blocks, ~10 ns in 2**15 or
# 2**14, ~12 ns in 2**13 and ~16 ns in 2**12; whole runs were fastest with
# 2**14 or 2**15 and used least memory with 2**13.
_FLUSH, _CHUNK = 1 << 26, 1 << 14


def _accumulate(acc: np.ndarray, values: np.ndarray) -> None:
    """Add ``values`` into a float64 (3, 4096) accumulator of :func:`_buckets`
    rows, whose fraction halves carry 2**26 each; exact up to ``_FLUSH`` entries."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    halves = np.empty(min(len(bits), _CHUNK), dtype=np.uint64)
    for start in range(0, len(bits), _CHUNK):
        chunk = bits[start:start + _CHUNK]
        key = (chunk >> np.uint64(52)).view(np.int64)
        half = halves[:len(chunk)]
        acc[0] += np.bincount(key, minlength=_KEYS)
        np.bitwise_and(chunk, _HIGH26, out=half)
        half |= _OFFSET
        acc[1] += np.bincount(key, half.view(np.float64), _KEYS)
        np.left_shift(chunk, np.uint64(26), out=half)
        half &= _HIGH26
        half |= _OFFSET
        acc[2] += np.bincount(key, half.view(np.float64), _KEYS)


def _flushed(acc: np.ndarray) -> np.ndarray:
    """The int64 form an accumulator stands for; the accumulator is zeroed."""
    form = acc.astype(np.int64)
    form[1:] -= form[0] << 26  # each entry added 2**26 to both of its halves
    acc[:] = 0.0
    return form


def _buckets(values: np.ndarray) -> np.ndarray:
    """Exact integer form of the sum of a float64 array, shape (3, 4096): per
    sign-and-exponent key, the entry count and the sums of the high and of
    the low 26 fraction bits.  Forms add, so a prefix is accumulated segment
    by segment and a subset is subtracted exactly."""
    acc, form = np.zeros((3, _KEYS)), np.zeros((3, _KEYS), dtype=np.int64)
    for start in range(0, len(values), _FLUSH):
        _accumulate(acc, values[start:start + _FLUSH])
        form += _flushed(acc)
    return form


def _rounded(form: np.ndarray) -> float:
    """The sum a :func:`_buckets` form stands for, rounded once.

    Non-finite entries decide first: any nan gives nan, inf + -inf raises
    ValueError, and an inf gives that inf whatever the finite entries sum
    to.  Otherwise the finite entries are summed exactly and rounded once,
    which raises OverflowError beyond the float range.  Wherever
    ``math.fsum`` returns, this equals it bit for bit; fsum can also raise
    on an overflow of its partial sums (finite entries between two infs in
    its input order, or mixed signs) that the exact sum never meets.
    """
    count, high, low = form
    if count[2047] or count[4095]:
        if high[2047] or low[2047] or high[4095] or low[4095]:
            return math.nan
        if count[2047] and count[4095]:
            raise ValueError("-inf + inf in exact sum")
        return math.inf if count[2047] else -math.inf
    total = 0  # in units of 2**-1074, the smallest subnormal
    keys = np.flatnonzero(count)
    for key, n, hi, lo in zip(keys.tolist(), *form[:, keys].tolist()):
        exponent = key & 2047
        mantissa = (hi << 26) + lo
        if exponent:  # normal numbers carry the implicit leading bit
            mantissa = (mantissa + (n << 52)) << (exponent - 1)
        total += -mantissa if key >> 11 else mantissa
    # int true division is correctly rounded and raises OverflowError
    # when the quotient rounds beyond the float range
    return total / (1 << 1074)


def _largest(values: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` largest entries in no particular order; ties broken arbitrarily."""
    n = len(values)
    return np.partition(values, n - k)[n - k:] if k else values[:0]


def trimmed_sum(values: np.ndarray, trim: int) -> float:
    """Sum of all entries except the ``trim`` largest.

    Ties at the trim boundary are broken arbitrarily; the value is
    tie-invariant because only the kept multiset matters.  Selection runs
    through a partial partition, not a full sort.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if not 0 <= trim <= n:
        raise MonteCarloError(f"trim count {trim} outside [0, {n}]")
    return _rounded(_buckets(values) - _buckets(_largest(values, trim)))


def truncated_sum(values: np.ndarray, cutoff: float) -> float:
    """Sum of entries at most ``cutoff`` (non-strict)."""
    if cutoff < 0.0:
        raise MonteCarloError(f"cutoff must be nonnegative, got {cutoff}")
    values = np.asarray(values, dtype=np.float64)
    return _rounded(_buckets(values[values <= cutoff]))


def exceedance_counts(values: np.ndarray, cutoff: float) -> tuple[int, int]:
    """Counts of entries strictly above and at least ``cutoff``."""
    if cutoff < 0.0:
        raise MonteCarloError(f"cutoff must be nonnegative, got {cutoff}")
    values = np.asarray(values, dtype=np.float64)
    return int(np.count_nonzero(values > cutoff)), int(np.count_nonzero(values >= cutoff))


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment: plan, checkpoint grid, replications, seed.

    A fixed seed makes every output a pure function of this object.
    ``points`` is the plan table at the checkpoints, computed once here.
    """

    plan: TrimmingPlan
    checkpoints: tuple[int, ...]
    replications: int
    seed: int
    max_samples: int = 10_000_000
    points: tuple[PlanPoint, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "checkpoints", tuple(int(n) for n in self.checkpoints))
        if not self.checkpoints:
            raise MonteCarloError("checkpoint grid is empty")
        if any(n < 3 for n in self.checkpoints):
            raise MonteCarloError("checkpoints must be at least 3")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise MonteCarloError("checkpoints must be strictly increasing")
        if self.checkpoints[-1] > self.max_samples:
            raise MonteCarloError(
                f"largest checkpoint {self.checkpoints[-1]} exceeds the "
                f"sample ceiling {self.max_samples}")
        if self.replications < 1:
            raise MonteCarloError("need at least one replication")
        if not 0 <= self.seed < 2 ** 64:
            raise MonteCarloError("seed must be an unsigned 64-bit integer")
        points = self.plan.table(self.checkpoints)
        for p, q in zip(points, points[1:]):  # run_replication's pools need this
            if q.threshold < p.threshold:
                raise MonteCarloError(f"threshold decreases between n = {p.n} and n = {q.n}")
        object.__setattr__(self, "points", points)

    @property
    def distribution(self) -> Distribution:
        return self.plan.distribution

    @property
    def n_max(self) -> int:
        return self.checkpoints[-1]


@dataclass(frozen=True)
class TraceRow:
    """Statistics of one path at one checkpoint; plan values are in ``config.points``."""

    n: int
    untrimmed: float          # S_n
    trimmed: float            # sum without the trim largest entries
    truncated: float          # sum of entries at most the threshold
    count_gt: int
    count_ge: int
    ratio_trimmed: float
    ratio_truncated: float


@dataclass(frozen=True)
class ConvergenceTrace:
    replication: int
    config: ExperimentConfig
    rows: tuple[TraceRow, ...]   # one per entry of config.points

    @property
    def seed(self) -> int:
        return self.config.seed


def _trim(top: np.ndarray, used: int, keep: int, floor: float) -> tuple[float, int]:
    """Partition the negated pool ``top[:used]`` in place so that ``top[:keep]``
    holds its ``keep`` largest draws; return the largest draw left out, which
    a later draw must exceed to join them, and the new pool size."""
    if used <= keep:
        return floor, used
    top[:used].partition(keep)
    return -float(top[keep]), keep


def run_replication(config: ExperimentConfig, replication: int) -> ConvergenceTrace:
    """One seeded path, evaluated at every checkpoint of the config.

    Deterministic given (config.seed, replication): the draws come from a
    counter-based generator keyed by that pair, so replications neither
    overlap nor depend on scheduling.  Drawing in chunks reproduces one
    call for the whole path bit for bit.
    """
    rng = np.random.Generator(np.random.Philox(key=[config.seed, replication]))
    keep = max(p.trim for p in config.points)
    path = np.zeros((3, _KEYS), dtype=np.int64)  # form of the draws up to the last flush
    acc = np.zeros((3, _KEYS))  # accumulator of the draws since then
    over, ties, last = np.empty(0), 0, -math.inf  # the draws above `last`; those at it
    # the pool: the `keep` largest draws, negated, then candidates above `floor`
    top, used, floor = np.empty(2 * keep), 0, -math.inf
    start, rows = 0, []
    for p in config.points:
        t = p.threshold
        if t > last:  # thresholds never decrease (ExperimentConfig)
            ties, last = np.count_nonzero(over == t), t
            over = over[over > t]
        parts = [over]
        for i in range(start, p.n, _CHUNK):
            x = config.distribution.sample_array(rng.random(min(_CHUNK, p.n - i)))
            if i > start and (i - start) % _FLUSH == 0:
                path += _flushed(acc)
            _accumulate(acc, x)
            # both pools draw from `high`; a draw at the floor joins neither
            high = x[np.flatnonzero(x > floor if floor < t else x >= t)]
            ties += np.count_nonzero(high == t)
            parts.append(high[high > t])
            if floor >= t:
                high = high[high > floor]
            if len(high) > keep:  # only its `keep` largest can be kept
                high = _largest(high, keep)
            if used + len(high) > len(top):  # a trim costs ~2 `keep` and frees `keep`
                floor, used = _trim(top, used, keep, floor)
            np.negative(high, out=top[used:used + len(high)])
            used += len(high)
        start, over = p.n, np.concatenate(parts)
        floor, used = _trim(top, used, keep, floor)
        if p.trim < used:
            top[:used].partition(p.trim)
        path += _flushed(acc)
        if path[0].sum() != p.n:
            raise MonteCarloError(f"the path form counts {path[0].sum()} draws at "
                                  f"n = {p.n}; this is a bug, not randomness")
        truncated = _rounded(path - _buckets(over))
        # `top` holds the draws negated; rolling the keys by half flips each sign bit back
        trimmed = _rounded(path - np.roll(_buckets(top[:p.trim]), _KEYS // 2, axis=1))
        rows.append(TraceRow(p.n, _rounded(path), trimmed, truncated, len(over),
                             len(over) + int(ties), trimmed / p.scale, truncated / p.scale))
    return ConvergenceTrace(replication=replication, config=config, rows=tuple(rows))


def simulate(config: ExperimentConfig) -> tuple[ConvergenceTrace, ...]:
    """All replications, merged in replication order regardless of scheduling."""
    workers = max(1, int(os.environ.get("HEAVYTRIM_WORKERS", "1")))
    indices = range(config.replications)
    if workers > 1 and config.replications > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(partial(run_replication, config), indices,
                                   chunksize=max(1, config.replications // (4 * workers))))
    else:
        traces = [run_replication(config, i) for i in indices]
    return tuple(traces)


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregateSummary:
    """Per-checkpoint quantiles over replications and exceedance violation counts."""

    checkpoints: tuple[int, ...]
    replications: int
    quantile_levels: tuple[float, ...]
    trimmed_quantiles: np.ndarray       # (levels, checkpoints)
    truncated_quantiles: np.ndarray
    untrimmed_runmax_quantiles: np.ndarray
    exceedance_violations: tuple[int, ...]   # per checkpoint

    def csv_rows(self) -> Iterable[tuple]:
        header = ["n"]
        for tag in ("trimmed", "truncated", "untrimmed_runmax"):
            for q in self.quantile_levels:
                header.append(f"{tag}_q{int(round(q * 100)):02d}")
        header += ["exceedance_violations", "replications"]
        yield tuple(header)
        for j, n in enumerate(self.checkpoints):
            row = [n]
            for block in (self.trimmed_quantiles, self.truncated_quantiles,
                          self.untrimmed_runmax_quantiles):
                row.extend(repr(float(v)) for v in block[:, j])
            row.append(self.exceedance_violations[j])
            row.append(self.replications)
            yield tuple(row)


def _experiment(traces: Sequence[ConvergenceTrace]) -> ExperimentConfig:
    """The one config all traces were simulated from."""
    if not traces:
        raise MonteCarloError("no traces given")
    config = traces[0].config
    if any(t.config != config for t in traces):
        raise MonteCarloError("traces come from different experiments")
    return config


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


def aggregate(traces: Sequence[ConvergenceTrace]) -> AggregateSummary:
    """Summarize traces of one experiment.

    Per checkpoint, takes quantiles over replications of the trimmed and
    truncated ratios and of the raw sum's running max over its scale, and
    counts how many replications saw the strict exceedance count stray
    from its expectation by at least the fluctuation allowance; the
    concentration statements predict a summably rare event.
    """
    config = _experiment(traces)
    scale = np.array([p.scale for p in config.points])
    runmax = np.maximum.accumulate(_matrix(traces, "untrimmed") / scale, axis=1)
    expect_gt = np.array([p.expect_gt for p in config.points])
    allowance_gt = np.array([p.allowance_gt for p in config.points])
    violations = np.count_nonzero(
        np.abs(expect_gt - _matrix(traces, "count_gt")) >= allowance_gt, axis=0)
    return AggregateSummary(
        checkpoints=config.checkpoints,
        replications=len(traces),
        quantile_levels=RATIO_QUANTILES,
        trimmed_quantiles=_quantiles(_matrix(traces, "ratio_trimmed")),
        truncated_quantiles=_quantiles(_matrix(traces, "ratio_truncated")),
        untrimmed_runmax_quantiles=_quantiles(runmax),
        exceedance_violations=tuple(violations.tolist()),
    )


# --------------------------------------------------------------------------
# CSV emission
# --------------------------------------------------------------------------

TRACE_COLUMNS = ("replication", "n", "S_n", "S_trimmed", "T_truncated",
                 "N_gt", "N_ge", "b_n", "t_n", "d_n",
                 "ratio_trimmed", "ratio_truncated")


def trace_csv_rows(traces: Sequence[ConvergenceTrace]) -> Iterable[tuple]:
    """Rows for the traces CSV; floats as shortest round-trip strings."""
    yield TRACE_COLUMNS
    for t in traces:
        for r, p in zip(t.rows, t.config.points):
            yield (t.replication, r.n, repr(r.untrimmed), repr(r.trimmed),
                   repr(r.truncated), r.count_gt, r.count_ge, p.trim,
                   repr(p.threshold), repr(p.scale),
                   repr(r.ratio_trimmed), repr(r.ratio_truncated))
