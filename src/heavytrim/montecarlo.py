"""Seeded single-path Monte Carlo for trimmed, truncated and raw sums.

Each replication draws one array of samples from a counter-based
generator keyed by (seed, replication index) and re-scans its prefixes at
every checkpoint, preserving the almost-sure coupling the limit
statements are about; fresh samples per checkpoint would only ever probe
the weak law.  Sums use compensated (exactly rounded) accumulation.

Plan values (``t(n)``, ``d(n)``, ``b(n)``, the expected exceedances and
their allowance) depend on n alone, so they live once per experiment in
``ExperimentConfig.points``; a trace row holds only what its path
produced, and every consumer pairs it with that table.

Samples whose true value exceeds the float range surface as ``inf``;
any positive trim or truncation drops them again, so only the raw sum
column is affected on such paths.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
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
    "dichotomy_summary",
    "DichotomySummary",
    "sample_mean_instability",
    "InstabilityTable",
    "trace_csv_rows",
    "MonteCarloError",
]

RATIO_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)


class MonteCarloError(ValueError):
    pass


def _fsum(values: np.ndarray) -> float:
    # fsum is exactly rounded, so the result is independent of summation
    # order; lists feed it faster than numpy iterators
    return math.fsum(values.tolist())


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
    if trim == n:
        return 0.0
    if trim == 0:
        return _fsum(values)
    part = np.partition(values, n - trim - 1)
    return _fsum(part[: n - trim])


def truncated_sum(values: np.ndarray, cutoff: float) -> float:
    """Sum of entries at most ``cutoff`` (non-strict)."""
    if cutoff < 0.0:
        raise MonteCarloError(f"cutoff must be nonnegative, got {cutoff}")
    values = np.asarray(values, dtype=np.float64)
    return _fsum(values[values <= cutoff])


def exceedance_counts(values: np.ndarray, cutoff: float) -> tuple[int, int]:
    """Counts of entries strictly above and at least ``cutoff``."""
    if cutoff < 0.0:
        raise MonteCarloError(f"cutoff must be nonnegative, got {cutoff}")
    values = np.asarray(values, dtype=np.float64)
    return int(np.count_nonzero(values > cutoff)), int(np.count_nonzero(values >= cutoff))


def _memory_budget_bytes() -> int:
    return int(os.environ.get("HEAVYTRIM_MEMORY_MB", "4096")) * 1_000_000


def _workers() -> int:
    return max(1, int(os.environ.get("HEAVYTRIM_WORKERS", "1")))


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
        need = 16 * self.checkpoints[-1] * _workers()
        budget = _memory_budget_bytes()
        if need > budget:
            raise MonteCarloError(
                f"replication buffers need ~{need/1e6:.0f} MB, over the "
                f"{budget/1e6:.0f} MB budget (HEAVYTRIM_MEMORY_MB)")
        object.__setattr__(self, "points", self.plan.table(self.checkpoints))

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


def run_replication(config: ExperimentConfig, replication: int) -> ConvergenceTrace:
    """One seeded path, evaluated at every checkpoint of the config.

    Deterministic given (config.seed, replication): the draws come from a
    counter-based generator keyed by that pair, so replications neither
    overlap nor depend on scheduling.
    """
    rng = np.random.Generator(np.random.Philox(key=[config.seed, replication]))
    u = rng.random(config.n_max)
    x = config.distribution.sample_array(u)
    rows = []
    for p in config.points:
        prefix = x[: p.n]
        over_mask = prefix > p.threshold
        untrimmed = _fsum(prefix)
        truncated = _fsum(prefix[~over_mask])
        over = _fsum(prefix[over_mask])
        if math.isfinite(untrimmed):
            gap = abs(untrimmed - (truncated + over))
            if gap > 64.0 * math.ulp(max(untrimmed, 1.0)):
                raise MonteCarloError(
                    f"sum decomposition off by {gap} at n = {p.n}; "
                    "this is a bug, not randomness")
        trimmed = trimmed_sum(prefix, p.trim)
        count_gt = int(np.count_nonzero(over_mask))
        count_ge = int(np.count_nonzero(prefix >= p.threshold))
        rows.append(TraceRow(
            n=p.n,
            untrimmed=untrimmed,
            trimmed=trimmed,
            truncated=truncated,
            count_gt=count_gt,
            count_ge=count_ge,
            ratio_trimmed=trimmed / p.scale,
            ratio_truncated=truncated / p.scale,
        ))
    return ConvergenceTrace(replication=replication, config=config, rows=tuple(rows))


def simulate(config: ExperimentConfig) -> tuple[ConvergenceTrace, ...]:
    """All replications, merged in replication order regardless of scheduling."""
    workers = _workers()
    indices = range(config.replications)
    if workers > 1 and config.replications > 1:
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
    """Per-checkpoint quantiles and per-replication deviation summaries."""

    checkpoints: tuple[int, ...]
    replications: int
    quantile_levels: tuple[float, ...]
    trimmed_quantiles: np.ndarray       # (levels, checkpoints)
    truncated_quantiles: np.ndarray
    untrimmed_runmax_quantiles: np.ndarray
    sup_trimmed_deviation: np.ndarray   # per replication, over n >= min_n
    min_n: int
    exceedance_violations: tuple[int, ...]   # per checkpoint
    median_trimmed_error: tuple[float, ...]  # per checkpoint

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


def aggregate(traces: Sequence[ConvergenceTrace], min_n: int | None = None) -> AggregateSummary:
    """Summarize traces of one experiment.

    Also counts, per checkpoint, how many replications saw the strict
    exceedance count stray from its expectation by at least the
    fluctuation allowance; the concentration statements predict a
    summably rare event.
    """
    config = _experiment(traces)
    grid = config.checkpoints
    min_n = grid[0] if min_n is None else int(min_n)
    cols = [j for j, n in enumerate(grid) if n >= min_n]
    if not cols:
        raise MonteCarloError(f"no checkpoints at or above min_n = {min_n}")
    trimmed = _matrix(traces, "ratio_trimmed")
    truncated = _matrix(traces, "ratio_truncated")
    runmax = dichotomy_summary(traces).running_max
    expect_gt = np.array([p.expect_gt for p in config.points])
    allowance_gt = np.array([p.allowance_gt for p in config.points])
    violations = np.count_nonzero(
        np.abs(expect_gt - _matrix(traces, "count_gt")) >= allowance_gt, axis=0)
    levels = np.asarray(RATIO_QUANTILES)
    return AggregateSummary(
        checkpoints=grid,
        replications=len(traces),
        quantile_levels=RATIO_QUANTILES,
        trimmed_quantiles=np.quantile(trimmed, levels, axis=0),
        truncated_quantiles=np.quantile(truncated, levels, axis=0),
        untrimmed_runmax_quantiles=np.quantile(runmax, levels, axis=0),
        sup_trimmed_deviation=np.max(np.abs(trimmed[:, cols] - 1.0), axis=1),
        min_n=min_n,
        exceedance_violations=tuple(violations.tolist()),
        median_trimmed_error=tuple(np.median(np.abs(trimmed - 1.0), axis=0).tolist()),
    )


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DichotomySummary:
    """Running extrema of the raw-sum-to-scale ratio along each path."""

    checkpoints: tuple[int, ...]
    running_max: np.ndarray     # (replications, checkpoints)
    running_min: np.ndarray
    growth_factors: np.ndarray  # runmax at last checkpoint / ratio at first
    growth_threshold: float

    @property
    def fraction_growing(self) -> float:
        return float(np.mean(self.growth_factors >= self.growth_threshold))


def dichotomy_summary(traces: Sequence[ConvergenceTrace],
                      growth_threshold: float = 10.0) -> DichotomySummary:
    config = _experiment(traces)
    ratios = _matrix(traces, "untrimmed") / np.array([p.scale for p in config.points])
    runmax = np.maximum.accumulate(ratios, axis=1)
    runmin = np.minimum.accumulate(ratios, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = runmax[:, -1] / ratios[:, 0]
    return DichotomySummary(
        checkpoints=config.checkpoints,
        running_max=runmax,
        running_min=runmin,
        growth_factors=growth,
        growth_threshold=growth_threshold,
    )


@dataclass(frozen=True)
class InstabilityTable:
    """Empirical means of the trimmed sum across replication counts."""

    sample_size: int
    trim: int
    level_means: tuple[tuple[int, float], ...]
    spread: float               # max level mean / min level mean
    threshold: float
    flagged_unstable: bool


def sample_mean_instability(config: ExperimentConfig,
                            r_levels: Sequence[int] = (100, 1000, 10000),
                            sample_size: int | None = None,
                            threshold: float = 1.5) -> InstabilityTable:
    """Tabulate the empirical mean of the trimmed sum for growing R.

    A law whose trimmed sum has infinite expectation can never stabilize
    these means in principle; whether the drift is visible at desk scale
    depends on how hard the trim suppresses the extreme records, so the
    spread is reported rather than asserted.  Replication batches are
    nested: the mean at each level reuses all draws of the smaller ones.
    """
    levels = sorted(set(int(r) for r in r_levels))
    if levels[0] < 1:
        raise MonteCarloError("replication levels must be positive")
    n = int(sample_size) if sample_size else min(10_000, config.n_max)
    point = config.plan.checkpoint(n)
    sums = []
    for rep in range(levels[-1]):
        rng = np.random.Generator(np.random.Philox(key=[config.seed, rep]))
        x = config.distribution.sample_array(rng.random(n))
        sums.append(trimmed_sum(x, point.trim))
    means = tuple((lvl, math.fsum(sums[:lvl]) / lvl) for lvl in levels)
    vals = [m for _, m in means]
    spread = max(vals) / min(vals) if min(vals) > 0.0 else math.inf
    return InstabilityTable(
        sample_size=n,
        trim=point.trim,
        level_means=means,
        spread=spread,
        threshold=threshold,
        flagged_unstable=spread > threshold,
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
