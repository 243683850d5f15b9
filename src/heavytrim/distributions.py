"""Nonnegative laws with atoms and unbounded first moments, in log space.

Thresholds produced by trimming rules can exceed the float range (the
built-in step law has atoms at ``2**(k*k)``), so every law takes its
argument as ``log(x)`` and implements one contract natively:

- ``survival_at_log`` and ``survival_left_at_log``: P(X > x) and P(X >= x);
- ``log_truncated_moment``: the log of ``integral of x dF over [0, t]``,
  atoms at ``t`` included;
- ``log_fixed_point``: the log of the largest quantile fixed point
  ``t = inf{x : F(x) >= F(t)}`` at or below ``x``, which projects a
  threshold target onto the admissible thresholds;
- ``float_at_log``: the float that draws are compared with, an atom's own;
- ``sample_array``: inverse-transform sampling (table laws: a bucket table);
- ``atoms_persist``: whether atoms sit arbitrarily high.

Evaluations are closed-form or exact atom sums, never interpolated unless
the law itself is declared piecewise linear.

``ParetoTail`` and ``LogTail`` are closed forms.  ``SquareStep`` (the
``square-step`` config family) is its own lattice law, since its atoms
outgrow the float range.  ``Tabulated`` is the one table law: an
``atomic-step`` atom list is read as its jump rows, each at the running
exact sum of the masses.

All distribution objects are immutable and safe to share across threads.
"""

from __future__ import annotations

import bisect
import math
import sys
from typing import Sequence

import numpy as np

LOG_FLOAT_MAX = math.log(sys.float_info.max)

__all__ = [
    "Distribution",
    "SquareStep",
    "ParetoTail",
    "LogTail",
    "Tabulated",
    "DistributionError",
]


class DistributionError(ValueError):
    """Invalid distribution parameters or evaluation outside the contract."""


def exp_or_inf(z: float) -> float:
    """exp(z), or inf where it exceeds the float range."""
    return math.exp(z) if z <= LOG_FLOAT_MAX else math.inf


_EULER_GAMMA = 0.5772156649015329


def _ei(z: float) -> float:
    """Exponential integral Ei(z) for z >= 1, to a few ulps.

    Below 50 the power series gamma + log z + sum z**k / (k k!) has only
    positive terms.  Above it the asymptotic series e**z/z * sum k!/z**k
    is used; its terms fall below 1e-17 long before the smallest one
    (near k = z), so cutting there loses less than an ulp.
    """
    if z < 50.0:
        total, term, k = _EULER_GAMMA + math.log(z), 1.0, 0
        while term > 1e-17 * k * total:
            k += 1
            term *= z / k
            total += term / k
        return total
    total, term, k = 1.0, 1.0, 0
    while term > 1e-17:
        k += 1
        term *= k / z
        total += term
    return math.exp(z) / z * total


def _logsumexp(terms: Sequence[float]) -> float:
    if not terms:
        return -math.inf
    top = max(terms)
    if top == -math.inf:
        return -math.inf
    return top + math.log(math.fsum(math.exp(v - top) for v in terms))


def units_to_float(total: int) -> float:
    """``total * 2**-1074`` rounded once, to +-inf beyond the float range as
    IEEE rounding does: int true division is correctly rounded, as
    ``math.fsum`` is, but raises OverflowError there."""
    try:
        return total / (1 << 1074)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def prefix_fsums(values: Sequence[float]) -> list[float]:
    """``math.fsum(values[:i + 1])`` for every i, bit for bit wherever fsum
    returns, in linear time: a running exact integer in units of 2**-1074,
    rounded once per prefix; a prefix past the float range reads +-inf."""
    total, out = 0, []
    for v in values:
        num, den = float(v).as_integer_ratio()  # den is a power of two
        total += num << (1075 - den.bit_length())
        out.append(units_to_float(total))
    return out


def _check_uniform(u: np.ndarray) -> None:
    """Raise unless every entry of ``u`` lies in [0, 1), the range of
    ``Generator.random``; a nan fails too."""
    if len(u) and not (u.min() >= 0.0 and u.max() < 1.0):
        raise DistributionError("uniform variates must lie in [0,1)")


_BUCKETS = 2 ** 12  # a power of two, so u * _BUCKETS is exact and floors to u's bucket


class _BucketTable:
    """A table law's sampling rows, looked up in expected constant time per
    draw: the guide table of Chen & Asau (1974; Devroye 1986, III.2.4),
    holding rows rather than indices.  ``rows`` is one array per column,
    and row i serves the levels in (levels[i-1], levels[i]].  Column by
    column, ``buckets[:, j]`` is the row every u in [j/M, (j+1)/M) reads,
    ``rows[:, bisect_left(levels, j/M)]``, or nan where a level splits the
    bucket; only draws there are searched.  Callers check the domain first.
    """

    def __init__(self, levels: Sequence[float], rows: np.ndarray):
        self.levels, self.rows = np.array(levels), rows
        first = np.searchsorted(self.levels, np.arange(_BUCKETS + 1) / _BUCKETS)
        self.buckets = np.where(first[:-1] == first[1:], rows.take(first[:-1], axis=1), np.nan)

    def sample(self, u: np.ndarray, draw) -> np.ndarray:
        # draw(u, j, columns) reads rows j: first the buckets, then the rows
        # of the draws left nan; j is cast in place, with no float temporary
        out = draw(u, np.multiply(u, _BUCKETS, out=np.empty(len(u), np.intp),
                                  casting="unsafe"), self.buckets)
        split = np.flatnonzero(np.isnan(out))
        out[split] = draw(u[split], np.searchsorted(self.levels, u[split]), self.rows)
        return out


class Value:
    """An immutable value, equal, hashed and shown by the fields its class
    names in ``_fields``.  ``__init__`` stores every attribute, derived ones
    too, through ``self.__dict__``; assigning or deleting one afterwards
    raises AttributeError.  heavytrim defines no dataclasses: generating
    their methods cost most of its import time."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    __delattr__ = __setattr__


class Distribution(Value):
    """Base class: the log-space contract each family implements natively."""

    # true when atoms sit arbitrarily high, so the law is never eventually
    # continuous
    atoms_persist = False
    _logs: tuple[float, ...] = ()  # a law's stored atom logs: math.log of its locations xs

    def survival_at_log(self, log_x: float) -> float:
        """P(X > exp(log_x)), computed without cancellation where a closed form exists."""
        raise NotImplementedError

    def survival_left_at_log(self, log_x: float) -> float:
        """P(X >= exp(log_x)); exceeds survival_at_log by the atom mass there."""
        raise NotImplementedError

    def log_truncated_moment(self, log_t: float) -> float:
        """log of the integral of x dF(x) over [0, exp(log_t)]; -inf when it is zero.

        Atoms located exactly at the end point are included, matching the
        non-strict indicator used by truncated sums.
        """
        raise NotImplementedError

    def log_fixed_point(self, z: float) -> float:
        """log of the largest quantile fixed point at or below exp(z), or of
        the support minimum when z lies below the support."""
        raise NotImplementedError

    def float_at_log(self, log_x: float) -> float:
        """The float draws are compared with at exp(log_x): ``xs[i]`` where
        log_x is the stored log ``_logs[i]`` and xs[i] is finite, else
        exp_or_inf(log_x); exp(log x) can round below x and miss an atom."""
        i = bisect.bisect_left(self._logs, log_x)
        if i < len(self._logs) and self._logs[i] == log_x and self.xs[i] < math.inf:
            return self.xs[i]
        return exp_or_inf(log_x)

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        """Inverse-transform draws inf{x : F(x) >= u}; the canonical stream
        for simulations.

        Deterministic given ``u``, which is left unchanged.  Raises
        :class:`DistributionError` unless every variate lies in [0, 1).  A
        draw beyond the float range, or above the mass a partial table
        covers, is ``inf`` rather than an error, so that long simulations on
        extremely heavy tails can proceed; any positive trim or truncation
        removes such entries again.
        """
        raise NotImplementedError


_LN2 = math.log(2.0)


class SquareStep(Distribution):
    """Built-in step law with atoms at 2**(k*k) of mass 1/k**2 - 1/(k+1)**2.

    The CDF is constant 1 - 1/j**2 on [2**((j-1)**2), 2**(j**2)), all mass
    sits on the squares-of-two lattice and the first moment diverges.  The
    law holds k = 1..max_index; levels above 1 - 1/(max_index+1)**2 draw
    inf.  Each atom sits at the log location ``(k*k) * ln 2``, which the
    log-space contract reads exactly at every k.  Float locations are exact
    powers of two up to k = 31 and inf from k = 32 (``2**1024``) on, never
    rounded from the log; ``xs`` holds them.
    """

    _fields = ("max_index",)
    atoms_persist = True  # every table stops short of mass 1

    def __init__(self, max_index: int = 128):
        if max_index < 2:
            raise DistributionError("max_index must be at least 2")
        ks = range(1, max_index + 1)
        masses = [1.0 / (k * k) - 1.0 / ((k + 1) * (k + 1)) for k in ks]
        logs = tuple((k * k) * _LN2 for k in ks)
        xs = [2.0 ** (k * k) if k * k < 1024 else math.inf for k in ks]
        levels = tuple(prefix_fsums(masses))
        # log_truncated_moment of each atom prefix, summed as one call would.
        # The terms increase, and exp(v - top) is exactly 0.0 for v below
        # top - 746, so each prefix sums from there: linear time, bit for bit
        terms = [z + math.log(m) for z, m in zip(logs, masses)]
        self.__dict__.update(
            max_index=max_index, _logs=logs, _levels=levels, xs=tuple(xs),
            _moments=(-math.inf,) + tuple(
                _logsumexp(terms[bisect.bisect_left(terms, top - 746.0, 0, i):i + 1])
                for i, top in enumerate(terms)),
            _table=_BucketTable(levels, np.array([xs + [math.inf]])))

    def _level(self, i: int) -> float:
        """The mass of the first ``i`` atoms."""
        return self._levels[i - 1] if i else 0.0

    def survival_at_log(self, log_x: float) -> float:
        return 1.0 - self._level(bisect.bisect_right(self._logs, log_x))

    def survival_left_at_log(self, log_x: float) -> float:
        return 1.0 - self._level(bisect.bisect_left(self._logs, log_x))

    def log_fixed_point(self, z: float) -> float:
        # every atom is the first location to attain its level, so the fixed
        # points are exactly the atoms
        return self._logs[max(bisect.bisect_right(self._logs, z) - 1, 0)]

    def log_truncated_moment(self, log_t: float) -> float:
        return self._moments[bisect.bisect_right(self._logs, log_t)]

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        _check_uniform(u)
        # levels beyond the table, like atoms beyond the float range, draw inf
        return self._table.sample(u, lambda _, j, columns: columns[0].take(j))


class ParetoTail(Distribution):
    """Pareto law: 1 - F(x) = (x/scale)**(-alpha) for x >= scale, alpha in (0,1)."""

    _fields = ("alpha", "scale")

    def __init__(self, alpha: float, scale: float = 1.0):
        if not 0.0 < alpha < 1.0:
            raise DistributionError(f"alpha must lie in (0,1), got {alpha}")
        if not scale > 0.0:
            raise DistributionError(f"scale must be positive, got {scale}")
        self.__dict__.update(alpha=alpha, scale=scale)

    @property
    def _log_scale(self) -> float:
        return math.log(self.scale)

    def survival_at_log(self, log_x: float) -> float:
        if log_x < self._log_scale:
            return 1.0
        return math.exp(-self.alpha * (log_x - self._log_scale))

    survival_left_at_log = survival_at_log  # continuous

    def log_truncated_moment(self, log_t: float) -> float:
        if log_t < self._log_scale:
            return -math.inf
        g = math.log(self.alpha / (1.0 - self.alpha)) + self._log_scale
        z = (1.0 - self.alpha) * (log_t - self._log_scale)
        if z > LOG_FLOAT_MAX:
            return g + z + math.log1p(-math.exp(-z))
        return g + math.log(math.expm1(z)) if z > 0.0 else -math.inf

    def log_fixed_point(self, z: float) -> float:
        # F is strictly increasing on the support
        return max(z, self._log_scale)

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        _check_uniform(u)
        # scale * (1 - u) ** (-1 / alpha) in one fresh array, in that order
        out = np.subtract(1.0, u)
        with np.errstate(over="ignore"):
            np.power(out, -1.0 / self.alpha, out=out)
        if self.scale != 1.0:  # x * 1.0 is x, inf and nan included
            out *= self.scale
        return out


class LogTail(Distribution):
    """Law with F(x) = 1 - 1/log(x) for x >= threshold, zero below.

    The threshold must be at least e so that F stays nonnegative; a
    threshold strictly above e puts an atom of mass 1 - 1/log(threshold)
    at the threshold itself.  The tail is so heavy that every truncated
    moment is finite while the first moment diverges faster than any
    power of the truncation level's logarithm.
    """

    _fields = ("threshold",)

    def __init__(self, threshold: float = math.e):
        if threshold < math.e:
            raise DistributionError(
                f"threshold must be at least e = {math.e:.6f}, got {threshold}")
        # its one atom, which float_at_log returns rather than exp(log threshold)
        self.__dict__.update(threshold=threshold, _logs=(math.log(threshold),),
                             xs=(threshold,))

    @property
    def _atom_mass(self) -> float:
        return 1.0 - 1.0 / math.log(self.threshold)

    def survival_at_log(self, log_x: float) -> float:
        if log_x < math.log(self.threshold):
            return 1.0
        return 1.0 / log_x

    def survival_left_at_log(self, log_x: float) -> float:
        if log_x <= math.log(self.threshold):
            return 1.0
        return 1.0 / log_x

    def log_truncated_moment(self, log_t: float) -> float:
        if log_t > LOG_FLOAT_MAX:
            raise DistributionError("log_truncated_moment beyond float range for a log tail")
        # compared in log space, as the survival functions do: exp(log_t) may
        # round below a threshold that log_t reaches
        if log_t < math.log(self.threshold):
            return -math.inf
        atom = self.threshold * self._atom_mass
        m = atom + self._tail_integral(math.exp(log_t)) - self._tail_integral(self.threshold)
        return math.log(m) if m > 0.0 else -math.inf

    def _tail_integral(self, x: float) -> float:
        # antiderivative of 1/log(x)**2: li(x) - x/log(x), with li(x) = Ei(log x)
        lx = math.log(x)
        return _ei(lx) - x / lx

    def log_fixed_point(self, z: float) -> float:
        # F is strictly increasing above the threshold
        return max(z, math.log(self.threshold))

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        _check_uniform(u)
        with np.errstate(over="ignore"):
            out = np.where(u <= self._atom_mass, self.threshold, np.exp(1.0 / (1.0 - u)))
        return out


_SEGMENT_KINDS = ("jump", "linear")


class Tabulated(Distribution):
    """Piecewise law from ordered breakpoints (x, F(x), kind).

    ``kind`` describes how F reaches the value F(x) at the breakpoint:
    "jump" places an atom there (F is flat on the preceding segment),
    "linear" interpolates F linearly from the previous breakpoint, which
    requires the first row to carry F = 0.  Beyond the last breakpoint F
    stays constant; a table ending below 1 leaves the remaining mass
    unresolved and draws above the last level are ``inf``.

    The rows are floats, so the contract evaluates F and the truncated
    moment with private float helpers at the float a log level stands for
    (:meth:`float_at_log`); the generalized inverse is the sampling rows'.
    """

    _fields = ("xs", "fs", "kinds")

    def __init__(self, rows: Sequence[tuple[float, float, str]]):
        if not rows:
            raise DistributionError("breakpoint table is empty")
        xs, fs, kinds = [], [], []
        for row in rows:
            x, f, kind = float(row[0]), float(row[1]), str(row[2])
            if kind not in _SEGMENT_KINDS:
                raise DistributionError(f"unknown breakpoint kind {kind!r}")
            if not x > 0.0:
                raise DistributionError(f"breakpoints must be positive, got {x}")
            if not 0.0 <= f <= 1.0:
                raise DistributionError(f"F values must lie in [0,1], got {f}")
            if xs and x <= xs[-1]:
                raise DistributionError("breakpoints must be strictly increasing")
            if fs and f < fs[-1]:
                raise DistributionError("F values must be nondecreasing")
            xs.append(x)
            fs.append(f)
            kinds.append(kind)
        if kinds[0] == "linear" and fs[0] != 0.0:
            raise DistributionError("a leading linear breakpoint must carry F = 0")
        # sampling segment i holds the levels in (fs[i-1], fs[i]]; segment 0
        # those up to fs[0] and the last one those beyond the table.  Each
        # draws x0 + (u - f0) * dx / df: a linear segment that is not flat
        # ramps from its left breakpoint, every other one holds
        # (breakpoint, 0, 0, 1) and so draws its breakpoint exactly (inf
        # beyond the table).
        bounds = xs + [math.inf]
        coef = [(xs[i - 1], fs[i - 1], xs[i] - xs[i - 1], fs[i] - fs[i - 1])
                if 0 < i < len(xs) and kinds[i] == "linear" and fs[i] != fs[i - 1]
                else (bounds[i], 0.0, 0.0, 1.0) for i in range(len(bounds))]
        # _logs holds math.log of each x, _table the columns x0, f0, dx, df,
        # _terms the integral of x dF over each breakpoint's whole segment
        self.__dict__.update(xs=tuple(xs), fs=tuple(fs), kinds=tuple(kinds),
                             _logs=tuple(math.log(x) for x in xs),
                             _table=_BucketTable(fs, np.array(coef).T.copy()))
        self.__dict__["_terms"] = tuple(self._term(i, x) for i, x in enumerate(xs))

    @property
    def atoms_persist(self) -> bool:
        return self.fs[-1] < 1.0

    def survival_at_log(self, log_x: float) -> float:
        return 1.0 - self._cdf(self.float_at_log(log_x))

    def survival_left_at_log(self, log_x: float) -> float:
        return 1.0 - self._cdf_left(self.float_at_log(log_x))

    def log_truncated_moment(self, log_t: float) -> float:
        m = self._truncated_moment(self.float_at_log(log_t))
        return math.log(m) if m > 0.0 else -math.inf

    def log_fixed_point(self, z: float) -> float:
        # the generalized inverse at F(x) is the left end of the level set of
        # F through x; F attains that level, so a sampling segment holds it.
        # Its row is read as Python floats: numpy scalar arithmetic here
        # raised a run's peak RSS
        y = self._cdf(self.float_at_log(z))
        x0, f0, dx, df = self._table.rows[:, bisect.bisect_left(self.fs, y)].tolist()
        return math.log(x0 + (y - f0) * dx / df)

    def _level(self, i: int) -> float:
        return self.fs[i - 1] if i else 0.0

    def _cdf(self, x: float) -> float:
        if x < self.xs[0]:
            return 0.0
        # x's sampling row: a ramp interpolates F, which can round above the
        # next level just below its breakpoint; any other row holds the level below
        i = bisect.bisect_right(self.xs, x)
        x0, f0, dx, df = self._table.rows[:, i].tolist()
        return min(f0 + df * (x - x0) / dx, self.fs[i]) if dx else self.fs[i - 1]

    def _cdf_left(self, x: float) -> float:
        i = bisect.bisect_left(self.xs, x)
        if i < len(self.xs) and self.xs[i] == x:
            return self._level(i) if self.kinds[i] == "jump" else self.fs[i]
        return self._cdf(x) if x > self.xs[0] else 0.0

    def _term(self, i: int, hi: float) -> float:
        """The integral of x dF over breakpoint i's segment, a linear one cut at ``hi``."""
        if self.kinds[i] == "jump":
            return self.xs[i] * (self.fs[i] - self._level(i))
        x0 = self.xs[i - 1] if i else hi  # a leading linear breakpoint has no mass
        if hi <= x0:
            return 0.0
        return (self.fs[i] - self.fs[i - 1]) / (self.xs[i] - x0) * (hi * hi - x0 * x0) / 2.0

    def _truncated_moment(self, t: float) -> float:
        # the segments of the breakpoints at most t whole, and the one t cuts
        i = bisect.bisect_right(self.xs, t)
        cut = 0 < i < len(self.xs) and self.kinds[i] == "linear"
        return math.fsum(self._terms[:i] + ((self._term(i, t),) if cut else ()))

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        _check_uniform(u)
        return self._table.sample(u, _segment_draws)


def _segment_draws(u: np.ndarray, j: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """((u - f0) * dx) / df + x0 at rows j, the reference quantile's operation
    order, so draws match it bit for bit; one column is gathered at a time,
    into ``tmp`` with mode "clip", since "raise" copies before writing."""
    x0, f0, dx, df = columns
    out, tmp = f0.take(j), dx.take(j)
    np.subtract(u, out, out=out)
    out *= tmp
    out /= df.take(j, out=tmp, mode="clip")
    out += x0.take(j, out=tmp, mode="clip")
    return out

