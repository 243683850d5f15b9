"""Nonnegative distribution functions with atoms and unbounded first moments.

Every law exposes the exact functionals the trimming machinery consumes:
the CDF ``F``, its left limit, the generalized inverse
``quantile(y) = inf{x : F(x) >= y}``, the truncated first moment
``integral of x dF over [0, t]`` (atoms at ``t`` included), and
inverse-transform sampling.  Evaluations are closed-form or exact atom
sums, never interpolated unless the law itself is declared piecewise
linear.

Thresholds produced by trimming rules can exceed the float range (the
built-in step law has atoms at ``2**(k*k)``), so each law also provides
log-argument twins (``cdf_at_log``, ``log_truncated_moment``, ...) that
accept ``log(x)`` instead of ``x``.

All distribution objects are immutable and safe to share across threads.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

LOG_FLOAT_MAX = math.log(sys.float_info.max)

__all__ = [
    "Atom",
    "Distribution",
    "AtomicStep",
    "ParetoTail",
    "LogTail",
    "Tabulated",
    "square_step",
    "point_mass",
    "DistributionError",
    "QuantileRangeError",
    "UnboundedQuantileError",
]


class DistributionError(ValueError):
    """Invalid distribution parameters or evaluation outside the contract."""


class QuantileRangeError(DistributionError):
    """The requested quantile is finite but not representable as a float."""


class UnboundedQuantileError(QuantileRangeError):
    """quantile(1) on a law with unbounded support: the value is infinite."""


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


class Distribution:
    """Base class; subclasses implement the exact functionals for one family."""

    def cdf(self, x: float) -> float:
        """Right-continuous F(x) = P(X <= x)."""
        raise NotImplementedError

    def cdf_left(self, x: float) -> float:
        """Left-sided limit of F at x; differs from cdf(x) by the atom mass at x."""
        raise NotImplementedError

    def survival(self, x: float) -> float:
        """1 - F(x), computed without cancellation where a closed form exists."""
        return 1.0 - self.cdf(x)

    def survival_left(self, x: float) -> float:
        """1 - cdf_left(x)."""
        return 1.0 - self.cdf_left(x)

    def quantile(self, y: float) -> float:
        """Generalized inverse inf{x : F(x) >= y} for y in [0, 1].

        Raises
        ------
        UnboundedQuantileError
            y = 1 and the support is unbounded.
        QuantileRangeError
            The quantile exists but exceeds the float range.
        """
        raise NotImplementedError

    def truncated_moment(self, t: float) -> float:
        """integral of x dF(x) over the closed interval [0, t].

        Atoms located exactly at ``t`` are included, matching the
        non-strict indicator used by truncated sums.
        """
        raise NotImplementedError

    def sample(self, u: float) -> float:
        """Inverse-transform draw from a uniform(0,1) variate.

        Deterministic given ``u``.  A draw whose true value exceeds the
        float range is reported as ``inf`` rather than raising, so that
        long simulations on extremely heavy tails can proceed; any
        positive trim or truncation removes such entries again.
        """
        if not 0.0 < u < 1.0:
            raise DistributionError(f"uniform variate must lie in (0,1), got {u!r}")
        try:
            return self.quantile(u)
        except QuantileRangeError:
            return math.inf

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sample`; the canonical stream for simulations.

        Deterministic given ``u``.  Atomic and tabulated laws agree with
        the scalar path exactly; closed-form laws may differ from it in
        the last ulp where the vector math library rounds differently.
        """
        raise NotImplementedError

    # log-argument twins -------------------------------------------------

    def cdf_at_log(self, log_x: float) -> float:
        """F(exp(log_x)); overridden where exp would overflow."""
        if log_x > LOG_FLOAT_MAX:
            raise DistributionError("cdf_at_log beyond float range for this family")
        return self.cdf(math.exp(log_x))

    def survival_at_log(self, log_x: float) -> float:
        if log_x > LOG_FLOAT_MAX:
            raise DistributionError("survival_at_log beyond float range for this family")
        return self.survival(math.exp(log_x))

    def survival_left_at_log(self, log_x: float) -> float:
        if log_x > LOG_FLOAT_MAX:
            raise DistributionError("survival_left_at_log beyond float range")
        return self.survival_left(math.exp(log_x))

    def log_truncated_moment(self, log_t: float) -> float:
        """log of truncated_moment(exp(log_t)); -inf when the moment is zero."""
        if log_t > LOG_FLOAT_MAX:
            raise DistributionError("log_truncated_moment beyond float range")
        m = self.truncated_moment(math.exp(log_t))
        return math.log(m) if m > 0.0 else -math.inf

    def is_quantile_fixed_point(self, log_t: float) -> bool:
        """Whether t = exp(log_t) satisfies quantile(cdf(t)) == t."""
        if log_t > LOG_FLOAT_MAX:
            raise DistributionError("fixed-point check beyond float range")
        t = math.exp(log_t)
        try:
            q = self.quantile(self.cdf(t))
        except QuantileRangeError:
            return False
        return math.isclose(q, t, rel_tol=1e-12, abs_tol=0.0)

    # diagnostics --------------------------------------------------------

    @property
    def support_min(self) -> float:
        raise NotImplementedError

    def atom_free_tail_start(self) -> float | None:
        """Smallest kappa with no atoms on [kappa, inf), or None if atoms persist."""
        raise NotImplementedError

    def has_unbounded_moment(self, levels: int = 12, growth_factor: float = 100.0) -> float | bool:
        """Heuristic check that the first moment is infinite.

        Walks the truncated moment along quantiles of levels 1 - 4**-i and
        requires strict growth with total factor >= ``growth_factor``.  A
        growth check is not a proof; laws that plateau within the
        examined range are reported as bounded even if the true moment
        diverges far beyond it.
        """
        moments = []
        for i in range(1, levels + 1):
            try:
                t = self.quantile(1.0 - 4.0 ** (-i))
            except QuantileRangeError:
                break
            m = self.truncated_moment(t)
            if moments and m <= moments[-1]:
                return False
            moments.append(m)
        if len(moments) < 3 or moments[0] <= 0.0:
            return False
        return moments[-1] / moments[0] >= growth_factor

    def validate_on_grid(self, xs: Sequence[float]) -> None:
        """Assert F is nondecreasing, within [0,1] and right-continuous on a grid."""
        prev = 0.0
        for x in sorted(xs):
            v = self.cdf(x)
            if not 0.0 <= v <= 1.0:
                raise DistributionError(f"cdf({x}) = {v} outside [0,1]")
            if v < prev - 1e-15:
                raise DistributionError(f"cdf decreasing at x = {x}")
            lv = self.cdf_left(x)
            if lv > v + 1e-15:
                raise DistributionError(f"cdf_left({x}) exceeds cdf({x})")
            prev = v


@dataclass(frozen=True)
class Atom:
    """One atom of a purely atomic law.

    Carries the location both as a float (``inf`` when not representable)
    and in log space, so that laws whose locations outgrow float64 remain
    exactly addressable by the log-argument functionals.
    """

    log_x: float
    x: float
    mass: float

    @classmethod
    def at(cls, x: float, mass: float) -> "Atom":
        if not x > 0.0 or math.isinf(x):
            raise DistributionError(f"atom location must be positive and finite, got {x!r}")
        return cls(math.log(x), float(x), float(mass))

    @classmethod
    def at_log(cls, log_x: float, mass: float, *, x: float | None = None) -> "Atom":
        """Atom addressed by log-location; ``x`` may pin the exact float.

        When the caller knows the exact float location (say a power of
        two) it should pass it, because ``exp(log_x)`` does not round-trip
        bit for bit.
        """
        log_x = float(log_x)
        if x is None:
            x = math.exp(log_x) if log_x <= LOG_FLOAT_MAX else math.inf
        elif math.isfinite(x) and not math.isclose(math.log(x), log_x, rel_tol=1e-9, abs_tol=1e-9):
            raise DistributionError(f"location {x!r} inconsistent with log {log_x!r}")
        return cls(log_x, float(x), float(mass))


@dataclass(frozen=True, init=False)
class AtomicStep(Distribution):
    """Purely atomic law given by an ordered table of atoms.

    Entries are ``(location, mass)`` pairs or :class:`Atom` objects.
    Masses must be positive and sum to at most 1.  A table whose masses
    sum to less than 1 is treated as the representable prefix of a law
    with further mass beyond the last atom: quantiles above the covered
    level raise :class:`QuantileRangeError` instead of fabricating
    locations.

    Atoms may sit beyond the float range (see :meth:`Atom.at_log`); the
    log-argument functionals still address them exactly.
    """

    atoms: tuple[Atom, ...]
    _cum: tuple[float, ...] = field(repr=False)
    _xs: tuple[float, ...] = field(repr=False)
    _logs: tuple[float, ...] = field(repr=False)

    def __init__(self, atoms: Sequence[Atom | tuple[float, float]]):
        built = []
        for entry in atoms:
            if isinstance(entry, Atom):
                a = entry
            else:
                x, m = entry
                a = Atom.at(float(x), float(m))
            _check_atom_mass(a.mass)
            built.append(a)
        if not built:
            raise DistributionError("atom table is empty")
        prev = -math.inf
        for a in built:
            if a.log_x <= prev:
                raise DistributionError("atom locations must be strictly increasing")
            prev = a.log_x
        masses = [a.mass for a in built]
        cum = [math.fsum(masses[: i + 1]) for i in range(len(masses))]
        if cum[-1] > 1.0 + 1e-12:
            raise DistributionError(f"atom masses sum to {cum[-1]} > 1")
        object.__setattr__(self, "atoms", tuple(built))
        object.__setattr__(self, "_cum", tuple(min(c, 1.0) for c in cum))
        object.__setattr__(self, "_xs", tuple(a.x for a in built))
        object.__setattr__(self, "_logs", tuple(a.log_x for a in built))

    @property
    def support_min(self) -> float:
        return self.atoms[0].x

    @property
    def total_mass(self) -> float:
        return self._cum[-1]

    def atom_free_tail_start(self) -> float | None:
        if self.total_mass >= 1.0:
            return math.nextafter(self.atoms[-1].x, math.inf)
        return None

    def _count_le_log(self, log_x: float) -> int:
        return bisect.bisect_right(self._logs, log_x)

    def cdf(self, x: float) -> float:
        i = bisect.bisect_right(self._xs, x)
        return self._cum[i - 1] if i else 0.0

    def cdf_left(self, x: float) -> float:
        i = bisect.bisect_left(self._xs, x)
        return self._cum[i - 1] if i else 0.0

    def cdf_at_log(self, log_x: float) -> float:
        i = self._count_le_log(log_x)
        return self._cum[i - 1] if i else 0.0

    def survival_at_log(self, log_x: float) -> float:
        return 1.0 - self.cdf_at_log(log_x)

    def survival_left_at_log(self, log_x: float) -> float:
        i = bisect.bisect_left(self._logs, log_x)
        return 1.0 - (self._cum[i - 1] if i else 0.0)

    def _quantile_index(self, y: float) -> int:
        if not 0.0 <= y <= 1.0:
            raise DistributionError(f"quantile level must lie in [0,1], got {y!r}")
        if y <= self._cum[0]:
            return 0
        if y > self.total_mass:
            if y >= 1.0 and self.total_mass < 1.0:
                raise UnboundedQuantileError(
                    "quantile(1) lies beyond the representable atom table")
            raise QuantileRangeError(
                f"level {y} exceeds the tabulated mass {self.total_mass}")
        return bisect.bisect_left(self._cum, y)

    def quantile(self, y: float) -> float:
        a = self.atoms[self._quantile_index(y)]
        if not math.isfinite(a.x):
            raise QuantileRangeError(
                f"quantile({y}) sits at exp({a.log_x:.1f}), beyond the float range")
        return a.x

    def is_quantile_fixed_point(self, log_t: float) -> bool:
        # every atom location is first to attain its level, so fixed points
        # are exactly the atom locations
        i = self._count_le_log(log_t)
        return i > 0 and self.atoms[i - 1].log_x == log_t

    def truncated_moment(self, t: float) -> float:
        if t < 0.0:
            raise DistributionError("truncation point must be nonnegative")
        return math.fsum(a.x * a.mass for a in self.atoms if a.x <= t)

    def log_truncated_moment(self, log_t: float) -> float:
        terms = [a.log_x + math.log(a.mass)
                 for a in self.atoms if a.log_x <= log_t]
        return _logsumexp(terms)

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        cum = np.asarray(self._cum)
        idx = np.searchsorted(cum, u, side="left")
        # levels beyond the table, like atoms beyond the float range,
        # surface as inf draws, matching the scalar sample() policy
        xs = np.asarray(self._xs + (math.inf,))
        return xs[np.minimum(idx, len(self._xs))]


def _check_atom_mass(mass: float) -> None:
    if not mass > 0.0:
        raise DistributionError(f"atom mass must be positive, got {mass!r}")


_LN2 = math.log(2.0)


def square_step(max_index: int = 128) -> AtomicStep:
    """Built-in step law with atoms at 2**(k*k) of mass 1/k**2 - 1/(k+1)**2.

    The CDF is constant 1 - 1/j**2 on [2**((j-1)**2), 2**(j**2)), all mass
    sits on the squares-of-two lattice and the first moment diverges.
    Locations up to k = 31 are exact float powers of two; beyond that they
    overflow float64 and the table carries them in log space only, so plan
    evaluation can reach them while float-valued quantiles and samples
    above the covered level report inf.
    """
    if max_index < 2:
        raise DistributionError("max_index must be at least 2")
    table = []
    for k in range(1, max_index + 1):
        mass = 1.0 / (k * k) - 1.0 / ((k + 1) * (k + 1))
        exact = 2.0 ** (k * k) if k * k < 1024 else None
        table.append(Atom.at_log((k * k) * _LN2, mass, x=exact))
    return AtomicStep(table)


@dataclass(frozen=True)
class ParetoTail(Distribution):
    """Pareto law: 1 - F(x) = (x/scale)**(-alpha) for x >= scale, alpha in (0,1)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DistributionError(f"alpha must lie in (0,1), got {self.alpha}")
        if not self.scale > 0.0:
            raise DistributionError(f"scale must be positive, got {self.scale}")

    @property
    def support_min(self) -> float:
        return self.scale

    def atom_free_tail_start(self) -> float | None:
        return self.scale

    @property
    def _log_scale(self) -> float:
        return math.log(self.scale)

    def cdf(self, x: float) -> float:
        if x < self.scale:
            return 0.0
        return -math.expm1(-self.alpha * (math.log(x) - self._log_scale))

    cdf_left = cdf  # continuous

    def survival(self, x: float) -> float:
        if x < self.scale:
            return 1.0
        return math.exp(-self.alpha * (math.log(x) - self._log_scale))

    survival_left = survival

    def cdf_at_log(self, log_x: float) -> float:
        if log_x < self._log_scale:
            return 0.0
        return -math.expm1(-self.alpha * (log_x - self._log_scale))

    def survival_at_log(self, log_x: float) -> float:
        if log_x < self._log_scale:
            return 1.0
        return math.exp(-self.alpha * (log_x - self._log_scale))

    survival_left_at_log = survival_at_log

    def quantile(self, y: float) -> float:
        if not 0.0 <= y <= 1.0:
            raise DistributionError(f"quantile level must lie in [0,1], got {y!r}")
        if y >= 1.0:
            raise UnboundedQuantileError("quantile(1) is infinite for a Pareto tail")
        q = self.scale * (1.0 - y) ** (-1.0 / self.alpha)
        if math.isinf(q):
            raise QuantileRangeError(f"quantile({y}) exceeds the float range")
        return q

    def truncated_moment(self, t: float) -> float:
        if t < 0.0:
            raise DistributionError("truncation point must be nonnegative")
        if t < self.scale:
            return 0.0
        g = self.alpha / (1.0 - self.alpha)
        return g * self.scale * math.expm1((1.0 - self.alpha) * (math.log(t) - self._log_scale))

    def log_truncated_moment(self, log_t: float) -> float:
        if log_t < self._log_scale:
            return -math.inf
        g = math.log(self.alpha / (1.0 - self.alpha)) + self._log_scale
        z = (1.0 - self.alpha) * (log_t - self._log_scale)
        if z > LOG_FLOAT_MAX:
            return g + z + math.log1p(-math.exp(-z))
        return g + math.log(math.expm1(z)) if z > 0.0 else -math.inf

    def is_quantile_fixed_point(self, log_t: float) -> bool:
        return log_t >= self._log_scale

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.scale * (1.0 - u) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class LogTail(Distribution):
    """Law with F(x) = 1 - 1/log(x) for x >= threshold, zero below.

    The threshold must be at least e so that F stays nonnegative; a
    threshold strictly above e puts an atom of mass 1 - 1/log(threshold)
    at the threshold itself.  The tail is so heavy that every truncated
    moment is finite while the first moment diverges faster than any
    power of the truncation level's logarithm.
    """

    threshold: float = math.e

    def __post_init__(self):
        if self.threshold < math.e:
            raise DistributionError(
                f"threshold must be at least e = {math.e:.6f}, got {self.threshold}")

    @property
    def support_min(self) -> float:
        return self.threshold

    def atom_free_tail_start(self) -> float | None:
        return math.nextafter(self.threshold, math.inf)

    def cdf(self, x: float) -> float:
        if x < self.threshold:
            return 0.0
        return 1.0 - 1.0 / math.log(x)

    def cdf_left(self, x: float) -> float:
        if x <= self.threshold:
            return 0.0
        return self.cdf(x)

    def survival(self, x: float) -> float:
        if x < self.threshold:
            return 1.0
        return 1.0 / math.log(x)

    def survival_left(self, x: float) -> float:
        if x <= self.threshold:
            return 1.0
        return 1.0 / math.log(x)

    def cdf_at_log(self, log_x: float) -> float:
        if log_x < math.log(self.threshold):
            return 0.0
        return 1.0 - 1.0 / log_x

    def survival_at_log(self, log_x: float) -> float:
        if log_x < math.log(self.threshold):
            return 1.0
        return 1.0 / log_x

    def survival_left_at_log(self, log_x: float) -> float:
        if log_x <= math.log(self.threshold):
            return 1.0
        return 1.0 / log_x

    def quantile(self, y: float) -> float:
        if not 0.0 <= y <= 1.0:
            raise DistributionError(f"quantile level must lie in [0,1], got {y!r}")
        if y >= 1.0:
            raise UnboundedQuantileError("quantile(1) is infinite for a log tail")
        if y <= self.cdf(self.threshold):
            return self.threshold
        e = 1.0 / (1.0 - y)
        if e > LOG_FLOAT_MAX:
            raise QuantileRangeError(f"quantile({y}) = exp({e:.3g}) exceeds the float range")
        return math.exp(e)

    def truncated_moment(self, t: float) -> float:
        if t < 0.0:
            raise DistributionError("truncation point must be nonnegative")
        if t < self.threshold:
            return 0.0
        atom = self.threshold * self.cdf(self.threshold)
        return atom + self._tail_integral(t) - self._tail_integral(self.threshold)

    def _tail_integral(self, x: float) -> float:
        # antiderivative of 1/log(x)**2: li(x) - x/log(x), with li(x) = Ei(log x)
        lx = math.log(x)
        return _ei(lx) - x / lx

    def is_quantile_fixed_point(self, log_t: float) -> bool:
        return log_t >= math.log(self.threshold)

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        lo = self.cdf(self.threshold)
        with np.errstate(over="ignore"):
            out = np.where(u <= lo, self.threshold, np.exp(1.0 / (1.0 - u)))
        return out


_SEGMENT_KINDS = ("jump", "linear")
# 64 KiB per sampling temporary: larger chunks ran no faster and raised
# the peak RSS of a run
_SAMPLE_CHUNK = 2 ** 13


@dataclass(frozen=True, init=False)
class Tabulated(Distribution):
    """Piecewise law from ordered breakpoints (x, F(x), kind).

    ``kind`` describes how F reaches the value F(x) at the breakpoint:
    "jump" places an atom there (F is flat on the preceding segment),
    "linear" interpolates F linearly from the previous breakpoint, which
    requires the first row to carry F = 0.  Beyond the last breakpoint F
    stays constant; a table ending below 1 leaves the remaining mass
    unresolved and quantiles above the last level raise.
    """

    xs: tuple[float, ...]
    fs: tuple[float, ...]
    kinds: tuple[str, ...]
    _segments: tuple[np.ndarray, ...] = field(repr=False, compare=False)

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
        object.__setattr__(self, "xs", tuple(xs))
        object.__setattr__(self, "fs", tuple(fs))
        object.__setattr__(self, "kinds", tuple(kinds))
        # sampling segment i holds the levels in (fs[i-1], fs[i]]; segment 0
        # those up to fs[0] and the last one those beyond the table (inf
        # draws).  A linear segment that is not flat ramps from x0 as
        # x0 + (u - f0) * dx / df; every other one draws its breakpoint.
        ramp = [0 < i < len(xs) and kinds[i] == "linear" and fs[i] != fs[i - 1]
                for i in range(len(xs) + 1)]
        coef = [(xs[i - 1], fs[i - 1], xs[i] - xs[i - 1], fs[i] - fs[i - 1])
                if r else (0.0, 0.0, 0.0, 1.0) for i, r in enumerate(ramp)]
        object.__setattr__(self, "_segments", (
            np.array(fs), np.array(xs + [math.inf]), ~np.array(ramp),
            *(np.array(c) for c in zip(*coef))))

    @property
    def support_min(self) -> float:
        return self.xs[0]

    @property
    def total_mass(self) -> float:
        return self.fs[-1]

    def atom_free_tail_start(self) -> float | None:
        if self.total_mass < 1.0:
            return None
        kappa = self.xs[0]
        for x, kind in zip(self.xs, self.kinds):
            if kind == "jump":
                kappa = math.nextafter(x, math.inf)
        return kappa

    def _left_value(self, i: int) -> float:
        return self.fs[i - 1] if i else 0.0

    def cdf(self, x: float) -> float:
        if x < self.xs[0]:
            return 0.0
        i = bisect.bisect_right(self.xs, x)
        if i == len(self.xs) or x == self.xs[i - 1]:
            return self.fs[i - 1]
        if self.kinds[i] == "jump":
            return self.fs[i - 1]
        x0, x1 = self.xs[i - 1], self.xs[i]
        f0, f1 = self.fs[i - 1], self.fs[i]
        return f0 + (f1 - f0) * (x - x0) / (x1 - x0)

    def cdf_left(self, x: float) -> float:
        i = bisect.bisect_left(self.xs, x)
        if i < len(self.xs) and self.xs[i] == x:
            if self.kinds[i] == "jump":
                return self._left_value(i)
            return self.fs[i]
        return self.cdf(x) if x > self.xs[0] else 0.0

    def quantile(self, y: float) -> float:
        if not 0.0 <= y <= 1.0:
            raise DistributionError(f"quantile level must lie in [0,1], got {y!r}")
        if y > self.total_mass:
            if y >= 1.0:
                raise UnboundedQuantileError(
                    "quantile(1) lies beyond the tabulated range")
            raise QuantileRangeError(
                f"level {y} exceeds the tabulated mass {self.total_mass}")
        if y <= self.fs[0]:
            return self.xs[0]
        # fs[i - 1] < y <= fs[i], so a linear segment here is not flat
        i = bisect.bisect_left(self.fs, y)
        if self.kinds[i] == "jump":
            return self.xs[i]
        x0, x1 = self.xs[i - 1], self.xs[i]
        f0, f1 = self.fs[i - 1], self.fs[i]
        return x0 + (y - f0) * (x1 - x0) / (f1 - f0)

    def truncated_moment(self, t: float) -> float:
        if t < 0.0:
            raise DistributionError("truncation point must be nonnegative")
        terms = []
        for i, (x, kind) in enumerate(zip(self.xs, self.kinds)):
            f0 = self._left_value(i)
            if kind == "jump":
                if x <= t:
                    terms.append(x * (self.fs[i] - f0))
            else:
                x0 = self.xs[i - 1] if i else x
                if i == 0:
                    continue
                hi = min(t, x)
                if hi <= x0:
                    continue
                slope = (self.fs[i] - f0) / (x - x0)
                terms.append(slope * (hi * hi - x0 * x0) / 2.0)
        return math.fsum(terms)

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        levels, breakpoints, flat, x0, f0, dx, df = self._segments
        out = np.empty(len(u), dtype=np.float64)
        # each chunk writes into out, so no temporary is full length
        for s in range(0, len(u), _SAMPLE_CHUNK):
            uc, oc = u[s:s + _SAMPLE_CHUNK], out[s:s + _SAMPLE_CHUNK]
            if not (uc.min() > 0.0 and uc.max() < 1.0):
                raise DistributionError("uniform variates must lie in (0,1)")
            i = np.searchsorted(levels, uc)
            # the scalar quantile's operation order, so draws match it bit for bit
            np.subtract(uc, f0[i], out=oc)
            oc *= dx[i]
            oc /= df[i]
            oc += x0[i]
            np.copyto(oc, breakpoints[i], where=flat[i])
        return out


def point_mass(location: float = 1.0) -> Tabulated:
    """Degenerate single-atom law, useful as a finite-mean control in tests."""
    return Tabulated([(location, 1.0, "jump")])
