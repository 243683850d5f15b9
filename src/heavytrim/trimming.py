"""Trimming plans for heavy-tailed sums and numeric checkers for their hypotheses.

A trimming plan fixes, for every sample size ``n``, a truncation threshold
``t(n)``, the expected exceedance counts above it, the deterministic scale
``d(n) = n * integral of x dF over [0, t(n)]`` against which the trimmed
sum is compared, and the trim count ``b(n)``.  A plan is a value: building
it evaluates nothing.  :func:`check_plan` judges its structural hypotheses
(quantile fixed points, monotone thresholds) on every plan table, the
checkpoints' included; the pointwise trim floors and the asymptotic
hypotheses are turned into grid verdicts by :func:`check_condition`.
:func:`borel_cantelli_budget` reports on the same table the Bernstein
exponent of each truncated-sum deviation and the running sum along n of
the summands ``exp(-exponent)``.

Thresholds are handled in log space throughout: the built-in step law
produces thresholds like ``2**1369`` that no float can hold, while every
quantity the hypotheses actually compare (threshold-to-scale ratios,
exceedance counts, trim counts) stays comfortably in range.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .distributions import Distribution, Tabulated, Value, exp_or_inf

_LN2 = math.log(2.0)

__all__ = [
    "SummableFunction",
    "fluctuation_allowance",
    "PowerThreshold",
    "SquareStepThreshold",
    "ProjectedPowerThreshold",
    "StandardTrimRule",
    "AllowanceTrimRule",
    "TrimmingPlan",
    "PlanPoint",
    "plan_standard",
    "plan_default",
    "check_plan",
    "check_condition",
    "check_condition_grid",
    "ConditionReport",
    "geometric_grid",
    "TrimmingError",
    "PlanError",
    "CONDITIONS",
    "BudgetRow",
    "borel_cantelli_budget",
]


class TrimmingError(ValueError):
    """Arguments outside the domain of a trimming primitive."""


class PlanError(TrimmingError):
    """A structural plan hypothesis failed on a grid."""


# --------------------------------------------------------------------------
# functions with summable reciprocals
# --------------------------------------------------------------------------

_FAMILIES = ("power", "polylog", "exponential")


class SummableFunction(Value):
    """Positive function u on the naturals with a convergent sum of 1/u(n).

    Membership is guaranteed analytically through the parameter domain of
    each family rather than by numeric summation, which could never decide
    convergence:

    - ``power``:       u(n) = n**rho,                 rho > 1
    - ``polylog``:     u(n) = n * log(n+1)**rho,      rho > 1
    - ``exponential``: u(n) = base**n,                base > 1
    """

    _fields = ("family", "param")

    def __init__(self, family: str, param: float):
        if family not in _FAMILIES:
            raise TrimmingError(f"unknown family {family!r}")
        if family in ("power", "polylog") and not param > 1.0:
            raise TrimmingError(
                f"{family} family needs an exponent > 1 for a summable "
                f"reciprocal, got {param}")
        if family == "exponential" and not param > 1.0:
            raise TrimmingError(f"exponential family needs base > 1, got {param}")
        self.__dict__.update(family=family, param=param)

    @classmethod
    def power(cls, rho: float) -> "SummableFunction":
        return cls("power", float(rho))

    def log_value(self, n: int | float) -> float:
        """log u(n), stable for arguments where u itself would overflow."""
        if n < 1:
            raise TrimmingError(f"argument must be at least 1, got {n}")
        if self.family == "power":
            return self.param * math.log(n)
        if self.family == "polylog":
            return math.log(n) + self.param * math.log(math.log(n + 1.0))
        return float(n) * math.log(self.param)


# --------------------------------------------------------------------------
# fluctuation allowance for exceedance counts
# --------------------------------------------------------------------------

def fluctuation_allowance(count: float, n: int, epsilon: float,
                          summable: SummableFunction) -> float:
    """Deviation allowance for the number of exceedances among n draws.

    Evaluates ``8 * max(count, L)**(1/2+eps) * L**(1/2-eps)`` with
    ``L = log(summable(floor(log n)))``.  Strictly increasing in ``count``
    above L, and never below ``8 * L``.

    Parameters
    ----------
    count : expected number of exceedances, nonnegative.
    n : sample size, at least 3 so that floor(log n) >= 1.
    epsilon : exponent split, in (0, 1/4); the plan's, checked there.
    summable : the weight function whose log enters the allowance.
    """
    if n < 3:
        raise TrimmingError(f"sample size must be at least 3, got {n}")
    if count < 0.0:
        raise TrimmingError(f"count must be nonnegative, got {count}")
    log_term = summable.log_value(math.floor(math.log(n)))
    if log_term < 0.0:
        raise TrimmingError(
            f"log weight {log_term} is negative at floor(log n) = "
            f"{math.floor(math.log(n))}; allowance undefined there")
    return 8.0 * max(count, log_term) ** (0.5 + epsilon) * log_term ** (0.5 - epsilon)


# --------------------------------------------------------------------------
# threshold rules: n -> t(n), reported as log t(n)
# --------------------------------------------------------------------------

class PowerThreshold(Value):
    """t(n) = coefficient * n**exponent."""

    _fields = ("exponent", "coefficient")

    def __init__(self, exponent: float, coefficient: float = 1.0):
        if not exponent > 0.0:
            raise TrimmingError(f"exponent must be positive, got {exponent}")
        if not coefficient > 0.0:
            raise TrimmingError(f"coefficient must be positive, got {coefficient}")
        self.__dict__.update(exponent=exponent, coefficient=coefficient)

    def log_threshold(self, plan: TrimmingPlan, n: int) -> float:
        return math.log(self.coefficient) + self.exponent * math.log(n)


class SquareStepThreshold(Value):
    """t(n) = 2**(K*K) with K = floor(n**(1/4 - epsilon/2)), epsilon the plan's.

    Matches the atoms of the built-in step law, so every threshold is a
    quantile fixed point there.
    """

    def log_threshold(self, plan: TrimmingPlan, n: int) -> float:
        k = math.floor(float(n) ** (0.25 - plan.epsilon / 2.0))
        if k < 1:
            raise TrimmingError(f"threshold index vanishes at n = {n}; start grids later")
        return (k * k) * _LN2


class ProjectedPowerThreshold(Value):
    """t(n) = the largest quantile fixed point of the law at or below
    n**exponent: the power target projected, in log space, onto the
    admissible thresholds."""

    _fields = ("exponent",)

    def __init__(self, exponent: float):
        if not exponent > 0.0:
            raise TrimmingError(f"exponent must be positive, got {exponent}")
        self.__dict__["exponent"] = exponent

    def log_threshold(self, plan: TrimmingPlan, n: int) -> float:
        return plan.distribution.log_fixed_point(self.exponent * math.log(n))


# --------------------------------------------------------------------------
# trim-count rules: (plan, n, expected strict exceedances) -> b(n) before ceiling
# --------------------------------------------------------------------------

def _fluctuation(epsilon: float, n: int, count: float, log_floor: bool) -> float:
    """max(count**(1/2+eps) * loglog(n)**(1/2-eps), floor), the floor log n
    with ``log_floor`` and loglog n without."""
    if n < 3:
        raise TrimmingError(f"sample size must be at least 3, got {n}")
    ll = math.log(math.log(n))
    return max(count ** (0.5 + epsilon) * ll ** (0.5 - epsilon),
               math.log(n) if log_floor else ll)


class StandardTrimRule(Value):
    """b(n) = ceil(a + 9 * max(a**(1/2+eps) * loglog(n)**(1/2-eps), loglog n)),
    epsilon the plan's.

    With ``log_floor`` the second slot of the max is log n instead of
    loglog n: the variant the proof uses.
    """

    _fields = ("log_floor",)

    def __init__(self, log_floor: bool = False):
        self.__dict__["log_floor"] = log_floor

    def raw_count(self, plan: TrimmingPlan, n: int, expect_gt: float) -> float:
        return expect_gt + 9.0 * _fluctuation(plan.epsilon, n, expect_gt, self.log_floor)


class AllowanceTrimRule(Value):
    """b(n) = ceil(a + fluctuation_allowance(a, n)) with the plan's epsilon
    and weight: the smallest trim the pointwise floor hypothesis admits."""

    def raw_count(self, plan: TrimmingPlan, n: int, expect_gt: float) -> float:
        return expect_gt + fluctuation_allowance(expect_gt, n, plan.epsilon, plan.summable)


# --------------------------------------------------------------------------
# plans
# --------------------------------------------------------------------------

class PlanPoint(NamedTuple):
    """The plan's values at one sample size; conditions derive theirs from these."""

    n: int
    log_threshold: float
    threshold: float          # float_at_log(log_threshold); inf beyond float range
    expect_gt: float          # n * P(X > t)
    expect_ge: float          # n * P(X >= t)
    log_scale: float          # log(n * truncated first moment at t)
    scale: float              # exp(log_scale); inf when beyond float range
    trim: int                 # trim count, clamped to [0, n]
    clamped: bool             # whether the clamp moved the trim count
    allowance_gt: float       # fluctuation allowance at expect_gt


class TrimmingPlan(Value):
    """Threshold rule, trim rule and weight functions bound to one law.

    Immutable; every evaluator is a pure function of ``n``, and construction
    evaluates none of them.  Its rules hold no ``epsilon`` and no weight:
    they take the plan and read both from it.  :func:`plan_standard` and
    :func:`plan_default` fill in the standard trim rule and weights; the
    structural hypotheses are judged by :func:`check_plan` on a table, never
    here.
    """

    _fields = ("distribution", "epsilon", "threshold_rule", "trim_rule", "summable",
               "summable_alt")

    def __init__(self, distribution: Distribution, epsilon: float, threshold_rule,
                 trim_rule, summable: SummableFunction, summable_alt: SummableFunction):
        if not 0.0 < epsilon < 0.25:
            raise PlanError(f"epsilon must lie in (0, 1/4), got {epsilon}")
        self.__dict__.update(distribution=distribution, epsilon=epsilon,
                             threshold_rule=threshold_rule, trim_rule=trim_rule,
                             summable=summable, summable_alt=summable_alt)

    def log_threshold(self, n: int) -> float:
        return self.threshold_rule.log_threshold(self, n)

    def checkpoint(self, n: int) -> PlanPoint:
        if n < 3:
            raise TrimmingError(f"sample size must be at least 3, got {n}")
        d = self.distribution
        log_t = self.log_threshold(n)
        expect_gt = n * d.survival_at_log(log_t)
        expect_ge = n * d.survival_left_at_log(log_t)
        log_scale = math.log(n) + d.log_truncated_moment(log_t)
        raw = self.trim_rule.raw_count(self, n, expect_gt)
        trim = math.ceil(raw)
        clamped = trim < 0 or trim > n
        trim = min(max(trim, 0), n)
        return PlanPoint(
            n=n,
            log_threshold=log_t,
            threshold=d.float_at_log(log_t),
            expect_gt=expect_gt,
            expect_ge=expect_ge,
            log_scale=log_scale,
            scale=exp_or_inf(log_scale),
            trim=trim,
            clamped=clamped,
            allowance_gt=fluctuation_allowance(expect_gt, n, self.epsilon, self.summable),
        )

    def table(self, grid: Sequence[int]) -> tuple[PlanPoint, ...]:
        return tuple(self.checkpoint(int(n)) for n in grid)


def geometric_grid(start: int, stop: int, points: int) -> tuple[int, ...]:
    """Strictly increasing integer grid, geometrically spaced."""
    if start < 3 or stop <= start or points < 2:
        raise TrimmingError("need 3 <= start < stop and at least 2 points")
    if stop > sys.float_info.max:  # inf too; an int beyond int64 needs a float
        raise TrimmingError("grid stop beyond the float range")
    raw = np.geomspace(start, float(stop), points)
    out: list[int] = []
    for v in raw:
        n = int(round(v))
        if not out or n > out[-1]:
            out.append(n)
    return tuple(out)


def check_plan(plan: TrimmingPlan, table: Sequence[PlanPoint]) -> tuple[str, ...]:
    """Check the structural hypotheses of ``plan`` on ``table`` (the checkpoints'
    or the condition grid's) and return the advisory warnings.  Raises
    :class:`PlanError` on a threshold off the law's quantile fixed points or
    decreasing, and on exceedance expectations out of order; the trim floor
    is not checked here but is the ``trim-floor`` condition of
    :func:`check_condition`."""
    if not table:
        return ()
    # a table's rows are floats, so its projection holds to rounding only
    tol = 1e-12 if isinstance(plan.distribution, Tabulated) else 0.0
    for p in table:
        fixed = plan.distribution.log_fixed_point(p.log_threshold)
        if not math.isclose(fixed, p.log_threshold, rel_tol=0.0, abs_tol=tol):
            raise PlanError(
                f"threshold at n = {p.n} is not a quantile fixed point of the law; "
                f"rule {plan.threshold_rule!r} is inadmissible there")
        if p.expect_gt > p.expect_ge:
            raise PlanError(f"exceedance expectations out of order at n = {p.n}")
    for p, q in zip(table, table[1:]):
        if q.log_threshold < p.log_threshold:
            raise PlanError(f"threshold decreases between n = {p.n} and n = {q.n}")
    # divergence heuristics are advisory: slow rules plateau on any desk grid;
    # each point is compared with the first one at least a decade on
    warnings: list[str] = []
    ns = [p.n for p in table]
    for i, p in enumerate(table):
        j = bisect_left(ns, 10 * p.n, i + 1)
        if j < len(table) and table[j].log_threshold <= p.log_threshold:
            warnings.append(f"threshold stalls between n = {p.n} and n = {table[j].n}; "
                            "divergence not visible on this grid")
    first, last = table[0], table[-1]
    ratio_first = first.trim / first.n
    ratio_last = last.trim / last.n
    if ratio_last >= 0.5 or ratio_last > ratio_first:
        warnings.append(
            f"trim fraction does not shrink on this grid "
            f"({ratio_first:.3g} at n = {first.n}, {ratio_last:.3g} at n = {last.n})")
    return tuple(dict.fromkeys(warnings))


def plan_standard(dist: Distribution, threshold_rule, epsilon: float) -> TrimmingPlan:
    """Plan with the explicit ceiling trim formula and fixed internal weights.

    The weight functions are pinned to power(9/8) for the allowance and
    power(2) for the limit cap; the caller chooses only the threshold rule
    and epsilon.  Thresholds off the law's quantile fixed points still
    build; :func:`check_plan` rejects them on a table, naming the offending n.
    """
    return TrimmingPlan(
        distribution=dist,
        epsilon=epsilon,
        threshold_rule=threshold_rule,
        trim_rule=StandardTrimRule(),
        summable=SummableFunction.power(9.0 / 8.0),
        summable_alt=SummableFunction.power(2.0),
    )


def plan_default(dist: Distribution, epsilon: float) -> TrimmingPlan:
    """Plan whose threshold projects n**(1/2 - 2 epsilon) onto the quantile
    fixed points of the law, so the fixed-point hypothesis holds by
    construction for any law."""
    return plan_standard(dist, ProjectedPowerThreshold(0.5 - 2.0 * epsilon), epsilon)


# --------------------------------------------------------------------------
# condition checking
# --------------------------------------------------------------------------

def _ratio(point: PlanPoint) -> float:
    """threshold / scale, finite even when both overflow floats."""
    return exp_or_inf(point.log_threshold - point.log_scale)


def _value_standard_limit(plan: TrimmingPlan, p: PlanPoint) -> float:
    return _ratio(p) * _fluctuation(plan.epsilon, p.n, p.expect_gt, log_floor=True)


def _margin(plan: TrimmingPlan, p: PlanPoint) -> float:
    """max(trim - expect_gt, trim - expect_ge + the allowance at expect_ge)."""
    allowance_ge = fluctuation_allowance(p.expect_ge, p.n, plan.epsilon, plan.summable)
    return max(p.trim - p.expect_gt, p.trim - p.expect_ge + allowance_ge)


def _value_margin_limit(plan: TrimmingPlan, p: PlanPoint) -> float:
    return _ratio(p) * max(_margin(plan, p), plan.summable_alt.log_value(p.n))


def _value_excess_limit(plan: TrimmingPlan, p: PlanPoint) -> float:
    return _ratio(p) * max(p.trim - p.expect_gt, plan.summable_alt.log_value(p.n))


def _value_truncation_limit(plan: TrimmingPlan, p: PlanPoint) -> float:
    # (t / truncated moment) * log(summable(n)) / n == ratio * log(summable(n))
    return _ratio(p) * plan.summable.log_value(p.n)


def _margin_trim_floor(plan: TrimmingPlan, p: PlanPoint) -> float:
    return p.trim - (p.expect_gt + p.allowance_gt)


def _margin_excess_floor(plan: TrimmingPlan, p: PlanPoint) -> float:
    return (p.trim - p.expect_gt) - p.allowance_gt


CONDITIONS: dict[str, tuple[str, Callable, str]] = {
    "standard-limit": (
        "limit", _value_standard_limit,
        "threshold-to-scale ratio times the exceedance fluctuation term"),
    "trim-floor": (
        "pointwise", _margin_trim_floor,
        "trim count minus expected strict exceedances and their allowance"),
    "margin-limit": (
        "limit", _value_margin_limit,
        "threshold-to-scale ratio times max(trim margin, log alt weight)"),
    "excess-floor": (
        "pointwise", _margin_excess_floor,
        "excess trim over expected exceedances minus the allowance"),
    "excess-limit": (
        "limit", _value_excess_limit,
        "threshold-to-scale ratio times max(excess trim, log alt weight)"),
    "truncation-limit": (
        "limit", _value_truncation_limit,
        "threshold-to-moment ratio times log weight, per sample"),
}


class ConditionReport(NamedTuple):
    """Grid evaluation of one plan hypothesis.

    ``verdict`` is "satisfied", "violated" or "inconclusive".  Pointwise
    hypotheses are violated by any negative margin; limit hypotheses are
    satisfied only when the final value sits below the tolerance and the
    fitted log-log slope over the last half of the grid is negative,
    and are never "violated", merely inconclusive.
    """

    condition: str
    kind: str
    grid: tuple[int, ...]
    values: tuple[float, ...]
    final_value: float
    trend: float
    tolerance: float
    verdict: str
    notes: tuple[str, ...] = ()


def _slope(grid: Sequence[int], values: Sequence[float], logs: bool) -> float:
    half = len(values) // 2
    xs = np.log(np.asarray(grid[half:], dtype=np.float64))
    ys = np.asarray(values[half:], dtype=np.float64)
    if logs:
        ys = np.log(ys)
    xs = xs - xs.mean()
    denom = float(np.dot(xs, xs))
    if denom == 0.0:
        return 0.0
    return float(np.dot(xs, ys - ys.mean()) / denom)


def check_condition_grid(grid: Sequence[int]) -> None:
    """Reject a grid that cannot carry an asymptotic verdict.

    A condition grid must be strictly increasing with at least 8 points
    spanning at least three decades; asymptotic statements judged on fewer
    points would be noise.
    """
    if len(grid) < 8:
        raise TrimmingError("condition grids need at least 8 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise TrimmingError("condition grids must be strictly increasing")
    if grid[-1] < 1000 * grid[0]:
        raise TrimmingError("condition grids must span at least three decades")


def check_condition(plan: TrimmingPlan, condition: str, table: Sequence[PlanPoint],
                    tolerance: float = 1e-2) -> ConditionReport:
    """Evaluate one hypothesis of the plan on its table and deliver a verdict.

    ``table`` is ``plan.table(grid)`` for a grid that passes
    :func:`check_condition_grid`.
    """
    if condition not in CONDITIONS:
        raise TrimmingError(f"unknown condition {condition!r}; "
                            f"known: {sorted(CONDITIONS)}")
    grid = tuple(p.n for p in table)
    check_condition_grid(grid)
    kind, fn, _ = CONDITIONS[condition]
    notes = [f"trim count clamped to [0, n] at n = {p.n}" for p in table if p.clamped]
    values = []
    degenerate = False
    for p in table:
        if kind == "limit" and p.log_scale == -math.inf:
            degenerate = True
            notes.append(f"scale vanishes at n = {p.n}; threshold below the support")
            values.append(math.inf)
            continue
        values.append(fn(plan, p))
    final = values[-1]
    if kind == "pointwise":
        trend = _slope(grid, values, logs=False)
        # a clamped trim count voids the hypothesis at that n; the clamp is
        # already flagged in the notes
        bad = [str(p.n) for p, v in zip(table, values) if v < 0.0 and not p.clamped]
        verdict = "violated" if bad else "satisfied"
        if bad:
            notes.append("floor fails at n in {" + ", ".join(bad) + "}")
    else:
        finite = all(math.isfinite(v) and v > 0.0 for v in values)
        if degenerate or not finite:
            verdict = "inconclusive"
            trend = math.nan
            if not degenerate:
                notes.append("non-finite or non-positive values on the grid")
        else:
            trend = _slope(grid, values, logs=True)
            verdict = ("satisfied"
                       if final < tolerance and trend < 0.0
                       else "inconclusive")
    return ConditionReport(
        condition=condition,
        kind=kind,
        grid=grid,
        values=tuple(values),
        final_value=final,
        trend=trend,
        tolerance=tolerance,
        verdict=verdict,
        notes=tuple(dict.fromkeys(notes)),
    )


def conditions_for_plan(plan: TrimmingPlan) -> tuple[str, ...]:
    """Conditions meaningfully checkable for this plan.

    The excess-trim pair assumes the law is eventually continuous; it is
    disabled for laws whose atoms persist arbitrarily high.
    """
    base = ("standard-limit", "trim-floor", "margin-limit", "truncation-limit")
    if not plan.distribution.atoms_persist:
        return base + ("excess-floor", "excess-limit")
    return base


# --------------------------------------------------------------------------
# summable deviation budget along a plan
# --------------------------------------------------------------------------

_LN10 = math.log(10.0)


def _relative_rate(kappa: float) -> float:
    """``3 kappa**2 / (6 + 2 kappa)``: the Bernstein exponent per unit of
    d(n) / t(n) at relative deviation kappa."""
    if not kappa > 0.0:
        raise TrimmingError(f"relative deviation must be positive, got {kappa}")
    return 3.0 * kappa * kappa / (6.0 + 2.0 * kappa)


class BudgetRow(NamedTuple):
    n: int
    exponent_arg: float       # (3 eps^2 / (6 + 2 eps)) * scale(n) / threshold(n)
    log10_summand: float
    partial_sum: float


def borel_cantelli_budget(eps: float, table: Sequence[PlanPoint]) -> tuple[BudgetRow, ...]:
    """Deviation budget making truncated-sum deviations summable.

    For each point of ``table`` (a plan's ``table(grid)``) tabulates the
    exponent argument ``(3 eps^2/(6+2 eps)) * d(n)/t(n)`` in log space, the
    log10 of the summand ``exp(-arg)`` and the running partial sum.  Twice
    the summand is Bernstein's maximal bound on a truncated-sum deviation of
    ``eps * d(n)``, with variance total ``t(n) d(n)`` and amplitude ``t(n)``.
    """
    coef = _relative_rate(eps)
    rows, running = [], 0.0
    for p in table:
        arg = coef * math.exp(min(p.log_scale - p.log_threshold, 700.0))
        running += math.exp(-arg) if arg < 745.0 else 0.0
        rows.append(BudgetRow(p.n, arg, -arg / _LN10, running))
    return tuple(rows)
