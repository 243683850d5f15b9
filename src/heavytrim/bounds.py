"""Concentration bounds for bounded sums and the summable deviation budget.

The relative Bernstein bound is evaluated in log space so that exponents
in the tens of thousands survive; reports carry log10 of the bound.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .distributions import Value
from .trimming import PlanPoint

__all__ = [
    "ProbabilityBound",
    "bernstein_relative",
    "BudgetRow",
    "BudgetTable",
    "borel_cantelli_budget",
    "BoundsError",
]

_LN10 = math.log(10.0)


class BoundsError(ValueError):
    """Arguments outside the domain of a bound."""


class ProbabilityBound(Value):
    """A probability bound stored as the natural log of its raw value.

    ``raw`` may exceed 1 (a vacuous bound); ``log10`` stays finite far
    below the smallest positive float.
    """

    _fields = ("log_value",)

    def __init__(self, log_value: float):
        self.__dict__["log_value"] = log_value

    @property
    def raw(self) -> float:
        return math.exp(self.log_value)

    @property
    def log10(self) -> float:
        return self.log_value / _LN10


def _relative_rate(kappa: float) -> float:
    """``3 kappa**2 / (6 + 2 kappa)``: the Bernstein exponent per unit of
    mean_total / upper at relative deviation kappa."""
    if not kappa > 0.0:
        raise BoundsError(f"relative deviation must be positive, got {kappa}")
    return 3.0 * kappa * kappa / (6.0 + 2.0 * kappa)


def bernstein_relative(kappa: float, mean_total: float, upper: float) -> ProbabilityBound:
    """Bound on P(max over prefixes of |sum - mean| >= kappa * mean_total)
    for i.i.d. nonnegative summands bounded by ``upper``.

    Evaluates ``2 exp(-(3 kappa**2 / (6 + 2 kappa)) * mean_total / upper)``:
    Bernstein's maximal inequality ``2 exp(-t**2 / (2 V + (2/3) M t))`` at
    deviation ``t = kappa * mean_total``, variance total
    ``V = upper * mean_total`` and amplitude ``M = upper``.
    """
    coef = _relative_rate(kappa)
    if not mean_total > 0.0:
        raise BoundsError(f"mean_total must be positive, got {mean_total}")
    if not upper > 0.0:
        raise BoundsError(f"upper must be positive, got {upper}")
    return ProbabilityBound(math.log(2.0) - coef * mean_total / upper)


# --------------------------------------------------------------------------
# summable deviation budget along a plan
# --------------------------------------------------------------------------

class BudgetRow(NamedTuple):
    n: int
    exponent_arg: float       # (3 eps^2 / (6 + 2 eps)) * scale(n) / threshold(n)
    log10_summand: float
    partial_sum: float


class BudgetTable(NamedTuple):
    epsilon: float
    rows: tuple[BudgetRow, ...]

    def csv_rows(self):
        yield ("n", "exponent_arg", "log10_summand", "partial_sum")
        for r in self.rows:
            yield (r.n, repr(r.exponent_arg), repr(r.log10_summand), repr(r.partial_sum))


def borel_cantelli_budget(eps: float, table: Sequence[PlanPoint]) -> BudgetTable:
    """Deviation budget making truncated-sum deviations summable.

    For each point of ``table`` (a plan's ``table(grid)``) tabulates the
    exponent argument ``(3 eps^2/(6+2 eps)) * d(n)/t(n)``, the log10 of
    the resulting summand ``exp(-arg)`` and the running partial sum.
    """
    coef = _relative_rate(eps)
    rows = []
    running = 0.0
    for p in table:
        arg = coef * math.exp(min(p.log_scale - p.log_threshold, 700.0))
        summand = math.exp(-arg) if arg < 745.0 else 0.0
        running += summand
        rows.append(BudgetRow(
            n=p.n,
            exponent_arg=arg,
            log10_summand=-arg / _LN10,
            partial_sum=running,
        ))
    return BudgetTable(epsilon=eps, rows=tuple(rows))
