"""Trimmed-sum strong law toolkit for heavy-tailed i.i.d. samples.

Builds the deterministic machinery around intermediately trimmed sums of
nonnegative laws with infinite mean: exact distribution functionals,
trimming plans with numeric hypothesis checkers and a summable Bernstein
deviation budget, and seeded single-path Monte Carlo demonstrating that
the trimmed sum over its scale settles at one while the raw sum does not.
"""

__version__ = "0.1.0"

from .distributions import (Distribution, DistributionError, LogTail, ParetoTail,
                            SquareStep, Tabulated)
from .trimming import (AllowanceTrimRule, ConditionReport, PlanError,
                       PowerThreshold, ProjectedPowerThreshold,
                       SquareStepThreshold, StandardTrimRule, SummableFunction,
                       TrimmingError, TrimmingPlan, borel_cantelli_budget,
                       check_condition, fluctuation_allowance, geometric_grid,
                       plan_default, plan_standard)
from .montecarlo import (RATIO_QUANTILES, ConvergenceTrace, ExperimentConfig,
                         MonteCarloError, aggregate, exceedance_counts,
                         run_replication, simulate, trimmed_sum, truncated_sum)

__all__ = [name for name in dir() if not name.startswith("_")]
