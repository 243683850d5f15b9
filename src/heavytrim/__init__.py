"""Trimmed-sum strong law toolkit for heavy-tailed i.i.d. samples.

Builds the deterministic machinery around intermediately trimmed sums of
nonnegative laws with infinite mean: exact distribution functionals,
trimming plans with numeric hypothesis checkers, concentration bounds
with a summable deviation budget, and seeded single-path Monte Carlo
demonstrating that the trimmed sum over its scale settles at one while
the raw sum does not.
"""

__version__ = "0.1.0"

from .distributions import (Distribution, DistributionError, LogTail, ParetoTail,
                            SquareStep, Tabulated)
from .trimming import (AllowanceTrimRule, ConditionReport, PlanError,
                       PowerThreshold, ProjectedPowerThreshold,
                       SquareStepThreshold, StandardTrimRule, SummableFunction,
                       TrimmingError, TrimmingPlan, check_condition,
                       fluctuation_allowance, format_condition_report,
                       geometric_grid, plan_default, plan_standard)
from .bounds import (BoundsError, ProbabilityBound, bernstein_relative,
                     borel_cantelli_budget)
from .montecarlo import (ConvergenceTrace, ExperimentConfig, MonteCarloError,
                         aggregate, exceedance_counts, run_replication, simulate,
                         trimmed_sum, truncated_sum)

__all__ = [name for name in dir() if not name.startswith("_")]
